#include "tok/tokenizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "tok/bpe.hpp"
#include "tok/pretokenize.hpp"
#include "util/rng.hpp"

namespace lmpeel::tok {
namespace {

TEST(Vocab, BaseLayout) {
  Vocab vocab;
  // specials + 256 bytes + 100 two-digit + 1000 three-digit tokens
  EXPECT_EQ(vocab.size(), kNumSpecial + 256 + 1100);
  EXPECT_EQ(vocab.text(kBos), "<|bos|>");
  EXPECT_EQ(vocab.text(vocab.byte_token('A')), "A");
  EXPECT_EQ(vocab.text(vocab.number_token("007")), "007");
  EXPECT_EQ(vocab.text(vocab.number_token("42")), "42");
  // single digits resolve to byte tokens
  EXPECT_EQ(vocab.number_token("5"), vocab.byte_token('5'));
}

TEST(Vocab, NumberPredicates) {
  Vocab vocab;
  EXPECT_TRUE(vocab.is_number(vocab.number_token("123")));
  EXPECT_TRUE(vocab.is_number(vocab.byte_token('7')));
  EXPECT_FALSE(vocab.is_number(vocab.byte_token('a')));
  EXPECT_TRUE(vocab.is_dot(vocab.byte_token('.')));
  EXPECT_FALSE(vocab.is_dot(vocab.byte_token(',')));
}

TEST(Vocab, ArithmeticNumberTokenMatchesLookup) {
  Vocab vocab;
  int groups = 0;
  for (int len = 1; len <= 3; ++len) {
    const int count = len == 1 ? 10 : (len == 2 ? 100 : 1000);
    for (int value = 0; value < count; ++value) {
      std::string text = std::to_string(value);
      text.insert(0, static_cast<std::size_t>(len) - text.size(), '0');
      const auto found = vocab.find(text);
      ASSERT_TRUE(found.has_value()) << text;
      EXPECT_EQ(vocab.number_token(len, value), *found) << text;
      EXPECT_EQ(vocab.number_token(text), *found) << text;
      ++groups;
    }
  }
  EXPECT_EQ(groups, 1110);
}

TEST(Vocab, NumberTokenRejectsOutOfRange) {
  Vocab vocab;
  EXPECT_THROW(vocab.number_token(0, 0), std::runtime_error);
  EXPECT_THROW(vocab.number_token(4, 0), std::runtime_error);
  EXPECT_THROW(vocab.number_token(1, 10), std::runtime_error);
  EXPECT_THROW(vocab.number_token(2, 100), std::runtime_error);
  EXPECT_THROW(vocab.number_token(3, 1000), std::runtime_error);
  EXPECT_THROW(vocab.number_token(3, -1), std::runtime_error);
  EXPECT_THROW(vocab.number_token("1234"), std::runtime_error);
  EXPECT_THROW(vocab.number_token("1a"), std::runtime_error);
  EXPECT_THROW(vocab.number_token(""), std::runtime_error);
}

TEST(Pretokenize, SplitsKinds) {
  const auto pieces = pretokenize("tile is 128, ok.");
  ASSERT_GE(pieces.size(), 6u);
  EXPECT_EQ(pieces[0].kind, PieceKind::Word);
  EXPECT_EQ(pieces[0].text, "tile");
  // digits are their own piece
  bool found_digits = false;
  for (const auto& p : pieces) {
    if (p.kind == PieceKind::Digits) {
      EXPECT_EQ(p.text, "128");
      found_digits = true;
    }
  }
  EXPECT_TRUE(found_digits);
}

TEST(Pretokenize, LeadingSpaceGluesToWord) {
  const auto pieces = pretokenize("a b");
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0].text, "a");
  EXPECT_EQ(pieces[1].text, " b");
}

TEST(ChunkDigits, LlamaStyleLeftToRight) {
  EXPECT_EQ(chunk_digits("0022155"),
            (std::vector<std::string>{"002", "215", "5"}));
  EXPECT_EQ(chunk_digits("1"), (std::vector<std::string>{"1"}));
  EXPECT_EQ(chunk_digits("1234"), (std::vector<std::string>{"123", "4"}));
  EXPECT_EQ(chunk_digits("123456"),
            (std::vector<std::string>{"123", "456"}));
}

TEST(Tokenizer, PaperValueTokenisesAsTableII) {
  // "0.0022155" must become exactly ["0", ".", "002", "215", "5"] — the
  // token structure Table II's per-position analysis is built on.
  Tokenizer tz;
  const auto ids = tz.encode("0.0022155");
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_EQ(tz.token_text(ids[0]), "0");
  EXPECT_EQ(tz.token_text(ids[1]), ".");
  EXPECT_EQ(tz.token_text(ids[2]), "002");
  EXPECT_EQ(tz.token_text(ids[3]), "215");
  EXPECT_EQ(tz.token_text(ids[4]), "5");
}

TEST(Tokenizer, RoundTripWithoutBpe) {
  Tokenizer tz;
  const std::string text = "Performance: 0.0022155\nsize is SM, tile 128!";
  EXPECT_EQ(tz.decode(tz.encode(text)), text);
}

TEST(Tokenizer, RoundTripWithBpe) {
  Tokenizer tz;
  tz.train_bpe(
      "Performance Performance Performance configuration configuration "
      "tiling tiling factor factor packed packed packed", 50);
  EXPECT_GT(tz.vocab_size(), kNumSpecial + 256 + 1100);
  const std::string text =
      "Hyperparameter configuration: tiling factor is 64, packed is True\n"
      "Performance: 1.2345\n";
  EXPECT_EQ(tz.decode(tz.encode(text)), text);
}

TEST(Tokenizer, BpeShortensEncodings) {
  Tokenizer plain, trained;
  std::string corpus;
  for (int i = 0; i < 10; ++i) corpus += "configuration ";
  trained.train_bpe(corpus, 100);
  const std::string text = "configuration configuration";
  EXPECT_LT(trained.encode(text).size(), plain.encode(text).size());
}

TEST(Tokenizer, SpecialsDecodeToNothing) {
  Tokenizer tz;
  std::vector<int> ids{kBos, kSystem};
  const auto body = tz.encode("hi");
  ids.insert(ids.end(), body.begin(), body.end());
  ids.push_back(kEos);
  EXPECT_EQ(tz.decode(ids), "hi");
}

// ---- BPE trainer vs the text-keyed recount it replaced -------------------

/// The pre-incremental trainer, copied verbatim in substance: every round
/// recounts all adjacent pairs in std::maps keyed by the pairs' token texts
/// and takes the highest count, ties to the lexicographically smaller text
/// pair.  Returns its merges as (left, right, result) ids.
std::vector<std::tuple<int, int, int>> legacy_bpe_train(
    const std::string& corpus, Vocab& vocab, std::size_t max_merges,
    std::size_t min_frequency) {
  std::unordered_map<std::string, std::size_t> word_counts;
  for (const Piece& piece : pretokenize(corpus)) {
    if (piece.kind == PieceKind::Word) ++word_counts[piece.text];
  }
  struct WordState {
    std::vector<int> tokens;
    std::size_t count;
  };
  std::vector<WordState> words;
  for (const auto& [text, count] : word_counts) {
    WordState w;
    w.count = count;
    for (const char c : text) {
      w.tokens.push_back(vocab.byte_token(static_cast<unsigned char>(c)));
    }
    words.push_back(std::move(w));
  }
  std::sort(words.begin(), words.end(),
            [](const WordState& a, const WordState& b) {
              return a.tokens < b.tokens;
            });
  std::vector<std::tuple<int, int, int>> merges;
  for (std::size_t round = 0; round < max_merges; ++round) {
    std::map<std::pair<std::string, std::string>, std::size_t> pair_counts;
    std::map<std::pair<std::string, std::string>, std::pair<int, int>> ids;
    for (const WordState& w : words) {
      for (std::size_t i = 0; i + 1 < w.tokens.size(); ++i) {
        const auto key = std::make_pair(vocab.text(w.tokens[i]),
                                        vocab.text(w.tokens[i + 1]));
        pair_counts[key] += w.count;
        ids[key] = {w.tokens[i], w.tokens[i + 1]};
      }
    }
    if (pair_counts.empty()) break;
    const auto best = std::max_element(
        pair_counts.begin(), pair_counts.end(),
        [](const auto& a, const auto& b) {
          if (a.second != b.second) return a.second < b.second;
          return a.first > b.first;
        });
    if (best->second < min_frequency) break;
    const auto [left, right] = ids[best->first];
    const std::string merged_text = best->first.first + best->first.second;
    if (vocab.find(merged_text).has_value()) break;
    const int merged = vocab.add(merged_text);
    merges.emplace_back(left, right, merged);
    for (WordState& w : words) {
      std::vector<int>& t = w.tokens;
      std::size_t out = 0;
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i + 1 < t.size() && t[i] == left && t[i + 1] == right) {
          t[out++] = merged;
          ++i;
        } else {
          t[out++] = t[i];
        }
      }
      t.resize(out);
    }
  }
  return merges;
}

void expect_same_training(const std::string& corpus, std::size_t max_merges,
                          std::size_t min_frequency = 2) {
  Vocab legacy_vocab, vocab;
  const auto want =
      legacy_bpe_train(corpus, legacy_vocab, max_merges, min_frequency);
  Bpe bpe;
  bpe.train(corpus, vocab, max_merges, min_frequency);
  std::vector<std::tuple<int, int, int>> got;
  for (const Merge& m : bpe.merges()) got.emplace_back(m.left, m.right, m.result);
  EXPECT_EQ(got, want);
  ASSERT_EQ(vocab.size(), legacy_vocab.size());
  for (int id = 0; id < vocab.size(); ++id) {
    EXPECT_EQ(vocab.text(id), legacy_vocab.text(id)) << "id " << id;
  }
}

TEST(BpeTrain, MatchesTextKeyedRecountOnPipelineCorpora) {
  for (const std::uint64_t seed : {42u, 1u, 7u, 23u, 1234u}) {
    core::PipelineConfig config;
    config.dataset_seed = seed;
    SCOPED_TRACE(seed);
    expect_same_training(core::Pipeline::bpe_corpus(config),
                         config.bpe_merges);
  }
}

TEST(BpeTrain, MatchesTextKeyedRecountOnTestCorpora) {
  expect_same_training(
      "Performance Performance Performance configuration configuration "
      "tiling tiling factor factor packed packed packed", 50);
  std::string repeated;
  for (int i = 0; i < 10; ++i) repeated += "configuration ";
  expect_same_training(repeated, 100);
  expect_same_training("the quick brown fox jumps over the lazy dog "
                       "the quick brown fox", 30);
  expect_same_training("the quick brown fox", 30, /*min_frequency=*/1);
}

TEST(BpeTrain, MatchesTextKeyedRecountOnTieHeavyCorpus) {
  // Every word occurs equally often and many pairs share a count, so
  // nearly every round is decided by the text tie-break; overlapping runs
  // ("aaaa") exercise the left-to-right merge of repeated pairs.
  util::Rng rng(99);
  std::string corpus;
  for (int w = 0; w < 60; ++w) {
    std::string word;
    const auto len = rng.uniform_int(2, 7);
    for (int c = 0; c < len; ++c) {
      word += static_cast<char>('a' + rng.uniform_int(0, 3));
    }
    corpus += word + " " + word + " ";
  }
  corpus += "aaaa aaaa bbbbbb bbbbbb abab abab baba baba";
  expect_same_training(corpus, 200);
  expect_same_training(corpus, 200, /*min_frequency=*/1);
}

// Property sweep: encode/decode must round-trip arbitrary printable ASCII.
class TokenizerRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TokenizerRoundTrip, RandomPrintableAscii) {
  util::Rng rng(GetParam());
  Tokenizer tz;
  tz.train_bpe("the quick brown fox jumps over the lazy dog "
               "the quick brown fox", 30);
  std::string text;
  const auto len = static_cast<std::size_t>(rng.uniform_int(0, 200));
  for (std::size_t i = 0; i < len; ++i) {
    text += static_cast<char>(rng.uniform_int(32, 126));
  }
  EXPECT_EQ(tz.decode(tz.encode(text)), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenizerRoundTrip,
                         ::testing::Range<std::uint64_t>(0, 16));

// Digit runs of every length from 1 to 12 chunk reversibly.
class DigitRunLength : public ::testing::TestWithParam<int> {};

TEST_P(DigitRunLength, RoundTripsAndChunksBy3) {
  Tokenizer tz;
  std::string digits;
  for (int i = 0; i < GetParam(); ++i) {
    digits += static_cast<char>('0' + (i * 7 + 1) % 10);
  }
  const auto ids = tz.encode(digits);
  EXPECT_EQ(ids.size(), (digits.size() + 2) / 3);
  EXPECT_EQ(tz.decode(ids), digits);
}

INSTANTIATE_TEST_SUITE_P(Lengths, DigitRunLength, ::testing::Range(1, 13));

}  // namespace
}  // namespace lmpeel::tok
