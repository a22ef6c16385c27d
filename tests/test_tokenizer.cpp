#include "tok/tokenizer.hpp"

#include <gtest/gtest.h>

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
