#include "tok/bpe.hpp"

#include <algorithm>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>

#include "tok/pretokenize.hpp"
#include "util/check.hpp"

namespace lmpeel::tok {

void Bpe::train(const std::string& corpus, Vocab& vocab,
                std::size_t max_merges, std::size_t min_frequency) {
  merges_.clear();
  rank_.clear();

  // Collect unique word pieces with multiplicity.
  std::unordered_map<std::string, std::size_t> word_counts;
  for (const Piece& piece : pretokenize(corpus)) {
    if (piece.kind == PieceKind::Word) ++word_counts[piece.text];
  }

  struct WordState {
    std::vector<int> tokens;
    std::size_t count;
  };
  std::vector<WordState> words;
  words.reserve(word_counts.size());
  for (const auto& [text, count] : word_counts) {
    WordState w;
    w.count = count;
    w.tokens.reserve(text.size());
    for (const char c : text) {
      w.tokens.push_back(vocab.byte_token(static_cast<unsigned char>(c)));
    }
    words.push_back(std::move(w));
  }
  // Deterministic iteration order regardless of hash-map layout.
  std::sort(words.begin(), words.end(),
            [&](const WordState& a, const WordState& b) {
              return a.tokens < b.tokens;
            });

  // Adjacent-pair counts keyed by pair_key, updated incrementally: a merge
  // only changes the words that contain its pair.  Token texts are unique
  // per id, so an id pair stands for exactly one text pair; texts are
  // compared only to break count ties, which keeps the merge list that of
  // a (text pair)-ordered recount.
  std::unordered_map<std::uint64_t, std::size_t> pair_counts;
  const auto add_pairs = [&](const WordState& w) {
    for (std::size_t i = 0; i + 1 < w.tokens.size(); ++i) {
      pair_counts[pair_key(w.tokens[i], w.tokens[i + 1])] += w.count;
    }
  };
  const auto remove_pairs = [&](const WordState& w) {
    for (std::size_t i = 0; i + 1 < w.tokens.size(); ++i) {
      const auto it = pair_counts.find(pair_key(w.tokens[i], w.tokens[i + 1]));
      it->second -= w.count;
      if (it->second == 0) pair_counts.erase(it);
    }
  };
  for (const WordState& w : words) add_pairs(w);

  const auto left_of = [](std::uint64_t key) {
    return static_cast<int>(static_cast<std::uint32_t>(key >> 32));
  };
  const auto right_of = [](std::uint64_t key) {
    return static_cast<int>(static_cast<std::uint32_t>(key));
  };
  for (std::size_t round = 0; round < max_merges; ++round) {
    if (pair_counts.empty()) break;
    // Highest count wins; ties go to the lexicographically smaller
    // (left text, right text) pair.
    auto best = pair_counts.begin();
    for (auto it = std::next(best); it != pair_counts.end(); ++it) {
      if (it->second != best->second) {
        if (it->second > best->second) best = it;
        continue;
      }
      const std::string& left = vocab.text(left_of(it->first));
      const std::string& best_left = vocab.text(left_of(best->first));
      const int order = left.compare(best_left);
      if (order < 0 ||
          (order == 0 && vocab.text(right_of(it->first)) <
                             vocab.text(right_of(best->first)))) {
        best = it;
      }
    }
    if (best->second < min_frequency) break;

    const int left = left_of(best->first);
    const int right = right_of(best->first);
    const std::string merged_text = vocab.text(left) + vocab.text(right);
    // Stop training if the merged text collides with an existing token
    // (e.g. a special token); extremely unlikely for letter sequences but
    // cheap to guard.
    if (vocab.find(merged_text).has_value()) break;
    const int merged = vocab.add(merged_text);

    Merge merge{left, right, merged};
    rank_.emplace(pair_key(left, right), merges_.size());
    merges_.push_back(merge);

    // Apply the merge to every word that contains the pair.
    for (WordState& w : words) {
      std::vector<int>& t = w.tokens;
      std::size_t i = 0;
      while (i + 1 < t.size() && !(t[i] == left && t[i + 1] == right)) ++i;
      if (i + 1 >= t.size()) continue;
      remove_pairs(w);
      std::size_t out = i;
      for (; i < t.size(); ++i) {
        if (i + 1 < t.size() && t[i] == left && t[i + 1] == right) {
          t[out++] = merged;
          ++i;
        } else {
          t[out++] = t[i];
        }
      }
      t.resize(out);
      add_pairs(w);
    }
  }
}

void Bpe::save(std::ostream& out, const Vocab& vocab) const {
  // Merged tokens only ever contain letters, underscores and interior
  // spaces (words come from the pretokenizer), so a TAB separator is
  // unambiguous.
  for (const Merge& merge : merges_) {
    out << vocab.text(merge.left) << '\t' << vocab.text(merge.right) << '\n';
  }
}

void Bpe::load(std::istream& in, Vocab& vocab) {
  merges_.clear();
  rank_.clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t tab = line.find('\t');
    LMPEEL_CHECK_MSG(tab != std::string::npos, "malformed merge line");
    const std::string left_text = line.substr(0, tab);
    const std::string right_text = line.substr(tab + 1);
    const auto left = vocab.find(left_text);
    const auto right = vocab.find(right_text);
    LMPEEL_CHECK_MSG(left.has_value() && right.has_value(),
                     "merge references unknown token: " + line);
    const std::string merged_text = left_text + right_text;
    const auto existing = vocab.find(merged_text);
    const int merged =
        existing.has_value() ? *existing : vocab.add(merged_text);
    rank_.emplace(pair_key(*left, *right), merges_.size());
    merges_.push_back({*left, *right, merged});
  }
}

std::vector<int> Bpe::encode_word(std::string_view word,
                                  const Vocab& vocab) const {
  std::vector<int> tokens;
  tokens.reserve(word.size());
  for (const char c : word) {
    tokens.push_back(vocab.byte_token(static_cast<unsigned char>(c)));
  }
  if (merges_.empty()) return tokens;

  // Greedy BPE: repeatedly apply the lowest-rank (earliest learned)
  // applicable merge until none applies.
  for (;;) {
    std::size_t best_rank = std::numeric_limits<std::size_t>::max();
    std::size_t best_pos = 0;
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      const auto it = rank_.find(pair_key(tokens[i], tokens[i + 1]));
      if (it != rank_.end() && it->second < best_rank) {
        best_rank = it->second;
        best_pos = i;
      }
    }
    if (best_rank == std::numeric_limits<std::size_t>::max()) break;
    tokens[best_pos] = merges_[best_rank].result;
    tokens.erase(tokens.begin() + best_pos + 1);
  }
  return tokens;
}

}  // namespace lmpeel::tok
