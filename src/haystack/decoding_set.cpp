#include "haystack/decoding_set.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <string>
#include <utility>

#include "util/check.hpp"
#include "util/str.hpp"

namespace lmpeel::haystack {

CumulativeTable::CumulativeTable(std::span<const double> weights) {
  LMPEEL_CHECK(!weights.empty());
  cdf_.reserve(weights.size());
  double total = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    LMPEEL_CHECK_MSG(std::isfinite(weights[i]) && weights[i] >= 0.0,
                     "categorical weight must be finite and >= 0");
    if (weights[i] > 0.0) last_nonzero_ = i;
    total += weights[i];
    cdf_.push_back(total);
  }
  LMPEEL_CHECK_MSG(total > 0.0, "all categorical weights are zero");
  // K equal-width buckets over [0, total); guide_[j] is the first index
  // whose running sum exceeds bucket j's lower edge.
  const std::size_t k = cdf_.size();
  bucket_scale_ = static_cast<double>(k) / total;
  guide_.resize(k);
  std::size_t i = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const double edge = static_cast<double>(j) / bucket_scale_;
    while (i < k && cdf_[i] <= edge) ++i;
    guide_[j] = static_cast<std::uint32_t>(i);
  }
}

std::size_t CumulativeTable::draw(util::Rng& rng) const {
  // cdf_.back() is the same sequential sum Rng::categorical uses as its
  // total, so r is bit-identical to the linear scan's starting point.
  const double r = rng.uniform() * cdf_.back();
  const std::size_t k = cdf_.size();
  const double x = r * bucket_scale_;
  std::size_t i = guide_[x < static_cast<double>(k)
                             ? static_cast<std::size_t>(x)
                             : k - 1];
  // The guide is only a starting point: if rounding put r below it, search
  // from the front.  Either way i ends as upper_bound(r) — the first index
  // whose running sum exceeds r — because the sums never decrease.
  if (i > 0 && cdf_[i - 1] > r) {
    i = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), r) - cdf_.begin());
  }
  while (i < k && cdf_[i] <= r) ++i;
  // Rounding can leave r at the total; fall back as the scan does.
  return i == k ? last_nonzero_ : i;
}

void DecimalLiteral::push_digits(int count, std::uint64_t value) noexcept {
  // 10^0 .. 10^19, the powers of ten below 2^64.
  static constexpr std::uint64_t kPow10[] = {
      1ULL,
      10ULL,
      100ULL,
      1000ULL,
      10000ULL,
      100000ULL,
      1000000ULL,
      10000000ULL,
      100000000ULL,
      1000000000ULL,
      10000000000ULL,
      100000000000ULL,
      1000000000000ULL,
      10000000000000ULL,
      100000000000000ULL,
      1000000000000000ULL,
      10000000000000000ULL,
      100000000000000000ULL,
      1000000000000000000ULL,
      10000000000000000000ULL};
  empty_ = false;
  ends_with_dot_ = false;
  if (dots_ > 0) fraction_digits_ += static_cast<std::uint32_t>(count);
  if (long_mantissa_) return;
  std::uint64_t mantissa = 0;
  if (count > 19 ||
      __builtin_mul_overflow(mantissa_, kPow10[count], &mantissa) ||
      __builtin_add_overflow(mantissa, value, &mantissa) ||
      mantissa >= (1ULL << 53)) {
    long_mantissa_ = true;
    return;
  }
  mantissa_ = mantissa;
}

void DecimalLiteral::push_dot() noexcept {
  if (empty_) starts_with_dot_ = true;
  empty_ = false;
  ends_with_dot_ = true;
  ++dots_;
}

std::optional<double> DecimalLiteral::value() const noexcept {
  // 10^0 .. 10^22, the powers of ten that are exact doubles.
  static constexpr double kPow10[] = {
      1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
      1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
  if (long_mantissa_ || fraction_digits_ > 22) return std::nullopt;
  return static_cast<double>(mantissa_) / kPow10[fraction_digits_];
}

namespace {

bool is_value_token(const tok::Tokenizer& tokenizer, int id) {
  return tokenizer.is_number_token(id) || tokenizer.is_dot_token(id);
}

/// What one candidate token does to a literal: append a digit group,
/// append the dot, or end the value.
struct Piece {
  enum class Kind : std::uint8_t { Digits, Dot, End };
  std::uint64_t value = 0;  ///< the group's value (when count <= 19)
  int token = -1;
  /// Digits in the group, capped at 20: a longer group sends the literal
  /// to from_chars all the same.
  std::uint8_t count = 0;
  Kind kind = Kind::End;
};

Piece piece_of(const tok::Tokenizer& tokenizer, int token) {
  Piece piece;
  piece.token = token;
  if (tokenizer.is_dot_token(token)) {
    piece.kind = Piece::Kind::Dot;
  } else if (tokenizer.is_number_token(token)) {
    const std::string& text = tokenizer.token_text(token);
    piece.kind = Piece::Kind::Digits;
    piece.count =
        static_cast<std::uint8_t>(std::min<std::size_t>(text.size(), 20));
    if (piece.count <= 19) {
      for (const char c : text) piece.value = piece.value * 10 + (c - '0');
    }
  }
  return piece;
}

void push(DecimalLiteral& literal, const Piece& piece) {
  if (piece.kind == Piece::Kind::Dot) {
    literal.push_dot();
  } else {
    literal.push_digits(piece.count, piece.value);
  }
}

/// The value of a well-formed literal whose pieces are `path`: the exact
/// division when it applies, otherwise from_chars on the text.
std::optional<double> literal_value(const DecimalLiteral& literal,
                                    std::span<const Piece* const> path,
                                    const tok::Tokenizer& tokenizer) {
  if (const auto v = literal.value()) return v;
  std::string text;
  for (const Piece* piece : path) text += tokenizer.token_text(piece->token);
  return util::parse_double(text);
}

/// Stable sort by value.  Values are finite and >= 0, so their bit
/// patterns order as the values do: an LSD radix sort over the 64-bit
/// patterns, a byte per pass, skipping each byte that every item shares.
/// Items with equal values keep their order.
template <typename T, typename ValueOf>
void sort_by_value(std::vector<T>& items, ValueOf value_of) {
  const std::size_t n = items.size();
  if (n < 2) return;
  const auto key = [&](const T& item) {
    return std::bit_cast<std::uint64_t>(value_of(item));
  };
  std::array<std::array<std::size_t, 256>, 8> counts{};
  for (const T& item : items) {
    const std::uint64_t k = key(item);
    for (int b = 0; b < 8; ++b) ++counts[b][(k >> (8 * b)) & 0xff];
  }
  std::vector<T> buffer(n);
  for (int b = 0; b < 8; ++b) {
    if (counts[b][(key(items.front()) >> (8 * b)) & 0xff] == n) continue;
    std::size_t offset = 0;
    for (std::size_t& c : counts[b]) offset += std::exchange(c, offset);
    for (const T& item : items) {
      buffer[counts[b][(key(item) >> (8 * b)) & 0xff]++] = item;
    }
    items.swap(buffer);
  }
}

/// One step's candidates, classified, with probabilities renormalised over
/// the recorded (selectable) support.
struct StepCands {
  std::vector<Piece> pieces;
  std::vector<double> probs;
};

/// Depth-first enumeration of every reachable path with its running
/// probability.  Returns one (value, weight) leaf per well-formed path, in
/// visiting order.
class ExactEnumeration {
 public:
  ExactEnumeration(const std::vector<StepCands>& steps,
                   const tok::Tokenizer& tokenizer)
      : steps_(steps), tokenizer_(tokenizer), path_(steps.size()) {}

  std::vector<WeightedValue> run() {
    visit(0, 1.0, DecimalLiteral{});
    return std::move(leaves_);
  }

 private:
  void visit(std::size_t s, double weight, const DecimalLiteral& literal) {
    if (s == steps_.size()) {
      deposit(literal, s, weight);
      return;
    }
    const StepCands& step = steps_[s];
    for (std::size_t c = 0; c < step.pieces.size(); ++c) {
      const double w = weight * step.probs[c];
      if (w <= 0.0) continue;
      const Piece& piece = step.pieces[c];
      if (piece.kind == Piece::Kind::End) {
        // Termination candidate: the value ends before this step.
        deposit(literal, s, w);
        continue;
      }
      DecimalLiteral next = literal;
      push(next, piece);
      path_[s] = &piece;
      visit(s + 1, w, next);
    }
  }

  void deposit(const DecimalLiteral& literal, std::size_t length,
               double weight) {
    if (!literal.well_formed()) return;
    const auto v = literal_value(
        literal, std::span<const Piece* const>(path_).first(length),
        tokenizer_);
    if (v.has_value()) leaves_.push_back({*v, weight});
  }

  const std::vector<StepCands>& steps_;
  const tok::Tokenizer& tokenizer_;
  std::vector<const Piece*> path_;
  std::vector<WeightedValue> leaves_;
};

}  // namespace

std::optional<std::pair<std::size_t, std::size_t>> find_value_span(
    const lm::GenerationTrace& trace, const tok::Tokenizer& tokenizer) {
  const auto& steps = trace.steps();
  std::size_t i = 0;
  while (i < steps.size()) {
    if (!is_value_token(tokenizer, steps[i].chosen)) {
      ++i;
      continue;
    }
    std::size_t j = i;
    DecimalLiteral literal;
    while (j < steps.size() && is_value_token(tokenizer, steps[j].chosen)) {
      push(literal, piece_of(tokenizer, steps[j].chosen));
      ++j;
    }
    if (literal.well_formed()) return std::make_pair(i, j);
    i = j;
  }
  return std::nullopt;
}

DecodingSet build_decoding_set(const lm::GenerationTrace& trace,
                               const tok::Tokenizer& tokenizer,
                               std::size_t first, std::size_t last,
                               const DecodingOptions& options) {
  LMPEEL_CHECK(first < last && last <= trace.length());
  DecodingSet out;
  out.permutations = trace.permutations(first, last);

  // The value actually generated.
  {
    std::string text;
    for (std::size_t s = first; s < last; ++s) {
      text += tokenizer.token_text(trace.step(s).chosen);
    }
    const auto v = util::parse_double(text);
    LMPEEL_CHECK_MSG(v.has_value(), "value span does not parse");
    out.sampled_value = *v;
  }

  std::vector<StepCands> steps;
  steps.reserve(last - first);
  for (std::size_t s = first; s < last; ++s) {
    StepCands sc;
    const auto& candidates = trace.step(s).candidates;
    sc.pieces.reserve(candidates.size());
    sc.probs.reserve(candidates.size());
    double total = 0.0;
    for (const lm::Candidate& c : candidates) {
      // A NaN would slip past the exact path's `w <= 0` skip and spread
      // into every deposit; a negative one would be dropped silently.
      LMPEEL_CHECK_MSG(std::isfinite(c.prob) && c.prob >= 0.0f,
                       "candidate probability must be finite and >= 0");
      sc.pieces.push_back(piece_of(tokenizer, c.token));
      total += c.prob;
    }
    LMPEEL_CHECK(total > 0.0);
    for (const lm::Candidate& c : candidates) {
      sc.probs.push_back(c.prob / total);
    }
    steps.push_back(std::move(sc));
  }

  // Deposits arrive sorted by value; equal values are adjacent.
  const auto deposit = [&](double value, double weight) {
    if (out.values.empty() || out.values.back().value != value) {
      out.values.push_back({value, 0.0});
    }
    out.values.back().weight += weight;
  };

  out.exact = out.permutations <= options.exact_limit;
  if (out.exact) {
    // Each value's weight is summed over its leaves in visiting order (the
    // sort is stable), which fixes the rounding of every sum.
    std::vector<WeightedValue> leaves =
        ExactEnumeration(steps, tokenizer).run();
    sort_by_value(leaves, [](const WeightedValue& leaf) { return leaf.value; });
    for (const WeightedValue& leaf : leaves) deposit(leaf.value, leaf.weight);
  } else {
    std::vector<CumulativeTable> tables;
    tables.reserve(steps.size());
    for (const StepCands& sc : steps) tables.emplace_back(sc.probs);
    util::Rng rng(options.seed, 0x4a57);
    std::vector<double> hits;  // one value per well-formed sample
    hits.reserve(options.mc_samples);
    std::vector<const Piece*> path(steps.size());
    for (std::size_t n = 0; n < options.mc_samples; ++n) {
      DecimalLiteral literal;
      std::size_t length = 0;
      for (; length < steps.size(); ++length) {
        const Piece& piece =
            steps[length].pieces[tables[length].draw(rng)];
        if (piece.kind == Piece::Kind::End) break;
        push(literal, piece);
        path[length] = &piece;
      }
      if (!literal.well_formed()) continue;
      const auto v = literal_value(
          literal, std::span<const Piece* const>(path).first(length),
          tokenizer);
      if (v.has_value()) hits.push_back(*v);
    }
    // Every sample weighs the same, so adding that weight once per hit, in
    // sequence, reproduces the bits of a per-sample `mass[v] += weight`.
    sort_by_value(hits, [](double value) { return value; });
    const double sample_weight =
        1.0 / static_cast<double>(options.mc_samples);
    for (const double value : hits) deposit(value, sample_weight);
  }
  return out;
}

}  // namespace lmpeel::haystack
