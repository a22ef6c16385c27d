// Alternative-decoding enumeration (§III-C / §IV-C).
//
// The paper: "we consider all combinations reachable via alternative
// decodings of the original generation" — i.e. at every emitted position of
// the recorded trace, any selectable candidate may be substituted, holding
// the rest of the trace's candidate sets fixed (re-running the model per
// branch is combinatorially impossible, as the paper notes).  Each
// reachable combination over the numeric-value span decodes to a decimal
// value with probability equal to the product of its per-step candidate
// probabilities; a termination candidate (newline/eos) ends the value
// early.
//
// When the reachable set is small it is enumerated exactly; otherwise it is
// sampled by probability (the estimator the distribution statistics and
// needle searches are built on).
//
// Sampler cost: each step's running-sum table is built once per set, O(K)
// over the step's K candidates, with a guide over K equal-width buckets of
// the total (Chen & Asau 1974): a Monte-Carlo draw starts at its bucket's
// first index and scans about two entries on average, O(1).  A cumulative
// table was chosen over an alias table (Vose 1991) because, from the same
// uniform, it picks the same index as Rng::categorical's linear scan and
// consumes the same one draw, so the RNG stream and every recorded value
// set stay as they were.
//
// Deposit cost: every candidate is classified once per set (digit group
// with its value and width, ".", or termination), and a path is carried as
// a DecimalLiteral — numbers, not text — so well-formedness is O(1) and
// the value is one correctly rounded division (from_chars only for the
// rare literal at or beyond 2^53 or 22 fraction digits).  Each sampled or
// enumerated value is appended to a flat list, and a stable radix sort of
// the values' bit patterns (O(n), a byte per pass) groups equal values and
// yields the sorted output in one go, without a hash table that grows with
// the set.  A value's weight is then summed over its group in list order:
// for Monte-Carlo that adds 1/mc_samples once per hit, and for the exact
// path it adds the path weights in depth-first order.  Both are the
// additions, in the same order, that a per-value `mass[v] += w` deposit
// makes, so every weight keeps its bits.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "lm/trace.hpp"
#include "tok/tokenizer.hpp"
#include "util/rng.hpp"

namespace lmpeel::haystack {

/// Running sums over one step's weights, for expected O(1) categorical
/// draws.
class CumulativeTable {
 public:
  /// Every weight must be finite and >= 0, and their total > 0; checked
  /// here, once per table rather than once per draw.
  explicit CumulativeTable(std::span<const double> weights);

  /// Consumes one uniform and returns the first index whose running sum
  /// exceeds uniform * total — the index Rng::categorical(weights) returns
  /// for the same draw, unless the draw lies within rounding of a bucket
  /// edge.  A zero-weight index is never returned.
  std::size_t draw(util::Rng& rng) const;

 private:
  std::vector<double> cdf_;
  /// guide_[j]: first index whose running sum exceeds j / bucket_scale_.
  std::vector<std::uint32_t> guide_;
  double bucket_scale_ = 0.0;  ///< buckets per unit of weight
  std::size_t last_nonzero_ = 0;
};

/// A decimal literal built one value token at a time and held as numbers:
/// its digits as an integer mantissa, how many of them follow the first
/// dot, and where the dots are.  Tokens are digit groups or ".", so the
/// literal is "digits '.' digits" exactly when it has one dot, neither
/// first nor last.
class DecimalLiteral {
 public:
  /// Appends a group of `count` digits spelling `value` (leading zeros
  /// included in `count`, so value < 10^count).
  void push_digits(int count, std::uint64_t value) noexcept;
  void push_dot() noexcept;

  /// digits '.' digits, nothing else.
  bool well_formed() const noexcept {
    return dots_ == 1 && !starts_with_dot_ && !ends_with_dot_;
  }

  /// The literal's value, when it converts exactly without text: the
  /// mantissa is below 2^53 and at most 22 digits follow the dot.  Then
  /// mantissa and 10^fraction are both exact doubles and IEEE division
  /// rounds their quotient correctly, so the result equals from_chars on
  /// the text.  nullopt otherwise (convert the text instead).
  std::optional<double> value() const noexcept;

 private:
  std::uint64_t mantissa_ = 0;
  std::uint32_t fraction_digits_ = 0;
  std::uint32_t dots_ = 0;
  bool empty_ = true;
  bool starts_with_dot_ = false;
  bool ends_with_dot_ = false;
  bool long_mantissa_ = false;  ///< mantissa reached 2^53
};

struct DecodingOptions {
  /// Enumerate exactly when the reachable-combination count is below this.
  double exact_limit = 200000;
  std::size_t mc_samples = 50000;
  std::uint64_t seed = 0;
};

/// Locates the numeric value inside a response trace: the maximal
/// contiguous run of steps whose *chosen* tokens are digit-groups or "."
/// containing exactly one "." with digits on both sides.
/// Returns [first, last) step indices, or nullopt when the response holds
/// no well-formed value (e.g. a refusal deviation).
std::optional<std::pair<std::size_t, std::size_t>> find_value_span(
    const lm::GenerationTrace& trace, const tok::Tokenizer& tokenizer);

/// One reachable value with its (unnormalised) path probability.
struct WeightedValue {
  double value = 0.0;
  double weight = 0.0;
};

struct DecodingSet {
  std::vector<WeightedValue> values;  ///< deduplicated, weight-accumulated
  bool exact = false;                 ///< enumerated vs Monte-Carlo
  double permutations = 0.0;          ///< product of per-step candidate counts
  double sampled_value = 0.0;         ///< the value actually generated
};

/// Builds the reachable-value set over the trace's value span.
DecodingSet build_decoding_set(const lm::GenerationTrace& trace,
                               const tok::Tokenizer& tokenizer,
                               std::size_t first, std::size_t last,
                               const DecodingOptions& options);

}  // namespace lmpeel::haystack
