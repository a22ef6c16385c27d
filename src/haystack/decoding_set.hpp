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
// over the step's K candidates, and every Monte-Carlo draw is a binary
// search over it, O(log K).  A cumulative table was chosen over an alias
// table (Vose 1991) because, from the same uniform, it picks the same index
// as Rng::categorical's linear scan and consumes the same one draw, so the
// RNG stream and every recorded value set stay as they were.
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

/// Running sums over one step's weights, for O(log K) categorical draws.
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
  std::size_t last_nonzero_ = 0;
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
