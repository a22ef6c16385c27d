// Dataset generation and the sampling protocols of §III-B.
//
// A Dataset is the full table of (configuration, measured runtime) pairs for
// one problem size — the equivalent of the paper's 10,648 pre-collected
// measurements.  On top of it we implement the paper's two prompt-curation
// protocols: random disjoint in-context sets, and the "minimal edit
// distance" curation where all examples and the query are nearly identical
// configurations.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "perf/config_space.hpp"
#include "perf/syr2k_model.hpp"
#include "util/rng.hpp"

namespace lmpeel::perf {

struct Sample {
  std::size_t config_index = 0;  ///< index into ConfigSpace
  Syr2kConfig config;
  double runtime = 0.0;  ///< measured (noisy) seconds
};

/// Thrown by Dataset::read_csv on malformed input.  what() reads
/// "<source>:<line>: <reason>"; the structured fields let callers point at
/// the exact offending row instead of guessing from a generic message.
class DatasetParseError : public std::runtime_error {
 public:
  DatasetParseError(std::string source, std::size_t line,
                    const std::string& reason)
      : std::runtime_error(source + ":" + std::to_string(line) + ": " +
                           reason),
        source_(std::move(source)),
        line_(line) {}

  const std::string& source() const noexcept { return source_; }
  std::size_t line() const noexcept { return line_; }  ///< 1-based

 private:
  std::string source_;
  std::size_t line_;
};

class Dataset {
 public:
  /// Measures every configuration in the space.  Noise is drawn from an
  /// independent stream per configuration, so the dataset is identical
  /// regardless of generation order or thread count.
  static Dataset generate(const Syr2kModel& model, SizeClass size,
                          std::uint64_t seed);

  SizeClass size_class() const noexcept { return size_; }
  std::size_t size() const noexcept { return samples_.size(); }
  const Sample& operator[](std::size_t i) const;
  const std::vector<Sample>& samples() const noexcept { return samples_; }

  /// Row-major feature matrix (size() x ConfigSpace::kNumFeatures).
  std::vector<double> feature_matrix() const;
  std::vector<double> targets() const;

  double min_runtime() const;
  double max_runtime() const;

  /// CSV interchange ("size,config_index,runtime" rows) so datasets can be
  /// inspected, plotted, or swapped for externally measured data.
  void write_csv(std::ostream& out) const;
  /// Strict parse: every row must have exactly three fields, a known size
  /// class, an in-range integer config index and a positive finite
  /// runtime.  Any violation throws DatasetParseError naming `source` and
  /// the 1-based line — externally measured CSVs are exactly the kind of
  /// input that arrives subtly broken.
  static Dataset read_csv(std::istream& in,
                          const std::string& source = "<stream>");

 private:
  SizeClass size_ = SizeClass::SM;
  std::vector<Sample> samples_;
};

/// Index partition for supervised baselines.
struct Split {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// Shuffles [0, n) and takes the first train_count as train, rest as test.
Split train_test_split(std::size_t n, std::size_t train_count,
                       util::Rng& rng);

/// `count` pairwise-disjoint subsets of [0, n), each of `subset_size`
/// elements, sampled without replacement (paper: "five disjoint datasets").
std::vector<std::vector<std::size_t>> disjoint_subsets(std::size_t n,
                                                       std::size_t count,
                                                       std::size_t subset_size,
                                                       util::Rng& rng);

/// Every dataset row ordered by ConfigSpace::edit_distance from row
/// `centre`, ties by index (so the first entry is the lowest-index row at
/// distance zero — the centre unless it has an earlier duplicate).  Each
/// distance is computed once and rows are bucketed by it: O(n) overall.
std::vector<std::size_t> edit_distance_order(const Dataset& data,
                                             std::size_t centre);

/// The paper's curated setting: the `count`+1 dataset rows closest to a
/// random centre configuration by ConfigSpace::edit_distance.  The first
/// returned index (the centre itself) is used as the query; the remainder
/// are the in-context examples.  Ties are broken by index for determinism.
std::vector<std::size_t> minimal_edit_neighborhood(const Dataset& data,
                                                   std::size_t count,
                                                   util::Rng& rng);

}  // namespace lmpeel::perf
