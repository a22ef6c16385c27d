// Shared pieces of lmbench: the in-memory span recorder used by
// traced runs, the per-pass result every workload returns, small statistics
// helpers, the computed cost model, and the workload registry.
//
// lmbench never edits library code.  Per-layer numbers come from spans
// the workloads record around the library's public seams (model wrappers,
// a forwarding BatchDecoder, the SweepObserver, trainer callbacks and
// direct calls), and only in traced passes; untraced passes install no
// wrappers at all.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace lmbench {

using Clock = std::chrono::steady_clock;

/// Microseconds since program start (monotonic).
double now_us();
/// Process CPU seconds (all threads).
double cpu_seconds();
/// Peak resident set size of the process in MiB.
double peak_rss_mb();

/// One recorded span.  `parent` is the id of the innermost span open on the
/// same thread when this one began (0 = root); `request` ties the spans of
/// one serve request or sweep query together (0 = none).
struct SpanRecord {
  const char* name = "";  ///< a string literal
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint64_t thread = 0;
};

/// Thread-safe in-memory span store, written out as Chrome-trace JSON at
/// the end of a traced run (opens in Perfetto / chrome://tracing).
class Tracer {
 public:
  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    const char* name_;
    std::uint64_t request_;
    std::uint64_t id_;
    std::uint64_t parent_;
    double start_us_;
  };

  /// Records a span measured elsewhere (e.g. a request's submit → reply).
  void add(const char* name, double start_us, double end_us,
           std::uint64_t request);
  /// Durations in milliseconds of every span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Summed duration in seconds of every span called `name`.
  double total_s(const std::string& name) const;
  /// Seconds during which at least one span with one of `names` was open,
  /// on any thread (overlaps counted once).
  double covered_s(const std::vector<std::string>& names) const;
  std::size_t size() const;
  /// Drops every span recorded so far (e.g. a warm-up's).
  void clear();
  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool write_chrome(const std::string& path) const;

 private:
  void record(const SpanRecord& span);

  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
};

/// A span on `tracer` when tracing (non-null), nothing otherwise.
class MaybeScope {
 public:
  MaybeScope(Tracer* tracer, const char* name, std::uint64_t request = 0) {
    if (tracer != nullptr) scope_.emplace(*tracer, name, request);
  }

 private:
  std::optional<Tracer::Scope> scope_;
};

/// What one measurement pass of a workload produced.
struct Pass {
  /// End-to-end metrics by name (see BENCHMARK.json).
  std::map<std::string, double> e2e;
  /// Per-layer metrics by name (traced passes only).
  std::map<std::string, double> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Hash of the outputs of the pass's fixed, seed-determined first unit
  /// of work; equal in traced and untraced passes of one seed.
  std::uint64_t digest = 0;

  /// Records an output check as one attempted operation.
  void check(bool ok, const std::string& what);
};

/// Folds `value` into a running output digest (util::hash_combine).
std::uint64_t digest_mix(std::uint64_t digest, std::uint64_t value);
/// Folds the bit pattern of `value` into a running output digest.
std::uint64_t digest_double(std::uint64_t digest, double value);

/// util::median / util::percentile (p in [0, 100]), but 0 for no samples:
/// a layer a workload bypasses has none.
double median(const std::vector<double>& values);
double percentile(const std::vector<double>& values, double p);

/// Computed cost of one transformer decode row or training token, from
/// tensor shapes alone (no measurement): FLOPs counted as 2 per
/// multiply-add, bytes as f32 weights and KV rows read.  Labelled
/// "computed" wherever it is printed.
struct TransformerShape {
  double vocab = 0, d_model = 0, n_layer = 0, params = 0;
};
/// FLOPs of one decode row whose context (after the new token) holds
/// `context` positions: QKV, output and MLP projections (24·d² per layer),
/// attention scores and mix (4·context·d per layer) and the tied head.
double decode_row_flops(const TransformerShape& shape, double context);
/// f32 KV bytes one decode row reads: K and V rows of every layer.
double decode_row_kv_bytes(const TransformerShape& shape, double context);
/// f32 weight bytes one batched step streams once: every layer's matrices
/// plus the tied embedding/head.
double decode_step_weight_bytes(const TransformerShape& shape);
/// Training FLOPs for `tokens` sequence tokens: the 6·P·T rule.
double train_flops(const TransformerShape& shape, double tokens);

/// One workload: built fresh by each set-up, then measured.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything the measurement needs (datasets, models, engine).
  /// `tracer` (null in untraced runs) receives set-up spans.
  virtual void setup(Tracer* tracer) = 0;
  /// Runs the workload for about `seconds`.  `tracer` null = untraced: no
  /// wrappers installed, no spans recorded.
  virtual Pass run(double seconds, Tracer* tracer) = 0;
  /// Model configs and workload sizes, printed as result labels.
  virtual std::map<std::string, std::string> labels() const = 0;
};

std::unique_ptr<Workload> make_icl_sweep(std::uint64_t seed);
std::unique_ptr<Workload> make_gbt_search(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_mixed(std::uint64_t seed);
std::unique_ptr<Workload> make_train_icl(std::uint64_t seed);

}  // namespace lmbench
