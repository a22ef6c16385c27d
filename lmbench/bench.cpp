// lmbench entry point and shared helpers.
//
//   lmbench --workload <icl_sweep|gbt_search|serve_mixed|train_icl>
//           --seed <n> --seconds <s> --trace <0|1>
//
// Untraced (--trace 0): repeated timed set-ups, one measured pass, and the
// end-to-end metrics.  Traced (--trace 1): an untraced pass and a traced
// pass of half the time each, each after a fresh set-up, then the
// per-layer metrics, the tracing overhead (traced minus untraced, per
// end-to-end metric) and a check that both passes produced the same output
// digest.  The traced pass's spans are written as Chrome-trace JSON under
// .bench_build/.  The last stdout line is always the one-line JSON result.
#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "quant/arch.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace lmbench {

namespace {

const auto kEpoch = Clock::now();
thread_local std::vector<std::uint64_t> t_open;  // open span ids, innermost last
std::atomic<std::uint64_t> g_next_id{1};

std::uint64_t thread_number() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t mine = next.fetch_add(1);
  return mine;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"work_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p95_ms", "ms"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"lm.induction.call_us", "us"},
    {"lm.induction.ns_per_ctx_token", "ns"},
    {"lm.induction.busy_share", "ratio"},
    {"haystack.set_ms", "ms"},
    {"haystack.mc_share", "ratio"},
    {"haystack.busy_share", "ratio"},
    {"core.sweep_cpu_per_wall", "ratio"},
    {"core.sweep_other_share", "ratio"},
    {"perf.dataset_ms", "ms"},
    {"gbt.search_ms.n100", "ms"},
    {"gbt.search_ms.n1000", "ms"},
    {"gbt.search_ms.n8519", "ms"},
    {"gbt.fit_ms.n8519", "ms"},
    {"gbt.search_cpu_per_wall", "ratio"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.step_ms", "ms"},
    {"serve.step_rows", "rows"},
    {"serve.prefill_chunk_ms", "ms"},
    {"serve.prefill_tok_s", "tok/s"},
    {"serve.engine_share", "ratio"},
    {"serve.short_tpot_p50_ms", "ms"},
    {"serve.shared_ttft_p50_ms", "ms"},
    {"cache.prefix.hit_token_share", "ratio"},
    {"cache.prefix.lookup_us", "us"},
    {"cache.prefix.evictions", "count"},
    {"mem.pool.pages_peak", "pages"},
    {"lm.transformer.step_gflops", "GFLOP/s"},
    {"lm.transformer.step_flops_per_byte", "FLOP/B"},
    {"lm.train.step_ms", "ms"},
    {"lm.train.sample_share", "ratio"},
    {"lm.train.fwd_ms", "ms"},
    {"lm.train.bwd_ms", "ms"},
    {"lm.train.gflops", "GFLOP/s"},
    {"trace.overhead.work_per_s", "1/s"},
    {"trace.overhead.latency_p50_ms", "ms"},
    {"trace.overhead.latency_p95_ms", "ms"},
    {"trace.spans", "count"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<MetricSpec>& specs,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    const double v = it == values.end() ? 0.0 : it->second;
    if (!first) out += ", ";
    first = false;
    out.append("\"").append(spec.name).append("\": {\"value\": ");
    out.append(number(v)).append(", \"unit\": \"").append(spec.unit);
    out.append("\"}");
  }
  return out + "}";
}

void print_metrics(const char* kind, const std::vector<MetricSpec>& specs,
                   const std::map<std::string, double>& values) {
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    std::cout << kind << " " << spec.name << " = "
              << number(it == values.end() ? 0.0 : it->second) << " "
              << spec.unit << "\n";
  }
}

int usage() {
  std::cerr << "usage: lmbench --workload "
               "<icl_sweep|gbt_search|serve_mixed|train_icl> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "icl_sweep") return make_icl_sweep(seed);
  if (name == "gbt_search") return make_gbt_search(seed);
  if (name == "serve_mixed") return make_serve_mixed(seed);
  if (name == "train_icl") return make_train_icl(seed);
  return nullptr;
}

double timed_setup(Workload& workload, Tracer* tracer) {
  const double t0 = now_us();
  workload.setup(tracer);
  return (now_us() - t0) * 1e-6;
}

}  // namespace

// ---- clocks and process stats ---------------------------------------------

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM is this address space's own high-water mark; getrusage's
  // ru_maxrss would also carry the parent's peak across fork + exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---- tracer ----------------------------------------------------------------

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer),
      name_(name),
      request_(request),
      id_(g_next_id.fetch_add(1)),
      parent_(t_open.empty() ? 0 : t_open.back()),
      start_us_(now_us()) {
  t_open.push_back(id_);
}

Tracer::Scope::~Scope() {
  const double end = now_us();
  t_open.pop_back();
  tracer_.record(SpanRecord{name_, start_us_, end, id_, parent_, request_,
                            thread_number()});
}

void Tracer::record(const SpanRecord& span) {
  const std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

void Tracer::add(const char* name, double start_us, double end_us,
                 std::uint64_t request) {
  record(SpanRecord{name, start_us, end_us, g_next_id.fetch_add(1),
                    t_open.empty() ? 0 : t_open.back(), request,
                    thread_number()});
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  const std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back((s.end_us - s.start_us) * 1e-3);
  }
  return out;
}

double Tracer::total_s(const std::string& name) const {
  const std::lock_guard lock(mutex_);
  double total = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) total += (s.end_us - s.start_us) * 1e-6;
  }
  return total;
}

double Tracer::covered_s(const std::vector<std::string>& names) const {
  std::vector<std::pair<double, double>> spans;
  {
    const std::lock_guard lock(mutex_);
    for (const SpanRecord& s : spans_) {
      if (std::find(names.begin(), names.end(), s.name) != names.end()) {
        spans.emplace_back(s.start_us, s.end_us);
      }
    }
  }
  std::sort(spans.begin(), spans.end());
  double covered_us = 0.0, open_end = -1.0;
  for (const auto& [start, end] : spans) {
    if (start > open_end) {
      covered_us += end - start;
    } else if (end > open_end) {
      covered_us += end - open_end;
    }
    open_end = std::max(open_end, end);
  }
  return covered_us * 1e-6;
}

void Tracer::clear() {
  const std::lock_guard lock(mutex_);
  spans_.clear();
}

std::size_t Tracer::size() const {
  const std::lock_guard lock(mutex_);
  return spans_.size();
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard lock(mutex_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << json_escape(s.name)
        << "\", \"cat\": \""
        << json_escape(std::string(s.name).substr(0, std::strcspn(s.name, ".")))
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << number(s.start_us)
        << ", \"dur\": " << number(s.end_us - s.start_us)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- pass helpers ------------------------------------------------------------

void Pass::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) ++failed;
  std::cout << "check " << (ok ? "ok   " : "FAIL ") << what << "\n";
}

std::uint64_t digest_mix(std::uint64_t digest, std::uint64_t value) {
  return lmpeel::util::hash_combine(digest, value);
}

std::uint64_t digest_double(std::uint64_t digest, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return digest_mix(digest, bits);
}

double median(const std::vector<double>& values) {
  return values.empty() ? 0.0 : lmpeel::util::median(values);
}

double percentile(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : lmpeel::util::percentile(values, p);
}

// ---- computed cost model -------------------------------------------------------

double decode_row_flops(const TransformerShape& s, double context) {
  return s.n_layer * (24.0 * s.d_model * s.d_model + 4.0 * context * s.d_model) +
         2.0 * s.d_model * s.vocab;
}

double decode_row_kv_bytes(const TransformerShape& s, double context) {
  return s.n_layer * 2.0 * context * s.d_model * 4.0;
}

double decode_step_weight_bytes(const TransformerShape& s) {
  return (s.n_layer * 12.0 * s.d_model * s.d_model + s.vocab * s.d_model) *
         4.0;
}

double train_flops(const TransformerShape& s, double tokens) {
  return 6.0 * s.params * tokens;
}

}  // namespace lmbench

int main(int argc, char** argv) {
  using namespace lmbench;
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0.0;
      } else if (flag == "--trace") {
        options.trace = value == "1";
        have_trace = value == "0" || value == "1";
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return usage();
  }
  auto workload = make_workload(options.workload, options.seed);
  if (workload == nullptr) return usage();

  std::map<std::string, std::string> labels = workload->labels();
  labels["workload"] = options.workload;
  labels["seed"] = std::to_string(options.seed);
  labels["seconds"] = number(options.seconds);
  labels["trace"] = options.trace ? "1" : "0";
  labels["kernel_arch"] =
      lmpeel::quant::arch_name(lmpeel::quant::best_supported_arch());
  labels["nproc"] = std::to_string(std::thread::hardware_concurrency());
  const char* sha = std::getenv("LMBENCH_GIT_SHA");
  labels["git_sha"] = sha != nullptr && *sha != '\0' ? sha : "unknown";
  const char* src = std::getenv("LMBENCH_SOURCE_SHA");
  labels["source_sha"] = src != nullptr && *src != '\0' ? src : "unknown";
  for (const auto& [key, value] : labels) {
    std::cout << "label " << key << " = " << value << "\n";
  }

  // At least seven set-ups, repeated until they have taken a second (cheap
  // set-ups of a few milliseconds need many samples for a steady median);
  // setup_s is their median.  A traced run makes one more, with the
  // tracer, right before the traced pass, so both passes start from the
  // same state.
  Tracer tracer;
  std::vector<double> setups;
  double setup_total_s = 0.0;
  while (setups.size() < 7 || (setup_total_s < 1.0 && setups.size() < 101)) {
    setups.push_back(timed_setup(*workload, nullptr));
    setup_total_s += setups.back();
  }

  Pass result;
  std::map<std::string, double> e2e;
  if (!options.trace) {
    result = workload->run(options.seconds, nullptr);
    e2e = result.e2e;
  } else {
    const Pass untraced = workload->run(options.seconds / 2, nullptr);
    setups.push_back(timed_setup(*workload, &tracer));
    result = workload->run(options.seconds / 2, &tracer);
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    result.check(untraced.digest == result.digest,
                 "traced and untraced passes give the same output digest");
    for (const char* name :
         {"work_per_s", "latency_p50_ms", "latency_p95_ms"}) {
      result.layer[std::string("trace.overhead.") + name] =
          result.e2e[name] - untraced.e2e.at(name);
    }
    result.layer["trace.spans"] = static_cast<double>(tracer.size());
    e2e = result.e2e;
    std::filesystem::create_directories(".bench_build");
    const std::string path = ".bench_build/trace-" + options.workload + "-" +
                             std::to_string(options.seed) + ".json";
    if (tracer.write_chrome(path)) {
      std::cout << "trace written: " << path << " (" << tracer.size()
                << " spans)\n";
    } else {
      std::cerr << "lmbench: could not write " << path << "\n";
    }
  }
  e2e["setup_s"] = median(setups);
  e2e["peak_rss_mb"] = peak_rss_mb();
  std::cout << "digest " << std::hex << result.digest << std::dec << "\n";
  print_metrics("metric", kEndToEnd, e2e);
  if (options.trace) print_metrics("layer", kPerLayer, result.layer);

  std::cout << "{\"labels\": {";
  bool first = true;
  for (const auto& [key, value] : labels) {
    std::cout << (first ? "" : ", ") << "\"" << json_escape(key) << "\": \""
              << json_escape(value) << "\"";
    first = false;
  }
  std::cout << "}}\n";
  std::cout << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": "
            << (options.trace ? metrics_json(kPerLayer, result.layer)
                              : metrics_json(kEndToEnd, e2e))
            << "}" << std::endl;
  return 0;
}
