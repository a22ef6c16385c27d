// serve_mixed — closed-loop traffic through serve::Engine.
//
// A fixed population of virtual clients (more than max_batch) is
// multiplexed on one generator thread through async Client::submit; each
// client sends its next request when the previous one completes, as every
// in-repo caller does.  The server is an f32 TransformerLm behind the
// engine with paged KV, chunked prefill and a byte-capped prefix cache.
// Three request classes share the run: `short` (8-token prompt, 16 greedy
// tokens), `long` (320-token unshared prompt, 4 tokens) and `shared` (one
// of four ~400-token ICL-style prefixes plus a unique suffix, with
// shared_prefix_tokens set, 8 tokens).  Shared requests read the cache;
// unshared prompts are auto-inserted and churn its LRU under the cap, so
// reads and writes land in one run.  This is the only workload for
// lm.transformer, mem and cache.
#include <algorithm>
#include <future>
#include <iostream>

#include "bench.hpp"
#include "cache/prefix_cache.hpp"
#include "lm/generate.hpp"
#include "lm/transformer.hpp"
#include "mem/page_pool.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"

namespace lmbench {
namespace {

using namespace lmpeel;

constexpr std::size_t kBatch = 8;
// Above max_batch, so the queue never empties, but only just: with 16
// clients short-request TTFT was almost all queue wait (~250 ms).
constexpr std::size_t kClients = 10;
constexpr std::size_t kPageTokens = 16;
constexpr std::size_t kPrefillChunk = 32;
// Holds the four shared prefixes (about 10 MiB) with room for roughly a
// hundred requests' worth of unshared inserts, so LRU eviction churns the
// unshared prompts, not the hot prefixes.
constexpr std::size_t kCacheBytes = 32u << 20;
constexpr std::size_t kPrefixes = 4;
constexpr std::size_t kPrefixTokens = 400;
constexpr std::size_t kSuffixTokens = 8;
/// Requests below this id feed the output digest and the serial check.
constexpr std::uint64_t kDigestRequests = 96;

enum class Kind { Short, Long, Shared };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::Short: return "short";
    case Kind::Long: return "long";
    case Kind::Shared: return "shared";
  }
  return "?";
}

lm::TransformerConfig model_config() {
  lm::TransformerConfig c;
  c.vocab = 512;
  c.d_model = 384;
  c.n_head = 6;
  c.n_layer = 2;
  c.max_seq = static_cast<int>(kPrefixTokens + kSuffixTokens + 16);
  return c;
}

std::vector<int> random_tokens(util::Rng& rng, std::size_t n, int vocab) {
  std::vector<int> out(n);
  // Skip the special ids so prompts are plain content.
  for (int& id : out) id = static_cast<int>(rng.uniform_int(5, vocab - 1));
  return out;
}

/// Forwarding decoder that records a span per call, the rows and context
/// lengths of every step (for the computed cost model) and the pool's
/// page high-water mark.  Only the engine's scheduler thread calls it.
class TimedDecoder final : public serve::BatchDecoder {
 public:
  TimedDecoder(serve::TransformerBatchDecoder& inner, Tracer& tracer,
               const TransformerShape& shape)
      : inner_(inner), tracer_(tracer), shape_(shape),
        context_(inner.slots(), 0) {}

  int vocab_size() const override { return inner_.vocab_size(); }
  std::size_t slots() const override { return inner_.slots(); }
  std::size_t max_sequence_length() const override {
    return inner_.max_sequence_length();
  }
  void start(std::size_t slot, std::span<const int> prompt,
             std::uint64_t seed, std::span<float> out,
             std::size_t shared_prefix_tokens) override {
    lookup(prompt);
    Tracer::Scope span(tracer_, "serve.decoder.start", slot + 1);
    inner_.start(slot, prompt, seed, out, shared_prefix_tokens);
    pending_ = false;
    context_[slot] = prompt.size();
    note_pages();
  }
  void step(std::span<const Step> steps, lm::Tensor& logits) override {
    const double t0 = now_us();
    {
      Tracer::Scope span(tracer_, "serve.decoder.step");
      inner_.step(steps, logits);
    }
    step_us_ += now_us() - t0;
    rows_ += steps.size();
    ++steps_;
    step_bytes_ += decode_step_weight_bytes(shape_);
    for (const Step& s : steps) {
      const double ctx = static_cast<double>(++context_[s.slot]);
      step_flops_ += decode_row_flops(shape_, ctx);
      step_bytes_ += decode_row_kv_bytes(shape_, ctx);
    }
    note_pages();
  }
  void release(std::size_t slot) override {
    Tracer::Scope span(tracer_, "serve.decoder.release", slot + 1);
    inner_.release(slot);
  }
  std::string name() const override { return inner_.name(); }
  std::size_t bytes_per_token() const override {
    return inner_.bytes_per_token();
  }
  void bind_budget(guard::Budget* budget) override {
    inner_.bind_budget(budget);
  }
  std::size_t prepare_prefix(std::span<const int> prompt) override {
    std::size_t reused = 0;
    {
      Tracer::Scope span(tracer_, "cache.prefix.prepare");
      reused = inner_.prepare_prefix(prompt);
    }
    pending_ = true;
    lookup_tokens_ += prompt.size();
    reused_tokens_ += reused;
    return reused;
  }
  void abandon_prefix() override {
    Tracer::Scope span(tracer_, "serve.decoder.abandon_prefix");
    inner_.abandon_prefix();
    pending_ = false;
  }
  std::size_t shed_cache(std::size_t bytes) override {
    Tracer::Scope span(tracer_, "serve.decoder.shed_cache");
    return inner_.shed_cache(bytes);
  }
  std::size_t cost_slack_bytes() const override {
    return inner_.cost_slack_bytes();
  }
  bool supports_chunked_prefill() const override {
    return inner_.supports_chunked_prefill();
  }
  void start_chunked(std::size_t slot, std::span<const int> prompt,
                     std::uint64_t seed,
                     std::size_t shared_prefix_tokens) override {
    lookup(prompt);
    Tracer::Scope span(tracer_, "serve.decoder.start_chunked", slot + 1);
    inner_.start_chunked(slot, prompt, seed, shared_prefix_tokens);
    pending_ = false;
    context_[slot] = prompt.size();
    note_pages();
  }
  std::size_t prefill_chunk(std::size_t slot, std::size_t max_tokens,
                            std::span<float> out, bool* done) override {
    const double t0 = now_us();
    std::size_t advanced = 0;
    {
      Tracer::Scope span(tracer_, "serve.decoder.prefill_chunk", slot + 1);
      advanced = inner_.prefill_chunk(slot, max_tokens, out, done);
    }
    prefill_us_ += now_us() - t0;
    prefill_tokens_ += advanced;
    note_pages();
    return advanced;
  }

  std::size_t pages_peak() const { return pages_peak_; }
  void reset_counters() {
    step_us_ = step_flops_ = step_bytes_ = prefill_us_ = 0.0;
    rows_ = steps_ = prefill_tokens_ = lookup_tokens_ = reused_tokens_ = 0;
  }
  double step_us_ = 0.0, step_flops_ = 0.0, step_bytes_ = 0.0;
  double prefill_us_ = 0.0;
  std::size_t rows_ = 0, steps_ = 0, prefill_tokens_ = 0;
  std::size_t lookup_tokens_ = 0, reused_tokens_ = 0;

 private:
  /// The engine prepares the prefix itself only when it prices requests
  /// against a budget; otherwise the decoder's start() would look it up
  /// internally, out of sight.  Doing that lookup here through the public
  /// prepare_prefix() is the same call start() makes, so it is timed
  /// without changing what start() reuses.
  void lookup(std::span<const int> prompt) {
    if (!pending_) prepare_prefix(prompt);
  }

  void note_pages() {
    pages_peak_ = std::max(pages_peak_, inner_.pool()->pages_in_use());
  }

  serve::TransformerBatchDecoder& inner_;
  Tracer& tracer_;
  TransformerShape shape_;
  std::vector<std::size_t> context_;  ///< per slot: positions incl. new token
  std::size_t pages_peak_ = 0;
  bool pending_ = false;  ///< a prepare_prefix() awaits its start()
};

/// The served model and everything built around it.  Members are declared
/// in dependency order so destruction stops the engine first.
struct Server {
  explicit Server(Tracer* tracer) : model(model_config(), /*seed=*/1) {
    mem::PagePoolConfig pool_config;
    pool_config.page_tokens = kPageTokens;
    pool_config.n_layer = static_cast<std::size_t>(model.config().n_layer);
    pool_config.d_model = static_cast<std::size_t>(model.config().d_model);
    pool.emplace(pool_config);
    cache::PrefixCacheConfig cache_config;
    cache_config.byte_budget = kCacheBytes;
    cache_config.page_tokens = kPageTokens;
    cache.emplace(model, cache_config);
    // Decode steps run on the scheduler thread: splitting an 8-row d_model
    // 384 step across the pool measured no faster here, and ties every
    // step to the slowest pool thread on a shared host.
    decoder.emplace(model, kBatch, /*parallel=*/false, &*pool);
    decoder->set_prefix_cache(&*cache);
    if (tracer != nullptr) {
      const lm::TransformerConfig& c = model.config();
      timed.emplace(*decoder, *tracer,
                    TransformerShape{double(c.vocab), double(c.d_model),
                                     double(c.n_layer),
                                     double(model.parameter_count())});
    }
    serve::EngineConfig config;
    config.max_batch = kBatch;
    config.queue_capacity = 4 * kClients;
    config.prefill_chunk_tokens = kPrefillChunk;
    engine.emplace(timed ? static_cast<serve::BatchDecoder&>(*timed)
                         : static_cast<serve::BatchDecoder&>(*decoder),
                   config);
  }

  lm::TransformerLm model;
  std::optional<mem::PagePool> pool;
  std::optional<cache::PrefixCache> cache;
  std::optional<serve::TransformerBatchDecoder> decoder;
  std::optional<TimedDecoder> timed;
  std::optional<serve::Engine> engine;
};

struct Completed {
  Kind kind = Kind::Short;
  std::vector<int> prompt;
  lm::GenerateOptions options;
  std::vector<int> tokens;
};

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer* tracer) override {
    server_.reset();
    server_ = std::make_unique<Server>(tracer);
    util::Rng rng(seed_, 0x9f1);
    prefixes_.clear();
    for (std::size_t p = 0; p < kPrefixes; ++p) {
      prefixes_.push_back(
          random_tokens(rng, kPrefixTokens, server_->model.config().vocab));
    }
  }

  /// Request `id` of the seeded stream.  Classes follow a fixed cycle of
  /// ten (6 short, 3 shared, 1 long) so every run carries the same mix;
  /// the seed draws the prompts and which prefix a shared request uses.
  serve::Request make_request(std::uint64_t id, Kind* kind) const {
    static constexpr Kind kCycle[10] = {
        Kind::Short, Kind::Shared, Kind::Short, Kind::Short, Kind::Shared,
        Kind::Short, Kind::Long,   Kind::Short, Kind::Shared, Kind::Short};
    util::Rng rng(seed_, 0x10000 + id);
    const int vocab = server_->model.config().vocab;
    serve::Request request;
    request.options.sampler.temperature = 0.0;
    request.options.stop_on_eos = false;
    request.options.seed = id;
    *kind = kCycle[id % 10];
    if (*kind == Kind::Short) {
      request.prompt = random_tokens(rng, 8, vocab);
      request.options.max_tokens = 16;
    } else if (*kind == Kind::Long) {
      request.prompt = random_tokens(rng, 320, vocab);
      request.options.max_tokens = 4;
    } else {
      request.prompt = prefixes_[rng.uniform_int(0, kPrefixes - 1)];
      const auto suffix = random_tokens(rng, kSuffixTokens, vocab);
      request.prompt.insert(request.prompt.end(), suffix.begin(),
                            suffix.end());
      request.shared_prefix_tokens = kPrefixTokens;
      request.options.max_tokens = 8;
    }
    return request;
  }

  Pass run(double seconds, Tracer* tracer) override {
    Pass pass;
    auto& registry = obs::Registry::global();
    const std::uint64_t evictions0 =
        registry.counter("cache.prefix.evictions").value();

    struct Outstanding {
      std::future<serve::ServeResult> future;
      std::uint64_t id = 0;
      Kind kind = Kind::Short;
      double submit_us = 0.0;
    };
    std::vector<Outstanding> clients(kClients);
    std::map<std::uint64_t, Completed> kept;
    std::vector<double> short_ttft, short_tpot, shared_ttft, short_wait;
    std::size_t counts[3] = {0, 0, 0};
    std::uint64_t next_id = 0, tokens = 0;

    // Warm start: one request per shared prefix before the clock starts,
    // so every run measures the cache's steady state rather than the
    // order in which the first clients happened to miss.
    for (std::size_t p = 0; p < kPrefixes; ++p) {
      serve::Request warm;
      warm.prompt = prefixes_[p];
      warm.prompt.push_back(5);
      warm.shared_prefix_tokens = kPrefixTokens;
      warm.options.sampler.temperature = 0.0;
      warm.options.max_tokens = 1;
      const serve::ServeResult result =
          server_->engine->submit(std::move(warm)).get();
      pass.check(result.status == serve::RequestStatus::Ok,
                 "warm-up request for prefix " + std::to_string(p));
    }
    if (tracer != nullptr) {
      tracer->clear();
      server_->timed->reset_counters();
    }

    const double t0 = now_us();
    const double deadline = t0 + seconds * 1e6;
    const auto submit = [&](Outstanding& client) {
      client.id = next_id++;
      serve::Request request = make_request(client.id, &client.kind);
      if (client.id < kDigestRequests) {
        kept[client.id] = Completed{client.kind, request.prompt,
                                    request.options, {}};
      }
      client.submit_us = now_us();
      client.future = server_->engine->submit(std::move(request));
    };
    for (Outstanding& client : clients) submit(client);

    std::size_t live = clients.size();
    while (live > 0) {
      bool progressed = false;
      for (Outstanding& client : clients) {
        if (!client.future.valid() ||
            client.future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
          continue;
        }
        progressed = true;
        serve::ServeResult result = client.future.get();
        const double end_us = now_us();
        ++pass.attempted;
        ++counts[static_cast<int>(client.kind)];
        if (tracer != nullptr) {
          tracer->add(client.kind == Kind::Short   ? "serve.request.short"
                      : client.kind == Kind::Long ? "serve.request.long"
                                                  : "serve.request.shared",
                      client.submit_us, end_us, client.id + 1);
        }
        const std::size_t n = result.generation.tokens.size();
        if (result.status != serve::RequestStatus::Ok) {
          ++pass.failed;
          std::cout << "request " << client.id << " ("
                    << kind_name(client.kind)
                    << ") failed: " << serve::status_name(result.status)
                    << "\n";
        } else {
          tokens += n;
          if (client.kind == Kind::Short) {
            short_ttft.push_back(result.ttft_s * 1e3);
            short_wait.push_back(result.queue_wait_s * 1e3);
            if (n > 1) {
              short_tpot.push_back((result.total_s - result.ttft_s) * 1e3 /
                                   static_cast<double>(n - 1));
            }
          } else if (client.kind == Kind::Shared) {
            shared_ttft.push_back(result.ttft_s * 1e3);
          }
        }
        if (client.id < kDigestRequests) {
          kept[client.id].tokens = std::move(result.generation.tokens);
        }
        if (end_us < deadline) {
          submit(client);
        } else {
          --live;
        }
      }
      if (!progressed) {
        for (Outstanding& client : clients) {
          if (client.future.valid()) {
            client.future.wait_for(std::chrono::microseconds(200));
            break;
          }
        }
      }
    }
    const double wall_s = (now_us() - t0) * 1e-6;

    for (const auto& [id, c] : kept) {
      pass.digest = digest_mix(pass.digest, id);
      for (const int t : c.tokens) pass.digest = digest_mix(pass.digest, t);
    }
    // A seeded sample of the kept requests (two short, one long, one
    // shared, from a seeded starting id) must match serial lm::generate on
    // the same prompt token for token (greedy decoding).
    util::Rng pick(seed_, 0xc4ec);
    std::size_t wanted[3] = {2, 1, 1};
    const auto start =
        static_cast<std::uint64_t>(pick.uniform_int(0, kDigestRequests - 1));
    for (std::uint64_t i = 0; i < kDigestRequests; ++i) {
      const std::uint64_t id = (start + i) % kDigestRequests;
      const Completed& c = kept.at(id);
      std::size_t& left = wanted[static_cast<int>(c.kind)];
      if (left == 0) continue;
      --left;
      const lm::Generation serial =
          lm::generate(server_->model, c.prompt, c.options);
      pass.check(serial.tokens == c.tokens,
                 "request " + std::to_string(id) + " (" + kind_name(c.kind) +
                     ") matches serial lm::generate");
    }

    pass.e2e["work_per_s"] = static_cast<double>(tokens) / wall_s;
    pass.e2e["latency_p50_ms"] = percentile(short_ttft, 50.0);
    pass.e2e["latency_p95_ms"] = percentile(short_ttft, 95.0);
    std::cout << "serve_mixed: " << pass.attempted << " requests ("
              << counts[0] << " short, " << counts[1] << " long, "
              << counts[2] << " shared), " << tokens << " tokens in "
              << wall_s << " s; " << kClients << " closed-loop clients\n"
              << "serve_mixed: decode_tok_s " << tokens / wall_s
              << "; short_ttft_p50_ms " << percentile(short_ttft, 50.0)
              << ", short_ttft_p95_ms " << percentile(short_ttft, 95.0)
              << ", short_ttft_p99_ms " << percentile(short_ttft, 99.0)
              << " (n=" << short_ttft.size() << "); short_tpot_p50_ms "
              << percentile(short_tpot, 50.0) << " (n=" << short_tpot.size()
              << "); shared_ttft_p50_ms " << percentile(shared_ttft, 50.0)
              << " (n=" << shared_ttft.size() << ")\n";

    if (tracer != nullptr) {
      const TimedDecoder& d = *server_->timed;
      double decoder_s = 0.0;
      for (const char* name :
           {"serve.decoder.start", "serve.decoder.step",
            "serve.decoder.release", "cache.prefix.prepare",
            "serve.decoder.abandon_prefix", "serve.decoder.shed_cache",
            "serve.decoder.start_chunked", "serve.decoder.prefill_chunk"}) {
        decoder_s += tracer->total_s(name);
      }
      auto& L = pass.layer;
      L["serve.queue_wait_p50_ms"] = percentile(short_wait, 50.0);
      L["serve.queue_wait_p99_ms"] = percentile(short_wait, 99.0);
      L["serve.step_ms"] = median(tracer->durations_ms("serve.decoder.step"));
      L["serve.step_rows"] = d.steps_ > 0 ? double(d.rows_) / d.steps_ : 0.0;
      L["serve.prefill_chunk_ms"] =
          median(tracer->durations_ms("serve.decoder.prefill_chunk"));
      L["serve.prefill_tok_s"] =
          d.prefill_us_ > 0 ? d.prefill_tokens_ / (d.prefill_us_ * 1e-6) : 0.0;
      L["serve.engine_share"] = 1.0 - decoder_s / wall_s;
      L["serve.short_tpot_p50_ms"] = percentile(short_tpot, 50.0);
      L["serve.shared_ttft_p50_ms"] = percentile(shared_ttft, 50.0);
      L["cache.prefix.hit_token_share"] =
          d.lookup_tokens_ > 0 ? double(d.reused_tokens_) / d.lookup_tokens_
                               : 0.0;
      L["cache.prefix.lookup_us"] =
          1e3 * median(tracer->durations_ms("cache.prefix.prepare"));
      L["cache.prefix.evictions"] = static_cast<double>(
          registry.counter("cache.prefix.evictions").value() - evictions0);
      L["mem.pool.pages_peak"] = static_cast<double>(d.pages_peak());
      L["lm.transformer.step_gflops"] =
          d.step_us_ > 0 ? d.step_flops_ / (d.step_us_ * 1e3) : 0.0;
      L["lm.transformer.step_flops_per_byte"] =
          d.step_bytes_ > 0 ? d.step_flops_ / d.step_bytes_ : 0.0;
      std::cout << "serve_mixed: computed decode cost " << d.step_flops_
                << " FLOP over " << d.step_bytes_ << " B in " << d.steps_
                << " steps (computed from shapes)\n";
    }
    return pass;
  }

  std::map<std::string, std::string> labels() const override {
    return {{"model",
             "TransformerLm f32 vocab 512, d_model 384, 6 heads, 2 layers"},
            {"serve_config",
             "max_batch 8; paged KV page 16; prefill chunk 32; prefix cache "
             "cap 32 MiB; 10 closed-loop clients"},
            {"serve_mix",
             "cycle of 10: 6 short 8+16 tok, 3 shared (4 x 400-token "
             "prefixes + 8)+8 tok, 1 long 320+4 tok; greedy"}};
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<Server> server_;
  std::vector<std::vector<int>> prefixes_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(std::uint64_t seed) {
  return std::make_unique<ServeMixed>(seed);
}

}  // namespace lmbench
