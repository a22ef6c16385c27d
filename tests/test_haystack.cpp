#include "haystack/decoding_set.hpp"
#include "haystack/permutations.hpp"
#include "haystack/value_distribution.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>

#include "lm/generate.hpp"
#include "lm/induction_lm.hpp"
#include "perf/dataset.hpp"
#include "prompt/template.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

namespace lmpeel::haystack {
namespace {

/// Builds a synthetic trace over the tokenizer's id space: each step gets
/// explicit candidates with uniform probability.
lm::GenerationTrace synthetic_trace(
    const tok::Tokenizer& tz,
    const std::vector<std::vector<std::string>>& step_texts) {
  lm::GenerationTrace trace;
  for (const auto& texts : step_texts) {
    lm::Step step;
    for (const auto& t : texts) {
      int id;
      if (t == "\n") {
        id = tz.newline_token();
      } else if (t == ".") {
        id = tz.dot_token();
      } else {
        id = tz.vocab().number_token(t);
      }
      step.candidates.push_back(
          {id, 0.0f, 1.0f / static_cast<float>(texts.size())});
    }
    step.chosen = step.candidates.front().token;
    trace.add_step(std::move(step));
  }
  return trace;
}

TEST(FindValueSpan, LocatesWellFormedValue) {
  tok::Tokenizer tz;
  const auto trace =
      synthetic_trace(tz, {{"0"}, {"."}, {"002"}, {"215"}, {"5"}});
  const auto span = find_value_span(trace, tz);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->first, 0u);
  EXPECT_EQ(span->second, 5u);
}

TEST(FindValueSpan, RejectsValuelessTrace) {
  tok::Tokenizer tz;
  lm::GenerationTrace trace;
  lm::Step step;
  step.candidates.push_back({tz.newline_token(), 0.0f, 1.0f});
  step.chosen = tz.newline_token();
  trace.add_step(step);
  EXPECT_FALSE(find_value_span(trace, tz).has_value());
}

TEST(BuildDecodingSet, ExactEnumerationMatchesCombinatorics) {
  tok::Tokenizer tz;
  // 1 x 1 x 2 x 3 = 6 combinations, all well-formed.
  const auto trace = synthetic_trace(
      tz, {{"0"}, {"."}, {"002", "003"}, {"1", "2", "3"}});
  DecodingOptions options;
  const auto set = build_decoding_set(trace, tz, 0, 4, options);
  EXPECT_TRUE(set.exact);
  EXPECT_DOUBLE_EQ(set.permutations, 6.0);
  EXPECT_EQ(set.values.size(), 6u);
  EXPECT_DOUBLE_EQ(set.sampled_value, 0.0021);
  double mass = 0.0;
  for (const auto& wv : set.values) mass += wv.weight;
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(BuildDecodingSet, TerminationCandidateShortensValue) {
  tok::Tokenizer tz;
  // Third step can terminate: "0.1" (via newline) or "0.12".
  const auto trace =
      synthetic_trace(tz, {{"0"}, {"."}, {"1"}, {"2", "\n"}});
  DecodingOptions options;
  const auto set = build_decoding_set(trace, tz, 0, 4, options);
  ASSERT_EQ(set.values.size(), 2u);
  EXPECT_DOUBLE_EQ(set.values[0].value, 0.1);
  EXPECT_DOUBLE_EQ(set.values[1].value, 0.12);
  EXPECT_NEAR(set.values[0].weight, 0.5, 1e-9);
}

TEST(BuildDecodingSet, MonteCarloApproximatesExact) {
  tok::Tokenizer tz;
  const auto trace = synthetic_trace(
      tz, {{"0"}, {"."}, {"002", "003", "004"}, {"1", "2", "3", "4"}});
  DecodingOptions exact_options;
  const auto exact = build_decoding_set(trace, tz, 0, 4, exact_options);
  DecodingOptions mc_options;
  mc_options.exact_limit = 1;  // force Monte-Carlo
  mc_options.mc_samples = 40000;
  mc_options.seed = 3;
  const auto mc = build_decoding_set(trace, tz, 0, 4, mc_options);
  EXPECT_FALSE(mc.exact);
  ValueDistribution de(exact.values), dm(mc.values);
  EXPECT_NEAR(de.mean(), dm.mean(), 2e-4);
  EXPECT_EQ(de.support_size(), dm.support_size());
}

TEST(ValueDistribution, WeightedStatistics) {
  ValueDistribution dist({{1.0, 1.0}, {3.0, 1.0}, {2.0, 2.0}});
  EXPECT_EQ(dist.support_size(), 3u);
  EXPECT_DOUBLE_EQ(dist.min(), 1.0);
  EXPECT_DOUBLE_EQ(dist.max(), 3.0);
  EXPECT_DOUBLE_EQ(dist.mean(), (1.0 + 3.0 + 2.0 * 2.0) / 4.0);
  EXPECT_DOUBLE_EQ(dist.median(), 2.0);
  EXPECT_DOUBLE_EQ(dist.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dist.quantile(1.0), 3.0);
}

TEST(ValueDistribution, NeedleQueries) {
  ValueDistribution dist({{1.0, 0.5}, {2.0, 0.5}});
  EXPECT_TRUE(dist.contains_within(1.05, 0.10));
  EXPECT_FALSE(dist.contains_within(1.5, 0.10));
  EXPECT_NEAR(dist.mass_within(1.0, 0.10), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(dist.closest_to(1.7), 2.0);
}

TEST(ExactMoments, MatchesEnumerationOnSmallTrace) {
  tok::Tokenizer tz;
  const auto trace = synthetic_trace(
      tz, {{"0"}, {"."}, {"002", "003"}, {"1", "22", "\n"}});
  DecodingOptions options;
  const auto set = build_decoding_set(trace, tz, 0, 4, options);
  ASSERT_TRUE(set.exact);
  const ValueDistribution dist(set.values);
  const auto moments = exact_moments(trace, tz, 0, 4);
  EXPECT_NEAR(moments.mass, 1.0, 1e-12);
  EXPECT_NEAR(moments.mean, dist.mean(), 1e-12);
  // variance against the enumerated distribution
  double var = 0.0;
  for (const auto& wv : dist.values()) {
    var += wv.weight * (wv.value - dist.mean()) * (wv.value - dist.mean());
  }
  EXPECT_NEAR(moments.variance, var, 1e-12);
}

TEST(ExactMoments, HandlesIntegerOnlyPathsAsMalformed) {
  tok::Tokenizer tz;
  // Second step can terminate before the dot: that path is malformed and
  // must be excluded from the mass.
  const auto trace =
      synthetic_trace(tz, {{"1"}, {".", "\n"}, {"5"}});
  const auto moments = exact_moments(trace, tz, 0, 3);
  EXPECT_NEAR(moments.mass, 0.5, 1e-12);
  EXPECT_NEAR(moments.mean, 1.5, 1e-12);
  EXPECT_NEAR(moments.variance, 0.0, 1e-12);
}

TEST(ExactMoments, AgreesWithMonteCarloOnRealTrace) {
  static perf::Dataset data =
      perf::Dataset::generate(perf::Syr2kModel{}, perf::SizeClass::SM, 42);
  tok::Tokenizer tz;
  lm::InductionLm model(tz);
  util::Rng rng(4);
  const auto sets = perf::disjoint_subsets(data.size(), 1, 15, rng);
  std::vector<perf::Sample> icl;
  for (const std::size_t i : sets[0]) icl.push_back(data[i]);
  const prompt::PromptBuilder builder(perf::SizeClass::SM);
  const auto ids = builder.encode(tz, icl, data[321].config);
  lm::GenerateOptions gen;
  gen.sampler = {1.0, 0, 1.0};
  gen.stop_token = tz.newline_token();
  gen.seed = 9;
  const auto generation = lm::generate(model, ids, gen);
  const auto span = find_value_span(generation.trace, tz);
  ASSERT_TRUE(span.has_value());
  DecodingOptions options;
  options.exact_limit = 1;  // force Monte-Carlo
  options.mc_samples = 60000;
  const auto set = build_decoding_set(generation.trace, tz, span->first,
                                      span->second, options);
  const ValueDistribution dist(set.values);
  const auto moments =
      exact_moments(generation.trace, tz, span->first, span->second);
  EXPECT_GT(moments.mass, 0.5);
  EXPECT_NEAR(moments.mean, dist.mean(),
              std::abs(dist.mean()) * 0.05 + 1e-6);
}

TEST(TokenPositionStats, AggregatesAcrossTraces) {
  tok::Tokenizer tz;
  TokenPositionStats stats;
  const auto t1 =
      synthetic_trace(tz, {{"0"}, {"."}, {"002", "003"}, {"5"}});
  const auto t2 = synthetic_trace(
      tz, {{"1", "2", "3"}, {"."}, {"7"}});
  EXPECT_TRUE(stats.add_trace(t1, tz));
  EXPECT_TRUE(stats.add_trace(t2, tz));
  ASSERT_EQ(stats.per_position.size(), 4u);
  EXPECT_EQ(stats.per_position[0].count(), 2u);
  EXPECT_DOUBLE_EQ(stats.per_position[0].mean(), 2.0);  // (1 + 3)/2
  EXPECT_DOUBLE_EQ(stats.per_position[1].mean(), 1.0);  // "." always 1
  EXPECT_EQ(stats.per_position[3].count(), 1u);         // only t1 reached 4
  EXPECT_EQ(stats.traces_with_value, 2u);
  EXPECT_DOUBLE_EQ(stats.permutations.max(), 3.0);
}

TEST(TokenPositionStats, CountsValuelessTraces) {
  tok::Tokenizer tz;
  TokenPositionStats stats;
  lm::GenerationTrace empty;
  EXPECT_FALSE(stats.add_trace(empty, tz));
  EXPECT_EQ(stats.traces_without_value, 1u);
}

TEST(EndToEnd, InductionTraceYieldsLargeHaystack) {
  static perf::Dataset data =
      perf::Dataset::generate(perf::Syr2kModel{}, perf::SizeClass::SM, 42);
  tok::Tokenizer tz;
  lm::InductionLm model(tz);
  util::Rng rng(1);
  const auto sets = perf::disjoint_subsets(data.size(), 1, 25, rng);
  std::vector<perf::Sample> icl;
  for (const std::size_t i : sets[0]) icl.push_back(data[i]);
  const prompt::PromptBuilder builder(perf::SizeClass::SM);
  const auto ids = builder.encode(tz, icl, data[123].config);

  lm::GenerateOptions gen;
  gen.sampler = {1.0, 0, 1.0};
  gen.stop_token = tz.newline_token();
  gen.seed = 5;
  const auto generation = lm::generate(model, ids, gen);
  const auto span = find_value_span(generation.trace, tz);
  ASSERT_TRUE(span.has_value());
  DecodingOptions options;
  options.exact_limit = 5000;
  options.mc_samples = 5000;
  const auto set = build_decoding_set(generation.trace, tz, span->first,
                                      span->second, options);
  EXPECT_GT(set.permutations, 1000.0);
  ValueDistribution dist(set.values);
  EXPECT_GT(dist.support_size(), 50u);
  // With exact enumeration the sampled value is necessarily inside the
  // reachable range; a Monte-Carlo estimate can miss a rare sampled path.
  if (set.exact) {
    EXPECT_GE(set.sampled_value, dist.min());
    EXPECT_LE(set.sampled_value, dist.max());
  } else {
    EXPECT_GT(set.sampled_value, 0.0);
  }
}

/// Two-step trace "0.<d>" whose second step holds explicit candidate probs.
lm::GenerationTrace trace_with_probs(const tok::Tokenizer& tz,
                                     const std::vector<float>& probs) {
  lm::GenerationTrace trace;
  lm::Step head;
  head.candidates.push_back({tz.vocab().number_token("0"), 0.0f, 1.0f});
  head.chosen = head.candidates.front().token;
  trace.add_step(head);
  lm::Step dot;
  dot.candidates.push_back({tz.dot_token(), 0.0f, 1.0f});
  dot.chosen = tz.dot_token();
  trace.add_step(dot);
  lm::Step tail;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    tail.candidates.push_back(
        {tz.vocab().number_token(1, static_cast<int>(1 + i % 9)), 0.0f,
         probs[i]});
  }
  tail.chosen = tail.candidates.front().token;
  trace.add_step(tail);
  return trace;
}

TEST(BuildDecodingSet, RejectsNanAndNegativeCandidateProbs) {
  tok::Tokenizer tz;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  DecodingOptions exact_options;
  DecodingOptions mc_options;
  mc_options.exact_limit = 1;  // force Monte-Carlo
  mc_options.mc_samples = 100;
  for (const auto& probs : {std::vector<float>{0.5f, nan, 0.5f},
                            std::vector<float>{0.7f, -0.2f, 0.5f}}) {
    const auto trace = trace_with_probs(tz, probs);
    EXPECT_THROW(build_decoding_set(trace, tz, 0, 3, exact_options),
                 std::runtime_error);
    EXPECT_THROW(build_decoding_set(trace, tz, 0, 3, mc_options),
                 std::runtime_error);
  }
  // The same shape with valid probabilities builds on both paths.
  const auto valid = trace_with_probs(tz, {0.5f, 0.0f, 0.5f});
  EXPECT_TRUE(build_decoding_set(valid, tz, 0, 3, exact_options).exact);
  EXPECT_FALSE(build_decoding_set(valid, tz, 0, 3, mc_options).exact);
}

TEST(CumulativeTable, RejectsInvalidWeights) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(CumulativeTable(std::vector<double>{}), std::runtime_error);
  EXPECT_THROW(CumulativeTable(std::vector<double>{0.0, 0.0}),
               std::runtime_error);
  EXPECT_THROW(CumulativeTable(std::vector<double>{1.0, -0.5}),
               std::runtime_error);
  EXPECT_THROW(CumulativeTable(std::vector<double>{1.0, nan}),
               std::runtime_error);
  EXPECT_THROW(CumulativeTable(std::vector<double>{1.0, inf}),
               std::runtime_error);
}

/// Differential check against the linear scan: the same seed drives both
/// samplers in lockstep (each consumes one uniform per draw).
TEST(CumulativeTable, AgreesWithLinearScanCategorical) {
  util::Rng gen(2024);
  std::vector<std::vector<double>> cases;
  cases.push_back({3.5});
  cases.push_back({0.25, 0.75});
  cases.push_back({0.0, 0.3});
  std::vector<double> eleven(11);
  for (double& w : eleven) w = gen.uniform();
  eleven[0] = eleven[4] = eleven[10] = 0.0;
  cases.push_back(eleven);
  std::vector<double> one_hot(11, 0.0);
  one_hot[6] = 2.0;
  cases.push_back(one_hot);
  std::vector<double> uniform_k(1000);
  for (double& w : uniform_k) w = gen.uniform() < 0.2 ? 0.0 : gen.uniform();
  cases.push_back(uniform_k);
  std::vector<double> heavy(1000);  // Pareto-like tail, many tiny weights
  for (double& w : heavy) w = std::pow(1.0 - gen.uniform(), -3.0) * 1e-6;
  heavy[0] = 0.0;
  heavy[999] = 0.0;
  cases.push_back(heavy);

  constexpr std::size_t kDraws = 200000;
  std::size_t draws = 0, disagreements = 0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const std::vector<double>& w = cases[c];
    const CumulativeTable table(w);
    util::Rng a(77, c), b(77, c);
    for (std::size_t n = 0; n < kDraws; ++n) {
      const std::size_t fast = table.draw(a);
      const std::size_t slow = b.categorical(w.data(), w.size());
      ++draws;
      ASSERT_LT(fast, w.size());
      ASSERT_GT(w[fast], 0.0) << "zero-weight index " << fast;
      if (fast == slow) continue;
      ++disagreements;
      // Only a rounding tie at a bucket edge may differ: no nonzero weight
      // lies strictly between the two picks.
      for (std::size_t i = std::min(fast, slow) + 1;
           i < std::max(fast, slow); ++i) {
        EXPECT_EQ(w[i], 0.0) << "non-adjacent disagreement " << fast
                             << " vs " << slow;
      }
    }
  }
  EXPECT_GE(draws, 1000000u);
  EXPECT_LE(static_cast<double>(disagreements),
            1e-6 * static_cast<double>(draws));
}

/// Reference copy of the Monte-Carlo estimator as it was written with one
/// Rng::categorical linear scan per draw.
bool reference_well_formed(const std::string& text) {
  const auto dot = text.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= text.size()) {
    return false;
  }
  if (text.find('.', dot + 1) != std::string::npos) return false;
  return util::all_digits(std::string_view(text).substr(0, dot)) &&
         util::all_digits(std::string_view(text).substr(dot + 1));
}

std::vector<WeightedValue> reference_monte_carlo(
    const lm::GenerationTrace& trace, const tok::Tokenizer& tokenizer,
    std::size_t first, std::size_t last, const DecodingOptions& options) {
  const auto is_value_token = [&](int id) {
    return tokenizer.is_number_token(id) || tokenizer.is_dot_token(id);
  };
  std::vector<std::vector<const lm::Candidate*>> cands;
  std::vector<std::vector<double>> probs;
  for (std::size_t s = first; s < last; ++s) {
    std::vector<const lm::Candidate*> sc;
    double total = 0.0;
    for (const lm::Candidate& c : trace.step(s).candidates) {
      sc.push_back(&c);
      total += c.prob;
    }
    std::vector<double> sp;
    for (const lm::Candidate* c : sc) sp.push_back(c->prob / total);
    cands.push_back(std::move(sc));
    probs.push_back(std::move(sp));
  }
  std::unordered_map<double, double> mass;
  util::Rng rng(options.seed, 0x4a57);
  const double sample_weight = 1.0 / static_cast<double>(options.mc_samples);
  for (std::size_t n = 0; n < options.mc_samples; ++n) {
    std::string text;
    bool terminated = false;
    for (std::size_t s = 0; s < cands.size() && !terminated; ++s) {
      const std::size_t c = rng.categorical(probs[s].data(), probs[s].size());
      const lm::Candidate* cand = cands[s][c];
      if (is_value_token(cand->token)) {
        text += tokenizer.token_text(cand->token);
      } else {
        terminated = true;
      }
    }
    if (!reference_well_formed(text)) continue;
    const auto v = util::parse_double(text);
    if (v.has_value()) mass[*v] += sample_weight;
  }
  std::vector<WeightedValue> out;
  for (const auto& [value, weight] : mass) out.push_back({value, weight});
  std::sort(out.begin(), out.end(),
            [](const WeightedValue& a, const WeightedValue& b) {
              return a.value < b.value;
            });
  return out;
}

TEST(BuildDecodingSet, MonteCarloMatchesLinearScanReferenceOnRealTraces) {
  static perf::Dataset data =
      perf::Dataset::generate(perf::Syr2kModel{}, perf::SizeClass::SM, 42);
  tok::Tokenizer tz;
  lm::InductionLm model(tz);
  const prompt::PromptBuilder builder(perf::SizeClass::SM);
  DecodingOptions options;
  options.exact_limit = 1;  // force Monte-Carlo
  options.mc_samples = 4000;
  std::size_t compared = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    util::Rng rng(seed, 0x7e57);
    const std::size_t icl = 3 + seed % 23;
    const auto sets = perf::disjoint_subsets(data.size(), 1, icl, rng);
    std::vector<perf::Sample> examples;
    for (const std::size_t i : sets[0]) examples.push_back(data[i]);
    const auto ids = builder.encode(
        tz, examples, data[rng.uniform_int(0, data.size() - 1)].config);
    lm::GenerateOptions gen;
    gen.sampler = {1.0, 0, 1.0};
    gen.stop_token = tz.newline_token();
    gen.max_tokens = 48;
    gen.seed = seed;
    const auto generation = lm::generate(model, ids, gen);
    const auto span = find_value_span(generation.trace, tz);
    if (!span.has_value()) continue;  // a refusal deviation
    options.seed = seed;
    const auto set = build_decoding_set(generation.trace, tz, span->first,
                                        span->second, options);
    if (set.exact) continue;  // a single reachable path
    const auto want = reference_monte_carlo(generation.trace, tz, span->first,
                                            span->second, options);
    ASSERT_EQ(set.values.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(set.values[i].value, want[i].value) << "seed " << seed;
      EXPECT_EQ(set.values[i].weight, want[i].weight) << "seed " << seed;
    }
    ++compared;
  }
  EXPECT_GE(compared, 40u);
}

/// Reference copy of the exact path as it was written: a std::function
/// depth-first walk that builds each path's text, checks it with
/// reference_well_formed, parses it with util::parse_double and deposits
/// into a hash map in visiting order.
std::vector<WeightedValue> reference_exact(const lm::GenerationTrace& trace,
                                           const tok::Tokenizer& tokenizer,
                                           std::size_t first,
                                           std::size_t last) {
  const auto is_value_token = [&](int id) {
    return tokenizer.is_number_token(id) || tokenizer.is_dot_token(id);
  };
  std::vector<std::vector<const lm::Candidate*>> cands;
  std::vector<std::vector<double>> probs;
  for (std::size_t s = first; s < last; ++s) {
    std::vector<const lm::Candidate*> sc;
    double total = 0.0;
    for (const lm::Candidate& c : trace.step(s).candidates) {
      sc.push_back(&c);
      total += c.prob;
    }
    std::vector<double> sp;
    for (const lm::Candidate* c : sc) sp.push_back(c->prob / total);
    cands.push_back(std::move(sc));
    probs.push_back(std::move(sp));
  }
  std::unordered_map<double, double> mass;
  const auto deposit = [&](const std::string& text, double weight) {
    if (!reference_well_formed(text)) return;
    const auto v = util::parse_double(text);
    if (v.has_value()) mass[*v] += weight;
  };
  std::string text;
  std::function<void(std::size_t, double)> dfs = [&](std::size_t s,
                                                     double weight) {
    if (s == cands.size()) {
      deposit(text, weight);
      return;
    }
    for (std::size_t c = 0; c < cands[s].size(); ++c) {
      const double w = weight * probs[s][c];
      if (w <= 0.0) continue;
      if (is_value_token(cands[s][c]->token)) {
        const std::size_t keep = text.size();
        text += tokenizer.token_text(cands[s][c]->token);
        dfs(s + 1, w);
        text.resize(keep);
      } else {
        deposit(text, w);
      }
    }
  };
  dfs(0, 1.0);
  std::vector<WeightedValue> out;
  for (const auto& [value, weight] : mass) out.push_back({value, weight});
  std::sort(out.begin(), out.end(),
            [](const WeightedValue& a, const WeightedValue& b) {
              return a.value < b.value;
            });
  return out;
}

/// Does any step of [first, last) offer a candidate that ends the value?
bool has_termination_candidate(const lm::GenerationTrace& trace,
                               const tok::Tokenizer& tz, std::size_t first,
                               std::size_t last) {
  for (std::size_t s = first; s < last; ++s) {
    for (const lm::Candidate& c : trace.step(s).candidates) {
      if (!tz.is_number_token(c.token) && !tz.is_dot_token(c.token)) {
        return true;
      }
    }
  }
  return false;
}

void expect_same_values(const std::vector<WeightedValue>& got,
                        const std::vector<WeightedValue>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].value, want[i].value) << label << " #" << i;
    EXPECT_EQ(got[i].weight, want[i].weight) << label << " #" << i;
  }
}

TEST(BuildDecodingSet, ExactMatchesDepthFirstReferenceOnRealTraces) {
  tok::Tokenizer tz;
  lm::InductionLm model(tz);
  DecodingOptions options;
  options.exact_limit = 50000;
  std::size_t compared = 0, with_termination = 0;
  for (const perf::SizeClass size :
       {perf::SizeClass::SM, perf::SizeClass::XL}) {
    const perf::Dataset data =
        perf::Dataset::generate(perf::Syr2kModel{}, size, 42);
    const prompt::PromptBuilder builder(size);
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      util::Rng rng(seed, 0xe8ac7);
      const std::size_t icl = 1 + seed % 12;
      const auto sets = perf::disjoint_subsets(data.size(), 1, icl, rng);
      std::vector<perf::Sample> examples;
      for (const std::size_t i : sets[0]) examples.push_back(data[i]);
      const auto ids = builder.encode(
          tz, examples, data[rng.uniform_int(0, data.size() - 1)].config);
      lm::GenerateOptions gen;
      gen.sampler = {1.0, 0, 1.0};
      gen.stop_token = tz.newline_token();
      gen.max_tokens = 48;
      gen.seed = seed;
      const auto generation = lm::generate(model, ids, gen);
      const auto span = find_value_span(generation.trace, tz);
      if (!span.has_value()) continue;  // a refusal deviation
      const auto set = build_decoding_set(generation.trace, tz, span->first,
                                          span->second, options);
      if (!set.exact) continue;
      const std::string label =
          std::string(perf::size_name(size)) + " seed " + std::to_string(seed);
      expect_same_values(set.values,
                         reference_exact(generation.trace, tz, span->first,
                                         span->second),
                         label);
      ++compared;
      if (has_termination_candidate(generation.trace, tz, span->first,
                                    span->second)) {
        ++with_termination;
      }
    }
  }
  EXPECT_GE(compared, 30u);
  EXPECT_GE(with_termination, 10u);
}

TEST(BuildDecodingSet, ExactMatchesReferenceOnLongLiterals) {
  // Literals past the exact-division range (a mantissa of 2^53 or more, or
  // more than 22 fraction digits) go through from_chars; the results must
  // not change either way.  Termination candidates end some paths early.
  tok::Tokenizer tz;
  const std::vector<std::vector<std::vector<std::string>>> cases = {
      // 9007199254740991 = 2^53 - 1 and 9007199254740992 = 2^53.
      {{"9"}, {"."}, {"007"}, {"199"}, {"254"}, {"740"}, {"991", "992"}},
      {{"999"}, {"999"}, {"999"}, {"."}, {"999"}, {"999", "\n"},
       {"999", "998"}},
      {{"0"}, {"."}, {"000"}, {"000"}, {"000"}, {"000"}, {"000"},
       {"001", "01", "1", "\n"}, {"25", "5", "\n"}},
      {{"1"}, {"."}, {"5"}, {"000", "\n"}, {"000"}, {"000"}, {"000"},
       {"000"}, {"000"}, {"000", "0"}},
  };
  DecodingOptions options;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto trace = synthetic_trace(tz, cases[c]);
    const std::size_t steps = cases[c].size();
    const auto set = build_decoding_set(trace, tz, 0, steps, options);
    ASSERT_TRUE(set.exact);
    expect_same_values(set.values, reference_exact(trace, tz, 0, steps),
                       "case " + std::to_string(c));
  }
}

/// Builds `text` (digit groups and dots) into a DecimalLiteral.
DecimalLiteral literal_of(const std::vector<std::string>& groups) {
  DecimalLiteral literal;
  for (const std::string& g : groups) {
    if (g == ".") {
      literal.push_dot();
    } else {
      literal.push_digits(static_cast<int>(g.size()),
                          static_cast<std::uint64_t>(std::stoull(g)));
    }
  }
  return literal;
}

TEST(DecimalLiteral, ExactDivisionMatchesParseDouble) {
  const std::vector<std::string> groups = {
      "0",  "5",   "9",   "00",  "07",  "42",  "99",
      "000", "001", "050", "123", "500", "999"};
  std::size_t checked = 0;
  for (const std::string& whole : groups) {
    std::vector<std::vector<std::string>> fractions;
    for (const std::string& a : groups) {
      fractions.push_back({a});
      for (const std::string& b : groups) {
        fractions.push_back({a, b});
        for (const std::string& c : groups) fractions.push_back({a, b, c});
      }
    }
    for (const auto& fraction : fractions) {
      std::vector<std::string> parts = {whole, "."};
      std::string text = whole + ".";
      for (const std::string& g : fraction) {
        parts.push_back(g);
        text += g;
      }
      const DecimalLiteral literal = literal_of(parts);
      ASSERT_TRUE(literal.well_formed()) << text;
      const auto fast = literal.value();
      ASSERT_TRUE(fast.has_value()) << text;
      ASSERT_EQ(*fast, *util::parse_double(text)) << text;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 13u * (13u + 13u * 13u + 13u * 13u * 13u));
}

TEST(DecimalLiteral, LongLiteralsFallBackToText) {
  // 15 and 16 significant digits below 2^53 still divide exactly.
  EXPECT_EQ(*literal_of({"123", ".", "456", "789", "012", "345"}).value(),
            *util::parse_double("123.456789012345"));
  EXPECT_EQ(*literal_of({"9", ".", "007", "199", "254", "740", "991"}).value(),
            *util::parse_double("9.007199254740991"));
  // 2^53 and beyond: no exact mantissa.
  EXPECT_FALSE(
      literal_of({"9", ".", "007", "199", "254", "740", "992"}).value());
  EXPECT_FALSE(literal_of({"123", ".", "456", "789", "012", "345", "678"})
                   .value());
  // 22 fraction digits divide exactly; 23 do not.
  const std::vector<std::string> f22 = {"0",   ".",   "000", "000", "000",
                                        "000", "000", "000", "000", "1"};
  EXPECT_EQ(*literal_of(f22).value(),
            *util::parse_double("0.0000000000000000000001"));
  std::vector<std::string> f23 = f22;
  f23.back() = "01";
  EXPECT_FALSE(literal_of(f23).value());
  // A group too long for any mantissa.
  DecimalLiteral wide;
  wide.push_digits(1, 1);
  wide.push_dot();
  wide.push_digits(20, 0);
  EXPECT_TRUE(wide.well_formed());
  EXPECT_FALSE(wide.value());
}

TEST(DecimalLiteral, WellFormedIsDigitsDotDigits) {
  EXPECT_TRUE(literal_of({"0", ".", "5"}).well_formed());
  EXPECT_TRUE(literal_of({"12", ".", "000", "5"}).well_formed());
  EXPECT_FALSE(DecimalLiteral{}.well_formed());
  EXPECT_FALSE(literal_of({"12"}).well_formed());
  EXPECT_FALSE(literal_of({".", "5"}).well_formed());
  EXPECT_FALSE(literal_of({"5", "."}).well_formed());
  EXPECT_FALSE(literal_of({"5", ".", "5", ".", "5"}).well_formed());
  EXPECT_FALSE(literal_of({"5", ".", "."}).well_formed());
}

}  // namespace
}  // namespace lmpeel::haystack
