#include "prompt/parser.hpp"
#include "prompt/render.hpp"
#include "prompt/template.hpp"

#include <gtest/gtest.h>

#include "perf/dataset.hpp"
#include "tok/tokenizer.hpp"
#include "util/str.hpp"

namespace lmpeel::prompt {
namespace {

perf::Syr2kConfig fig1_query() {
  perf::Syr2kConfig c;
  c.pack_a = false;
  c.pack_b = true;
  c.interchange = false;
  c.tile_outer = 128;
  c.tile_middle = 80;
  c.tile_inner = 80;
  return c;
}

TEST(Render, ConfigLineMatchesFig1Structure) {
  const std::string line = render_config(fig1_query(), perf::SizeClass::SM);
  EXPECT_EQ(line,
            "Hyperparameter configuration: size is SM, "
            "first_array_packed is False, second_array_packed is True, "
            "interchange_first_two_loops is False, "
            "outer_loop_tiling_factor is 128, "
            "middle_loop_tiling_factor is 80, "
            "inner_loop_tiling_factor is 80");
}

TEST(Render, PerformanceLineMatchesFig1) {
  EXPECT_EQ(render_performance(0.0022155), "Performance: 0.0022155");
  EXPECT_EQ(render_value(2.7345), "2.7345");
}

TEST(Render, ScientificVariantForAblation) {
  EXPECT_EQ(render_performance(0.0022155, NumberFormat::Scientific),
            "Performance: 2.2155e-03");
}

TEST(Template, SectionsContainFig1Phrases) {
  const PromptBuilder builder(perf::SizeClass::SM);
  EXPECT_NE(builder.system_text().find(
                "Do NOT explain your thought process"),
            std::string::npos);
  const std::string problem = builder.problem_text();
  EXPECT_NE(problem.find("For size 'SM', M=130 and N=160"),
            std::string::npos);
  EXPECT_NE(problem.find("lower is better"), std::string::npos);
  EXPECT_NE(problem.find("C[i,k] = A[k,j]*alpha*B[i,j]"), std::string::npos);
}

TEST(Template, QueryEndsWithBareMarker) {
  const PromptBuilder builder(perf::SizeClass::SM);
  const std::string q = builder.query_text(fig1_query());
  EXPECT_TRUE(q.ends_with("Performance:"));
  EXPECT_NE(q.find("Please complete the following:"), std::string::npos);
}

TEST(Template, IclBlockHasOneValuePerExample) {
  static const perf::Dataset data =
      perf::Dataset::generate(perf::Syr2kModel{}, perf::SizeClass::SM, 42);
  std::vector<perf::Sample> examples{data[0], data[1], data[2]};
  const PromptBuilder builder(perf::SizeClass::SM);
  const std::string icl = builder.icl_text(examples);
  std::size_t count = 0, pos = 0;
  while ((pos = icl.find("Performance: ", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 3u);
}

TEST(Template, EncodeWrapsWithSpecialTokens) {
  static const perf::Dataset data =
      perf::Dataset::generate(perf::Syr2kModel{}, perf::SizeClass::SM, 42);
  std::vector<perf::Sample> examples{data[5]};
  const PromptBuilder builder(perf::SizeClass::SM);
  tok::Tokenizer tz;
  const auto ids = builder.encode(tz, examples, fig1_query());
  ASSERT_GT(ids.size(), 10u);
  EXPECT_EQ(ids[0], tok::kBos);
  EXPECT_EQ(ids[1], tok::kSystem);
  EXPECT_EQ(ids.back(), tok::kAssistant);
  // The token right before <|assistant|> must be the ":" of the marker.
  EXPECT_EQ(tz.token_text(ids[ids.size() - 2]), ":");
}

TEST(Template, EncodePrefixPlusAppendQueryMatchesEncode) {
  // The shared-prefix split (DESIGN.md §12) must reproduce the one-shot
  // encoding exactly, for any query: the LLAMBO tuner encodes the ICL
  // block once and appends per-candidate queries, and the serve layer's
  // prefix cache keys on those ids being identical across candidates.
  static const perf::Dataset data =
      perf::Dataset::generate(perf::Syr2kModel{}, perf::SizeClass::SM, 42);
  std::vector<perf::Sample> examples{data[5], data[9], data[13]};
  const PromptBuilder builder(perf::SizeClass::SM);
  tok::Tokenizer tz;
  const auto prefix = builder.encode_prefix(tz, examples);
  for (const std::size_t q : {0u, 7u, 21u}) {
    auto split_ids = prefix;
    builder.append_query(tz, data[q].config, split_ids);
    EXPECT_EQ(split_ids, builder.encode(tz, examples, data[q].config))
        << "query " << q;
  }
}

TEST(Template, EncodePrefixSplitHoldsForSweepShapedPrompts) {
  // The sweep encodes a Random cell's shared ICL block once and appends
  // each query; check the split at its ICL counts on both size classes,
  // with BPE merges trained on prompt text as the pipeline's are.
  for (const perf::SizeClass size :
       {perf::SizeClass::SM, perf::SizeClass::XL}) {
    const perf::Dataset data =
        perf::Dataset::generate(perf::Syr2kModel{}, size, 42);
    const PromptBuilder builder(size);
    tok::Tokenizer tz;
    tz.train_bpe(builder.system_text() + builder.user_text(
                                             {data.samples().data(), 20},
                                             data[7].config),
                 300);
    for (const std::size_t icl : {1u, 10u, 100u}) {
      std::vector<perf::Sample> examples;
      for (std::size_t i = 0; i < icl; ++i) {
        examples.push_back(data[(i * 97 + icl) % data.size()]);
      }
      const auto prefix = builder.encode_prefix(tz, examples);
      for (const std::size_t q : {3u, 4321u}) {
        auto split_ids = prefix;
        builder.append_query(tz, data[q].config, split_ids);
        EXPECT_EQ(split_ids, builder.encode(tz, examples, data[q].config))
            << perf::size_name(size) << " icl " << icl << " query " << q;
      }
    }
  }
}

// ---- parser ---------------------------------------------------------------

TEST(Parser, PlainValue) {
  const auto r = parse_response(" 0.0022155\n");
  ASSERT_TRUE(r.value.has_value());
  EXPECT_DOUBLE_EQ(*r.value, 0.0022155);
  EXPECT_EQ(r.value_text, "0.0022155");
  EXPECT_FALSE(r.deviated);
}

TEST(Parser, ValueAfterPreambleIsDeviation) {
  const auto r = parse_response(
      "Based on the provided examples, the predicted performance is 0.0031");
  ASSERT_TRUE(r.value.has_value());
  EXPECT_DOUBLE_EQ(*r.value, 0.0031);
  EXPECT_TRUE(r.deviated);
}

TEST(Parser, TakesFirstDecimalWhenSeveral) {
  const auto r = parse_response(" 1.5 to 2.5\n");
  ASSERT_TRUE(r.value.has_value());
  EXPECT_DOUBLE_EQ(*r.value, 1.5);
  EXPECT_TRUE(r.deviated);
}

TEST(Parser, IntegerAloneIsNotAValue) {
  const auto r = parse_response("configuration 128 looks fast");
  EXPECT_FALSE(r.value.has_value());
  EXPECT_TRUE(r.deviated);
}

TEST(Parser, RefusalYieldsNothing) {
  const auto r = parse_response(
      "I cannot accurately determine the runtime for this configuration "
      "without additional information.");
  EXPECT_FALSE(r.value.has_value());
  EXPECT_TRUE(r.deviated);
}

TEST(Parser, EmptyResponse) {
  const auto r = parse_response("   ");
  EXPECT_FALSE(r.value.has_value());
  EXPECT_FALSE(r.deviated);
}

TEST(Parser, VerbatimCopyDetection) {
  const std::vector<std::string> icl{"0.0022155", "1.5"};
  EXPECT_TRUE(is_verbatim_copy("0.0022155", icl));
  EXPECT_FALSE(is_verbatim_copy("0.00221550", icl));  // char-exact only
  EXPECT_FALSE(is_verbatim_copy("2.5", icl));
}

TEST(Parser, ConfigLineRoundTrips) {
  const perf::Syr2kConfig original = fig1_query();
  const std::string line = render_config(original, perf::SizeClass::SM);
  const auto parsed = parse_config_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, original);
}

TEST(Parser, ConfigLineRejectsIllegalTile) {
  std::string line = render_config(fig1_query(), perf::SizeClass::SM);
  line = util::replace_all(line, "outer_loop_tiling_factor is 128",
                           "outer_loop_tiling_factor is 77");
  EXPECT_FALSE(parse_config_line(line).has_value());
}

TEST(Parser, ConfigLineRejectsMissingField) {
  std::string line = render_config(fig1_query(), perf::SizeClass::SM);
  line = util::replace_all(line, "second_array_packed", "other_field");
  EXPECT_FALSE(parse_config_line(line).has_value());
}

TEST(Parser, ConfigLineRejectsBadBoolean) {
  std::string line = render_config(fig1_query(), perf::SizeClass::SM);
  line = util::replace_all(line, "first_array_packed is False",
                           "first_array_packed is Maybe");
  EXPECT_FALSE(parse_config_line(line).has_value());
}

}  // namespace
}  // namespace lmpeel::prompt
