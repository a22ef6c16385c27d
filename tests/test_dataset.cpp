#include "perf/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <string>

namespace lmpeel::perf {
namespace {

class DatasetFixture : public ::testing::Test {
 protected:
  static const Dataset& data() {
    static const Dataset d =
        Dataset::generate(Syr2kModel{}, SizeClass::SM, 42);
    return d;
  }
};

TEST_F(DatasetFixture, CoversFullSpace) {
  EXPECT_EQ(data().size(), kSpaceSize);
  // config_index matches position and the space mapping.
  ConfigSpace space;
  for (std::size_t i = 0; i < data().size(); i += 331) {
    EXPECT_EQ(data()[i].config_index, i);
    EXPECT_EQ(space.index_of(data()[i].config), i);
    EXPECT_GT(data()[i].runtime, 0.0);
  }
}

TEST_F(DatasetFixture, GenerationIsSeedDeterministic) {
  const Dataset again = Dataset::generate(Syr2kModel{}, SizeClass::SM, 42);
  for (std::size_t i = 0; i < data().size(); i += 101) {
    EXPECT_DOUBLE_EQ(again[i].runtime, data()[i].runtime);
  }
  const Dataset other = Dataset::generate(Syr2kModel{}, SizeClass::SM, 43);
  std::size_t diff = 0;
  for (std::size_t i = 0; i < data().size(); i += 101) {
    if (other[i].runtime != data()[i].runtime) ++diff;
  }
  EXPECT_GT(diff, 50u);
}

TEST_F(DatasetFixture, FeatureMatrixShape) {
  const auto x = data().feature_matrix();
  const auto y = data().targets();
  EXPECT_EQ(x.size(), data().size() * ConfigSpace::kNumFeatures);
  EXPECT_EQ(y.size(), data().size());
}

TEST_F(DatasetFixture, MinMaxBracketAll) {
  const double lo = data().min_runtime();
  const double hi = data().max_runtime();
  EXPECT_LT(lo, hi);
  for (std::size_t i = 0; i < data().size(); i += 77) {
    EXPECT_GE(data()[i].runtime, lo);
    EXPECT_LE(data()[i].runtime, hi);
  }
}

TEST(TrainTestSplit, PartitionsWithoutOverlap) {
  util::Rng rng(1);
  const Split split = train_test_split(100, 80, rng);
  EXPECT_EQ(split.train.size(), 80u);
  EXPECT_EQ(split.test.size(), 20u);
  std::set<std::size_t> all(split.train.begin(), split.train.end());
  all.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(all.size(), 100u);
}

TEST(TrainTestSplit, RejectsOversizedTrain) {
  util::Rng rng(1);
  EXPECT_THROW(train_test_split(10, 11, rng), std::runtime_error);
}

TEST(DisjointSubsets, PairwiseDisjointCorrectSizes) {
  util::Rng rng(2);
  const auto subsets = disjoint_subsets(1000, 5, 100, rng);
  ASSERT_EQ(subsets.size(), 5u);
  std::set<std::size_t> all;
  for (const auto& s : subsets) {
    EXPECT_EQ(s.size(), 100u);
    all.insert(s.begin(), s.end());
  }
  EXPECT_EQ(all.size(), 500u);  // no element shared between subsets
}

TEST(DisjointSubsets, RejectsImpossibleRequest) {
  util::Rng rng(3);
  EXPECT_THROW(disjoint_subsets(10, 3, 4, rng), std::runtime_error);
}

Dataset parse(const std::string& text,
              const std::string& source = "test.csv") {
  std::istringstream in(text);
  return Dataset::read_csv(in, source);
}

TEST(ReadCsvStrict, AcceptsCleanCrlfAndBlankLineInput) {
  const Dataset data = parse(
      "size,config_index,runtime\r\n"
      "SM,0,0.5\r\n"
      "\r\n"
      "SM,7,1.5e-3\r\n");
  ASSERT_EQ(data.size(), 2u);
  EXPECT_EQ(data[1].config_index, 7u);
  EXPECT_EQ(data[1].runtime, 1.5e-3);
}

TEST(ReadCsvStrict, ErrorsNameTheSourceAndTheOffendingLine) {
  try {
    parse("size,config_index,runtime\nSM,0,0.5\nSM,banana,0.5\n", "runs.csv");
    FAIL() << "malformed index must throw";
  } catch (const DatasetParseError& error) {
    EXPECT_EQ(error.source(), "runs.csv");
    EXPECT_EQ(error.line(), 3u);
    EXPECT_NE(std::string(error.what()).find("runs.csv:3"),
              std::string::npos);
  }
}

TEST(ReadCsvStrict, RefusesEveryMalformedShape) {
  const std::string head = "size,config_index,runtime\n";
  // Wrong header, and a header with no data rows at all.
  EXPECT_THROW(parse("wrong header\nSM,0,0.5\n"), DatasetParseError);
  EXPECT_THROW(parse(head), DatasetParseError);
  // Field-count violations in both directions.
  EXPECT_THROW(parse(head + "SM,1\n"), DatasetParseError);
  EXPECT_THROW(parse(head + "SM,1,0.5,extra\n"), DatasetParseError);
  // Size-class violations: unknown name, and mixing classes mid-file.
  EXPECT_THROW(parse(head + "huge,1,0.5\n"), DatasetParseError);
  EXPECT_THROW(parse(head + "SM,0,0.5\nML,1,0.5\n"), DatasetParseError);
  // Index violations: negative, trailing garbage, out of range — exactly
  // what std::stoull would have silently misread.
  EXPECT_THROW(parse(head + "SM,-3,0.5\n"), DatasetParseError);
  EXPECT_THROW(parse(head + "SM,3x,0.5\n"), DatasetParseError);
  EXPECT_THROW(parse(head + "SM,999999999,0.5\n"), DatasetParseError);
  // Runtime violations: not a number, trailing garbage, non-positive,
  // non-finite.
  EXPECT_THROW(parse(head + "SM,1,fast\n"), DatasetParseError);
  EXPECT_THROW(parse(head + "SM,1,0.5garbage\n"), DatasetParseError);
  EXPECT_THROW(parse(head + "SM,1,0\n"), DatasetParseError);
  EXPECT_THROW(parse(head + "SM,1,-0.5\n"), DatasetParseError);
  EXPECT_THROW(parse(head + "SM,1,inf\n"), DatasetParseError);
  EXPECT_THROW(parse(head + "SM,1,nan\n"), DatasetParseError);
}

TEST_F(DatasetFixture, MinimalEditNeighborhoodIsTight) {
  util::Rng rng(4);
  const auto nbh = minimal_edit_neighborhood(data(), 20, rng);
  ASSERT_EQ(nbh.size(), 21u);
  const Syr2kConfig& centre = data()[nbh[0]].config;
  EXPECT_EQ(ConfigSpace::edit_distance(centre, centre), 0);
  int prev = 0;
  for (const std::size_t idx : nbh) {
    const int d = ConfigSpace::edit_distance(data()[idx].config, centre);
    EXPECT_GE(d, prev);  // sorted by distance
    prev = d;
  }
  // 21 nearest neighbours of any config sit within a small ball.
  EXPECT_LE(prev, 4);
}

/// Reference: the comparator sort edit_distance_order replaced, which
/// recomputes both distances on every comparison.
std::vector<std::size_t> reference_edit_order(const Dataset& data,
                                              std::size_t centre) {
  const Syr2kConfig& centre_cfg = data[centre].config;
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const int da = ConfigSpace::edit_distance(
                         data[a].config, centre_cfg);
                     const int db = ConfigSpace::edit_distance(
                         data[b].config, centre_cfg);
                     if (da != db) return da < db;
                     return a < b;
                   });
  return order;
}

TEST(EditDistanceOrder, MatchesComparatorSortForEveryCentre) {
  // 300 seeded rows drawn with replacement, so duplicate configurations
  // (distance-zero ties with the centre) occur.
  util::Rng rng(31);
  std::string csv = "size,config_index,runtime\n";
  for (int i = 0; i < 300; ++i) {
    csv += "SM," + std::to_string(rng.uniform_int(0, 399)) + ",0.5\n";
  }
  std::istringstream in(csv);
  const Dataset data = Dataset::read_csv(in);
  for (std::size_t centre = 0; centre < data.size(); ++centre) {
    ASSERT_EQ(edit_distance_order(data, centre),
              reference_edit_order(data, centre))
        << "centre " << centre;
  }
}

TEST_F(DatasetFixture, EditDistanceOrderMatchesComparatorSortOnFullData) {
  util::Rng rng(5);
  for (int k = 0; k < 20; ++k) {
    const auto centre =
        static_cast<std::size_t>(rng.uniform_int(0, data().size() - 1));
    ASSERT_EQ(edit_distance_order(data(), centre),
              reference_edit_order(data(), centre))
        << "centre " << centre;
  }
}

TEST_F(DatasetFixture, MinimalEditNeighborhoodMatchesComparatorSort) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const std::size_t count = 1 + seed * 7;
    util::Rng rng(seed), reference_rng(seed);
    const auto centre = static_cast<std::size_t>(
        reference_rng.uniform_int(0, data().size() - 1));
    std::vector<std::size_t> want = reference_edit_order(data(), centre);
    want.resize(count + 1);
    EXPECT_EQ(minimal_edit_neighborhood(data(), count, rng), want)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace lmpeel::perf
