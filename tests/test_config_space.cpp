#include "perf/config_space.hpp"

#include <gtest/gtest.h>

#include <set>

namespace lmpeel::perf {
namespace {

TEST(ConfigSpace, SizeMatchesPaper) {
  // 11 tile values ^ 3 loops * 2^3 booleans = 10,648 — the paper's count.
  EXPECT_EQ(kSpaceSize, 10648u);
  EXPECT_EQ(ConfigSpace().size(), 10648u);
}

TEST(ConfigSpace, IndexBijection) {
  ConfigSpace space;
  std::set<std::size_t> seen;
  for (std::size_t i = 0; i < space.size(); i += 7) {
    const Syr2kConfig c = space.at(i);
    EXPECT_EQ(space.index_of(c), i);
    seen.insert(i);
  }
  EXPECT_GT(seen.size(), 1500u);
}

TEST(ConfigSpace, AtRejectsOutOfRange) {
  ConfigSpace space;
  EXPECT_THROW(space.at(kSpaceSize), std::runtime_error);
}

TEST(ConfigSpace, TileRankMatchesGrid) {
  EXPECT_EQ(ConfigSpace::tile_rank(4), 0u);
  EXPECT_EQ(ConfigSpace::tile_rank(128), kNumTileValues - 1);
  EXPECT_THROW(ConfigSpace::tile_rank(17), std::runtime_error);
  // Off both ends of the rank lookup table.
  EXPECT_THROW(ConfigSpace::tile_rank(-4), std::runtime_error);
  EXPECT_THROW(ConfigSpace::tile_rank(256), std::runtime_error);
  for (std::size_t i = 0; i < kNumTileValues; ++i) {
    EXPECT_EQ(ConfigSpace::tile_rank(kTileValues[i]), i);
  }
}

TEST(EditDistance, IdentityAndSymmetry) {
  ConfigSpace space;
  const Syr2kConfig a = space.at(123);
  const Syr2kConfig b = space.at(4567);
  EXPECT_EQ(ConfigSpace::edit_distance(a, a), 0);
  EXPECT_EQ(ConfigSpace::edit_distance(a, b),
            ConfigSpace::edit_distance(b, a));
}

TEST(EditDistance, CountsBooleansAndTileRanks) {
  Syr2kConfig a, b;
  a.tile_outer = 4;
  b = a;
  b.pack_a = true;                      // +1
  b.tile_outer = 16;                    // rank 0 -> rank 2: +2
  EXPECT_EQ(ConfigSpace::edit_distance(a, b), 3);
}

TEST(EditDistance, TriangleInequalityOnSamples) {
  ConfigSpace space;
  for (std::size_t i = 0; i < 50; ++i) {
    const auto a = space.at(i * 97 % kSpaceSize);
    const auto b = space.at(i * 331 % kSpaceSize);
    const auto c = space.at(i * 7919 % kSpaceSize);
    EXPECT_LE(ConfigSpace::edit_distance(a, c),
              ConfigSpace::edit_distance(a, b) +
                  ConfigSpace::edit_distance(b, c));
  }
}

TEST(Features, ShapeAndEncoding) {
  Syr2kConfig c;
  c.pack_a = true;
  c.interchange = true;
  c.tile_outer = 8;
  c.tile_middle = 32;
  c.tile_inner = 128;
  const auto f = ConfigSpace::features(c);
  ASSERT_EQ(f.size(), ConfigSpace::kNumFeatures);
  EXPECT_DOUBLE_EQ(f[0], 1.0);  // pack_a
  EXPECT_DOUBLE_EQ(f[1], 0.0);  // pack_b
  EXPECT_DOUBLE_EQ(f[2], 1.0);  // interchange
  EXPECT_DOUBLE_EQ(f[3], 3.0);  // log2(8)
  EXPECT_DOUBLE_EQ(f[4], 5.0);  // log2(32)
  EXPECT_DOUBLE_EQ(f[5], 7.0);  // log2(128)
}

TEST(ProblemSize, PaperSmExtents) {
  // Fig. 1: "For size 'SM', M=130 and N=160."
  const ProblemSize sm = problem_size(SizeClass::SM);
  EXPECT_EQ(sm.m, 130);
  EXPECT_EQ(sm.n, 160);
}

TEST(ProblemSize, LadderIsMonotone) {
  int prev_m = 0, prev_n = 0;
  for (const SizeClass s : kAllSizes) {
    const ProblemSize ps = problem_size(s);
    EXPECT_GT(ps.m, prev_m);
    EXPECT_GT(ps.n, prev_n);
    prev_m = ps.m;
    prev_n = ps.n;
  }
}

TEST(SizeName, AllNamed) {
  EXPECT_STREQ(size_name(SizeClass::SM), "SM");
  EXPECT_STREQ(size_name(SizeClass::XL), "XL");
}

}  // namespace
}  // namespace lmpeel::perf
