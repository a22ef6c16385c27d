#include "perf/config_space.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/check.hpp"

namespace lmpeel::perf {

ProblemSize problem_size(SizeClass size) noexcept {
  switch (size) {
    case SizeClass::S:  return {60, 80};
    case SizeClass::SM: return {130, 160};   // stated in the paper's prompt
    case SizeClass::M:  return {200, 240};
    case SizeClass::ML: return {600, 720};
    case SizeClass::L:  return {1000, 1200};
    case SizeClass::XL: return {2000, 2600};
  }
  return {0, 0};
}

const char* size_name(SizeClass size) noexcept {
  switch (size) {
    case SizeClass::S:  return "S";
    case SizeClass::SM: return "SM";
    case SizeClass::M:  return "M";
    case SizeClass::ML: return "ML";
    case SizeClass::L:  return "L";
    case SizeClass::XL: return "XL";
  }
  return "?";
}

ConfigSpace::ConfigSpace() = default;

Syr2kConfig ConfigSpace::at(std::size_t index) const {
  LMPEEL_CHECK(index < kSpaceSize);
  Syr2kConfig c;
  c.pack_a = (index % 2) != 0;
  index /= 2;
  c.pack_b = (index % 2) != 0;
  index /= 2;
  c.interchange = (index % 2) != 0;
  index /= 2;
  c.tile_outer = kTileValues[index % kNumTileValues];
  index /= kNumTileValues;
  c.tile_middle = kTileValues[index % kNumTileValues];
  index /= kNumTileValues;
  c.tile_inner = kTileValues[index % kNumTileValues];
  return c;
}

std::size_t ConfigSpace::index_of(const Syr2kConfig& config) const {
  std::size_t index = tile_rank(config.tile_inner);
  index = index * kNumTileValues + tile_rank(config.tile_middle);
  index = index * kNumTileValues + tile_rank(config.tile_outer);
  index = index * 2 + (config.interchange ? 1 : 0);
  index = index * 2 + (config.pack_b ? 1 : 0);
  index = index * 2 + (config.pack_a ? 1 : 0);
  return index;
}

namespace {

/// Rank of every tile value up to the largest, -1 off the grid, so a rank
/// is one lookup (edit_distance_order takes six per dataset row).
static_assert(std::is_sorted(kTileValues.begin(), kTileValues.end()));
constexpr auto kTileRankOf = [] {
  std::array<int, kTileValues.back() + 1> rank{};
  rank.fill(-1);
  for (std::size_t i = 0; i < kNumTileValues; ++i) {
    rank[static_cast<std::size_t>(kTileValues[i])] = static_cast<int>(i);
  }
  return rank;
}();

}  // namespace

std::size_t ConfigSpace::tile_rank(int tile_value) {
  const int rank =
      tile_value >= 0 && tile_value < static_cast<int>(kTileRankOf.size())
          ? kTileRankOf[static_cast<std::size_t>(tile_value)]
          : -1;
  LMPEEL_CHECK_MSG(rank >= 0, "tile value not in the syr2k grid");
  return static_cast<std::size_t>(rank);
}

int ConfigSpace::edit_distance(const Syr2kConfig& a, const Syr2kConfig& b) {
  int d = 0;
  d += a.pack_a != b.pack_a;
  d += a.pack_b != b.pack_b;
  d += a.interchange != b.interchange;
  d += std::abs(static_cast<int>(tile_rank(a.tile_outer)) -
                static_cast<int>(tile_rank(b.tile_outer)));
  d += std::abs(static_cast<int>(tile_rank(a.tile_middle)) -
                static_cast<int>(tile_rank(b.tile_middle)));
  d += std::abs(static_cast<int>(tile_rank(a.tile_inner)) -
                static_cast<int>(tile_rank(b.tile_inner)));
  return d;
}

std::vector<double> ConfigSpace::features(const Syr2kConfig& config) {
  return {
      config.pack_a ? 1.0 : 0.0,
      config.pack_b ? 1.0 : 0.0,
      config.interchange ? 1.0 : 0.0,
      std::log2(static_cast<double>(config.tile_outer)),
      std::log2(static_cast<double>(config.tile_middle)),
      std::log2(static_cast<double>(config.tile_inner)),
  };
}

const std::array<std::string, ConfigSpace::kNumFeatures>&
ConfigSpace::feature_names() {
  static const std::array<std::string, kNumFeatures> names = {
      "first_array_packed",    "second_array_packed",
      "interchange_first_two_loops", "outer_loop_tiling_factor",
      "middle_loop_tiling_factor",   "inner_loop_tiling_factor"};
  return names;
}

}  // namespace lmpeel::perf
