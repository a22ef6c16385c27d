#include "perf/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <numeric>
#include <optional>
#include <ostream>
#include <string>

#include "util/check.hpp"
#include "util/str.hpp"
#include "util/thread_pool.hpp"

namespace lmpeel::perf {

Dataset Dataset::generate(const Syr2kModel& model, SizeClass size,
                          std::uint64_t seed) {
  Dataset out;
  out.size_ = size;
  out.samples_.resize(kSpaceSize);
  const ConfigSpace space;
  util::parallel_for(0, kSpaceSize, [&](std::size_t i) {
    util::Rng rng(seed, /*stream=*/i);
    Sample& s = out.samples_[i];
    s.config_index = i;
    s.config = space.at(i);
    s.runtime = model.measure(s.config, size, rng);
  }, /*grain=*/256);
  return out;
}

const Sample& Dataset::operator[](std::size_t i) const {
  LMPEEL_CHECK(i < samples_.size());
  return samples_[i];
}

std::vector<double> Dataset::feature_matrix() const {
  std::vector<double> flat;
  flat.reserve(samples_.size() * ConfigSpace::kNumFeatures);
  for (const Sample& s : samples_) {
    const auto f = ConfigSpace::features(s.config);
    flat.insert(flat.end(), f.begin(), f.end());
  }
  return flat;
}

std::vector<double> Dataset::targets() const {
  std::vector<double> y;
  y.reserve(samples_.size());
  for (const Sample& s : samples_) y.push_back(s.runtime);
  return y;
}

double Dataset::min_runtime() const {
  LMPEEL_CHECK(!samples_.empty());
  return std::min_element(samples_.begin(), samples_.end(),
                          [](const Sample& a, const Sample& b) {
                            return a.runtime < b.runtime;
                          })
      ->runtime;
}

double Dataset::max_runtime() const {
  LMPEEL_CHECK(!samples_.empty());
  return std::max_element(samples_.begin(), samples_.end(),
                          [](const Sample& a, const Sample& b) {
                            return a.runtime < b.runtime;
                          })
      ->runtime;
}

void Dataset::write_csv(std::ostream& out) const {
  out << "size,config_index,runtime\n";
  char buffer[64];
  for (const Sample& s : samples_) {
    std::snprintf(buffer, sizeof buffer, "%.17g", s.runtime);
    out << size_name(size_) << ',' << s.config_index << ',' << buffer
        << '\n';
  }
}

Dataset Dataset::read_csv(std::istream& in, const std::string& source) {
  Dataset out;
  const ConfigSpace space;
  std::string line;
  std::size_t lineno = 1;
  const auto fail = [&](const std::string& reason) -> void {
    throw DatasetParseError(source, lineno, reason);
  };
  if (std::getline(in, line) && !line.empty() && line.back() == '\r') {
    line.pop_back();  // CRLF files
  }
  if (line != "size,config_index,runtime") {
    fail("expected header 'size,config_index,runtime'");
  }
  bool size_known = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF files
    if (line.empty()) continue;
    const std::vector<std::string> fields = util::split(line, ',');
    if (fields.size() != 3) {
      fail("expected 3 comma-separated fields, got " +
           std::to_string(fields.size()));
    }
    const std::string& size_text = fields[0];
    if (!size_known) {
      bool found = false;
      for (const SizeClass s : kAllSizes) {
        if (size_text == size_name(s)) {
          out.size_ = s;
          found = true;
          break;
        }
      }
      if (!found) fail("unknown size class '" + size_text + "'");
      size_known = true;
    } else if (size_text != size_name(out.size_)) {
      fail("mixed size classes: file started with '" +
           std::string(size_name(out.size_)) + "', row has '" + size_text +
           "'");
    }
    // Strict numeric parsing: std::stoull/stod accept trailing garbage and
    // negative indices, exactly the silent misreads this loader must not
    // make.
    if (!util::all_digits(fields[1])) {
      fail("config_index '" + fields[1] + "' is not a non-negative integer");
    }
    Sample sample;
    char* end = nullptr;
    sample.config_index = std::strtoull(fields[1].c_str(), &end, 10);
    if (sample.config_index >= kSpaceSize) {
      fail("config_index " + fields[1] + " out of range (space size " +
           std::to_string(kSpaceSize) + ")");
    }
    sample.config = space.at(sample.config_index);
    const std::optional<double> runtime = util::parse_double(fields[2]);
    if (!runtime.has_value()) {
      fail("runtime '" + fields[2] + "' is not a number");
    }
    if (!std::isfinite(*runtime) || *runtime <= 0.0) {
      fail("runtime '" + fields[2] + "' must be positive and finite");
    }
    sample.runtime = *runtime;
    out.samples_.push_back(sample);
  }
  if (out.samples_.empty()) fail("no data rows");
  return out;
}

Split train_test_split(std::size_t n, std::size_t train_count,
                       util::Rng& rng) {
  LMPEEL_CHECK(train_count <= n);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order.begin(), order.end());
  Split split;
  split.train.assign(order.begin(), order.begin() + train_count);
  split.test.assign(order.begin() + train_count, order.end());
  return split;
}

std::vector<std::vector<std::size_t>> disjoint_subsets(
    std::size_t n, std::size_t count, std::size_t subset_size,
    util::Rng& rng) {
  LMPEEL_CHECK_MSG(count * subset_size <= n,
                   "not enough elements for disjoint subsets");
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order.begin(), order.end());
  std::vector<std::vector<std::size_t>> subsets(count);
  std::size_t next = 0;
  for (auto& subset : subsets) {
    subset.assign(order.begin() + next, order.begin() + next + subset_size);
    next += subset_size;
  }
  return subsets;
}

std::vector<std::size_t> edit_distance_order(const Dataset& data,
                                             std::size_t centre) {
  const Syr2kConfig& centre_cfg = data[centre].config;
  std::vector<int> distance(data.size());
  int max_distance = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    distance[i] = ConfigSpace::edit_distance(data[i].config, centre_cfg);
    max_distance = std::max(max_distance, distance[i]);
  }
  // Counting sort: bucket starts from the distance histogram, then rows
  // are placed in index order, which keeps ties by index.
  std::vector<std::size_t> start(static_cast<std::size_t>(max_distance) + 2);
  for (const int d : distance) ++start[static_cast<std::size_t>(d) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    order[start[static_cast<std::size_t>(distance[i])]++] = i;
  }
  return order;
}

std::vector<std::size_t> minimal_edit_neighborhood(const Dataset& data,
                                                   std::size_t count,
                                                   util::Rng& rng) {
  LMPEEL_CHECK(count + 1 <= data.size());
  const std::size_t centre =
      static_cast<std::size_t>(rng.uniform_int(0, data.size() - 1));
  std::vector<std::size_t> order = edit_distance_order(data, centre);
  // order[0] is the centre (distance 0) — the query — followed by its
  // nearest neighbours as in-context examples.
  order.resize(count + 1);
  return order;
}

}  // namespace lmpeel::perf
