#include "haystack/value_distribution.hpp"

#include <algorithm>
#include <cmath>

#include "eval/metrics.hpp"
#include "util/check.hpp"

namespace lmpeel::haystack {

ValueDistribution::ValueDistribution(std::vector<WeightedValue> values)
    : values_(std::move(values)) {
  // build_decoding_set already returns values in order.
  const auto by_value = [](const WeightedValue& a, const WeightedValue& b) {
    return a.value < b.value;
  };
  if (!std::is_sorted(values_.begin(), values_.end(), by_value)) {
    std::sort(values_.begin(), values_.end(), by_value);
  }
  double total = 0.0;
  for (const WeightedValue& v : values_) {
    LMPEEL_CHECK(v.weight >= 0.0);
    total += v.weight;
  }
  if (total > 0.0) {
    for (WeightedValue& v : values_) v.weight /= total;
  }
}

double ValueDistribution::min() const {
  LMPEEL_CHECK(!values_.empty());
  return values_.front().value;
}

double ValueDistribution::max() const {
  LMPEEL_CHECK(!values_.empty());
  return values_.back().value;
}

double ValueDistribution::mean() const {
  LMPEEL_CHECK(!values_.empty());
  double acc = 0.0;
  for (const WeightedValue& v : values_) acc += v.value * v.weight;
  return acc;
}

double ValueDistribution::median() const { return quantile(0.5); }

double ValueDistribution::quantile(double q) const {
  LMPEEL_CHECK(!values_.empty());
  LMPEEL_CHECK(q >= 0.0 && q <= 1.0);
  double cum = 0.0;
  for (const WeightedValue& v : values_) {
    cum += v.weight;
    if (cum >= q) return v.value;
  }
  return values_.back().value;
}

double ValueDistribution::mean_unweighted() const {
  LMPEEL_CHECK(!values_.empty());
  double acc = 0.0;
  for (const WeightedValue& v : values_) acc += v.value;
  return acc / static_cast<double>(values_.size());
}

double ValueDistribution::median_unweighted() const {
  LMPEEL_CHECK(!values_.empty());
  // values_ is sorted by value.
  const std::size_t mid = values_.size() / 2;
  if (values_.size() % 2 == 1) return values_[mid].value;
  return 0.5 * (values_[mid - 1].value + values_[mid].value);
}

double ValueDistribution::mass_within(double truth, double bound) const {
  double acc = 0.0;
  for (const WeightedValue& v : values_) {
    if (eval::relative_error(truth, v.value) <= bound) acc += v.weight;
  }
  return acc;
}

bool ValueDistribution::contains_within(double truth, double bound) const {
  return std::any_of(values_.begin(), values_.end(),
                     [&](const WeightedValue& v) {
                       return eval::relative_error(truth, v.value) <= bound;
                     });
}

double ValueDistribution::closest_to(double truth) const {
  LMPEEL_CHECK(!values_.empty());
  double best = values_.front().value;
  double best_err = eval::relative_error(truth, best);
  for (const WeightedValue& v : values_) {
    const double err = eval::relative_error(truth, v.value);
    if (err < best_err) {
      best_err = err;
      best = v.value;
    }
  }
  return best;
}

ExactMoments exact_moments(const lm::GenerationTrace& trace,
                           const tok::Tokenizer& tokenizer,
                           std::size_t first, std::size_t last) {
  LMPEEL_CHECK(first < last && last <= trace.length());
  const auto& vocab = tokenizer.vocab();

  // State: dot_seen ? (1 + fraction digit count) : 0.  Fraction digits are
  // bounded by 3 per step.
  const std::size_t steps = last - first;
  const std::size_t max_frac = 3 * steps + 1;
  struct Cell {
    double p = 0.0;   // probability mass in this state
    double ev = 0.0;  // E[value * 1{state}]
    double ev2 = 0.0; // E[value^2 * 1{state}]
  };
  // index 0: integer part in progress; index 1+f: dot seen, f fraction
  // digits so far.
  std::vector<Cell> state(1 + max_frac), next_state(1 + max_frac);
  state[0].p = 1.0;

  ExactMoments out;
  double final_ev = 0.0, final_ev2 = 0.0;

  for (std::size_t s = first; s < last; ++s) {
    const lm::Step& step = trace.step(s);
    double total_prob = 0.0;
    for (const lm::Candidate& c : step.candidates) total_prob += c.prob;
    LMPEEL_CHECK(total_prob > 0.0);

    for (Cell& c : next_state) c = Cell{};
    for (const lm::Candidate& cand : step.candidates) {
      const double q = cand.prob / total_prob;
      const bool is_num = vocab.is_number(cand.token);
      const bool is_dot = vocab.is_dot(cand.token);
      for (std::size_t idx = 0; idx < state.size(); ++idx) {
        const Cell& cur = state[idx];
        if (cur.p <= 0.0) continue;
        if (is_dot) {
          if (idx == 0) {  // integer part complete, start the fraction
            Cell& dst = next_state[1];
            dst.p += q * cur.p;
            dst.ev += q * cur.ev;
            dst.ev2 += q * cur.ev2;
          }
          // a second dot would be malformed: drop the mass
          continue;
        }
        if (is_num) {
          const std::string& text = vocab.text(cand.token);
          const auto len = text.size();
          const double g = std::stod(text);
          double a, b;  // v' = a*v + b
          std::size_t dst_idx;
          if (idx == 0) {
            a = std::pow(10.0, static_cast<double>(len));
            b = g;
            dst_idx = 0;
          } else {
            const std::size_t f = idx - 1;
            a = 1.0;
            b = g * std::pow(10.0, -static_cast<double>(f + len));
            dst_idx = std::min(idx + len, state.size() - 1);
          }
          Cell& dst = next_state[dst_idx];
          dst.p += q * cur.p;
          dst.ev += q * (a * cur.ev + b * cur.p);
          dst.ev2 += q * (a * a * cur.ev2 + 2.0 * a * b * cur.ev +
                          b * b * cur.p);
          continue;
        }
        // Terminator: a well-formed value needs the dot and >= 1 fraction
        // digit (idx >= 2).
        if (idx >= 2) {
          out.mass += q * cur.p;
          final_ev += q * cur.ev;
          final_ev2 += q * cur.ev2;
        }
      }
    }
    state.swap(next_state);
  }
  // Paths that ran through every step: well-formed iff the dot and at
  // least one fraction digit arrived.
  for (std::size_t idx = 2; idx < state.size(); ++idx) {
    out.mass += state[idx].p;
    final_ev += state[idx].ev;
    final_ev2 += state[idx].ev2;
  }

  if (out.mass > 0.0) {
    out.mean = final_ev / out.mass;
    out.variance = std::max(0.0, final_ev2 / out.mass - out.mean * out.mean);
  }
  return out;
}

}  // namespace lmpeel::haystack
