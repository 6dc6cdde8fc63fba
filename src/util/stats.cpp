#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace psc::util {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double x : samples_) sum += x;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const noexcept {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double SampleSet::percentile(double pct) const {
  if (samples_.empty()) throw std::logic_error("SampleSet::percentile on empty set");
  ensure_sorted();
  const double clamped = std::clamp(pct, 0.0, 100.0);
  const double pos = clamped / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

}  // namespace psc::util
