// Running statistics and percentile summaries used by the benchmark
// harnesses to aggregate per-run measurements (iteration counts, set sizes,
// reduction ratios) into the series the paper plots.
#pragma once

#include <cstddef>
#include <vector>

namespace psc::util {

/// Welford-style online accumulator: numerically stable mean/variance with
/// O(1) memory. Suitable for millions of observations.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Stores all samples for exact percentiles. Use when n is modest
/// (the bench harnesses collect at most a few thousand samples per cell).
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    // A percentile query sorts the sample buffer in place; a later add
    // breaks that order, so the next query must re-sort. Without this
    // reset an add-after-percentile sequence reads percentiles of a
    // partially sorted vector (regression: tests/util_test.cpp).
    sorted_ = false;
  }
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Percentile in [0, 100] by linear interpolation; requires count() > 0.
  [[nodiscard]] double percentile(double pct) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;

  void ensure_sorted() const;
};

}  // namespace psc::util
