#include "core/rspc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace psc::core {

void PackedBoxes::reset(const Subscription& s, std::size_t rows) {
  m_ = s.attribute_count();
  lanes_ = std::max<std::size_t>(4, (m_ + 3) & ~std::size_t{3});
  rows_ = 0;
  boxes_.clear();
  boxes_.reserve(rows * 2 * lanes_);
  lo_.resize(m_);
  width_.resize(m_);
  sampleable_ = true;
  for (std::size_t j = 0; j < m_; ++j) {
    const Interval& range = s.ranges()[j];
    lo_[j] = range.lo;
    width_[j] = range.hi - range.lo;
    sampleable_ = sampleable_ && std::isfinite(range.lo) && std::isfinite(range.hi);
  }
}

Value* PackedBoxes::append_row() {
  const std::size_t base = boxes_.size();
  boxes_.resize(base + 2 * lanes_);
  ++rows_;
  return boxes_.data() + base;
}

void PackedBoxes::pad_row(Value* lo) noexcept {
  constexpr Value kInf = std::numeric_limits<Value>::infinity();
  Value* hi = lo + lanes_;
  std::fill(lo + m_, hi, -kInf);
  std::fill(hi + m_, hi + lanes_, kInf);
}

void PackedBoxes::add(const Subscription& candidate) {
  Value* lo = append_row();
  Value* hi = lo + lanes_;
  const std::span<const Interval> ranges = candidate.ranges();
  if (ranges.size() != m_) {
    std::fill(lo, hi + lanes_, std::numeric_limits<Value>::quiet_NaN());
    return;
  }
  for (std::size_t j = 0; j < m_; ++j) {
    lo[j] = ranges[j].lo;
    hi[j] = ranges[j].hi;
  }
  pad_row(lo);
}

void PackedBoxes::add_row(std::span<const Value> bounds) {
  Value* lo = append_row();
  Value* hi = lo + lanes_;
  for (std::size_t j = 0; j < m_; ++j) {
    lo[j] = bounds[2 * j];
    hi[j] = bounds[2 * j + 1];
  }
  pad_row(lo);
}

void PackedBoxes::require_sampleable() const {
  if (!sampleable_) {
    throw std::invalid_argument(
        "run_rspc: unbounded attribute range cannot be sampled uniformly");
  }
}

RspcResult run_rspc(const PackedBoxes& boxes, std::uint64_t budget,
                    util::Rng& rng, std::vector<Value>& point) {
  RspcResult result;
  const std::size_t m = boxes.attribute_count();
  const std::size_t rows = boxes.size();
  point.assign(boxes.lanes(), 0.0);
  // An empty union covers nothing with positive measure: definite NO
  // without sampling (unless s itself is a point, which we still report as
  // uncovered — there is no subscription to cover it).
  if (rows == 0) {
    boxes.require_sampleable();
    boxes.draw(rng, point.data());
    result.covered = false;
    result.witness.emplace(point.begin(), point.begin() + m);
    return result;
  }
  if (budget > 0) boxes.require_sampleable();
  std::size_t last = 0;  // the row that contained the previous point
  for (std::uint64_t trial = 0; trial < budget; ++trial) {
    ++result.iterations;
    boxes.draw(rng, point.data());
    if (boxes.contains(last, point.data())) continue;
    std::size_t row = 0;
    while (row < rows && (row == last || !boxes.contains(row, point.data()))) ++row;
    if (row == rows) {
      result.covered = false;
      result.witness.emplace(point.begin(), point.begin() + m);
      return result;
    }
    last = row;
  }
  result.covered = true;
  return result;
}

RspcResult run_rspc(const Subscription& s,
                    std::span<const Subscription* const> set,
                    std::uint64_t budget, util::Rng& rng,
                    std::vector<Value>& point_scratch) {
  PackedBoxes boxes;
  boxes.reset(s, set.size());
  for (const Subscription* si : set) boxes.add(*si);
  return run_rspc(boxes, budget, rng, point_scratch);
}

RspcResult run_rspc(const Subscription& s, std::span<const Subscription> set,
                    std::uint64_t budget, util::Rng& rng) {
  PackedBoxes boxes;
  boxes.reset(s, set.size());
  for (const Subscription& si : set) boxes.add(si);
  std::vector<Value> point;
  return run_rspc(boxes, budget, rng, point);
}

}  // namespace psc::core
