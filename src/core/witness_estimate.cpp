#include "core/witness_estimate.hpp"

#include <cmath>
#include <ranges>
#include <stdexcept>

namespace psc::core {

namespace {

/// Measure of a 1-D slab: width for the continuous model, grid-point count
/// for the paper's integer model.
Value slab_measure(Value width, double grid_spacing) {
  if (grid_spacing <= 0.0) return width;
  return std::floor(width / grid_spacing) + 1.0;
}

/// Algorithm 2's last step: rho_w from the witness and tested volumes.
WitnessEstimate finish_estimate(Value witness_volume, Value tested_volume) {
  WitnessEstimate est;
  est.witness_volume = witness_volume;
  est.tested_volume = tested_volume;
  if (est.tested_volume > 0.0 && std::isfinite(est.tested_volume)) {
    est.rho_w = static_cast<double>(witness_volume / est.tested_volume);
    if (est.rho_w > 1.0) est.rho_w = 1.0;
  } else {
    est.rho_w = 0.0;
  }
  return est;
}

template <typename Rows>
WitnessEstimate estimate_over(const ConflictTable& table, const Rows& rows,
                              double grid_spacing) {
  const Subscription& s = table.tested();

  // Algorithm 2: per attribute, the width of the narrowest slab any single
  // subscription fails to cover on either side of s; starts at the full
  // width (no subscription constrains the attribute).
  Value witness_volume = 1.0;
  Value tested_volume = 1.0;
  for (std::size_t j = 0; j < table.attribute_count(); ++j) {
    const Interval& sr = s.range(j);
    Value min_gap = sr.width();
    for (const std::size_t row : rows) {
      if (const auto lower = table.entry(row, 2 * j)) {
        // Slab of s below s_i's lower bound: width = si.lo - s.lo (clamped).
        const Value gap = table.slab(*lower).width();
        if (gap < min_gap) min_gap = gap;
      }
      if (const auto upper = table.entry(row, 2 * j + 1)) {
        const Value gap = table.slab(*upper).width();
        if (gap < min_gap) min_gap = gap;
      }
    }
    witness_volume *= slab_measure(min_gap, grid_spacing);
    tested_volume *= slab_measure(sr.width(), grid_spacing);
  }
  return finish_estimate(witness_volume, tested_volume);
}

}  // namespace

WitnessEstimate estimate_witness_probability(const ConflictTable& table,
                                             double grid_spacing) {
  return estimate_over(table, std::views::iota(std::size_t{0}, table.row_count()),
                       grid_spacing);
}

WitnessEstimate estimate_witness_probability(const ConflictTable& table,
                                             std::span<const std::size_t> rows,
                                             double grid_spacing) {
  return estimate_over(table, rows, grid_spacing);
}

WitnessEstimate estimate_witness_probability(const Subscription& s,
                                             std::span<const McsColumn> columns,
                                             double grid_spacing) {
  Value witness_volume = 1.0;
  Value tested_volume = 1.0;
  const std::span<const Interval> ranges = s.ranges();
  for (std::size_t j = 0; j < ranges.size(); ++j) {
    const Interval& sr = ranges[j];
    // Row i's lower slab is min(lo_i, s.hi) - s.lo wide and its upper slab
    // s.hi - max(hi_i, s.lo), or 0 on an empty range. Where a clamp binds
    // or the range is empty, that width and the plain difference are both
    // >= s.width() (rounding is monotone), which the strict < never takes;
    // elsewhere they are equal. So the plain differences at the extreme
    // bounds give the row walk's minimum.
    Value min_gap = sr.width();
    const McsColumn& lower = columns[2 * j];
    if (lower.best_row != McsColumn::kNone) {
      const Value gap = -lower.best - sr.lo;
      if (gap < min_gap) min_gap = gap;
    }
    const McsColumn& upper = columns[2 * j + 1];
    if (upper.best_row != McsColumn::kNone) {
      const Value gap = sr.hi - upper.best;
      if (gap < min_gap) min_gap = gap;
    }
    witness_volume *= slab_measure(min_gap, grid_spacing);
    tested_volume *= slab_measure(sr.width(), grid_spacing);
  }
  return finish_estimate(witness_volume, tested_volume);
}

double theoretical_trials(double rho_w, double delta) {
  if (!(delta > 0.0 && delta < 1.0)) {
    throw std::invalid_argument("theoretical_trials: delta must be in (0, 1)");
  }
  if (rho_w <= 0.0) return std::numeric_limits<double>::infinity();
  if (rho_w >= 1.0) return 1.0;
  // d = ln(delta) / ln(1 - rho_w); log1p for accuracy at tiny rho_w.
  return std::ceil(std::log(delta) / std::log1p(-rho_w));
}

std::uint64_t capped_trials(double rho_w, double delta, std::uint64_t cap) {
  const double d = theoretical_trials(rho_w, delta);
  if (!std::isfinite(d) || d >= static_cast<double>(cap)) return cap;
  return d < 1.0 ? 1 : static_cast<std::uint64_t>(d);
}

}  // namespace psc::core
