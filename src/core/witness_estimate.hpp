// Witness-probability estimate rho_w and trial bound d (paper, Algorithm 2
// and Equation 1).
//
// rho_w is the probability that one uniform point drawn inside s is a point
// witness to non-cover. The paper lower-bounds it by the relative size of
// the smallest plausible polyhedron witness: per attribute, the minimum
// uncovered gap any single subscription leaves on either side of s, then the
// product of those gaps over attributes, normalized by I(s).
//
// From a target error probability delta, the number of Monte-Carlo trials is
//   d = ceil( ln(delta) / ln(1 - rho_w) )
// so that (1 - rho_w)^d <= delta. Both quantities are computed in
// polynomial time before running RSPC.
//
// Per attribute, the minimum gap depends on the rows only through their
// smallest defined lower bound and largest defined upper bound: a lower
// slab's width min(lo_i, s.hi) - s.lo grows with lo_i, and floating-point
// subtraction of a constant is monotone, so the minimum over rows is the
// width at the minimum bound (symmetrically for upper slabs). The engine
// therefore reads rho_w off MCS's final column extremes in O(m); the
// table overloads walk the rows (O(m k)) and give the same bits.
#pragma once

#include <cstdint>
#include <limits>
#include <span>

#include "core/conflict_table.hpp"
#include "core/mcs.hpp"

namespace psc::core {

struct WitnessEstimate {
  /// Estimated measure of the smallest polyhedron witness, I(s_w).
  Value witness_volume = 0.0;
  /// I(s), the measure of the tested subscription.
  Value tested_volume = 0.0;
  /// rho_w = witness_volume / tested_volume (0 when either is 0 or s has
  /// infinite volume).
  double rho_w = 0.0;
};

/// Runs Algorithm 2 on a built conflict table. O(m * k).
///
/// `grid_spacing` selects the volume measure:
///   * 0 (default): continuous Lebesgue measure — I(x) is the product of
///     interval widths.
///   * > 0: the paper's integer-point counting on a grid of that spacing —
///     I(x) is the product of (floor(width / spacing) + 1) point counts.
///     Point counting inflates the relative size of thin slabs (the "+1"),
///     making rho_w optimistic for narrow gaps; this is the discretization
///     effect behind the elevated false-decision counts the paper reports
///     at small gap sizes (Figure 12).
[[nodiscard]] WitnessEstimate estimate_witness_probability(
    const ConflictTable& table, double grid_spacing = 0.0);

/// As above over the listed rows only — the estimate for the subset they
/// name, without building that subset's table (the engine passes the rows
/// MCS kept).
[[nodiscard]] WitnessEstimate estimate_witness_probability(
    const ConflictTable& table, std::span<const std::size_t> rows,
    double grid_spacing);

/// As above over the rows MCS kept, from the column extremes run_mcs left
/// in `columns` (2m of them, over those rows): columns[2j].best is minus
/// their minimum defined lower bound on attribute j, columns[2j+1].best
/// their maximum defined upper bound. O(m); bit-identical to the row walk
/// over result.kept.
[[nodiscard]] WitnessEstimate estimate_witness_probability(
    const Subscription& s, std::span<const McsColumn> columns,
    double grid_spacing);

/// Number of RSPC trials for error bound delta given rho_w (Equation 1).
/// Returns +inf (as double) when rho_w <= 0 — there is no finite bound and
/// callers must cap. delta must be in (0, 1).
[[nodiscard]] double theoretical_trials(double rho_w, double delta);

/// theoretical_trials capped to a concrete iteration budget. A zero or
/// non-finite theoretical bound maps to the cap itself.
[[nodiscard]] std::uint64_t capped_trials(double rho_w, double delta,
                                          std::uint64_t cap);

}  // namespace psc::core
