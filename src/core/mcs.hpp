// Minimized Cover Set (paper, Algorithm 3 with Propositions 3-4).
//
// Iteratively removes subscriptions that are provably irrelevant to the
// group-coverage question for s:
//   * rows with a conflict-free defined entry (fc_i >= 1): any polyhedron
//     witness avoiding the other rows can be extended through the
//     conflict-free slab, so row i never "saves" the cover;
//   * rows with t_i >= k defined entries (k = current set size): a witness
//     of the other k-1 rows can always dodge at most k-1 conflicts, leaving
//     a free slab in row i.
// Rows removed for either reason also shrink k, so the sweep repeats until
// a fixed point. The surviving set S' is checked by RSPC; an empty S' is a
// definite NO (no candidate subset can jointly cover s).
//
// Conflict-free detection exploits the geometry: entries on different
// attributes never conflict, and two defined opposite-side entries
// "x_j < a" and "x_j > b" of different rows conflict (Definition 5) iff
// b >= a, or s is degenerate on attribute j. So an entry conflicts iff the
// extreme bound of the opposite column over the other alive rows reaches
// it: a lower entry x < a iff their max defined upper bound is >= a, an
// upper entry x > b iff their min defined lower bound is <= b. Each column
// keeps that extreme, the row holding it and the runner-up (McsColumn), so
// the test is O(1) per entry. Each row keeps the list of its defined
// columns, so a sweep costs O(defined entries of the alive rows), and each
// column keeps a list of the rows where it is defined, in ascending order.
// One row-major pass builds both and seeds the extremes. A column is
// recomputed only when a removed row was its holder or runner-up, and a
// recompute scans that column's list, dropping the rows removed since its
// last scan: it costs O(defined entries still listed), not O(k), and finds
// the same holder and runner-up with the same tie-breaks as a scan over
// every row. A whole run is O(m k) to seed plus O(m k) per sweep plus the
// recomputes, at most O(m k^2) in all. The paper's bound, O(m^2 k^3), is
// looser.
//
// When MCS has run, the columns hold the extremes over the kept rows that
// Algorithm 2 needs: the engine estimates rho_w from them in O(m) (see
// witness_estimate.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/conflict_table.hpp"

namespace psc::core {

struct McsResult {
  /// Indices (into the original set) of the surviving subscriptions.
  std::vector<std::size_t> kept;
  /// Sweep count until fixed point (>= 1 for non-empty inputs).
  std::size_t sweeps = 0;
  /// Rows removed because of a conflict-free entry.
  std::size_t removed_conflict_free = 0;
  /// Rows removed because t_i >= current k.
  std::size_t removed_defined_count = 0;

  [[nodiscard]] bool empty() const noexcept { return kept.empty(); }
};

/// One conflict-table column's extreme over the alive rows where it is
/// defined. Extremes are kept as maxima of a key: an upper column's key is
/// its bound, a lower column's the negated bound, so both conflict tests
/// read "the other rows' max key >= -(own key)".
struct McsColumn {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  Value best = 0.0;               ///< max key (valid when best_row != kNone)
  Value second = 0.0;             ///< runner-up key, over rows != best_row
  std::size_t best_row = kNone;
  std::size_t second_row = kNone;
  bool degenerate = false;        ///< s has zero width on this attribute
  /// Length of the column's list in McsScratch::entries; it may still
  /// name rows removed since the column's last recompute.
  std::size_t listed = 0;
};

/// MCS's reusable buffers. Capacity survives across runs, so once they
/// have grown to a table's rows and entries, runs on tables no larger in
/// either allocate nothing.
struct McsScratch {
  std::vector<char> alive;            ///< alive mask over the table's rows
  std::vector<McsColumn> columns;     ///< per-column extremes (2m)
  /// Column c's list of rows where it is defined, ascending:
  /// entries[c * k, c * k + columns[c].listed), with k the table's row
  /// count.
  std::vector<std::uint32_t> entries;
  /// Row r's defined columns, ascending: row_columns[r * 2m, r * 2m + t_r).
  std::vector<std::uint32_t> row_columns;
};

/// Runs MCS on a built conflict table. The table itself is not mutated;
/// removal is tracked with an alive mask.
[[nodiscard]] McsResult run_mcs(const ConflictTable& table);

/// Allocation-free variant: writes into `result` (its kept vector is
/// cleared and refilled, capacity reused) and works in `scratch`. On
/// return, scratch.alive marks the kept rows and scratch.columns holds
/// each column's extremes over them.
void run_mcs(const ConflictTable& table, McsResult& result, McsScratch& scratch);

/// As above with `alive_scratch` as the alive mask and local column
/// buffers (allocates them).
void run_mcs(const ConflictTable& table, McsResult& result,
             std::vector<char>& alive_scratch);

}  // namespace psc::core
