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
// the test is O(1) per entry and a sweep is O(m k). A column is recomputed
// (O(k)) only when a removed row was its holder or runner-up, which costs
// O(m k) per removal and O(m k^2) over a whole run. The paper's bound,
// O(m^2 k^3), is looser.
#pragma once

#include <cstddef>
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
};

/// Runs MCS on a built conflict table. The table itself is not mutated;
/// removal is tracked with an alive mask.
[[nodiscard]] McsResult run_mcs(const ConflictTable& table);

/// Allocation-free variant: writes into `result` (its kept vector is
/// cleared and refilled, capacity reused) with `alive_scratch` as the alive
/// mask and `column_scratch` as the per-column extremes.
void run_mcs(const ConflictTable& table, McsResult& result,
             std::vector<char>& alive_scratch,
             std::vector<McsColumn>& column_scratch);

/// As above with a local column buffer (allocates it).
void run_mcs(const ConflictTable& table, McsResult& result,
             std::vector<char>& alive_scratch);

}  // namespace psc::core
