// Reference Minimized Cover Set for the tests: Algorithm 3 with
// Definition 5 applied literally. An entry is conflict-free iff no defined
// opposite-side entry of another alive row on the same attribute conflicts
// with it (ConflictTable::entries_conflict). O(k) per entry, O(m k^2) per
// sweep; independent of run_mcs's column extremes and lists.
#pragma once

#include <cstddef>
#include <vector>

#include "core/conflict_table.hpp"
#include "core/mcs.hpp"

namespace psc::core::reference {

inline bool entry_has_conflict(const ConflictTable& table, std::size_t row,
                               const TableEntry& entry, const std::vector<char>& alive) {
  const std::size_t opposite_col = entry.side == BoundSide::kLower
                                       ? 2 * entry.attribute + 1
                                       : 2 * entry.attribute;
  for (std::size_t other = 0; other < table.row_count(); ++other) {
    if (other == row || !alive[other]) continue;
    const auto other_entry = table.entry(other, opposite_col);
    if (!other_entry) continue;
    if (ConflictTable::entries_conflict(table.tested(), entry, *other_entry)) {
      return true;
    }
  }
  return false;
}

/// fc_i for one row given an alive mask over rows.
inline std::size_t count_conflict_free(const ConflictTable& table,
                                       std::size_t row,
                                       const std::vector<char>& alive) {
  std::size_t conflict_free = 0;
  for (std::size_t col = 0; col < table.column_count(); ++col) {
    const auto entry = table.entry(row, col);
    if (!entry) continue;
    if (!entry_has_conflict(table, row, *entry, alive)) ++conflict_free;
  }
  return conflict_free;
}

inline McsResult reference_mcs(const ConflictTable& table) {
  McsResult result;
  const std::size_t n = table.row_count();
  std::vector<char> alive(n, 1);
  std::size_t alive_count = n;
  bool changed = n > 0;
  while (changed) {
    changed = false;
    ++result.sweeps;
    for (std::size_t row = 0; row < n; ++row) {
      if (!alive[row]) continue;
      if (table.defined_count(row) >= alive_count) {
        alive[row] = 0;
        --alive_count;
        ++result.removed_defined_count;
        changed = true;
        continue;
      }
      if (count_conflict_free(table, row, alive) >= 1) {
        alive[row] = 0;
        --alive_count;
        ++result.removed_conflict_free;
        changed = true;
      }
    }
  }
  for (std::size_t row = 0; row < n; ++row) {
    if (alive[row]) result.kept.push_back(row);
  }
  return result;
}

}  // namespace psc::core::reference
