#include "core/mcs.hpp"

namespace psc::core {

namespace {

/// The key an entry contributes to its column's extremes (see McsColumn).
Value column_key(std::size_t column, Value bound) noexcept {
  return column % 2 == 1 ? bound : -bound;
}

/// Rebuilds one column's holder and runner-up over the alive rows.
void recompute_column(const ConflictTable& table, const std::vector<char>& alive,
                      std::size_t column, McsColumn& col) {
  col.best_row = col.second_row = McsColumn::kNone;
  for (std::size_t row = 0; row < table.row_count(); ++row) {
    if (!alive[row] || !table.row_defined(row)[column]) continue;
    const Value key = column_key(column, table.row_bounds(row)[column]);
    if (col.best_row == McsColumn::kNone || key > col.best) {
      col.second = col.best;
      col.second_row = col.best_row;
      col.best = key;
      col.best_row = row;
    } else if (col.second_row == McsColumn::kNone || key > col.second) {
      col.second = key;
      col.second_row = row;
    }
  }
}

/// True iff some defined entry of `row` conflicts with no defined entry of
/// another alive row (fc_i >= 1). Only the opposite-side column of the
/// same attribute can conflict, through its extreme over the other rows.
bool has_conflict_free_entry(const ConflictTable& table, std::size_t row,
                             const std::vector<McsColumn>& columns) {
  const std::span<const char> defined = table.row_defined(row);
  const std::span<const Value> bounds = table.row_bounds(row);
  for (std::size_t column = 0; column < defined.size(); ++column) {
    if (!defined[column]) continue;
    const McsColumn& opposite = columns[column ^ 1];
    const bool holder = opposite.best_row == row;
    const std::size_t other_row = holder ? opposite.second_row : opposite.best_row;
    if (other_row == McsColumn::kNone) return true;
    if (opposite.degenerate) continue;
    const Value other_key = holder ? opposite.second : opposite.best;
    if (!(other_key >= -column_key(column, bounds[column]))) return true;
  }
  return false;
}

}  // namespace

McsResult run_mcs(const ConflictTable& table) {
  McsResult result;
  std::vector<char> alive;
  run_mcs(table, result, alive);
  return result;
}

void run_mcs(const ConflictTable& table, McsResult& result,
             std::vector<char>& alive_scratch) {
  std::vector<McsColumn> columns;
  run_mcs(table, result, alive_scratch, columns);
}

void run_mcs(const ConflictTable& table, McsResult& result,
             std::vector<char>& alive_scratch,
             std::vector<McsColumn>& column_scratch) {
  result.kept.clear();
  result.sweeps = 0;
  result.removed_conflict_free = 0;
  result.removed_defined_count = 0;
  const std::size_t n = table.row_count();
  std::vector<char>& alive = alive_scratch;
  alive.assign(n, 1);
  std::size_t alive_count = n;

  std::vector<McsColumn>& columns = column_scratch;
  columns.resize(table.column_count());
  for (std::size_t column = 0; column < columns.size(); ++column) {
    const Interval& range = table.tested().range(column / 2);
    columns[column].degenerate = !(range.lo < range.hi);
    recompute_column(table, alive, column, columns[column]);
  }
  const auto remove = [&](std::size_t row) {
    alive[row] = 0;
    --alive_count;
    const std::span<const char> defined = table.row_defined(row);
    for (std::size_t column = 0; column < defined.size(); ++column) {
      McsColumn& col = columns[column];
      if (defined[column] && (col.best_row == row || col.second_row == row)) {
        recompute_column(table, alive, column, col);
      }
    }
  };

  bool changed = n > 0;
  while (changed) {
    changed = false;
    ++result.sweeps;
    for (std::size_t row = 0; row < n; ++row) {
      if (!alive[row]) continue;
      // t_i >= k check first: O(1), and it also catches rows made redundant
      // purely by prior removals shrinking k.
      if (table.defined_count(row) >= alive_count) {
        remove(row);
        ++result.removed_defined_count;
        changed = true;
        continue;
      }
      if (has_conflict_free_entry(table, row, columns)) {
        remove(row);
        ++result.removed_conflict_free;
        changed = true;
      }
    }
  }

  result.kept.reserve(alive_count);
  for (std::size_t row = 0; row < n; ++row) {
    if (alive[row]) result.kept.push_back(row);
  }
}

}  // namespace psc::core
