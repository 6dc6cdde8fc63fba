#include "core/mcs.hpp"

#include <cstdint>

namespace psc::core {

namespace {

/// The key an entry contributes to its column's extremes (see McsColumn).
Value column_key(std::size_t column, Value bound) noexcept {
  return column % 2 == 1 ? bound : -bound;
}

/// Offers one alive row's key to a column's holder and runner-up. Offered
/// in ascending row order, the first row with the largest key holds.
void offer(McsColumn& col, Value key, std::size_t row) noexcept {
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

/// Rebuilds one column's holder and runner-up from its list, compacting
/// the rows removed since the last scan out of the list.
void recompute_column(const ConflictTable& table, const std::vector<char>& alive,
                      std::size_t column, std::uint32_t* list, McsColumn& col) noexcept {
  col.best_row = col.second_row = McsColumn::kNone;
  std::size_t listed = 0;
  for (std::size_t i = 0; i < col.listed; ++i) {
    const std::uint32_t row = list[i];
    if (!alive[row]) continue;
    list[listed++] = row;
    offer(col, column_key(column, table.row_bounds(row)[column]), row);
  }
  col.listed = listed;
}

/// True iff some defined entry of `row` conflicts with no defined entry of
/// another alive row (fc_i >= 1). Only the opposite-side column of the
/// same attribute can conflict, through its extreme over the other rows.
/// `defined_columns` lists the row's defined columns.
bool has_conflict_free_entry(std::span<const std::uint32_t> defined_columns,
                             std::span<const Value> bounds, std::size_t row,
                             const std::vector<McsColumn>& columns) {
  for (const std::uint32_t column : defined_columns) {
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
  McsScratch scratch;
  run_mcs(table, result, scratch);
  return result;
}

void run_mcs(const ConflictTable& table, McsResult& result,
             std::vector<char>& alive_scratch) {
  McsScratch scratch;
  scratch.alive.swap(alive_scratch);
  run_mcs(table, result, scratch);
  scratch.alive.swap(alive_scratch);
}

void run_mcs(const ConflictTable& table, McsResult& result, McsScratch& scratch) {
  result.kept.clear();
  result.sweeps = 0;
  result.removed_conflict_free = 0;
  result.removed_defined_count = 0;
  const std::size_t n = table.row_count();
  std::vector<char>& alive = scratch.alive;
  alive.assign(n, 1);
  std::size_t alive_count = n;

  std::vector<McsColumn>& columns = scratch.columns;
  const std::size_t column_count = table.column_count();
  columns.resize(column_count);
  for (std::size_t column = 0; column < column_count; ++column) {
    const Interval& range = table.tested().ranges()[column / 2];
    columns[column] = McsColumn{};
    columns[column].degenerate = !(range.lo < range.hi);
  }
  // Grow-only: a column's list never holds more than n entries, a row's
  // defined columns never more than 2m.
  if (scratch.entries.size() < column_count * n) scratch.entries.resize(column_count * n);
  if (scratch.row_columns.size() < column_count * n) {
    scratch.row_columns.resize(column_count * n);
  }
  std::uint32_t* const lists = scratch.entries.data();
  const std::span<const std::size_t> defined_counts = table.defined_counts();
  const auto defined_columns = [&](std::size_t row) {
    return std::span<const std::uint32_t>(
        scratch.row_columns.data() + row * column_count, defined_counts[row]);
  };
  // One row-major pass lists every row's defined columns (compacted
  // without a branch) and every column's defined entries, and seeds the
  // extremes.
  for (std::size_t row = 0; row < n; ++row) {
    const std::span<const char> defined = table.row_defined(row);
    const std::span<const Value> bounds = table.row_bounds(row);
    std::uint32_t* const row_columns = scratch.row_columns.data() + row * column_count;
    std::size_t listed = 0;
    for (std::size_t column = 0; column < column_count; ++column) {
      row_columns[listed] = static_cast<std::uint32_t>(column);
      listed += static_cast<std::size_t>(defined[column] != 0);
    }
    for (const std::uint32_t column : defined_columns(row)) {
      McsColumn& col = columns[column];
      const Value key = column_key(column, bounds[column]);
      lists[column * n + col.listed++] = static_cast<std::uint32_t>(row);
      offer(col, key, row);
    }
  }
  const auto remove = [&](std::size_t row) {
    alive[row] = 0;
    --alive_count;
    for (const std::uint32_t column : defined_columns(row)) {
      McsColumn& col = columns[column];
      if (col.best_row == row || col.second_row == row) {
        recompute_column(table, alive, column, lists + column * n, col);
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
      if (defined_counts[row] >= alive_count) {
        remove(row);
        ++result.removed_defined_count;
        changed = true;
        continue;
      }
      if (has_conflict_free_entry(defined_columns(row), table.row_bounds(row), row,
                                  columns)) {
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
