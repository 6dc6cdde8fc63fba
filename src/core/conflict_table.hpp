// Conflict table T (paper, Definition 2): a k x 2m table relating a tested
// subscription s to every simple predicate of the existing set S.
//
// Column layout per attribute j: column 2j holds the negated LOWER bound of
// s_i on attribute j ("x_j < s_i.lo_j"), column 2j+1 the negated UPPER bound
// ("x_j > s_i.hi_j"). An entry is *defined* iff (s AND not s_i^j) is
// satisfiable with positive measure, i.e. s sticks out of s_i on that side:
//   lower side defined  <=>  s.lo_j < s_i.lo_j
//   upper side defined  <=>  s.hi_j > s_i.hi_j
//
// Intersected with s, a defined lower entry describes the slab
// { x in s : x_j < min(s_i.lo_j, s.hi_j) } and symmetrically for upper
// entries. These slabs are the building blocks of polyhedron witnesses
// (Definition 3) and of the conflict-free analysis behind MCS.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <vector>

#include "core/subscription.hpp"

namespace psc::core {

/// Which side of an attribute's range a table column negates.
enum class BoundSide : std::uint8_t { kLower, kUpper };

/// One defined conflict-table entry, i.e. a half-range constraint on a
/// single attribute (intersected with s, a non-empty slab of s).
struct TableEntry {
  std::size_t attribute = 0;
  BoundSide side = BoundSide::kLower;
  /// The negated bound: lower side means "x < bound", upper "x > bound".
  Value bound = 0.0;

  friend bool operator==(const TableEntry&, const TableEntry&) = default;
};

/// The conflict table for subscription `s` versus subscription set `S`.
/// Rows correspond 1:1 to the subscriptions passed at construction; columns
/// to the 2m negated simple predicates. Construction is O(m * k).
///
/// Row storage is a flat SoA layout (one bounds array, one definedness
/// bitmap) so a table can be rebuilt in place without allocating once its
/// buffers have grown to the working-set size — the SubsumptionEngine
/// rebuilds its workspace table on every check() this way.
///
/// Every rebuild also tallies the rows by defined count (2m + 1 bins) and
/// remembers the first row with no defined entry, so both fast decisions
/// (Corollaries 1 and 3) read O(m) state instead of walking and sorting
/// the rows.
class ConflictTable {
 public:
  /// Empty table; fill with rebuild(). Queries on an empty table see zero
  /// rows and zero columns.
  ConflictTable() = default;

  /// Builds the table. All subscriptions must share s's attribute schema;
  /// throws std::invalid_argument otherwise.
  ConflictTable(const Subscription& s, std::span<const Subscription> set);

  /// As above, over a set given by pointers (no subscription copies).
  ConflictTable(const Subscription& s, std::span<const Subscription* const> set);

  /// Rebuilds the table in place, reusing the existing buffers. After the
  /// first call at a given size, rebuilding performs no heap allocation.
  void rebuild(const Subscription& s, std::span<const Subscription> set);
  void rebuild(const Subscription& s, std::span<const Subscription* const> set);

  /// The engine's prefilter and rebuild in one pass over each candidate:
  /// the rows are the candidates of `set` that share a positive-measure
  /// region with s or cover it (s.overlaps_interior(c) || c.covers(s)), in
  /// set order. A candidate of another arity fails both tests and is
  /// dropped, not thrown on. `source` is cleared and receives, per row,
  /// the position in `set` of its candidate. Allocation-free once the
  /// buffers have grown to set.size() rows.
  void rebuild_relevant(const Subscription& s,
                        std::span<const Subscription* const> set,
                        std::vector<std::size_t>& source);

  [[nodiscard]] std::size_t row_count() const noexcept { return row_ids_.size(); }
  [[nodiscard]] std::size_t attribute_count() const noexcept { return m_; }
  [[nodiscard]] std::size_t column_count() const noexcept { return 2 * m_; }

  /// The tested subscription (by value; the table owns a copy so callers
  /// may destroy their inputs after construction).
  [[nodiscard]] const Subscription& tested() const noexcept { return s_; }

  /// Entry at (row, column); std::nullopt when undefined.
  /// Column 2j = lower side of attribute j, 2j+1 = upper side.
  [[nodiscard]] std::optional<TableEntry> entry(std::size_t row,
                                                std::size_t column) const;

  [[nodiscard]] bool is_defined(std::size_t row, std::size_t column) const {
    return defined_.at(row * 2 * m_ + column);
  }

  /// Flat views of one row for the hot loops, in column order: the 2m
  /// negated bounds (stored for undefined entries too, so bounds[2j] and
  /// bounds[2j+1] are s_i's range on attribute j) and the definedness
  /// flags. Unchecked: `row` must be < row_count().
  [[nodiscard]] std::span<const Value> row_bounds(std::size_t row) const noexcept {
    return {bounds_.data() + row * 2 * m_, 2 * m_};
  }
  [[nodiscard]] std::span<const char> row_defined(std::size_t row) const noexcept {
    return {defined_.data() + row * 2 * m_, 2 * m_};
  }

  /// t_i: number of defined entries in the row.
  [[nodiscard]] std::size_t defined_count(std::size_t row) const {
    return defined_counts_.at(row);
  }

  /// Every row's t_i, in row order; the unchecked view for hot loops.
  [[nodiscard]] std::span<const std::size_t> defined_counts() const noexcept {
    return defined_counts_;
  }

  /// True iff the row has no defined entries — s is covered by that single
  /// subscription (Corollary 1).
  [[nodiscard]] bool row_all_undefined(std::size_t row) const {
    return defined_counts_.at(row) == 0;
  }

  /// The first row with no defined entry, if any (Corollary 1's row).
  [[nodiscard]] std::optional<std::size_t> first_all_undefined_row() const noexcept {
    return first_all_undefined_;
  }

  /// Rows per defined count: bin t holds the number of rows with t_i = t,
  /// for t in [0, 2m] (empty for a default-constructed table).
  [[nodiscard]] std::span<const std::size_t> defined_count_bins() const noexcept {
    return count_bins_;
  }

  /// Two defined entries *conflict* iff they come from different rows and
  /// (s AND entry1 AND entry2) has no positive-measure solution
  /// (Definition 5). Entries on different attributes never conflict.
  [[nodiscard]] static bool entries_conflict(const Subscription& s,
                                             const TableEntry& a,
                                             const TableEntry& b);

  /// The slab of s described by a defined entry (s intersected with the
  /// entry's half-range). Non-empty with positive measure by construction.
  [[nodiscard]] Interval slab(const TableEntry& entry) const;

  /// Pretty-printer mirroring the paper's Table 5 / Table 8 layout.
  void print(std::ostream& out) const;

 private:
  Subscription s_;
  std::size_t m_ = 0;
  /// SoA row storage: ids per row, bound values row-major (2m per row).
  std::vector<SubscriptionId> row_ids_;
  std::vector<Value> bounds_;
  std::vector<char> defined_;  ///< k * 2m bitmap (char for speed)
  std::vector<std::size_t> defined_counts_;
  std::vector<std::size_t> count_bins_;  ///< 2m + 1 bins of defined counts
  std::optional<std::size_t> first_all_undefined_;

  void begin_rebuild(const Subscription& s, std::size_t row_count);
  /// Writes row i from si, which must share s's arity, and returns whether
  /// si passes the engine's prefilter (see rebuild_relevant).
  [[nodiscard]] bool fill_row(std::size_t i, const Subscription& si) noexcept;
  /// Counts row i into the defined-count tally.
  void tally_row(std::size_t i) noexcept;
  /// fill_row + tally_row for the 1:1 rebuilds; throws on an arity mismatch.
  void fill_checked_row(std::size_t i, const Subscription& si);
};

}  // namespace psc::core
