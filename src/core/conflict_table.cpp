#include "core/conflict_table.hpp"

#include <iomanip>
#include <stdexcept>

#include "util/simd.hpp"

namespace psc::core {

ConflictTable::ConflictTable(const Subscription& s,
                             std::span<const Subscription> set) {
  rebuild(s, set);
}

ConflictTable::ConflictTable(const Subscription& s,
                             std::span<const Subscription* const> set) {
  rebuild(s, set);
}

void ConflictTable::begin_rebuild(const Subscription& s, std::size_t row_count) {
  s_ = s;
  m_ = s.attribute_count();
  // fill_row overwrites every entry of a row it writes, so a plain resize
  // avoids a redundant O(k * 2m) fill on every engine check.
  row_ids_.resize(row_count);
  bounds_.resize(row_count * 2 * m_);
  defined_.resize(row_count * 2 * m_);
  defined_counts_.resize(row_count);
  count_bins_.assign(2 * m_ + 1, 0);
  first_all_undefined_.reset();
}

bool ConflictTable::fill_row(std::size_t i, const Subscription& si) noexcept {
  row_ids_[i] = si.id();
  const Interval* sr = s_.ranges().data();
  const Interval* ir = si.ranges().data();
  Value* bounds = bounds_.data() + i * 2 * m_;
  char* defined = defined_.data() + i * 2 * m_;
  std::size_t count = 0;
  bool overlaps = true;
  bool covers = true;
  for (std::size_t j = 0; j < m_; ++j) {
    // Lower side: (s AND x_j < si.lo_j) has positive measure iff
    // s.lo_j < si.lo_j; upper side iff s.hi_j > si.hi_j.
    const bool lower = sr[j].lo < ir[j].lo;
    const bool upper = sr[j].hi > ir[j].hi;
    bounds[2 * j] = ir[j].lo;
    bounds[2 * j + 1] = ir[j].hi;
    defined[2 * j] = static_cast<char>(lower);
    defined[2 * j + 1] = static_cast<char>(upper);
    count += static_cast<std::size_t>(lower) + static_cast<std::size_t>(upper);
    // The engine's prefilter, attribute by attribute exactly as
    // Subscription::overlaps_interior and Subscription::covers test it.
    overlaps &= sr[j].overlaps_interior(ir[j]);
    covers &= ir[j].contains(sr[j]);
  }
  defined_counts_[i] = count;
  return overlaps || covers;
}

void ConflictTable::tally_row(std::size_t i) noexcept {
  const std::size_t count = defined_counts_[i];
  ++count_bins_[count];
  if (count == 0 && !first_all_undefined_) first_all_undefined_ = i;
}

void ConflictTable::fill_checked_row(std::size_t i, const Subscription& si) {
  if (si.attribute_count() != m_) {
    throw std::invalid_argument("ConflictTable: schema mismatch at row " +
                                std::to_string(i));
  }
  (void)fill_row(i, si);
  tally_row(i);
}

void ConflictTable::rebuild(const Subscription& s,
                            std::span<const Subscription> set) {
  begin_rebuild(s, set.size());
  for (std::size_t i = 0; i < set.size(); ++i) fill_checked_row(i, set[i]);
}

void ConflictTable::rebuild(const Subscription& s,
                            std::span<const Subscription* const> set) {
  begin_rebuild(s, set.size());
  for (std::size_t i = 0; i < set.size(); ++i) fill_checked_row(i, *set[i]);
}

void ConflictTable::rebuild_relevant(const Subscription& s,
                                     std::span<const Subscription* const> set,
                                     std::vector<std::size_t>& source) {
  begin_rebuild(s, set.size());
  source.clear();
  std::size_t rows = 0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    // The candidates are scattered through the store: fetch a later one's
    // object and its ranges while this one is read.
    if (i + 8 < set.size()) simd::prefetch(set[i + 8]);
    if (i + 4 < set.size()) simd::prefetch(set[i + 4]->ranges().data());
    const Subscription& candidate = *set[i];
    if (candidate.attribute_count() != m_) continue;
    // A dropped candidate's row is overwritten by the next one.
    if (!fill_row(rows, candidate)) continue;
    tally_row(rows);
    source.push_back(i);
    ++rows;
  }
  row_ids_.resize(rows);
  bounds_.resize(rows * 2 * m_);
  defined_.resize(rows * 2 * m_);
  defined_counts_.resize(rows);
}

std::optional<TableEntry> ConflictTable::entry(std::size_t row,
                                               std::size_t column) const {
  if (!is_defined(row, column)) return std::nullopt;
  TableEntry e;
  e.attribute = column / 2;
  e.side = (column % 2 == 0) ? BoundSide::kLower : BoundSide::kUpper;
  e.bound = bounds_.at(row * 2 * m_ + column);
  return e;
}

bool ConflictTable::entries_conflict(const Subscription& s, const TableEntry& a,
                                     const TableEntry& b) {
  // Entries on different attributes constrain independent axes; the
  // intersection of their slabs is a (hyper-)corner of s with positive
  // measure, so they never conflict.
  if (a.attribute != b.attribute) return false;
  const Interval& sr = s.range(a.attribute);
  // Same side never conflicts: the weaker constraint subsumes the stronger,
  // and each is satisfiable within s by definedness.
  if (a.side == b.side) return false;
  const TableEntry& lower = a.side == BoundSide::kLower ? a : b;  // x < lower.bound
  const TableEntry& upper = a.side == BoundSide::kLower ? b : a;  // x > upper.bound
  // Joint region is (upper.bound, lower.bound) intersected with s.
  const Value lo = upper.bound > sr.lo ? upper.bound : sr.lo;
  const Value hi = lower.bound < sr.hi ? lower.bound : sr.hi;
  return !(lo < hi);  // conflict iff no positive-measure gap remains
}

Interval ConflictTable::slab(const TableEntry& entry) const {
  const Interval& sr = s_.range(entry.attribute);
  if (entry.side == BoundSide::kLower) {
    return {sr.lo, entry.bound < sr.hi ? entry.bound : sr.hi};
  }
  return {entry.bound > sr.lo ? entry.bound : sr.lo, sr.hi};
}

void ConflictTable::print(std::ostream& out) const {
  out << "conflict table for " << s_ << "\n";
  for (std::size_t i = 0; i < row_ids_.size(); ++i) {
    out << "  s" << row_ids_[i] << ": ";
    bool first = true;
    for (std::size_t c = 0; c < column_count(); ++c) {
      const auto e = entry(i, c);
      if (!e) continue;
      if (!first) out << ", ";
      first = false;
      out << "x" << e->attribute << (e->side == BoundSide::kLower ? " < " : " > ")
          << e->bound;
    }
    if (first) out << "(all undefined)";
    out << "\n";
  }
}

}  // namespace psc::core
