#include "core/conflict_table.hpp"

#include <iomanip>
#include <stdexcept>

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
  // row_ids_ and bounds_ are fully overwritten by fill_row, so a plain
  // resize avoids a redundant O(k * 2m) fill on every engine check; the
  // definedness bitmap and counts genuinely start from zero.
  row_ids_.resize(row_count);
  bounds_.resize(row_count * 2 * m_);
  defined_.assign(row_count * 2 * m_, 0);
  defined_counts_.assign(row_count, 0);
}

void ConflictTable::fill_row(std::size_t i, const Subscription& si) {
  if (si.attribute_count() != m_) {
    throw std::invalid_argument("ConflictTable: schema mismatch at row " +
                                std::to_string(i));
  }
  row_ids_[i] = si.id();
  const std::size_t base = i * 2 * m_;
  for (std::size_t j = 0; j < m_; ++j) {
    const Interval& sr = s_.range(j);
    const Interval& ir = si.range(j);
    // Lower side: (s AND x_j < si.lo_j) has positive measure iff
    // s.lo_j < si.lo_j.
    if (sr.lo < ir.lo) {
      defined_[base + 2 * j] = 1;
      ++defined_counts_[i];
    }
    bounds_[base + 2 * j] = ir.lo;
    // Upper side: (s AND x_j > si.hi_j) positive-measure iff
    // s.hi_j > si.hi_j.
    if (sr.hi > ir.hi) {
      defined_[base + 2 * j + 1] = 1;
      ++defined_counts_[i];
    }
    bounds_[base + 2 * j + 1] = ir.hi;
  }
}

void ConflictTable::rebuild(const Subscription& s,
                            std::span<const Subscription> set) {
  begin_rebuild(s, set.size());
  for (std::size_t i = 0; i < set.size(); ++i) fill_row(i, set[i]);
}

void ConflictTable::rebuild(const Subscription& s,
                            std::span<const Subscription* const> set) {
  begin_rebuild(s, set.size());
  for (std::size_t i = 0; i < set.size(); ++i) fill_row(i, *set[i]);
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
