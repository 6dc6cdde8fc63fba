// Unit tests for the conflict table (Definition 2), including the paper's
// worked example: Table 3 (the subscriptions) and Table 5 (its conflict
// table).
#include "core/conflict_table.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

namespace psc::core {
namespace {

Subscription box2(double lo1, double hi1, double lo2, double hi2,
                  SubscriptionId id = 0) {
  return Subscription({Interval{lo1, hi1}, Interval{lo2, hi2}}, id);
}

// Paper Table 3: s ⊑ (s1 ∨ s2).
struct PaperCoverExample {
  Subscription s = box2(830, 870, 1003, 1006, 0);
  std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                box2(840, 880, 1002, 1009, 2)};
};

TEST(ConflictTable, PaperTable5RowS1) {
  PaperCoverExample ex;
  const ConflictTable table(ex.s, ex.set);
  ASSERT_EQ(table.row_count(), 2u);
  ASSERT_EQ(table.column_count(), 4u);

  // Row s1: only defined entry is x1 > 850 (column 1 = upper bound attr 0).
  EXPECT_FALSE(table.is_defined(0, 0));  // x1 < 820 unsatisfiable in s
  EXPECT_TRUE(table.is_defined(0, 1));   // x1 > 850 satisfiable
  EXPECT_FALSE(table.is_defined(0, 2));  // x2 < 1001 unsatisfiable
  EXPECT_FALSE(table.is_defined(0, 3));  // x2 > 1007 unsatisfiable
  EXPECT_EQ(table.defined_count(0), 1u);

  const auto entry = table.entry(0, 1);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->attribute, 0u);
  EXPECT_EQ(entry->side, BoundSide::kUpper);
  EXPECT_EQ(entry->bound, 850.0);
}

TEST(ConflictTable, PaperTable5RowS2) {
  PaperCoverExample ex;
  const ConflictTable table(ex.s, ex.set);

  // Row s2: only defined entry is x1 < 840.
  EXPECT_TRUE(table.is_defined(1, 0));
  EXPECT_FALSE(table.is_defined(1, 1));
  EXPECT_FALSE(table.is_defined(1, 2));
  EXPECT_FALSE(table.is_defined(1, 3));
  EXPECT_EQ(table.defined_count(1), 1u);

  const auto entry = table.entry(1, 0);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->attribute, 0u);
  EXPECT_EQ(entry->side, BoundSide::kLower);
  EXPECT_EQ(entry->bound, 840.0);
}

TEST(ConflictTable, PaperExampleEntriesConflict) {
  // Table 5's two defined entries (x1 > 850 and x1 < 840) conflict: no
  // point of s satisfies both — this is why s is covered by the union.
  PaperCoverExample ex;
  const ConflictTable table(ex.s, ex.set);
  const auto a = table.entry(0, 1);
  const auto b = table.entry(1, 0);
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(ConflictTable::entries_conflict(ex.s, *a, *b));
  EXPECT_TRUE(ConflictTable::entries_conflict(ex.s, *b, *a));  // symmetric
}

TEST(ConflictTable, UndefinedEntryReturnsNullopt) {
  PaperCoverExample ex;
  const ConflictTable table(ex.s, ex.set);
  EXPECT_FALSE(table.entry(0, 0).has_value());
}

TEST(ConflictTable, RowAllUndefinedDetectsPairwiseCover) {
  const Subscription s = box2(2, 8, 2, 8);
  const std::vector<Subscription> set{box2(0, 10, 0, 10, 1)};
  const ConflictTable table(s, set);
  EXPECT_TRUE(table.row_all_undefined(0));
  EXPECT_EQ(table.defined_count(0), 0u);
}

TEST(ConflictTable, RowAllDefinedWhenSStrictlyLarger) {
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{box2(2, 8, 2, 8, 1)};
  const ConflictTable table(s, set);
  // Every column defined: s sticks out of s_1 on every side (Corollary 2).
  EXPECT_EQ(table.defined_count(0), table.column_count());
  EXPECT_EQ(table.defined_count(0), 4u);
}

TEST(ConflictTable, EqualBoundsAreUndefined) {
  // s and s_i share an edge: sticking out with zero measure is undefined
  // under the continuous model.
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{box2(0, 10, 0, 5, 1)};
  const ConflictTable table(s, set);
  EXPECT_FALSE(table.is_defined(0, 0));  // x1 < 0 impossible
  EXPECT_FALSE(table.is_defined(0, 1));  // x1 > 10 impossible
  EXPECT_FALSE(table.is_defined(0, 2));  // x2 < 0 impossible
  EXPECT_TRUE(table.is_defined(0, 3));   // x2 > 5 possible
}

TEST(ConflictTable, DisjointSubscriptionFullSlabEntry) {
  // s_i entirely left of s on x1: the defined upper entry spans ALL of s.
  const Subscription s = box2(10, 20, 0, 10);
  const std::vector<Subscription> set{box2(0, 5, 0, 10, 1)};
  const ConflictTable table(s, set);
  EXPECT_FALSE(table.is_defined(0, 0));
  ASSERT_TRUE(table.is_defined(0, 1));
  const auto entry = table.entry(0, 1);
  EXPECT_EQ(table.slab(*entry), (Interval{10, 20}));  // clamped to s
}

TEST(ConflictTable, SlabClampsToTestedRange) {
  const Subscription s = box2(830, 870, 1003, 1006);
  const std::vector<Subscription> set{box2(840, 880, 1002, 1009, 1)};
  const ConflictTable table(s, set);
  const auto entry = table.entry(0, 0);  // x1 < 840
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(table.slab(*entry), (Interval{830, 840}));
}

TEST(ConflictTable, EntriesOnDifferentAttributesNeverConflict) {
  const Subscription s = box2(0, 10, 0, 10);
  const TableEntry a{0, BoundSide::kLower, 2.0};  // x0 < 2
  const TableEntry b{1, BoundSide::kUpper, 9.0};  // x1 > 9
  EXPECT_FALSE(ConflictTable::entries_conflict(s, a, b));
}

TEST(ConflictTable, SameSideEntriesNeverConflict) {
  const Subscription s = box2(0, 10, 0, 10);
  const TableEntry a{0, BoundSide::kLower, 2.0};
  const TableEntry b{0, BoundSide::kLower, 5.0};
  EXPECT_FALSE(ConflictTable::entries_conflict(s, a, b));
}

TEST(ConflictTable, OppositeSideEntriesWithGapDoNotConflict) {
  const Subscription s = box2(0, 10, 0, 10);
  const TableEntry lower{0, BoundSide::kLower, 8.0};  // x0 < 8
  const TableEntry upper{0, BoundSide::kUpper, 2.0};  // x0 > 2
  // Joint region (2, 8) is non-empty.
  EXPECT_FALSE(ConflictTable::entries_conflict(s, lower, upper));
}

TEST(ConflictTable, OppositeSideEntriesTouchingConflict) {
  const Subscription s = box2(0, 10, 0, 10);
  const TableEntry lower{0, BoundSide::kLower, 4.0};  // x0 < 4
  const TableEntry upper{0, BoundSide::kUpper, 4.0};  // x0 > 4
  EXPECT_TRUE(ConflictTable::entries_conflict(s, lower, upper));
}

TEST(ConflictTable, DefinedEntriesListsColumnOrder) {
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{box2(2, 8, 2, 8, 1)};
  const ConflictTable table(s, set);
  std::vector<TableEntry> entries;
  for (std::size_t c = 0; c < table.column_count(); ++c) {
    if (const auto e = table.entry(0, c)) entries.push_back(*e);
  }
  ASSERT_EQ(entries.size(), table.defined_count(0));
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].attribute, 0u);
  EXPECT_EQ(entries[0].side, BoundSide::kLower);
  EXPECT_EQ(entries[3].attribute, 1u);
  EXPECT_EQ(entries[3].side, BoundSide::kUpper);
}

TEST(ConflictTable, SchemaMismatchThrows) {
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{Subscription({Interval{0, 1}})};
  EXPECT_THROW(ConflictTable(s, set), std::invalid_argument);
}

TEST(ConflictTable, EmptySetProducesNoRows) {
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set;
  const ConflictTable table(s, set);
  EXPECT_EQ(table.row_count(), 0u);
}

TEST(ConflictTable, PrintMentionsDefinedEntries) {
  PaperCoverExample ex;
  const ConflictTable table(ex.s, ex.set);
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("x0 > 850"), std::string::npos);
  EXPECT_NE(os.str().find("x0 < 840"), std::string::npos);
}

TEST(ConflictTable, ConstructionCostLinearSmoke) {
  // Large k x m table builds without quadratic blowup (smoke, not a timer).
  const std::size_t m = 20, k = 2000;
  std::vector<Interval> srange(m, Interval{0.0, 100.0});
  const Subscription s(std::move(srange));
  std::vector<Subscription> set;
  set.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    std::vector<Interval> r(m, Interval{10.0 + static_cast<double>(i % 7), 90.0});
    set.emplace_back(std::move(r), i + 1);
  }
  const ConflictTable table(s, set);
  EXPECT_EQ(table.row_count(), k);
  EXPECT_EQ(table.column_count(), 2 * m);
}

}  // namespace
}  // namespace psc::core
