// Tests for the Minimized Cover Set algorithm (Algorithm 3), including the
// paper's Table 7/8 walk-through where s3's conflict-free entries get it
// removed, leaving S' = {s1, s2}, and a differential check of the
// column-extreme conflict test against the direct O(m k^2) sweep.
#include "core/mcs.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "reference_mcs.hpp"
#include "util/rng.hpp"

namespace psc::core {
namespace {

using reference::count_conflict_free;
using reference::reference_mcs;

Subscription box2(double lo1, double hi1, double lo2, double hi2,
                  SubscriptionId id = 0) {
  return Subscription({Interval{lo1, hi1}, Interval{lo2, hi2}}, id);
}

// Paper Table 7: s, s1, s2 as in Table 3 plus s3 = [810,890] x [1004,1005]
// (reconstructed from Table 8's conflict entries x2 < 1004 and x2 > 1005).
struct PaperMcsExample {
  Subscription s = box2(830, 870, 1003, 1006);
  std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                box2(840, 880, 1002, 1009, 2),
                                box2(810, 890, 1004, 1005, 3)};
};

TEST(Mcs, PaperTable8ConflictTableShape) {
  PaperMcsExample ex;
  const ConflictTable table(ex.s, ex.set);
  // Row s1: x1 > 850 only. Row s2: x1 < 840 only. Row s3: x2 < 1004 and
  // x2 > 1005.
  EXPECT_EQ(table.defined_count(0), 1u);
  EXPECT_EQ(table.defined_count(1), 1u);
  EXPECT_EQ(table.defined_count(2), 2u);
  EXPECT_TRUE(table.is_defined(2, 2));
  EXPECT_TRUE(table.is_defined(2, 3));
}

TEST(Mcs, PaperExampleRemovesS3KeepsS1S2) {
  PaperMcsExample ex;
  const ConflictTable table(ex.s, ex.set);
  const McsResult result = run_mcs(table);
  ASSERT_EQ(result.kept.size(), 2u);
  EXPECT_EQ(result.kept[0], 0u);
  EXPECT_EQ(result.kept[1], 1u);
  EXPECT_EQ(result.removed_conflict_free, 1u);
}

TEST(Mcs, PaperExampleS3EntriesAreConflictFree) {
  PaperMcsExample ex;
  const ConflictTable table(ex.s, ex.set);
  const std::vector<char> alive(3, 1);
  // s3's x2-entries conflict with nothing (s1/s2 define only x1 entries).
  EXPECT_EQ(count_conflict_free(table, 2, alive), 2u);
  // s1's x1 > 850 conflicts with s2's x1 < 840: no conflict-free entries.
  EXPECT_EQ(count_conflict_free(table, 0, alive), 0u);
  EXPECT_EQ(count_conflict_free(table, 1, alive), 0u);
}

TEST(Mcs, KeepsMutuallyConflictingPair) {
  // Table 3's covering pair survives MCS — both rows are essential.
  const Subscription s = box2(830, 870, 1003, 1006);
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  const ConflictTable table(s, set);
  const McsResult result = run_mcs(table);
  EXPECT_EQ(result.kept.size(), 2u);
}

TEST(Mcs, RemovesNonIntersectingSubscription) {
  // A subscription disjoint from s has a full-slab entry that conflicts
  // with nothing on a covered axis — removed in the first sweep.
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{box2(20, 30, 0, 10, 1)};
  const ConflictTable table(s, set);
  const McsResult result = run_mcs(table);
  EXPECT_TRUE(result.empty());
}

TEST(Mcs, RemovesRowWithDefinedCountAtLeastK) {
  // Single subscription strictly inside s: t = 4 >= k = 1.
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{box2(2, 8, 2, 8, 1)};
  const ConflictTable table(s, set);
  const McsResult result = run_mcs(table);
  EXPECT_TRUE(result.empty());
  EXPECT_GE(result.removed_defined_count + result.removed_conflict_free, 1u);
}

TEST(Mcs, EmptyInputYieldsEmptyOutput) {
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set;
  const ConflictTable table(s, set);
  const McsResult result = run_mcs(table);
  EXPECT_TRUE(result.empty());
  EXPECT_EQ(result.sweeps, 0u);
}

TEST(Mcs, CascadingRemovalAcrossSweeps) {
  // s split by two slabs (kept) + a third subscription whose only defined
  // entry conflicts with one of them; after the pair's entries keep each
  // other conflicting, the third row's entry stays conflicting too — but a
  // fourth disjoint-axis row is removed in sweep 1, which can expose more
  // removals in sweep 2. This exercises the repeat-until-fixpoint loop.
  const Subscription s = box2(0, 100, 0, 100);
  const std::vector<Subscription> set{
      box2(-1, 60, -1, 101, 1),    // covers left part; entry x1 > 60
      box2(40, 101, -1, 101, 2),   // covers right part; entry x1 < 40
      box2(-1, 101, 50, 101, 3),   // entry x2 < 50 — conflict-free => removed
      box2(30, 70, -1, 101, 4),    // entries x1 < 30, x1 > 70; both conflict
  };
  const ConflictTable table(s, set);
  const McsResult result = run_mcs(table);
  // Row 3 (x2-entry) removed as conflict-free. Row 4's entries x1<30 and
  // x1>70 conflict with rows 1/2 respectively, so it is kept, as are 1, 2.
  ASSERT_EQ(result.kept.size(), 3u);
  EXPECT_EQ(result.kept[0], 0u);
  EXPECT_EQ(result.kept[1], 1u);
  EXPECT_EQ(result.kept[2], 3u);
}

TEST(Mcs, TiGreaterEqualKAfterShrinkage) {
  // Start with k=3; one row removed for conflict-freedom leaves k=2, at
  // which point a row with t=2 becomes removable by the t >= k rule.
  const Subscription s = box2(0, 100, 0, 100);
  const std::vector<Subscription> set{
      box2(-1, 101, 50, 101, 1),  // x2 < 50 conflict-free => removed sweep 1
      box2(30, 70, -1, 101, 2),   // x1 < 30, x1 > 70 => t=2
      box2(-1, 60, -1, 101, 3),   // x1 > 60 => t=1; conflicts with row 2
  };
  const ConflictTable table(s, set);
  const McsResult result = run_mcs(table);
  // After row 1 goes, k=2 and row 2 has t=2 >= 2 => removed; then row 3's
  // x1>60 is conflict-free (nothing left) => removed. Empty set.
  EXPECT_TRUE(result.empty());
  EXPECT_GE(result.sweeps, 2u);
}

TEST(Mcs, DuplicateSubscriptionsBothRemovable) {
  // Two identical subscriptions covering the same slab of s: each makes
  // the other redundant; MCS may keep at most one (here both fall to the
  // conflict-free rule since their entries never conflict mutually —
  // identical same-side entries don't conflict).
  const Subscription s = box2(0, 100, 0, 100);
  const std::vector<Subscription> set{
      box2(-1, 60, -1, 101, 1),
      box2(-1, 60, -1, 101, 2),
  };
  const ConflictTable table(s, set);
  const McsResult result = run_mcs(table);
  EXPECT_TRUE(result.empty());
}

TEST(Mcs, LargeRandomFixtureTerminates) {
  // Termination and bounded sweeps on a mixed 60-row instance.
  const Subscription s = box2(0, 1000, 0, 1000);
  std::vector<Subscription> set;
  for (int i = 0; i < 60; ++i) {
    const double offset = 15.0 * i;
    set.push_back(box2(-1 + offset, 400 + offset, -1, 1001, i + 1));
  }
  const ConflictTable table(s, set);
  const McsResult result = run_mcs(table);
  EXPECT_LE(result.sweeps, 61u);
  EXPECT_LE(result.kept.size(), set.size());
}

// --- differential identity ------------------------------------------------

/// A bound on a coarse grid, so rows tie with each other and with s's
/// bounds; occasionally unbounded.
Value grid_bound(util::Rng& rng) {
  constexpr Value kInf = std::numeric_limits<Value>::infinity();
  switch (rng.next_below(20)) {
    case 0: return -kInf;
    case 1: return kInf;
    default: return static_cast<Value>(rng.uniform_int(-2, 12));
  }
}

TEST(McsDifferential, ColumnExtremesMatchReferenceSweep) {
  util::Rng rng(1812);
  McsResult reused;
  McsScratch scratch;  // reused across arities and sizes, as the engine does
  std::size_t nonempty = 0, cascades = 0;
  for (int round = 0; round < 3000; ++round) {
    const std::size_t m = 1 + rng.next_below(6);
    const std::size_t k = rng.next_below(30);
    std::vector<Interval> s_ranges(m);
    for (Interval& range : s_ranges) {
      const auto lo = static_cast<Value>(rng.uniform_int(0, 6));
      // Degenerate s ranges make every opposite-side pair conflict.
      const auto width = static_cast<Value>(rng.uniform_int(1, 6));
      range = rng.bernoulli(0.15) ? Interval::point(lo) : Interval{lo, lo + width};
    }
    const Subscription s(s_ranges);
    std::vector<Subscription> set;
    for (std::size_t i = 0; i < k; ++i) {
      std::vector<Interval> ranges(m);
      for (Interval& range : ranges) {
        Value lo = grid_bound(rng), hi = grid_bound(rng);
        if (lo > hi) std::swap(lo, hi);
        range = {lo, hi};
      }
      set.emplace_back(ranges, i + 1);
    }
    const ConflictTable table(s, set);
    const McsResult want = reference_mcs(table);
    const std::string where = "round " + std::to_string(round);

    const McsResult fresh = run_mcs(table);
    run_mcs(table, reused, scratch);
    for (const McsResult* got : {&fresh, static_cast<const McsResult*>(&reused)}) {
      EXPECT_EQ(got->kept, want.kept) << where;
      EXPECT_EQ(got->sweeps, want.sweeps) << where;
      EXPECT_EQ(got->removed_conflict_free, want.removed_conflict_free) << where;
      EXPECT_EQ(got->removed_defined_count, want.removed_defined_count) << where;
    }
    if (!want.kept.empty()) ++nonempty;
    if (want.sweeps >= 3) ++cascades;
  }
  // The mix reaches non-empty reductions and multi-sweep cascades.
  EXPECT_GT(nonempty, 300u);
  EXPECT_GT(cascades, 100u);
}

}  // namespace
}  // namespace psc::core
