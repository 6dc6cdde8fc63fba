// Tests for the deterministic fast paths (Corollaries 1-3), including the
// paper's Table 6 non-cover example whose polyhedron witness is the slab
// x1 > 870.
#include "core/fast_decisions.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace psc::core {
namespace {

Subscription box2(double lo1, double hi1, double lo2, double hi2,
                  SubscriptionId id = 0) {
  return Subscription({Interval{lo1, hi1}, Interval{lo2, hi2}}, id);
}

TEST(FastDecisions, PaperTable6NonCoverDetected) {
  // Paper Table 6: s=[830,890]x[1003,1006], s1=[820,850]x[1002,1009],
  // s2=[840,870]x[1001,1007]. The union misses the slab x1 in (870, 890].
  const Subscription s = box2(830, 890, 1003, 1006);
  const std::vector<Subscription> set{box2(820, 850, 1002, 1009, 1),
                                      box2(840, 870, 1001, 1007, 2)};
  const ConflictTable table(s, set);

  // Row s1 defines x1 > 850; row s2 defines x1 < 840 and x1 > 870.
  EXPECT_EQ(table.defined_count(0), 1u);
  EXPECT_EQ(table.defined_count(1), 2u);

  // Sorted counts (1, 2) satisfy t_(j) >= j — Corollary 3 proves non-cover.
  EXPECT_TRUE(sorted_rows_prove_witness(table));
  const FastDecisionResult result = run_fast_decisions(table);
  EXPECT_EQ(result.decision, FastDecision::kNotCoveredWitness);
}

TEST(FastDecisions, PaperTable3CoverIsInconclusiveForFastPaths) {
  // Table 3's covering example: neither s1 nor s2 alone covers s, and the
  // sorted-count test (1, 1) fails at position 2 — so the fast paths leave
  // the decision to MCS + RSPC, exactly as the paper walks through it.
  const Subscription s = box2(830, 870, 1003, 1006);
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  const ConflictTable table(s, set);
  EXPECT_FALSE(sorted_rows_prove_witness(table));
  EXPECT_EQ(run_fast_decisions(table).decision, FastDecision::kInconclusive);
}

TEST(FastDecisions, Corollary1PairwiseCover) {
  const Subscription s = box2(2, 8, 2, 8);
  const std::vector<Subscription> set{box2(5, 9, 0, 10, 1),
                                      box2(0, 10, 0, 10, 2)};
  const ConflictTable table(s, set);
  const auto covering = find_pairwise_cover(table);
  ASSERT_TRUE(covering.has_value());
  EXPECT_EQ(*covering, 1u);

  const FastDecisionResult result = run_fast_decisions(table);
  EXPECT_EQ(result.decision, FastDecision::kCoveredPairwise);
  ASSERT_TRUE(result.covering_row.has_value());
  EXPECT_EQ(*result.covering_row, 1u);
}

TEST(FastDecisions, Corollary1ExactBoundaryCover) {
  // s_i == s exactly: all negations are unsatisfiable, row all-undefined.
  const Subscription s = box2(2, 8, 2, 8);
  const std::vector<Subscription> set{box2(2, 8, 2, 8, 1)};
  const ConflictTable table(s, set);
  EXPECT_TRUE(find_pairwise_cover(table).has_value());
}

TEST(FastDecisions, SortedRowTestNeedsEveryPosition) {
  // Three rows with counts {0-free} (2, 2, 2): positions 1,2 ok, position 3
  // needs t >= 3 but t = 2 — inconclusive, NOT witness-proved.
  const Subscription s = box2(0, 30, 0, 30);
  const std::vector<Subscription> set{
      box2(5, 25, -1, 31, 1),   // defined: x1<5, x1>25 => t=2
      box2(-1, 31, 5, 25, 2),   // defined: x2<5, x2>25 => t=2
      box2(10, 20, -1, 31, 3),  // defined: x1<10, x1>20 => t=2
  };
  const ConflictTable table(s, set);
  EXPECT_EQ(table.defined_count(0), 2u);
  EXPECT_EQ(table.defined_count(1), 2u);
  EXPECT_EQ(table.defined_count(2), 2u);
  EXPECT_FALSE(sorted_rows_prove_witness(table));
}

TEST(FastDecisions, SortedRowTestPassesWithStaircaseCounts) {
  // Counts 1, 2, 3 sorted: 1>=1, 2>=2, 3>=3 — witness proved.
  const Subscription s = box2(0, 30, 0, 30);
  const std::vector<Subscription> set{
      box2(-1, 20, -1, 31, 1),            // x1>20 only => t=1
      box2(5, 25, -1, 31, 2),             // x1<5, x1>25 => t=2
      box2(5, 25, 5, 31, 3),              // x1<5, x1>25, x2<5 => t=3
  };
  const ConflictTable table(s, set);
  EXPECT_EQ(table.defined_count(0), 1u);
  EXPECT_EQ(table.defined_count(1), 2u);
  EXPECT_EQ(table.defined_count(2), 3u);
  EXPECT_TRUE(sorted_rows_prove_witness(table));
  EXPECT_EQ(run_fast_decisions(table).decision,
            FastDecision::kNotCoveredWitness);
}

TEST(FastDecisions, SortedRowWitnessIsSoundAgainstGeometry) {
  // When Corollary 3 fires, the instance truly is non-covered: the three
  // staircase subscriptions above leave (25, 30] x (5, 30] uncovered...
  // verify one concrete point.
  const Subscription s = box2(0, 30, 0, 30);
  const std::vector<Subscription> set{
      box2(-1, 20, -1, 31, 1),
      box2(5, 25, -1, 31, 2),
      box2(5, 25, 5, 31, 3),
  };
  const std::vector<Value> point{27.0, 15.0};
  EXPECT_TRUE(s.contains_point(point));
  for (const auto& si : set) EXPECT_FALSE(si.contains_point(point));
}

TEST(FastDecisions, EmptySetIsWitnessProved) {
  const Subscription s = box2(0, 1, 0, 1);
  const std::vector<Subscription> set;
  const ConflictTable table(s, set);
  EXPECT_TRUE(sorted_rows_prove_witness(table));
}

TEST(FastDecisions, PairwiseCoverWinsOverWitnessOrdering) {
  // A covering row plus junk rows with huge counts: Corollary 1 must fire
  // first (the pipeline checks it before Corollary 3).
  const Subscription s = box2(2, 8, 2, 8);
  const std::vector<Subscription> set{
      box2(3, 4, 3, 4, 1),   // inside s: all 4 defined
      box2(0, 10, 0, 10, 2), // covers s: all undefined
  };
  const ConflictTable table(s, set);
  const FastDecisionResult result = run_fast_decisions(table);
  EXPECT_EQ(result.decision, FastDecision::kCoveredPairwise);
}

}  // namespace
}  // namespace psc::core
