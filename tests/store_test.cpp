// Tests for the SubscriptionStore: coverage policies, demotion, promotion
// on unsubscribe, and Algorithm 5 matching.
#include "store/subscription_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace psc::store {
namespace {

using core::Interval;
using core::Publication;
using core::Subscription;
using core::SubscriptionId;

Subscription box2(double lo1, double hi1, double lo2, double hi2,
                  SubscriptionId id) {
  return Subscription({Interval{lo1, hi1}, Interval{lo2, hi2}}, id);
}

StoreConfig policy(CoveragePolicy p) {
  StoreConfig config;
  config.policy = p;
  return config;
}

TEST(Store, NonePolicyKeepsEverythingActive) {
  SubscriptionStore store(policy(CoveragePolicy::kNone));
  store.insert(box2(0, 10, 0, 10, 1));
  store.insert(box2(2, 8, 2, 8, 2));  // covered, but policy ignores it
  EXPECT_EQ(store.active_count(), 2u);
  EXPECT_EQ(store.covered_count(), 0u);
}

TEST(Store, NonePolicyKeepsEveryActive) {
  // The reverse order: a later, wider subscription must not demote an
  // earlier one it covers (demote_covered_actives is on by default).
  SubscriptionStore store(policy(CoveragePolicy::kNone));
  store.insert(box2(10, 20, 10, 20, 1));
  const auto result = store.insert(box2(0, 100, 0, 100, 2));
  EXPECT_TRUE(result.demoted.empty());
  EXPECT_TRUE(store.is_active(1));
  EXPECT_TRUE(store.is_active(2));
  EXPECT_EQ(store.active_count(), 2u);
  EXPECT_EQ(store.covered_count(), 0u);
  EXPECT_EQ(store.match_active(Publication({15.0, 15.0})),
            (std::vector<SubscriptionId>{1, 2}));
}

TEST(Store, PairwisePolicyCoversSingle) {
  SubscriptionStore store(policy(CoveragePolicy::kPairwise));
  const auto r1 = store.insert(box2(0, 10, 0, 10, 1));
  EXPECT_TRUE(r1.accepted_active);
  const auto r2 = store.insert(box2(2, 8, 2, 8, 2));
  EXPECT_TRUE(r2.covered);
  EXPECT_EQ(store.active_count(), 1u);
  EXPECT_EQ(store.covered_count(), 1u);
  EXPECT_TRUE(store.is_active(1));
  EXPECT_FALSE(store.is_active(2));
  EXPECT_TRUE(store.contains(2));
}

TEST(Store, PairwisePolicyMissesGroupCover) {
  SubscriptionStore store(policy(CoveragePolicy::kPairwise));
  store.insert(box2(820, 850, 1001, 1007, 1));
  store.insert(box2(840, 880, 1002, 1009, 2));
  const auto result = store.insert(box2(830, 870, 1003, 1006, 3));
  EXPECT_TRUE(result.accepted_active);  // pairwise cannot see the union
  EXPECT_EQ(store.active_count(), 3u);
}

TEST(Store, GroupPolicyDetectsUnionCover) {
  SubscriptionStore store(policy(CoveragePolicy::kGroup));
  store.insert(box2(820, 850, 1001, 1007, 1));
  store.insert(box2(840, 880, 1002, 1009, 2));
  const auto result = store.insert(box2(830, 870, 1003, 1006, 3));
  EXPECT_TRUE(result.covered);
  ASSERT_TRUE(result.engine_result.has_value());
  EXPECT_TRUE(result.engine_result->covered);
  EXPECT_EQ(store.active_count(), 2u);
  EXPECT_EQ(store.covered_count(), 1u);
  EXPECT_GE(store.group_checks(), 1u);
}

TEST(Store, NewSubscriptionDemotesCoveredActives) {
  SubscriptionStore store(policy(CoveragePolicy::kPairwise));
  store.insert(box2(2, 8, 2, 8, 1));
  store.insert(box2(3, 7, 3, 7, 2));  // not covered by #1? It IS covered.
  // #2 inside #1 -> covered on insert. Insert a big one covering #1 too.
  const auto result = store.insert(box2(0, 10, 0, 10, 3));
  EXPECT_TRUE(result.accepted_active);
  ASSERT_EQ(result.demoted.size(), 1u);
  EXPECT_EQ(result.demoted[0], 1u);
  EXPECT_FALSE(store.is_active(1));
  EXPECT_TRUE(store.is_active(3));
}

TEST(Store, DemotionDisabledKeepsActives) {
  StoreConfig config = policy(CoveragePolicy::kPairwise);
  config.demote_covered_actives = false;
  SubscriptionStore store(config);
  store.insert(box2(2, 8, 2, 8, 1));
  const auto result = store.insert(box2(0, 10, 0, 10, 2));
  EXPECT_TRUE(result.demoted.empty());
  EXPECT_TRUE(store.is_active(1));
  EXPECT_TRUE(store.is_active(2));
}

TEST(Store, EraseCoveredIsLocal) {
  SubscriptionStore store(policy(CoveragePolicy::kPairwise));
  store.insert(box2(0, 10, 0, 10, 1));
  store.insert(box2(2, 8, 2, 8, 2));
  EXPECT_TRUE(store.erase(2));
  EXPECT_EQ(store.covered_count(), 0u);
  EXPECT_EQ(store.active_count(), 1u);
}

TEST(Store, EraseActivePromotesCovered) {
  SubscriptionStore store(policy(CoveragePolicy::kPairwise));
  store.insert(box2(0, 10, 0, 10, 1));
  store.insert(box2(2, 8, 2, 8, 2));  // covered by 1
  EXPECT_TRUE(store.erase(1));
  // #2 lost its only coverer: promoted to active.
  EXPECT_TRUE(store.is_active(2));
  EXPECT_EQ(store.active_count(), 1u);
  EXPECT_EQ(store.covered_count(), 0u);
}

TEST(Store, PromotionMayLandInCoveredAgain) {
  SubscriptionStore store(policy(CoveragePolicy::kPairwise));
  store.insert(box2(0, 10, 0, 10, 1));
  store.insert(box2(-1, 11, -1, 11, 2));  // demotes #1
  EXPECT_FALSE(store.is_active(1));
  store.insert(box2(2, 8, 2, 8, 3));  // covered by #2
  EXPECT_FALSE(store.is_active(3));
  // Remove #2: both #1 and #3 re-evaluated. #3 is inside #1, so exactly
  // one of the promotion orders leaves #3 covered by #1; either way #1
  // must become active and #3 must be contained somewhere.
  EXPECT_TRUE(store.erase(2));
  EXPECT_TRUE(store.is_active(1));
  EXPECT_TRUE(store.contains(3));
  EXPECT_EQ(store.active_count() + store.covered_count(), 2u);
}

TEST(Store, DemotedCovererHandsItsDependentsOver) {
  // x covers c; n then demotes x. Erasing x and then n must leave c
  // active: c's coverer moved from x to n at the demotion, so erasing n
  // re-checks c.
  for (const CoveragePolicy p :
       {CoveragePolicy::kNone, CoveragePolicy::kPairwise,
        CoveragePolicy::kGroup, CoveragePolicy::kExact}) {
    for (const bool use_index : {true, false}) {
      StoreConfig config = policy(p);
      config.use_index = use_index;
      SubscriptionStore store(config);
      store.insert(box2(0, 10, 0, 10, 1));  // x
      store.insert(box2(2, 5, 2, 5, 2));    // c
      store.insert(box2(0, 20, 0, 20, 3));  // n
      EXPECT_TRUE(store.erase(1));
      EXPECT_TRUE(store.erase(3));
      EXPECT_TRUE(store.is_active(2))
          << to_string(p) << (use_index ? " index" : " flat");
      EXPECT_EQ(store.active_count(), 1u);
      EXPECT_EQ(store.covered_count(), 0u);
    }
  }
}

TEST(Store, PromotionRechecksOnlyTheErasedPart) {
  // c = [2,8]x[2,8] is covered by a = [0,6]x[0,10] and b = [4,10]x[0,10]
  // together. d = [0,5]x[-1,11] arrives later. Erasing a re-checks
  // c ∩ a = [2,6]x[2,8], which b and d cover: c stays covered under b and
  // d. Erasing b then exposes c ∩ b = [4,8]x[2,8] beyond d: promotion.
  SubscriptionStore store(policy(CoveragePolicy::kExact));
  store.insert(box2(0, 6, 0, 10, 1));   // a
  store.insert(box2(4, 10, 0, 10, 2));  // b
  ASSERT_TRUE(store.insert(box2(2, 8, 2, 8, 3)).covered);
  EXPECT_EQ(store.coverers_of(3), (std::vector<SubscriptionId>{1, 2}));
  ASSERT_TRUE(store.insert(box2(0, 5, -1, 11, 4)).accepted_active);  // d
  EXPECT_TRUE(store.erase_reporting(1).promoted.empty());
  EXPECT_EQ(store.coverers_of(3), (std::vector<SubscriptionId>{2, 4}));
  EXPECT_EQ(store.erase_reporting(2).promoted,
            (std::vector<SubscriptionId>{3}));
  EXPECT_TRUE(store.is_active(3));
}

TEST(Store, EraseReportsWhetherTheIdWasActive) {
  SubscriptionStore store(policy(CoveragePolicy::kPairwise));
  store.insert(box2(0, 10, 0, 10, 1));
  ASSERT_TRUE(store.insert(box2(2, 8, 2, 8, 2)).covered);
  const auto covered = store.erase_reporting(2);
  EXPECT_TRUE(covered.erased);
  EXPECT_FALSE(covered.was_active);
  const auto active = store.erase_reporting(1);
  EXPECT_TRUE(active.erased);
  EXPECT_TRUE(active.was_active);
  const auto absent = store.erase_reporting(1);
  EXPECT_FALSE(absent.erased);
  EXPECT_FALSE(absent.was_active);
}

TEST(Store, ExactPolicyDoesNotCoverAnEqualityPredicateForFree) {
  // x = 5 has zero measure, but [0,10]x[0,3] covers only y <= 3 of it: the
  // publication (5, 7) matches it and nothing else, so it must stay active.
  for (const bool use_index : {true, false}) {
    StoreConfig config = policy(CoveragePolicy::kExact);
    config.use_index = use_index;
    SubscriptionStore store(config);
    store.insert(box2(0, 10, 0, 3, 1));
    EXPECT_TRUE(store.insert(box2(5, 5, 0, 10, 2)).accepted_active);
    EXPECT_EQ(store.match_active(Publication({5.0, 7.0})),
              (std::vector<SubscriptionId>{2}));
    // With a second box over the rest of the line, the two cover it as a
    // group.
    ASSERT_TRUE(store.erase(2));
    store.insert(box2(4, 6, 3, 10, 3));
    EXPECT_TRUE(store.insert(box2(5, 5, 1, 9, 4)).covered);
    EXPECT_EQ(store.coverers_of(4), (std::vector<SubscriptionId>{1, 3}));
  }
}

TEST(Store, PairwiseCovererIsTheLowestActiveSlotAfterSwapRemove) {
  // Erasing active 1 swap-removes active 4 into its slot, and 5 reuses
  // 1's index slot: active slots read 4, 2, 3, 5 while ids and index
  // slots order the two coverers of s as 2, 4. Pairwise cover records
  // the coverer in the lowest active slot, 4, on both paths.
  for (const CoveragePolicy p :
       {CoveragePolicy::kPairwise, CoveragePolicy::kExact}) {
    for (const bool use_index : {true, false}) {
      StoreConfig config = policy(p);
      config.use_index = use_index;
      SubscriptionStore store(config);
      for (const Subscription& sub :
           {box2(0, 100, 0, 100, 1), box2(200, 800, 100, 700, 2),
            box2(900, 950, 900, 950, 3), box2(100, 700, 200, 800, 4)}) {
        ASSERT_TRUE(store.insert(sub).accepted_active) << sub;
      }
      ASSERT_TRUE(store.erase(1));
      ASSERT_TRUE(store.insert(box2(0, 50, 900, 950, 5)).accepted_active);
      ASSERT_EQ(store.active_snapshot().front().id(), 4u);

      ASSERT_TRUE(store.insert(box2(300, 600, 300, 600, 6)).covered);
      EXPECT_EQ(store.coverers_of(6), (std::vector<SubscriptionId>{4}))
          << to_string(p) << (use_index ? " index" : " flat");
    }
  }
}

TEST(Store, EraseUnknownIdReturnsFalse) {
  SubscriptionStore store;
  EXPECT_FALSE(store.erase(99));
}

TEST(Store, DuplicateIdThrows) {
  SubscriptionStore store;
  store.insert(box2(0, 1, 0, 1, 1));
  EXPECT_THROW(store.insert(box2(2, 3, 2, 3, 1)), std::invalid_argument);
}

TEST(Store, ZeroIdThrows) {
  SubscriptionStore store;
  EXPECT_THROW(store.insert(box2(0, 1, 0, 1, 0)), std::invalid_argument);
}

TEST(Store, MatchActiveOnly) {
  SubscriptionStore store(policy(CoveragePolicy::kPairwise));
  store.insert(box2(0, 10, 0, 10, 1));
  store.insert(box2(2, 8, 2, 8, 2));  // covered
  const auto active = store.match_active(Publication({5.0, 5.0}));
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0], 1u);
}

TEST(Store, MatchIncludesCoveredOnActiveHit) {
  SubscriptionStore store(policy(CoveragePolicy::kPairwise));
  store.insert(box2(0, 10, 0, 10, 1));
  store.insert(box2(2, 8, 2, 8, 2));
  auto ids = store.match(Publication({5.0, 5.0}));
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 1u);
  EXPECT_EQ(ids[1], 2u);
  // Point inside #1 but outside #2: only the active matches.
  EXPECT_EQ(store.match(Publication({9.0, 9.0})).size(), 1u);
}

TEST(Store, MatchSkipsCoveredWhenNoActiveMatch) {
  // Algorithm 5's short-circuit: no active match means covered subs cannot
  // match either (they lie inside the union of actives).
  SubscriptionStore store(policy(CoveragePolicy::kPairwise));
  store.insert(box2(0, 10, 0, 10, 1));
  store.insert(box2(2, 8, 2, 8, 2));
  EXPECT_TRUE(store.match(Publication({50.0, 50.0})).empty());
}

TEST(Store, ActiveSnapshotMatchesCount) {
  SubscriptionStore store(policy(CoveragePolicy::kPairwise));
  store.insert(box2(0, 10, 0, 10, 1));
  store.insert(box2(20, 30, 0, 10, 2));
  const auto snapshot = store.active_snapshot();
  EXPECT_EQ(snapshot.size(), store.active_count());
}

TEST(Store, GroupPolicyChecksCountGrows) {
  SubscriptionStore store(policy(CoveragePolicy::kGroup));
  store.insert(box2(0, 10, 0, 10, 1));
  store.insert(box2(20, 30, 0, 10, 2));
  store.insert(box2(40, 50, 0, 10, 3));
  EXPECT_EQ(store.group_checks(), 3u);
}

TEST(Store, StressInsertEraseKeepsInvariants) {
  SubscriptionStore store(policy(CoveragePolicy::kPairwise));
  // Insert nested boxes then peel them off outside-in.
  for (int i = 0; i < 10; ++i) {
    const double pad = i;  // box i+1 strictly inside box i
    store.insert(box2(pad, 100 - pad, pad, 100 - pad,
                      static_cast<SubscriptionId>(i + 1)));
  }
  // Only the outermost is active; the rest covered.
  EXPECT_EQ(store.active_count(), 1u);
  EXPECT_EQ(store.covered_count(), 9u);
  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(store.erase(static_cast<SubscriptionId>(i + 1)));
    // After removing box i+1, box i+2 becomes the outermost -> active.
    EXPECT_EQ(store.active_count(), 1u) << "after erase " << i + 1;
    EXPECT_EQ(store.covered_count(), static_cast<std::size_t>(8 - i));
  }
}

TEST(Store, MixedArityStreamDegradesIndexInsteadOfThrowing) {
  // use_index defaults to on; a second schema width must drop the index
  // and continue on the flat scans (decision-identical per the
  // equivalence property tests), not reject the insert.
  SubscriptionStore store(policy(CoveragePolicy::kNone));
  store.insert(box2(0, 10, 0, 10, 1));
  const Subscription three_wide(
      {Interval{0, 10}, Interval{0, 10}, Interval{0, 10}}, 2);
  EXPECT_NO_THROW(store.insert(three_wide));
  EXPECT_EQ(store.active_count(), 2u);
  // Both schema widths stay matchable after the fallback.
  EXPECT_EQ(store.match_active(Publication({5.0, 5.0})),
            (std::vector<SubscriptionId>{1}));
  EXPECT_EQ(store.match_active(Publication({5.0, 5.0, 5.0})),
            (std::vector<SubscriptionId>{2}));
}

}  // namespace
}  // namespace psc::store
