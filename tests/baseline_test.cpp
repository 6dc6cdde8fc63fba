// Tests for the pairwise-cover baseline and the counting matcher.
#include <gtest/gtest.h>

#include <vector>

#include "baseline/counting_matcher.hpp"
#include "baseline/pairwise_cover.hpp"
#include "util/rng.hpp"
#include "workload/publications.hpp"

namespace psc::baseline {
namespace {

using core::Interval;
using core::Publication;
using core::Subscription;

Subscription box2(double lo1, double hi1, double lo2, double hi2,
                  core::SubscriptionId id = 0) {
  return Subscription({Interval{lo1, hi1}, Interval{lo2, hi2}}, id);
}

TEST(PairwiseCover, FindsFirstCoveringSubscription) {
  const Subscription s = box2(2, 8, 2, 8);
  const std::vector<Subscription> set{box2(3, 7, 3, 7, 1),
                                      box2(0, 10, 0, 10, 2),
                                      box2(-5, 15, -5, 15, 3)};
  const auto idx = find_covering(s, set);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 1u);
  EXPECT_TRUE(pairwise_covered(s, set));
}

TEST(PairwiseCover, MissesGroupOnlyCover) {
  // The paper's central observation: pairwise checking cannot see that
  // Table 3's union covers s.
  const Subscription s = box2(830, 870, 1003, 1006);
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  EXPECT_FALSE(pairwise_covered(s, set));
}

TEST(PairwiseCover, EmptySetNotCovered) {
  EXPECT_FALSE(pairwise_covered(box2(0, 1, 0, 1), std::vector<Subscription>{}));
}

TEST(CountingMatcher, MatchesLikeDirectEvaluation) {
  util::Rng rng(17);
  CountingMatcher matcher(3);
  std::vector<Subscription> subs;
  for (int i = 0; i < 80; ++i) {
    std::vector<Interval> ranges(3);
    for (auto& r : ranges) {
      const double lo = rng.uniform(0, 80);
      r = Interval{lo, lo + rng.uniform(1, 30)};
    }
    Subscription sub(std::move(ranges), static_cast<core::SubscriptionId>(i + 1));
    matcher.insert(sub);
    subs.push_back(std::move(sub));
  }
  for (int trial = 0; trial < 200; ++trial) {
    const Publication pub =
        workload::uniform_publication(3, 0.0, 100.0, rng);
    const auto slots = matcher.match(pub);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < subs.size(); ++i) {
      if (pub.matches(subs[i])) expected.push_back(i);
    }
    EXPECT_EQ(slots, expected) << "trial " << trial;
  }
}

TEST(CountingMatcher, BoundaryValuesMatchInclusive) {
  CountingMatcher matcher(1);
  matcher.insert(Subscription({Interval{5, 10}}, 1));
  EXPECT_EQ(matcher.match(Publication({5.0})).size(), 1u);
  EXPECT_EQ(matcher.match(Publication({10.0})).size(), 1u);
  EXPECT_EQ(matcher.match(Publication({4.999})).size(), 0u);
  EXPECT_EQ(matcher.match(Publication({10.001})).size(), 0u);
}

TEST(CountingMatcher, EraseSwapsLastSlot) {
  CountingMatcher matcher(1);
  matcher.insert(Subscription({Interval{0, 1}}, 1));
  matcher.insert(Subscription({Interval{2, 3}}, 2));
  matcher.insert(Subscription({Interval{4, 5}}, 3));
  const std::size_t moved = matcher.erase(0);
  EXPECT_EQ(moved, 2u);  // last slot moved into 0
  EXPECT_EQ(matcher.size(), 2u);
  EXPECT_EQ(matcher.at(0).id(), 3u);
  // Matching still correct after the swap.
  EXPECT_EQ(matcher.match(Publication({4.5})).size(), 1u);
  EXPECT_EQ(matcher.match(Publication({0.5})).size(), 0u);
}

TEST(CountingMatcher, EraseLastSlot) {
  CountingMatcher matcher(1);
  matcher.insert(Subscription({Interval{0, 1}}, 1));
  EXPECT_EQ(matcher.erase(0), 0u);
  EXPECT_TRUE(matcher.empty());
}

TEST(CountingMatcher, SchemaMismatchThrows) {
  CountingMatcher matcher(2);
  EXPECT_THROW(matcher.insert(Subscription({Interval{0, 1}})),
               std::invalid_argument);
  EXPECT_THROW((void)matcher.match(Publication({1.0})), std::invalid_argument);
  EXPECT_THROW((void)matcher.erase(5), std::out_of_range);
}

TEST(CountingMatcher, EmptyMatcherMatchesNothing) {
  CountingMatcher matcher(2);
  EXPECT_TRUE(matcher.match(Publication({1.0, 2.0})).empty());
}

TEST(CountingMatcher, ClearResets) {
  CountingMatcher matcher(1);
  matcher.insert(Subscription({Interval{0, 1}}, 1));
  matcher.clear();
  EXPECT_TRUE(matcher.empty());
  EXPECT_TRUE(matcher.match(Publication({0.5})).empty());
}

TEST(CountingMatcher, NearMissPublicationsDoNotMatch) {
  util::Rng rng(23);
  CountingMatcher matcher(4);
  std::vector<Interval> ranges{{0, 10}, {5, 15}, {20, 30}, {1, 2}};
  const Subscription sub(std::move(ranges), 1);
  matcher.insert(sub);
  for (int i = 0; i < 100; ++i) {
    const Publication miss = workload::publication_near_miss(sub, rng);
    EXPECT_TRUE(matcher.match(miss).empty());
    const Publication hit = workload::publication_inside(sub, rng);
    EXPECT_EQ(matcher.match(hit).size(), 1u);
  }
}

}  // namespace
}  // namespace psc::baseline
