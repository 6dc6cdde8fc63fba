// Tests for the pairwise-cover baseline.
#include <gtest/gtest.h>

#include <vector>

#include "baseline/pairwise_cover.hpp"

namespace psc::baseline {
namespace {

using core::Interval;
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

}  // namespace
}  // namespace psc::baseline
