// Tests for the exact box-subtraction oracle.
#include "baseline/exact_subsumption.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace psc::baseline {
namespace {

using core::Interval;
using core::Subscription;
using core::Value;

Subscription box2(double lo1, double hi1, double lo2, double hi2,
                  core::SubscriptionId id = 0) {
  return Subscription({Interval{lo1, hi1}, Interval{lo2, hi2}}, id);
}

TEST(ExactSubsumption, PaperCoverExampleIsCovered) {
  const Subscription s = box2(830, 870, 1003, 1006);
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  const ExactResult result = exact_subsumption(s, set);
  EXPECT_TRUE(result.covered);
  EXPECT_EQ(result.uncovered_volume, 0.0);
  EXPECT_FALSE(result.witness.has_value());
}

TEST(ExactSubsumption, PaperNonCoverExampleVolume) {
  // Table 6: the union misses exactly the slab (870, 890] x [1003, 1006]:
  // volume 20 * 3 = 60.
  const Subscription s = box2(830, 890, 1003, 1006);
  const std::vector<Subscription> set{box2(820, 850, 1002, 1009, 1),
                                      box2(840, 870, 1001, 1007, 2)};
  const ExactResult result = exact_subsumption(s, set);
  ASSERT_FALSE(result.covered);
  EXPECT_NEAR(result.uncovered_volume, 60.0, 1e-9);
  ASSERT_TRUE(result.witness.has_value());
  EXPECT_TRUE(s.contains_point(*result.witness));
  for (const auto& si : set) EXPECT_FALSE(si.contains_point(*result.witness));
}

TEST(ExactSubsumption, EmptySetNotCovered) {
  const Subscription s = box2(0, 10, 0, 10);
  const ExactResult result = exact_subsumption(s, std::vector<Subscription>{});
  EXPECT_FALSE(result.covered);
  EXPECT_NEAR(result.uncovered_volume, 100.0, 1e-9);
}

TEST(ExactSubsumption, SingleExactCover) {
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{box2(0, 10, 0, 10, 1)};
  EXPECT_TRUE(exactly_covered(s, set));
}

TEST(ExactSubsumption, ZeroMeasureResidueCountsAsCovered) {
  // Two halves meeting exactly at x = 5: residue is the zero-width line.
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{box2(0, 5, 0, 10, 1), box2(5, 10, 0, 10, 2)};
  EXPECT_TRUE(exactly_covered(s, set));
}

TEST(ExactSubsumption, HairlineGapDetected) {
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{box2(0, 5, 0, 10, 1),
                                      box2(5.001, 10, 0, 10, 2)};
  const ExactResult result = exact_subsumption(s, set);
  ASSERT_FALSE(result.covered);
  EXPECT_NEAR(result.uncovered_volume, 0.001 * 10, 1e-9);
}

TEST(ExactSubsumption, DegenerateTestedAgainstEmptySetIsNotCovered) {
  // An equality predicate (y = 5) has zero measure but still matches
  // publications, so nothing covers it for free.
  const Subscription s = box2(0, 10, 5, 5);
  const ExactResult result = exact_subsumption(s, std::vector<Subscription>{});
  EXPECT_FALSE(result.covered);
  EXPECT_NEAR(result.uncovered_volume, 10.0, 1e-9);  // measured along x
}

TEST(ExactSubsumption, DegenerateTestedCoveredInItsOwnDimension) {
  // x = 5, y in [0, 10]: the two boxes that contain x = 5 split y between
  // them; the third cannot help, as it misses x = 5 entirely.
  const Subscription s = box2(5, 5, 0, 10);
  const std::vector<Subscription> set{box2(0, 10, 0, 6, 1),
                                      box2(6, 9, 0, 10, 2),
                                      box2(4, 6, 5, 10, 3)};
  const ExactResult result = exact_subsumption(s, set);
  EXPECT_TRUE(result.covered);
  EXPECT_EQ(result.uncovered_volume, 0.0);
  // Without the first box, y in [0, 5) of the line stays open.
  EXPECT_FALSE(exactly_covered(s, std::vector<Subscription>{set[1], set[2]}));
}

TEST(ExactSubsumption, DegenerateTestedUncoveredGetsWitnessOnItsLine) {
  // x = 5, y in [0, 10] against y in [0, 3] only: y in (3, 10] stays open.
  // The pinned box misses x = 5 and must not cover anything.
  const Subscription s = box2(5, 5, 0, 10);
  const std::vector<Subscription> set{box2(0, 10, 0, 3, 1),
                                      box2(6, 9, 0, 10, 2)};
  const ExactResult result = exact_subsumption(s, set);
  ASSERT_FALSE(result.covered);
  EXPECT_NEAR(result.uncovered_volume, 7.0, 1e-9);
  ASSERT_TRUE(result.witness.has_value());
  EXPECT_TRUE(s.contains_point(*result.witness));
  for (const auto& si : set) EXPECT_FALSE(si.contains_point(*result.witness));
}

TEST(ExactSubsumption, PointTestedIsCoveredOnlyByABoxContainingIt) {
  const Subscription point = box2(5, 5, 7, 7);
  EXPECT_FALSE(exactly_covered(point, std::vector<Subscription>{
                                          box2(0, 10, 0, 3, 1)}));
  EXPECT_TRUE(exactly_covered(point, std::vector<Subscription>{
                                         box2(0, 10, 0, 3, 1),
                                         box2(5, 6, 7, 9, 2)}));
}

TEST(ExactSubsumption, CrossCoverFourQuadrants) {
  // Four overlapping quadrant boxes jointly covering s.
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{
      box2(-1, 6, -1, 6, 1), box2(4, 11, -1, 6, 2),
      box2(-1, 6, 4, 11, 3), box2(4, 11, 4, 11, 4)};
  EXPECT_TRUE(exactly_covered(s, set));
}

TEST(ExactSubsumption, CenterHoleDetected) {
  // Frame of four slabs leaving the center square (4,6)^2 open.
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{
      box2(-1, 4, -1, 11, 1),   // left slab
      box2(6, 11, -1, 11, 2),   // right slab
      box2(-1, 11, -1, 4, 3),   // bottom slab
      box2(-1, 11, 6, 11, 4)};  // top slab
  const ExactResult result = exact_subsumption(s, set);
  ASSERT_FALSE(result.covered);
  EXPECT_NEAR(result.uncovered_volume, 4.0, 1e-9);  // 2 x 2 hole
  ASSERT_TRUE(result.witness.has_value());
  EXPECT_NEAR((*result.witness)[0], 5.0, 1.01);
  EXPECT_NEAR((*result.witness)[1], 5.0, 1.01);
}

TEST(ExactSubsumption, ThreeDimensionalCover) {
  const Subscription s({Interval{0, 4}, Interval{0, 4}, Interval{0, 4}});
  const std::vector<Subscription> set{
      Subscription({Interval{-1, 2}, Interval{-1, 5}, Interval{-1, 5}}, 1),
      Subscription({Interval{2, 5}, Interval{-1, 5}, Interval{-1, 5}}, 2)};
  EXPECT_TRUE(exactly_covered(s, set));
}

TEST(ExactSubsumption, ThreeDimensionalCornerGap) {
  const Subscription s({Interval{0, 4}, Interval{0, 4}, Interval{0, 4}});
  const std::vector<Subscription> set{
      Subscription({Interval{-1, 3}, Interval{-1, 5}, Interval{-1, 5}}, 1),
      Subscription({Interval{3, 5}, Interval{-1, 3}, Interval{-1, 5}}, 2),
      Subscription({Interval{3, 5}, Interval{3, 5}, Interval{-1, 3}}, 3)};
  const ExactResult result = exact_subsumption(s, set);
  ASSERT_FALSE(result.covered);
  // Residue: [3,4]^3 corner cube, volume 1.
  EXPECT_NEAR(result.uncovered_volume, 1.0, 1e-9);
}

TEST(ExactSubsumption, FragmentLimitThrows) {
  // Many interleaved cuts explode the residue; a tiny limit must trip.
  const Subscription s = box2(0, 100, 0, 100);
  std::vector<Subscription> set;
  for (int i = 0; i < 50; ++i) {
    set.push_back(box2(i, i + 0.5, i, i + 0.5, i + 1));
  }
  EXPECT_THROW((void)exact_subsumption(s, set, 10), std::runtime_error);
}

TEST(ExactSubsumption, VolumeConservation) {
  // Uncovered volume + covered volume == volume(s) for disjoint cuts.
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{box2(0, 3, 0, 10, 1),
                                      box2(7, 10, 0, 10, 2)};
  const ExactResult result = exact_subsumption(s, set);
  EXPECT_NEAR(result.uncovered_volume, 100.0 - 30.0 - 30.0, 1e-9);
}

TEST(ExactSubsumption, OverlappingCutsDoNotDoubleCount) {
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{box2(0, 6, 0, 10, 1),
                                      box2(4, 10, 0, 10, 2)};
  EXPECT_TRUE(exactly_covered(s, set));
}

}  // namespace
}  // namespace psc::baseline
