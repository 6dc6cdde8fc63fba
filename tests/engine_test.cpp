// Tests for the SubsumptionEngine pipeline (Algorithm 4).
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace psc::core {
namespace {

Subscription box2(double lo1, double hi1, double lo2, double hi2,
                  SubscriptionId id = 0) {
  return Subscription({Interval{lo1, hi1}, Interval{lo2, hi2}}, id);
}

TEST(Engine, EmptySetIsDefiniteNo) {
  SubsumptionEngine engine;
  const auto result = engine.check(box2(0, 1, 0, 1), std::vector<Subscription>{});
  EXPECT_FALSE(result.covered);
  EXPECT_TRUE(result.is_definite);
  EXPECT_EQ(result.path, DecisionPath::kEmptySet);
}

TEST(Engine, PairwiseCoverFastPath) {
  SubsumptionEngine engine;
  const std::vector<Subscription> set{box2(0, 10, 0, 10, 1)};
  const auto result = engine.check(box2(2, 8, 2, 8), set);
  EXPECT_TRUE(result.covered);
  EXPECT_TRUE(result.is_definite);
  EXPECT_EQ(result.path, DecisionPath::kPairwiseCover);
  ASSERT_TRUE(result.covering_index.has_value());
  EXPECT_EQ(*result.covering_index, 0u);
  EXPECT_EQ(result.iterations, 0u);  // no sampling needed
}

TEST(Engine, PaperCoverExampleIsProbabilisticYes) {
  // Table 3: covered by the union but by no single subscription; the fast
  // paths are inconclusive and MCS keeps both rows, so the verdict must
  // come from RSPC as a probabilistic YES.
  SubsumptionEngine engine(EngineConfig{.delta = 1e-6, .max_iterations = 100'000});
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  const auto result = engine.check(box2(830, 870, 1003, 1006), set);
  EXPECT_TRUE(result.covered);
  EXPECT_FALSE(result.is_definite);
  EXPECT_EQ(result.path, DecisionPath::kRspcProbabilistic);
  EXPECT_EQ(result.reduced_set_size, 2u);
  EXPECT_GT(result.iterations, 0u);
}

TEST(Engine, PaperNonCoverExampleIsDefiniteNo) {
  // Table 6 instance: defined counts (1, 2) let Corollary 3 fire.
  SubsumptionEngine engine;
  const std::vector<Subscription> set{box2(820, 850, 1002, 1009, 1),
                                      box2(840, 870, 1001, 1007, 2)};
  const auto result = engine.check(box2(830, 890, 1003, 1006), set);
  EXPECT_FALSE(result.covered);
  EXPECT_TRUE(result.is_definite);
  EXPECT_EQ(result.path, DecisionPath::kPolyhedronWitness);
}

TEST(Engine, McsEmptyGivesDefiniteNo) {
  // Candidates intersect s but each has conflict-free entries (no joint
  // cover possible): MCS empties the set. Fast paths must not fire first:
  // counts must fail the staircase test... a single subscription covering
  // half of s on x2 only has t=1 >= 1, so use use_fast_decisions=false to
  // isolate the MCS path.
  EngineConfig config;
  config.use_fast_decisions = false;
  SubsumptionEngine engine(config);
  const std::vector<Subscription> set{box2(-1, 101, 50, 101, 1)};
  const auto result = engine.check(box2(0, 100, 0, 100), set);
  EXPECT_FALSE(result.covered);
  EXPECT_EQ(result.path, DecisionPath::kMcsEmpty);
  EXPECT_TRUE(result.mcs_ran);
  EXPECT_EQ(result.reduced_set_size, 0u);
}

TEST(Engine, RspcWitnessPathWhenFastPathsDisabled) {
  EngineConfig config;
  config.use_fast_decisions = false;
  config.use_mcs = false;
  SubsumptionEngine engine(config);
  const std::vector<Subscription> set{box2(-1, 40, -1, 101, 1),
                                      box2(60, 101, -1, 101, 2)};
  const auto result = engine.check(box2(0, 100, 0, 100), set);
  EXPECT_FALSE(result.covered);
  EXPECT_EQ(result.path, DecisionPath::kRspcWitness);
  ASSERT_TRUE(result.witness.has_value());
}

TEST(Engine, WitnessFromRspcIsSound) {
  EngineConfig config;
  config.use_fast_decisions = false;
  config.use_mcs = false;
  SubsumptionEngine engine(config);
  const Subscription s = box2(0, 100, 0, 100);
  const std::vector<Subscription> set{box2(-1, 40, -1, 101, 1),
                                      box2(60, 101, -1, 101, 2)};
  const auto result = engine.check(s, set);
  ASSERT_TRUE(result.witness.has_value());
  EXPECT_TRUE(s.contains_point(*result.witness));
  for (const auto& si : set) EXPECT_FALSE(si.contains_point(*result.witness));
}

TEST(Engine, ReportsTheoreticalDAndBudget) {
  EngineConfig config;
  config.delta = 1e-6;
  config.max_iterations = 1000;
  SubsumptionEngine engine(config);
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  const auto result = engine.check(box2(830, 870, 1003, 1006), set);
  // rho_w = 0.25 (see witness_estimate_test) => d = ceil(ln 1e-6 / ln .75) = 49.
  EXPECT_DOUBLE_EQ(result.rho_w, 0.25);
  EXPECT_DOUBLE_EQ(result.theoretical_d, 49.0);
  EXPECT_EQ(result.trial_budget, 49u);
  EXPECT_EQ(result.iterations, 49u);  // covered => exhausts budget
}

TEST(Engine, BudgetCapRespected) {
  EngineConfig config;
  config.delta = 1e-10;
  config.max_iterations = 10;
  SubsumptionEngine engine(config);
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  const auto result = engine.check(box2(830, 870, 1003, 1006), set);
  EXPECT_LE(result.iterations, 10u);
  EXPECT_EQ(result.trial_budget, 10u);
}

TEST(Engine, ReportsAchievedErrorBound) {
  // Table 3 again: rho_w = 0.25, d = 49 at delta = 1e-6.
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  const Subscription s = box2(830, 870, 1003, 1006);

  // Uncapped: all d trials ran, so the bound met is within delta.
  SubsumptionEngine uncapped(EngineConfig{.delta = 1e-6, .max_iterations = 1000});
  const auto full = uncapped.check(s, set);
  ASSERT_EQ(full.path, DecisionPath::kRspcProbabilistic);
  EXPECT_NEAR(full.achieved_error_bound, std::pow(0.75, 49), 1e-12 * std::pow(0.75, 49));
  EXPECT_LE(full.achieved_error_bound, 1e-6);

  // Capped below d: the verdict is the same probabilistic YES, but the
  // bound it achieved, 0.75^10, is far above delta.
  SubsumptionEngine capped(EngineConfig{.delta = 1e-6, .max_iterations = 10});
  const auto cut = capped.check(s, set);
  ASSERT_EQ(cut.path, DecisionPath::kRspcProbabilistic);
  EXPECT_TRUE(cut.covered);
  EXPECT_GT(cut.theoretical_d, 10.0);
  EXPECT_NEAR(cut.achieved_error_bound, std::pow(0.75, 10), 1e-12);
  EXPECT_GT(cut.achieved_error_bound, 1e-6);

  // A definite verdict carries no error.
  const auto pairwise = uncapped.check(box2(830, 840, 1003, 1006), set);
  ASSERT_TRUE(pairwise.is_definite);
  EXPECT_EQ(pairwise.achieved_error_bound, 0.0);
}

TEST(Engine, McsReducesBeforeSampling) {
  // Table 7/8 fixture: MCS removes s3, leaving 2 candidates.
  SubsumptionEngine engine;
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2),
                                      box2(810, 890, 1004, 1005, 3)};
  const auto result = engine.check(box2(830, 870, 1003, 1006), set);
  EXPECT_TRUE(result.mcs_ran);
  EXPECT_EQ(result.original_set_size, 3u);
  EXPECT_EQ(result.reduced_set_size, 2u);
  EXPECT_TRUE(result.covered);  // still covered by s1 v s2
}

TEST(Engine, DisablingMcsKeepsFullSet) {
  EngineConfig config;
  config.use_mcs = false;
  SubsumptionEngine engine(config);
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2),
                                      box2(810, 890, 1004, 1005, 3)};
  const auto result = engine.check(box2(830, 870, 1003, 1006), set);
  EXPECT_FALSE(result.mcs_ran);
  EXPECT_EQ(result.reduced_set_size, 3u);
}

TEST(Engine, ConfigValidation) {
  EXPECT_THROW(SubsumptionEngine(EngineConfig{.delta = 0.0}), std::invalid_argument);
  EXPECT_THROW(SubsumptionEngine(EngineConfig{.delta = 1.0}), std::invalid_argument);
  EngineConfig zero_iter{};
  zero_iter.max_iterations = 0;
  EXPECT_THROW((void)SubsumptionEngine{zero_iter}, std::invalid_argument);
  SubsumptionEngine engine;
  EXPECT_THROW(engine.set_config(EngineConfig{.delta = 2.0}), std::invalid_argument);
}

TEST(Engine, DeterministicAcrossIdenticalSeeds) {
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  SubsumptionEngine a(EngineConfig{}, 123);
  SubsumptionEngine b(EngineConfig{}, 123);
  const auto ra = a.check(box2(830, 870, 1003, 1006), set);
  const auto rb = b.check(box2(830, 870, 1003, 1006), set);
  EXPECT_EQ(ra.covered, rb.covered);
  EXPECT_EQ(ra.iterations, rb.iterations);
}

TEST(Engine, SingleAttributeInstances) {
  SubsumptionEngine engine;
  const Subscription s({Interval{0, 10}});
  // Two pieces covering [0,10] jointly.
  const std::vector<Subscription> covering{
      Subscription({Interval{-1, 6}}, 1), Subscription({Interval{5, 11}}, 2)};
  EXPECT_TRUE(engine.check(s, covering).covered);
  // Gap at (6, 7).
  const std::vector<Subscription> gapped{
      Subscription({Interval{-1, 6}}, 1), Subscription({Interval{7, 11}}, 2)};
  EXPECT_FALSE(engine.check(s, gapped).covered);
}

TEST(Engine, DegenerateTestedSubscription) {
  // Zero-volume s (a point-like box). Pairwise containment decides it.
  SubsumptionEngine engine;
  const Subscription s({Interval::point(5.0), Interval{0, 1}});
  const std::vector<Subscription> set{box2(0, 10, -1, 2, 1)};
  const auto result = engine.check(s, set);
  EXPECT_TRUE(result.covered);
  EXPECT_EQ(result.path, DecisionPath::kPairwiseCover);
}

TEST(Engine, DecisionPathNames) {
  EXPECT_EQ(to_string(DecisionPath::kEmptySet), "empty-set");
  EXPECT_EQ(to_string(DecisionPath::kPairwiseCover), "pairwise-cover");
  EXPECT_EQ(to_string(DecisionPath::kPolyhedronWitness), "polyhedron-witness");
  EXPECT_EQ(to_string(DecisionPath::kMcsEmpty), "mcs-empty");
  EXPECT_EQ(to_string(DecisionPath::kRspcWitness), "rspc-witness");
  EXPECT_EQ(to_string(DecisionPath::kRspcProbabilistic), "rspc-probabilistic");
}

}  // namespace
}  // namespace psc::core
