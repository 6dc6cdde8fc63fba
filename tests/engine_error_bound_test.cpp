// Statistical gate for the engine's probability math (paper Sec. 4:
// Alg. 1's trial count d = ceil(ln δ / ln(1 − ρ_w)) from Alg. 2's ρ_w).
//
// A YES from RSPC errs only when d random points all miss the witness
// region. On fig12-style extreme non-cover instances (scenario 2.c: s is
// covered except a thin slice on one axis) under the continuous model,
// Alg. 2's estimate equals the slice's true share of s, so each instance
// answers YES with probability (1 − ρ_w)^d ≤ δ and the false-YES count
// over N instances is dominated by Binomial(N, δ). The gate fails when
// that count exceeds the binomial's one-sided upper bound at 1e-6, which
// a d half as large (error ≈ √δ per instance) exceeds tenfold. A second
// case pins the executed trial count to d itself on covered instances.
// Seeds are fixed, so the verdict is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "baseline/exact_subsumption.hpp"
#include "core/engine.hpp"
#include "workload/scenarios.hpp"

namespace psc::core {
namespace {

/// Smallest c with P[Binomial(n, p) > c] <= alpha.
std::size_t binomial_upper_bound(std::size_t n, double p, double alpha) {
  double log_pmf = static_cast<double>(n) * std::log1p(-p);  // P[X = 0]
  double cdf = std::exp(log_pmf);
  std::size_t c = 0;
  while (1.0 - cdf > alpha) {
    ++c;
    log_pmf += std::log(static_cast<double>(n - c + 1) / static_cast<double>(c)) +
               std::log(p / (1.0 - p));
    cdf += std::exp(log_pmf);
  }
  return c;
}

/// Eq. 1, computed here rather than read from the engine's diagnostics.
double expected_trials(double rho_w, double delta) {
  return std::ceil(std::log(delta) / std::log1p(-rho_w));
}

TEST(EngineErrorBound, BinomialUpperBoundIsTheQuantile) {
  // Bin(10, 0.5): P[X > 9] = 2^-10 ≈ 9.8e-4, P[X > 8] = 11 * 2^-10 ≈ 0.011.
  EXPECT_EQ(binomial_upper_bound(10, 0.5, 1e-3), 9u);
  EXPECT_EQ(binomial_upper_bound(10, 0.5, 2e-2), 8u);
  EXPECT_EQ(binomial_upper_bound(10, 0.5, 1e-2), 9u);
}

TEST(EngineErrorBound, FalseYesRateStaysWithinDelta) {
  constexpr double kDelta = 1e-2;
  constexpr double kGap = 0.02;
  constexpr std::size_t kInstances = 3000;
  EngineConfig config;
  config.delta = kDelta;
  config.max_iterations = 1'000'000;  // never binds at this gap
  // Scenario 2.c is built to defeat the fast decisions and MCS; fig12
  // turns them off so every verdict comes from RSPC.
  config.use_fast_decisions = false;
  config.use_mcs = false;
  SubsumptionEngine engine(config, 0x5eed12);
  workload::ScenarioConfig scenario;
  scenario.attribute_count = 5;
  scenario.set_size = 20;
  util::Rng rng(2006);

  std::size_t false_yes = 0;
  for (std::size_t run = 0; run < kInstances; ++run) {
    const auto inst = workload::make_extreme_non_cover(scenario, kGap, rng);
    // The slice above the highest upper bound on axis 0 is the whole
    // witness region; Alg. 2 must not overstate its share of s.
    const Interval axis = inst.tested.range(0);
    double top = axis.lo;
    for (const Subscription& si : inst.existing) top = std::max(top, si.range(0).hi);
    const double true_rho = (axis.hi - top) / axis.width();
    const auto result = engine.check(inst.tested, inst.existing);
    ASSERT_LE(result.rho_w, true_rho * (1.0 + 1e-9)) << "run " << run;
    ASSERT_EQ(static_cast<double>(result.trial_budget),
              expected_trials(result.rho_w, kDelta))
        << "run " << run;
    if (result.covered) {
      ++false_yes;
      EXPECT_EQ(result.iterations, result.trial_budget) << "run " << run;
    }
    if (run % 500 == 0) {
      ASSERT_FALSE(baseline::exactly_covered(inst.tested, inst.existing))
          << "generator drift at run " << run;
    }
  }
  const std::size_t bound = binomial_upper_bound(kInstances, kDelta, 1e-6);
  EXPECT_LE(false_yes, bound) << "false YES " << false_yes << " of "
                              << kInstances << " at delta " << kDelta;
}

TEST(EngineErrorBound, CoveredRunsExecuteTheTheoreticalD) {
  // A covered instance never meets a witness, so RSPC runs its whole
  // budget: exactly d trials when the cap does not bind.
  constexpr double kDelta = 1e-2;
  EngineConfig config;
  config.delta = kDelta;
  config.max_iterations = 1'000'000;
  SubsumptionEngine engine(config, 0x5eed07);
  workload::ScenarioConfig scenario;
  scenario.attribute_count = 3;
  scenario.set_size = 20;
  util::Rng rng(2007);

  std::size_t sampled = 0;
  for (int run = 0; run < 300; ++run) {
    const auto inst = workload::make_redundant_covering(scenario, rng);
    const auto result = engine.check(inst.tested, inst.existing);
    ASSERT_TRUE(result.covered) << "run " << run;
    if (result.path != DecisionPath::kRspcProbabilistic) continue;
    const double d = expected_trials(result.rho_w, kDelta);
    if (d >= static_cast<double>(config.max_iterations)) continue;
    ++sampled;
    EXPECT_EQ(result.theoretical_d, d) << "run " << run;
    EXPECT_EQ(static_cast<double>(result.iterations), d) << "run " << run;
  }
  EXPECT_GE(sampled, 100u);
}

}  // namespace
}  // namespace psc::core
