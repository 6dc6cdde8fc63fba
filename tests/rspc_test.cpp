// Tests for the RSPC Monte-Carlo core (Algorithm 1): the packed trial
// kernel, checked draw for draw against a reference trial loop over
// Subscription::contains_point.
#include "core/rspc.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace psc::core {
namespace {

constexpr Value kInf = std::numeric_limits<Value>::infinity();
constexpr Value kNaN = std::numeric_limits<Value>::quiet_NaN();

Subscription box2(double lo1, double hi1, double lo2, double hi2,
                  SubscriptionId id = 0) {
  return Subscription({Interval{lo1, hi1}, Interval{lo2, hi2}}, id);
}

// --- reference ------------------------------------------------------------
//
// Algorithm 1 as a plain loop: draw every attribute with Rng::uniform, test
// the union candidate by candidate with contains_point. The kernel must
// reproduce its verdict, iteration count, witness and RNG stream exactly.

bool point_in_union(std::span<const Value> point, std::span<const Subscription> set) {
  for (const Subscription& si : set) {
    if (si.contains_point(point)) return true;
  }
  return false;
}

std::vector<Value> sample_point(const Subscription& s, util::Rng& rng) {
  std::vector<Value> point(s.attribute_count());
  for (std::size_t j = 0; j < s.attribute_count(); ++j) {
    point[j] = rng.uniform(s.range(j).lo, s.range(j).hi);
  }
  return point;
}

RspcResult reference_rspc(const Subscription& s, std::span<const Subscription> set,
                          std::uint64_t budget, util::Rng& rng) {
  RspcResult result;
  if (set.empty()) {
    result.covered = false;
    result.witness = sample_point(s, rng);
    return result;
  }
  for (std::uint64_t trial = 0; trial < budget; ++trial) {
    ++result.iterations;
    std::vector<Value> point = sample_point(s, rng);
    if (!point_in_union(point, set)) {
      result.covered = false;
      result.witness = std::move(point);
      return result;
    }
  }
  return result;
}

// --- packed rows ----------------------------------------------------------

TEST(PackedBoxes, ContainsMatchesContainsPoint) {
  // Lane for lane the packed test is contains_point's closed compare,
  // including NaN (never contained), +-inf bounds and boundary equality,
  // for arities that leave 0-3 padding lanes.
  const std::vector<Value> specials{-kInf, -1.0, 0.0, 1.0, kInf, kNaN};
  util::Rng rng(17);
  const auto pick = [&] {
    return rng.bernoulli(0.5) ? specials[rng.next_below(specials.size())]
                              : static_cast<Value>(rng.uniform_int(-2, 2));
  };
  for (std::size_t m = 1; m <= 9; ++m) {
    const Subscription s = Subscription::everything(m);
    for (int round = 0; round < 300; ++round) {
      std::vector<Interval> ranges(m);
      for (Interval& range : ranges) {
        Value lo = pick(), hi = pick();
        if (lo > hi) std::swap(lo, hi);
        range = {lo, hi};
      }
      const Subscription candidate(ranges);
      PackedBoxes boxes;
      boxes.reset(s, 1);
      boxes.add(candidate);
      ASSERT_EQ(boxes.lanes() % 4, 0u);
      ASSERT_GE(boxes.lanes(), m);
      std::vector<Value> point(boxes.lanes(), 0.0);
      for (std::size_t j = 0; j < m; ++j) point[j] = pick();
      EXPECT_EQ(boxes.contains(0, point.data()),
                candidate.contains_point(std::span<const Value>(point.data(), m)))
          << "m=" << m << " round " << round;
    }
  }
}

TEST(PackedBoxes, ArityMismatchContainsNothing) {
  PackedBoxes boxes;
  boxes.reset(box2(0, 10, 0, 10), 1);
  boxes.add(Subscription::everything(3));
  const std::vector<Value> point(boxes.lanes(), 5.0);
  EXPECT_FALSE(boxes.contains(0, point.data()));
}

// --- differential identity ------------------------------------------------

/// One candidate range on an attribute of s = [lo, hi]: unbounded,
/// half-bounded, boundary-touching (inside and outside), degenerate, or
/// random around s.
Interval random_candidate_range(const Interval& s, util::Rng& rng) {
  const Value lo = s.lo, hi = s.hi;
  const Value mid = rng.uniform(lo, hi);
  switch (rng.next_below(12)) {
    case 0: return Interval::everything();
    case 1: return {-kInf, mid};
    case 2: return {mid, kInf};
    case 3: return {lo, hi};                        // touches both ends
    case 4: return {lo, mid};                       // touches s.lo
    case 5: return {mid, hi};                       // touches s.hi
    case 6: return {hi, hi + 5.0};                  // touches s from above
    case 7: return {lo - 5.0, lo};                  // touches s from below
    case 8: return Interval::point(rng.bernoulli(0.5) ? lo : mid);
    case 9: return {-kInf, kInf};
    default: {
      Value a = rng.uniform(lo - 20.0, hi + 20.0);
      Value b = rng.uniform(lo - 20.0, hi + 20.0);
      if (a > b) std::swap(a, b);
      return {a, b};
    }
  }
}

void expect_identical(const RspcResult& got, const RspcResult& want,
                      const util::Rng& got_rng, const util::Rng& want_rng,
                      const std::string& where) {
  EXPECT_EQ(got.covered, want.covered) << where;
  EXPECT_EQ(got.iterations, want.iterations) << where;
  ASSERT_EQ(got.witness.has_value(), want.witness.has_value()) << where;
  if (want.witness) {
    ASSERT_EQ(got.witness->size(), want.witness->size()) << where;
    for (std::size_t j = 0; j < want.witness->size(); ++j) {
      // Bit equality: the draws are the same operations on the same values.
      EXPECT_EQ(std::memcmp(&(*got.witness)[j], &(*want.witness)[j], sizeof(Value)), 0)
          << where << " attribute " << j;
    }
  }
  EXPECT_EQ(got_rng.state(), want_rng.state()) << where;
}

TEST(RspcDifferential, KernelMatchesReferenceTrialLoop) {
  util::Rng gen(2026);
  std::size_t witnesses = 0, covered = 0;
  PackedBoxes reused;  // one buffer across arities, as the engine's workspace
  std::vector<Value> point;
  for (const std::size_t m : {1u, 3u, 4u, 6u, 10u, 17u}) {
    for (int round = 0; round < 150; ++round) {
      std::vector<Interval> s_ranges(m);
      for (Interval& range : s_ranges) {
        const Value lo = gen.uniform(0.0, 50.0);
        range = gen.bernoulli(0.1) ? Interval::point(lo)
                                   : Interval{lo, lo + gen.uniform(1.0, 50.0)};
      }
      const Subscription s(s_ranges);
      std::vector<Subscription> set;
      const std::size_t k = gen.next_below(7);
      for (std::size_t i = 0; i < k; ++i) {
        std::vector<Interval> ranges(m);
        // Mostly-covering candidates, so runs go long as well as short.
        const bool wide = gen.bernoulli(0.5);
        for (std::size_t j = 0; j < m; ++j) {
          ranges[j] = wide && gen.bernoulli(0.8) ? Interval{s_ranges[j].lo - 1.0,
                                                            s_ranges[j].hi + 1.0}
                                                 : random_candidate_range(s_ranges[j], gen);
        }
        set.emplace_back(ranges, i + 1);
      }
      const std::uint64_t budget = gen.next_below(300);
      const std::uint64_t seed = gen();
      const std::string where = "m=" + std::to_string(m) + " round " + std::to_string(round);

      util::Rng want_rng(seed);
      const RspcResult want = reference_rspc(s, set, budget, want_rng);
      (want.covered ? covered : witnesses) += 1;

      util::Rng value_rng(seed);
      expect_identical(run_rspc(s, set, budget, value_rng), want, value_rng, want_rng,
                       where + " value span");

      std::vector<const Subscription*> pointers;
      for (const Subscription& si : set) pointers.push_back(&si);
      util::Rng pointer_rng(seed);
      std::vector<Value> scratch;
      expect_identical(run_rspc(s, pointers, budget, pointer_rng, scratch), want,
                       pointer_rng, want_rng, where + " pointer span");

      reused.reset(s, set.size());
      for (const Subscription& si : set) reused.add(si);
      util::Rng kernel_rng(seed);
      expect_identical(run_rspc(reused, budget, kernel_rng, point), want, kernel_rng,
                       want_rng, where + " reused rows");
    }
  }
  // The instance mix exercises both verdicts.
  EXPECT_GT(witnesses, 100u);
  EXPECT_GT(covered, 100u);
}

// --- behaviour ------------------------------------------------------------

TEST(Rspc, CoveredInstanceAlwaysAnswersYes) {
  // Paper Table 3: genuinely covered, so no witness exists — RSPC must
  // exhaust its budget and answer YES regardless of seed.
  const Subscription s = box2(830, 870, 1003, 1006);
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    const RspcResult result = run_rspc(s, set, 200, rng);
    EXPECT_TRUE(result.covered) << "seed " << seed;
    EXPECT_EQ(result.iterations, 200u);
    EXPECT_FALSE(result.witness.has_value());
  }
}

TEST(Rspc, NonCoverFindsWitnessWithLargeGap) {
  // Table 6: the gap (870, 890] is 1/3 of s on x1; 200 trials miss it with
  // probability (2/3)^200 ~ 1e-36 — effectively never.
  const Subscription s = box2(830, 890, 1003, 1006);
  const std::vector<Subscription> set{box2(820, 850, 1002, 1009, 1),
                                      box2(840, 870, 1001, 1007, 2)};
  util::Rng rng(7);
  const RspcResult result = run_rspc(s, set, 200, rng);
  ASSERT_FALSE(result.covered);
  ASSERT_TRUE(result.witness.has_value());
  // The witness is a genuine counter-example.
  EXPECT_TRUE(s.contains_point(*result.witness));
  EXPECT_FALSE(point_in_union(*result.witness, set));
  EXPECT_LT(result.iterations, 200u);  // early exit
}

TEST(Rspc, DefiniteNoIsAlwaysSound) {
  // Whenever RSPC says NO, the reported witness must check out. Randomized
  // instances with a forced gap.
  util::Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    const Subscription s = box2(0, 100, 0, 100);
    const std::vector<Subscription> set{
        box2(-1, rng.uniform(20, 60), -1, 101, 1),
        box2(rng.uniform(61, 90), 101, -1, 101, 2)};
    util::Rng inner = rng.split();
    const RspcResult result = run_rspc(s, set, 500, inner);
    if (!result.covered) {
      ASSERT_TRUE(result.witness.has_value());
      EXPECT_TRUE(s.contains_point(*result.witness));
      EXPECT_FALSE(point_in_union(*result.witness, set));
    }
  }
}

TEST(Rspc, EmptySetIsDefiniteNoWithoutSampling) {
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set;
  util::Rng rng(5);
  const RspcResult result = run_rspc(s, set, 100, rng);
  EXPECT_FALSE(result.covered);
  EXPECT_EQ(result.iterations, 0u);
  ASSERT_TRUE(result.witness.has_value());
  EXPECT_TRUE(s.contains_point(*result.witness));
}

TEST(Rspc, EmptySetWitnessesLieInsideS) {
  util::Rng rng(1);
  const Subscription s = box2(830, 870, 1003, 1006);
  for (int i = 0; i < 1000; ++i) {
    const RspcResult result = run_rspc(s, std::span<const Subscription>{}, 1, rng);
    ASSERT_TRUE(result.witness.has_value());
    ASSERT_EQ(result.witness->size(), 2u);
    EXPECT_TRUE(s.contains_point(*result.witness));
  }
}

TEST(Rspc, DegenerateRangeDrawsThePoint) {
  util::Rng rng(2);
  const Subscription s({Interval::point(3.0), Interval{0, 1}});
  const RspcResult result = run_rspc(s, std::span<const Subscription>{}, 1, rng);
  ASSERT_TRUE(result.witness.has_value());
  EXPECT_EQ((*result.witness)[0], 3.0);
}

TEST(Rspc, UnboundedTestedRangeThrowsBeforeTheFirstDraw) {
  const Subscription s({Interval{0, 1}, Interval::everything()});
  const std::vector<Subscription> set{box2(0, 1, 0, 1, 1)};
  util::Rng rng(3);
  const auto before = rng.state();
  EXPECT_THROW((void)run_rspc(s, set, 10, rng), std::invalid_argument);
  EXPECT_EQ(rng.state(), before);
  EXPECT_THROW((void)run_rspc(s, std::span<const Subscription>{}, 10, rng),
               std::invalid_argument);
  // No trial, no draw, no check.
  EXPECT_TRUE(run_rspc(s, set, 0, rng).covered);
}

TEST(Rspc, ZeroBudgetAnswersYes) {
  // With no trials allowed the algorithm must fall back to YES (its only
  // error mode) — never a spurious NO.
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{box2(100, 110, 100, 110, 1)};
  util::Rng rng(6);
  const RspcResult result = run_rspc(s, set, 0, rng);
  EXPECT_TRUE(result.covered);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(Rspc, IterationCountGeometricallySmallForWideGap) {
  // Gap = half of s: expected trials to find a witness ~ 2. Average over
  // 200 runs must be well under 10.
  const Subscription s = box2(0, 100, 0, 100);
  const std::vector<Subscription> set{box2(-1, 50, -1, 101, 1)};
  util::Rng rng(11);
  double total = 0;
  for (int i = 0; i < 200; ++i) {
    util::Rng inner = rng.split();
    const RspcResult result = run_rspc(s, set, 10'000, inner);
    ASSERT_FALSE(result.covered);
    total += static_cast<double>(result.iterations);
  }
  EXPECT_LT(total / 200.0, 10.0);
  EXPECT_GE(total / 200.0, 1.0);
}

TEST(Rspc, DeterministicGivenSeed) {
  const Subscription s = box2(0, 100, 0, 100);
  const std::vector<Subscription> set{box2(-1, 80, -1, 101, 1)};
  util::Rng rng_a(42), rng_b(42);
  const RspcResult a = run_rspc(s, set, 1000, rng_a);
  const RspcResult b = run_rspc(s, set, 1000, rng_b);
  EXPECT_EQ(a.covered, b.covered);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.witness.has_value(), b.witness.has_value());
  if (a.witness) {
    EXPECT_EQ(*a.witness, *b.witness);
  }
}

}  // namespace
}  // namespace psc::core
