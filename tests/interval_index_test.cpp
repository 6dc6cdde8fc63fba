// Tests for the IntervalIndex candidate-pruning structure: exactness of
// point-stab, stab_any, box-intersect and covering against flat scans, incremental
// insert/erase, unbounded and unconstrained attributes, and slot and id
// reuse after churn.
#include "index/interval_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"
#include "workload/scenarios.hpp"

namespace psc::index {
namespace {

using core::Interval;
using core::Publication;
using core::Subscription;
using core::SubscriptionId;
using core::Value;

Subscription box2(double lo1, double hi1, double lo2, double hi2,
                  SubscriptionId id) {
  return Subscription({Interval{lo1, hi1}, Interval{lo2, hi2}}, id);
}

std::vector<SubscriptionId> sorted(std::vector<SubscriptionId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(IntervalIndex, StabFindsContainingBoxes) {
  IntervalIndex index(2);
  index.insert(box2(0, 10, 0, 10, 1));
  index.insert(box2(5, 15, 5, 15, 2));
  index.insert(box2(20, 30, 20, 30, 3));

  const std::vector<Value> inside_both{7.0, 7.0};
  EXPECT_EQ(sorted(index.stab(inside_both)), (std::vector<SubscriptionId>{1, 2}));
  const std::vector<Value> inside_first{1.0, 1.0};
  EXPECT_EQ(index.stab(inside_first), (std::vector<SubscriptionId>{1}));
  const std::vector<Value> nowhere{17.0, 17.0};
  EXPECT_TRUE(index.stab(nowhere).empty());
}

TEST(IntervalIndex, StabIsClosedOnEndpoints) {
  IntervalIndex index(1);
  index.insert(Subscription({Interval{2, 5}}, 1));
  EXPECT_EQ(index.stab(std::vector<Value>{2.0}).size(), 1u);
  EXPECT_EQ(index.stab(std::vector<Value>{5.0}).size(), 1u);
  EXPECT_TRUE(index.stab(std::vector<Value>{5.0001}).empty());
}

TEST(IntervalIndex, BoxIntersectMatchesPairwisePredicate) {
  IntervalIndex index(2);
  index.insert(box2(0, 10, 0, 10, 1));
  index.insert(box2(10, 20, 10, 20, 2));  // touches #1 at a corner
  index.insert(box2(11, 20, 0, 9, 3));    // disjoint from #1 on attr 0
  EXPECT_EQ(sorted(index.box_intersect(box2(5, 10, 5, 10, 99))),
            (std::vector<SubscriptionId>{1, 2}));
  EXPECT_EQ(index.box_intersect(box2(-5, -1, 0, 100, 99)).size(), 0u);
}

TEST(IntervalIndex, UnconstrainedAttributesNotIndexed) {
  IntervalIndex index(2);
  // Constrains only attribute 0; attribute 1 is the full line.
  index.insert(Subscription({Interval{0, 10}, Interval::everything()}, 1));
  // Constrains nothing: matches every probe.
  index.insert(Subscription({Interval::everything(), Interval::everything()}, 2));

  EXPECT_EQ(sorted(index.stab(std::vector<Value>{5.0, 1e12})),
            (std::vector<SubscriptionId>{1, 2}));
  EXPECT_EQ(index.stab(std::vector<Value>{50.0, 0.0}),
            (std::vector<SubscriptionId>{2}));
}

TEST(IntervalIndex, HalfBoundedIntervals) {
  IntervalIndex index(1);
  index.insert(Subscription({Interval{5, std::numeric_limits<Value>::infinity()}}, 1));
  index.insert(Subscription({Interval{-std::numeric_limits<Value>::infinity(), 5}}, 2));
  EXPECT_EQ(sorted(index.stab(std::vector<Value>{5.0})),
            (std::vector<SubscriptionId>{1, 2}));
  EXPECT_EQ(index.stab(std::vector<Value>{100.0}), (std::vector<SubscriptionId>{1}));
  EXPECT_EQ(index.stab(std::vector<Value>{-100.0}), (std::vector<SubscriptionId>{2}));
}

TEST(IntervalIndex, EraseRemovesAndReusesSlots) {
  IntervalIndex index(2);
  index.insert(box2(0, 10, 0, 10, 1));
  index.insert(box2(0, 10, 0, 10, 2));
  EXPECT_TRUE(index.erase(1));
  EXPECT_FALSE(index.erase(1));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_FALSE(index.contains(1));
  EXPECT_EQ(index.stab(std::vector<Value>{5.0, 5.0}),
            (std::vector<SubscriptionId>{2}));
  EXPECT_EQ(index.box_intersect(box2(0, 20, 0, 20, 99)),
            (std::vector<SubscriptionId>{2}));
  // Slot of #1 is reused by #3.
  index.insert(box2(20, 30, 20, 30, 3));
  EXPECT_EQ(index.stab(std::vector<Value>{25.0, 25.0}),
            (std::vector<SubscriptionId>{3}));

  // Erase then re-insert the same id over a different region: the erase
  // restored the slot's mask rows, so no stale bit prunes (or keeps) the
  // new box in either region.
  EXPECT_TRUE(index.erase(2));
  index.insert(box2(500, 600, 500, 600, 2));
  EXPECT_TRUE(index.stab(std::vector<Value>{5.0, 5.0}).empty());
  EXPECT_FALSE(index.stab_any(std::vector<Value>{5.0, 5.0}));
  EXPECT_EQ(index.stab(std::vector<Value>{550.0, 550.0}),
            (std::vector<SubscriptionId>{2}));
  EXPECT_TRUE(index.stab_any(std::vector<Value>{550.0, 550.0}));
  EXPECT_EQ(sorted(index.box_intersect(box2(0, 1000, 0, 1000, 99))),
            (std::vector<SubscriptionId>{2, 3}));
  EXPECT_TRUE(index.box_intersect(box2(0, 10, 0, 10, 99)).empty());
  EXPECT_EQ(index.size(), 2u);

  // The next insert reuses #3's slot and leaves attribute 1 wide, where #3
  // constrained it: the row must not keep #3's bits.
  EXPECT_TRUE(index.erase(3));
  index.insert(Subscription({Interval{20, 30}, Interval::everything()}, 4));
  EXPECT_EQ(index.stab(std::vector<Value>{25.0, 900.0}),
            (std::vector<SubscriptionId>{4}));
  EXPECT_EQ(index.box_intersect(box2(20, 30, 900, 950, 99)),
            (std::vector<SubscriptionId>{4}));
}

constexpr Value kInf = std::numeric_limits<Value>::infinity();

/// Ids of `subs` whose box contains `probe`, the flat reference for
/// IntervalIndex::covering (sorted).
std::vector<SubscriptionId> flat_coverers(const std::vector<Subscription>& subs,
                                          const Subscription& probe) {
  std::vector<SubscriptionId> ids;
  for (const auto& sub : subs) {
    if (sub.covers(probe)) ids.push_back(sub.id());
  }
  return sorted(ids);
}

TEST(IntervalIndex, CoveringIsClosedOnSharedEndpoints) {
  IntervalIndex index(1);
  index.insert(Subscription({Interval{2, 5}}, 1));
  index.insert(Subscription({Interval{2, 4}}, 2));
  EXPECT_EQ(sorted(index.covering(Subscription({Interval{2, 4}}, 99))),
            (std::vector<SubscriptionId>{1, 2}));
  EXPECT_EQ(index.covering(Subscription({Interval{2, 5}}, 99)),
            (std::vector<SubscriptionId>{1}));
  EXPECT_TRUE(index.covering(Subscription({Interval{2, 5.0001}}, 99)).empty());
  EXPECT_TRUE(index.covering(Subscription({Interval{1.9999, 4}}, 99)).empty());
  // A zero-width probe is covered exactly where a stab of its value lands.
  EXPECT_EQ(sorted(index.covering(Subscription({Interval{4, 4}}, 99))),
            (std::vector<SubscriptionId>{1, 2}));
  EXPECT_EQ(index.covering(Subscription({Interval{5, 5}}, 99)),
            (std::vector<SubscriptionId>{1}));
}

TEST(IntervalIndex, CoveringHalfBoundedAndInfiniteIntervals) {
  IntervalIndex index(2);
  std::vector<Subscription> subs{
      Subscription({Interval{5, kInf}, Interval{0, 10}}, 1),
      Subscription({Interval{-kInf, 5}, Interval{0, 10}}, 2),
      Subscription({Interval::everything(), Interval{0, 10}}, 3),
      Subscription({Interval::everything(), Interval::everything()}, 4),
      Subscription({Interval{-kInf, kInf}, Interval{2, kInf}}, 5),
  };
  for (const auto& sub : subs) index.insert(sub);
  for (const Subscription& probe :
       {Subscription({Interval{5, 1e9}, Interval{1, 2}}, 99),
        Subscription({Interval{5, kInf}, Interval{1, 2}}, 99),
        Subscription({Interval{-kInf, 5}, Interval{2, 10}}, 99),
        Subscription({Interval{4, 6}, Interval{0, 10}}, 99),
        Subscription({Interval::everything(), Interval{0, 10}}, 99),
        Subscription({Interval::everything(), Interval{3, kInf}}, 99),
        Subscription({Interval::everything(), Interval::everything()}, 99)}) {
    EXPECT_EQ(sorted(index.covering(probe)), flat_coverers(subs, probe))
        << probe;
  }
  EXPECT_EQ(sorted(index.covering(
                Subscription({Interval{5, kInf}, Interval{1, 2}}, 99))),
            (std::vector<SubscriptionId>{1, 3, 4}));
}

TEST(IntervalIndex, CoveringOutOfDomainProbeDistrustsWideRows) {
  // Default domain [0, 1000]. Slot 1 is wide on attribute 0 without
  // holding the whole line, so its all-ones rows are only certain inside
  // the domain: a probe reaching past the domain must be verified.
  IntervalIndex index(1);
  std::vector<Subscription> subs{
      Subscription({Interval{-5, 1200}}, 1),      // wide, but bounded
      Subscription({Interval{-100, 0}}, 2),        // selective, below
      Subscription({Interval::everything()}, 3),   // wide and unbounded
      Subscription({Interval{900, 2000}}, 4),      // selective, above
  };
  for (const auto& sub : subs) index.insert(sub);
  for (const Subscription& probe :
       {Subscription({Interval{-50, -10}}, 99),
        Subscription({Interval{990, 1500}}, 99),
        Subscription({Interval{1100, 1150}}, 99),
        Subscription({Interval{-5, 1000}}, 99),
        Subscription({Interval{0, 1000}}, 99),
        Subscription({Interval{-1e9, -1e8}}, 99)}) {
    EXPECT_EQ(sorted(index.covering(probe)), flat_coverers(subs, probe))
        << probe;
  }
  EXPECT_EQ(sorted(index.covering(Subscription({Interval{-50, -10}}, 99))),
            (std::vector<SubscriptionId>{2, 3}));
  // The same with nobody selective on the attribute: the sweep skips it,
  // so only the untrusted-certainty flag keeps slot 1 out.
  IntervalIndex wide_only(1);
  wide_only.insert(subs[0]);
  wide_only.insert(subs[2]);
  EXPECT_EQ(wide_only.covering(Subscription({Interval{-50, -10}}, 99)),
            (std::vector<SubscriptionId>{3}));
}

TEST(IntervalIndex, CoveringNaNAndEmptyProbesGetNothing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  IntervalIndex index(2);
  index.insert(Subscription({Interval::everything(), Interval::everything()}, 1));
  index.insert(box2(0, 10, 0, 10, 2));
  EXPECT_TRUE(index.covering(Subscription({Interval{nan, 5}, Interval{1, 2}}, 99))
                  .empty());
  EXPECT_EQ(index.last_query_cost(), 0u);
  EXPECT_TRUE(index.covering(Subscription({Interval{1, 2}, Interval{1, nan}}, 99))
                  .empty());
  // An empty range (only Subscription::intersect builds one) is covered by
  // nothing, although Interval::contains calls it a subset of every box.
  const Subscription empty =
      box2(0, 1, 0, 1, 98).intersect(box2(2, 3, 0, 1, 97));
  EXPECT_TRUE(index.covering(empty).empty());
  EXPECT_EQ(index.last_query_cost(), 0u);
}

TEST(IntervalIndex, ReusedSlotRewritesEveryRowEitherOccupantSpans) {
  IntervalIndex index(2);
  // The previous occupant is wide on attribute 1, the new one constrains
  // it: the all-ones row must not keep the slot in other buckets.
  index.insert(Subscription({Interval{0, 10}, Interval::everything()}, 1));
  ASSERT_TRUE(index.erase(1));
  index.insert(box2(0, 10, 100, 200, 2));
  EXPECT_TRUE(index.covering(box2(2, 3, 500, 600, 99)).empty());
  EXPECT_TRUE(index.stab(std::vector<Value>{5.0, 550.0}).empty());
  EXPECT_FALSE(index.stab_any(std::vector<Value>{5.0, 550.0}));
  EXPECT_TRUE(index.stab_any(std::vector<Value>{5.0, 150.0}));
  EXPECT_TRUE(index.box_intersect(box2(2, 3, 500, 600, 99)).empty());
  EXPECT_EQ(index.covering(box2(2, 3, 120, 130, 99)),
            (std::vector<SubscriptionId>{2}));
  EXPECT_EQ(index.last_query_cost(), 1u);

  // The previous occupant's span is wider than the new one's: its certain
  // bits inside [10, 900] must not certify the new box there.
  ASSERT_TRUE(index.erase(2));
  index.insert(box2(10, 900, 10, 900, 3));
  ASSERT_TRUE(index.erase(3));
  index.insert(box2(400, 410, 400, 410, 4));
  EXPECT_TRUE(index.covering(box2(100, 200, 100, 200, 99)).empty());
  EXPECT_TRUE(index.stab(std::vector<Value>{150.0, 150.0}).empty());
  EXPECT_FALSE(index.stab_any(std::vector<Value>{150.0, 150.0}));
  EXPECT_TRUE(index.box_intersect(box2(100, 200, 100, 200, 99)).empty());
  EXPECT_EQ(index.covering(box2(401, 402, 401, 402, 99)),
            (std::vector<SubscriptionId>{4}));

  // Back to wide on both attributes: every row is all-ones again.
  ASSERT_TRUE(index.erase(4));
  index.insert(Subscription({Interval::everything(), Interval{-1, 1001}}, 5));
  EXPECT_EQ(index.covering(box2(100, 200, 700, 800, 99)),
            (std::vector<SubscriptionId>{5}));
  EXPECT_EQ(index.stab(std::vector<Value>{150.0, 750.0}),
            (std::vector<SubscriptionId>{5}));
  EXPECT_TRUE(index.stab_any(std::vector<Value>{150.0, 750.0}));
}

TEST(IntervalIndex, DuplicateIdAndSchemaMismatchThrow) {
  IntervalIndex index(2);
  index.insert(box2(0, 1, 0, 1, 1));
  EXPECT_THROW(index.insert(box2(2, 3, 2, 3, 1)), std::invalid_argument);
  EXPECT_THROW(index.insert(Subscription({Interval{0, 1}}, 2)),
               std::invalid_argument);
  EXPECT_THROW(index.insert(box2(0, 1, 0, 1, 0)), std::invalid_argument);
  EXPECT_THROW((void)index.stab(std::vector<Value>{1.0}), std::invalid_argument);
  EXPECT_THROW((void)index.stab_any(std::vector<Value>{1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)index.covering(Subscription({Interval{0, 1}}, 99)),
               std::invalid_argument);
}

TEST(IntervalIndex, StabAnyOnEmptyIndexAndNaNProbe) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  IntervalIndex index(2);
  EXPECT_FALSE(index.stab_any(std::vector<Value>{5.0, 5.0}));
  index.insert(Subscription({Interval::everything(), Interval::everything()}, 1));
  EXPECT_TRUE(index.stab_any(std::vector<Value>{5.0, 5.0}));
  EXPECT_FALSE(index.stab_any(std::vector<Value>{nan, 5.0}));
  EXPECT_EQ(index.last_query_cost(), 0u);
  ASSERT_TRUE(index.erase(1));
  EXPECT_FALSE(index.stab_any(std::vector<Value>{5.0, 5.0}));
}

TEST(IntervalIndex, StabAnyOutOfDomainProbeDistrustsWideSlot) {
  // Default domain [0, 1000]. Slot 1 is wide without holding the whole
  // line: its all-ones rows certify in-domain points only, so a probe past
  // the domain must be verified against its bounds.
  IntervalIndex index(1);
  index.insert(Subscription({Interval{-5, 1200}}, 1));
  index.insert(Subscription({Interval{400, 500}}, 2));  // keeps j selective
  EXPECT_FALSE(index.stab_any(std::vector<Value>{1300.0}));
  EXPECT_FALSE(index.stab_any(std::vector<Value>{-6.0}));
  EXPECT_TRUE(index.stab_any(std::vector<Value>{1100.0}));
  EXPECT_TRUE(index.stab_any(std::vector<Value>{-5.0}));
  // Nobody selective on the attribute: the sweep skips its rows, so only
  // the probe's domain check keeps slot 1 from being certified.
  ASSERT_TRUE(index.erase(2));
  EXPECT_FALSE(index.stab_any(std::vector<Value>{1300.0}));
  EXPECT_TRUE(index.stab_any(std::vector<Value>{1200.0}));
}

TEST(IntervalIndex, StabAnyFindsAMatchOnlyVerificationCertifies) {
  // [2, 5] lies inside one bucket, so no bucket is certain for it: every
  // probe in that bucket is decided by the exact verify.
  IntervalIndex index(1);
  index.insert(Subscription({Interval{2, 5}}, 1));
  EXPECT_TRUE(index.stab_any(std::vector<Value>{3.0}));
  EXPECT_EQ(index.last_query_cost(), 1u);
  EXPECT_TRUE(index.stab_any(std::vector<Value>{5.0}));
  EXPECT_FALSE(index.stab_any(std::vector<Value>{5.5}));
  EXPECT_FALSE(index.stab_any(std::vector<Value>{1.0}));
  // Several uncertain candidates in one word: the miss is verified away
  // and the next slot in ascending order answers.
  index.insert(Subscription({Interval{1, 3}}, 2));
  EXPECT_TRUE(index.stab_any(std::vector<Value>{4.0}));
  EXPECT_EQ(index.last_query_cost(), 1u);
  EXPECT_TRUE(index.stab_any(std::vector<Value>{1.5}));
  EXPECT_EQ(index.last_query_cost(), 2u);
}

TEST(IntervalIndex, StabAnyFindsAFirstMatchPastEmptyWords) {
  // Slots 0..298 hold far-away boxes, slot 299 a box sharing the probe's
  // bucket without holding the probe, and slot 300 (word 4) the only box
  // holding it. Freeing slots 0..255 empties words 0..3 outright; word 4
  // still holds far boxes the sweep must AND away.
  IntervalIndex index(1);
  for (SubscriptionId id = 1; id <= 299; ++id) {
    index.insert(Subscription({Interval{900, 910}}, id));
  }
  index.insert(Subscription({Interval{51, 52}}, 300));
  index.insert(Subscription({Interval{0, 100}}, 301));
  // Slot 300 is certain for the probe's bucket, so the word answers
  // without verifying slot 299.
  EXPECT_TRUE(index.stab_any(std::vector<Value>{50.0}));
  EXPECT_EQ(index.last_query_cost(), 1u);
  for (SubscriptionId id = 1; id <= 256; ++id) ASSERT_TRUE(index.erase(id));
  EXPECT_TRUE(index.stab_any(std::vector<Value>{50.0}));
  EXPECT_EQ(index.last_query_cost(), 1u);
  EXPECT_FALSE(index.stab_any(std::vector<Value>{500.0}));
  EXPECT_TRUE(index.stab_any(std::vector<Value>{905.0}));
  ASSERT_TRUE(index.erase(301));
  EXPECT_FALSE(index.stab_any(std::vector<Value>{50.0}));
  EXPECT_TRUE(index.stab_any(std::vector<Value>{51.5}));
}

/// Interleaves inserts and erasures of a realistic power-law stream with
/// partial schemas, cross-checking every query kind against a flat scan of
/// the currently-live subscriptions after every step. Covering is probed
/// with the random box, the publication as a zero-width box, and a live
/// subscription's own box (which at least it covers).
void expect_flat_equivalent_under_churn(std::size_t attributes,
                                        std::uint64_t seed, int steps,
                                        double erase_p,
                                        std::size_t* peak_live = nullptr) {
  workload::ComparisonConfig config;
  config.attribute_count = attributes;
  workload::ComparisonStream stream(config, seed);
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);

  IntervalIndex index(config.attribute_count);
  std::vector<Subscription> live;

  for (int step = 0; step < steps; ++step) {
    if (!live.empty() && rng.bernoulli(erase_p)) {
      const std::size_t victim = rng.next_below(live.size());
      ASSERT_TRUE(index.erase(live[victim].id()));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      Subscription sub = stream.next();
      index.insert(sub);
      live.push_back(std::move(sub));
    }
    ASSERT_EQ(index.size(), live.size());
    if (peak_live) *peak_live = std::max(*peak_live, live.size());

    const Publication pub = workload::uniform_publication(
        config.attribute_count, -100.0, 1100.0, rng);
    std::vector<SubscriptionId> expected_stab;
    for (const auto& sub : live) {
      if (pub.matches(sub)) expected_stab.push_back(sub.id());
    }
    EXPECT_EQ(sorted(index.stab(pub.values())), sorted(expected_stab)) << step;
    EXPECT_EQ(index.stab_any(pub.values()), !expected_stab.empty()) << step;

    workload::ScenarioConfig box_config;
    box_config.attribute_count = config.attribute_count;
    const Subscription probe = workload::random_box(box_config, 0.05, 0.5, rng);
    std::vector<SubscriptionId> expected_intersect;
    for (const auto& sub : live) {
      if (sub.intersects(probe)) expected_intersect.push_back(sub.id());
    }
    EXPECT_EQ(sorted(index.box_intersect(probe)), sorted(expected_intersect))
        << step;

    std::vector<Interval> point_box;
    for (const Value v : pub.values()) point_box.push_back(Interval::point(v));
    EXPECT_EQ(sorted(index.covering(probe)), flat_coverers(live, probe)) << step;
    const Subscription point_probe(point_box, 99);
    EXPECT_EQ(sorted(index.covering(point_probe)),
              flat_coverers(live, point_probe))
        << step;
    if (!live.empty()) {
      const Subscription& own = live[rng.next_below(live.size())];
      EXPECT_EQ(sorted(index.covering(own)), flat_coverers(live, own)) << step;
      // A corner of a live box (or 0 where it is unbounded both ways): at
      // least that box contains it.
      std::vector<Value> corner;
      for (const Interval& iv : own.ranges()) {
        corner.push_back(std::isfinite(iv.lo)   ? iv.lo
                         : std::isfinite(iv.hi) ? iv.hi
                                                : 0.0);
      }
      EXPECT_TRUE(index.stab_any(corner)) << step;
      EXPECT_FALSE(index.stab(corner).empty()) << step;
    }
  }
}

TEST(IntervalIndex, RandomizedEquivalenceWithFlatScanUnderChurn) {
  expect_flat_equivalent_under_churn(6, 20260730, 600, 0.25);
  expect_flat_equivalent_under_churn(6, 20260807, 400, 0.25);
  expect_flat_equivalent_under_churn(6, 42, 250, 0.3);
  expect_flat_equivalent_under_churn(6, 7, 150, 0.3);
  // Erase-heavy: most slots are freed and reused many times over.
  expect_flat_equivalent_under_churn(5, 404, 400, 0.45);
}

TEST(IntervalIndex, EquivalenceWithFlatScanAcrossBitmapGrowth) {
  // More than 512 live subscriptions: the bitmaps grow twice (256 -> 512
  // -> 1024 slots), and the zero-filled rows of the new slots are written,
  // freed and reused under churn.
  std::size_t peak_live = 0;
  expect_flat_equivalent_under_churn(6, 512512, 1100, 0.15, &peak_live);
  EXPECT_GT(peak_live, 512u);
}

TEST(IntervalIndex, QueryCostIsReported) {
  // last_query_cost counts candidates EXAMINED (certainty-emitted or
  // verified), comparable against the 50 a flat scan would touch.
  IntervalIndex index(1);
  for (SubscriptionId id = 1; id <= 50; ++id) {
    index.insert(Subscription({Interval{static_cast<double>(id), 1000.0}}, id));
  }
  // Stab below every lower bound: only the handful of subscriptions whose
  // lower bound shares the probe's edge bucket are examined.
  (void)index.stab(std::vector<Value>{0.5});
  const std::uint64_t cheap = index.last_query_cost();
  // Mid-domain stab: every subscription is a candidate.
  (void)index.stab(std::vector<Value>{500.0});
  EXPECT_GE(index.last_query_cost(), 50u);
  EXPECT_LT(cheap, index.last_query_cost());

  // Box probe below every interval: pruned to the probe's edge bucket.
  (void)index.box_intersect(Subscription({Interval{-100.0, -50.0}}, 999));
  EXPECT_LT(index.last_query_cost(), 50u);
  // A full-domain probe must examine every subscription.
  (void)index.box_intersect(Subscription({Interval{-100.0, 2000.0}}, 999));
  EXPECT_GE(index.last_query_cost(), 50u);

  // Covering examines only what holds both probe endpoints' buckets.
  EXPECT_EQ(index.covering(Subscription({Interval{1.5, 999.0}}, 999)),
            (std::vector<SubscriptionId>{1}));
  EXPECT_LT(index.last_query_cost(), 50u);
}

}  // namespace
}  // namespace psc::index
