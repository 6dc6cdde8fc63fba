// Property tests: the index-backed store (StoreConfig::use_index = true)
// and the flat-scan store must be *decision-for-decision identical* on the
// same input stream — same InsertResults (activation, coverage, demotions,
// engine verdicts), same promotions on erase, and same match outputs —
// across randomized workload streams and every coverage policy.
//
// The two paths differ only in how the store gathers the actives that
// intersect a subscription (index box-intersect re-sorted into active-slot
// order, or a flat scan in slot order), in how it finds the first active
// that contains one (the lowest active slot among the index's covering
// ids, or the first hit of a slot-order scan) and in how match_active
// and any_active_match stab; each coverage policy is one piece of code over those answers. So
// this holds exactly (not just as sets, coverer lists included), and the
// engine draws the same RNG stream either way: its own prefilter keeps a
// subset of the intersecting candidates. A store whose index is dropped
// and rebuilt mid-stream (a broker's publish lane as its neighbours come
// and go) answers the same way at every step, for its own decisions and
// as a lane that a kLanes store queries.
#include <gtest/gtest.h>

#include <vector>

#include "store/subscription_store.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"
#include "workload/scenarios.hpp"

namespace psc::store {
namespace {

using core::Publication;
using core::Subscription;
using core::SubscriptionId;

void expect_same_insert(const InsertResult& a, const InsertResult& b,
                        int step) {
  EXPECT_EQ(a.accepted_active, b.accepted_active) << step;
  EXPECT_EQ(a.covered, b.covered) << step;
  EXPECT_EQ(a.demoted, b.demoted) << step;
  ASSERT_EQ(a.engine_result.has_value(), b.engine_result.has_value()) << step;
  if (a.engine_result) {
    EXPECT_EQ(a.engine_result->covered, b.engine_result->covered) << step;
    EXPECT_EQ(a.engine_result->path, b.engine_result->path) << step;
    EXPECT_EQ(a.engine_result->iterations, b.engine_result->iterations) << step;
    EXPECT_EQ(a.engine_result->original_set_size,
              b.engine_result->original_set_size)
        << step;
    EXPECT_EQ(a.engine_result->reduced_set_size,
              b.engine_result->reduced_set_size)
        << step;
    EXPECT_EQ(a.engine_result->rho_w, b.engine_result->rho_w) << step;
    EXPECT_EQ(a.engine_result->trial_budget, b.engine_result->trial_budget)
        << step;
    EXPECT_EQ(a.engine_result->covering_index.has_value(),
              b.engine_result->covering_index.has_value())
        << step;
  }
}

StoreConfig make_config(CoveragePolicy policy, bool use_index) {
  StoreConfig config;
  config.policy = policy;
  config.use_index = use_index;
  config.engine.max_iterations = 5'000;
  return config;
}

class IndexEquivalence : public ::testing::TestWithParam<CoveragePolicy> {};

/// Drives an index-backed and a flat store through the same insert/erase
/// stream, checking every decision and match output step by step.
void expect_identical_under_churn(CoveragePolicy policy, std::uint64_t seed,
                                  std::size_t attributes,
                                  std::uint64_t stream_seed,
                                  std::uint64_t rng_seed, double erase_p,
                                  int steps) {
  SubscriptionStore indexed(make_config(policy, true), seed);
  SubscriptionStore flat(make_config(policy, false), seed);

  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = attributes;
  workload::ComparisonStream stream(stream_config, stream_seed);
  util::Rng rng(rng_seed);
  std::vector<SubscriptionId> live;

  for (int step = 0; step < steps; ++step) {
    if (!live.empty() && rng.bernoulli(erase_p)) {
      const SubscriptionId victim = live[rng.next_below(live.size())];
      const auto erased_indexed = indexed.erase_reporting(victim);
      const auto erased_flat = flat.erase_reporting(victim);
      EXPECT_EQ(erased_indexed.erased, erased_flat.erased) << step;
      EXPECT_EQ(erased_indexed.promoted, erased_flat.promoted) << step;
      live.erase(std::find(live.begin(), live.end(), victim));
    } else {
      const Subscription sub = stream.next();
      const auto inserted_indexed = indexed.insert(sub);
      const auto inserted_flat = flat.insert(sub);
      expect_same_insert(inserted_indexed, inserted_flat, step);
      live.push_back(sub.id());
    }

    ASSERT_EQ(indexed.active_count(), flat.active_count()) << step;
    ASSERT_EQ(indexed.covered_count(), flat.covered_count()) << step;

    // Matching: identical output, not merely as a set — the index path
    // re-sorts into the flat path's active order.
    const Publication pub = workload::uniform_publication(
        stream_config.attribute_count, 0.0, 1000.0, rng);
    EXPECT_EQ(indexed.match_active(pub), flat.match_active(pub)) << step;
    EXPECT_EQ(indexed.match(pub), flat.match(pub)) << step;
    const bool any = !flat.match_active(pub).empty();
    EXPECT_EQ(indexed.any_active_match(pub), any) << step;
    EXPECT_EQ(flat.any_active_match(pub), any) << step;
  }

  // Per-id placement agrees at the end as well.
  for (const SubscriptionId id : live) {
    EXPECT_EQ(indexed.is_active(id), flat.is_active(id));
    EXPECT_EQ(indexed.coverers_of(id), flat.coverers_of(id));
  }
}

TEST_P(IndexEquivalence, IdenticalDecisionsAndMatchesUnderChurn) {
  expect_identical_under_churn(GetParam(), 0xfeedULL, 8, 99, 7, 0.2, 400);
  // Erase-heavier, narrower schema: more promotions, more slot reuse.
  expect_identical_under_churn(GetParam(), 0xadd5ULL, 6, 314, 15, 0.3, 300);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, IndexEquivalence,
                         ::testing::Values(CoveragePolicy::kNone,
                                           CoveragePolicy::kPairwise,
                                           CoveragePolicy::kGroup,
                                           CoveragePolicy::kExact),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

/// Drives a store whose index is dropped and rebuilt at random steps next
/// to an always-flat and an always-indexed store, each three times: as a
/// store of `policy` with its own index, and as a coverage-free lane that
/// a kLanes store of `policy` queries. Pairwise cover shows first_coverer's
/// answer (the coverer), group and exact cover and demotion show
/// intersecting_candidates' (the coverer list, in slot order, and the
/// demoted ids), and erase re-checks ask both again; every store is held
/// to the always-flat own store's decisions and matches at every step.
void expect_identical_across_index_toggles(CoveragePolicy policy,
                                           std::uint64_t seed,
                                           std::uint64_t stream_seed,
                                           std::uint64_t rng_seed,
                                           int steps) {
  // Index 0 is always flat, 1 always indexed, 2 toggled.
  constexpr int kFlat = 0, kToggled = 2;
  std::vector<SubscriptionStore> own;
  std::vector<SubscriptionStore> lanes;
  std::vector<SubscriptionStore> links;
  for (const bool use_index : {false, true, true}) {
    own.emplace_back(make_config(policy, use_index), seed);
    lanes.emplace_back(make_config(CoveragePolicy::kNone, use_index), seed);
    links.emplace_back(make_config(policy, true), seed, IndexSource::kLanes);
  }
  const auto lane_of = [&](int i) {
    return std::vector<const SubscriptionStore*>{&lanes[i]};
  };

  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 6;
  workload::ComparisonStream stream(stream_config, stream_seed);
  util::Rng rng(rng_seed);
  std::vector<SubscriptionId> live;
  bool dropped = false;
  int toggles = 0;

  for (int step = 0; step < steps; ++step) {
    if (rng.bernoulli(0.15)) {
      dropped = !dropped;
      ++toggles;
      for (SubscriptionStore* store : {&own[kToggled], &lanes[kToggled]}) {
        if (dropped) {
          store->drop_index();
        } else {
          store->rebuild_index();
        }
        ASSERT_EQ(store->index_enabled(), !dropped && store->active_count() > 0)
            << step;
      }
    }
    if (!live.empty() && rng.bernoulli(0.3)) {
      const SubscriptionId victim = live[rng.next_below(live.size())];
      const auto want = own[kFlat].erase_reporting(victim);
      for (int i = 0; i < 3; ++i) {
        if (i != kFlat) {
          const auto got = own[i].erase_reporting(victim);
          EXPECT_EQ(got.erased, want.erased) << step << " own " << i;
          EXPECT_EQ(got.promoted, want.promoted) << step << " own " << i;
        }
        // A broker drops the route from its lane before the link erase.
        ASSERT_TRUE(lanes[i].erase(victim)) << step;
        const auto got = links[i].erase_reporting(victim, lane_of(i));
        EXPECT_EQ(got.erased, want.erased) << step << " link " << i;
        EXPECT_EQ(got.promoted, want.promoted) << step << " link " << i;
      }
      live.erase(std::find(live.begin(), live.end(), victim));
    } else {
      const Subscription sub = stream.next();
      const auto want = own[kFlat].insert(sub);
      for (int i = 0; i < 3; ++i) {
        if (i != kFlat) expect_same_insert(own[i].insert(sub), want, step);
        (void)lanes[i].insert(sub);
        expect_same_insert(links[i].insert(sub, lane_of(i)), want, step);
        EXPECT_EQ(own[i].coverers_of(sub.id()), own[kFlat].coverers_of(sub.id()))
            << step;
        EXPECT_EQ(links[i].coverers_of(sub.id()),
                  own[kFlat].coverers_of(sub.id()))
            << step;
      }
      live.push_back(sub.id());
    }

    const Publication pub = workload::uniform_publication(
        stream_config.attribute_count, 0.0, 1000.0, rng);
    const auto want_active = own[kFlat].match_active(pub);
    const auto want_all = own[kFlat].match(pub);
    const auto want_lane = lanes[kFlat].match_active(pub);
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(own[i].active_count(), own[kFlat].active_count()) << step;
      ASSERT_EQ(links[i].active_count(), own[kFlat].active_count()) << step;
      EXPECT_EQ(own[i].match_active(pub), want_active) << step << " own " << i;
      EXPECT_EQ(own[i].match(pub), want_all) << step << " own " << i;
      EXPECT_EQ(own[i].any_active_match(pub), !want_active.empty()) << step;
      EXPECT_EQ(links[i].match(pub), want_all) << step << " link " << i;
      EXPECT_EQ(lanes[i].match_active(pub), want_lane) << step << " lane " << i;
      EXPECT_EQ(lanes[i].any_active_match(pub), !want_lane.empty()) << step;
    }
  }
  // The stream must cross both transitions several times.
  EXPECT_GT(toggles, 10);
}

TEST_P(IndexEquivalence, DroppedAndRebuiltIndexAnswersAsFlatAndIndexed) {
  expect_identical_across_index_toggles(GetParam(), 0xbeefULL, 2718, 31, 400);
}

TEST(IndexEquivalence, MixedArityStoreStaysFlatAfterRebuild) {
  using core::Interval;
  const Subscription two({Interval{0, 10}, Interval{0, 10}}, 1);
  const Subscription three({Interval{0, 10}, Interval{0, 10}, Interval{0, 10}}, 2);
  const Publication pub2({5.0, 5.0});
  const Publication pub3({5.0, 5.0, 5.0});
  const std::vector<SubscriptionId> only_two{1}, only_three{2};

  // Fallen back at insert: a rebuild request keeps the flat scans, also
  // once the actives share one arity again.
  SubscriptionStore store(make_config(CoveragePolicy::kNone, true), 1);
  (void)store.insert(two);
  ASSERT_TRUE(store.index_enabled());
  (void)store.insert(three);
  ASSERT_FALSE(store.index_enabled());
  store.rebuild_index();
  EXPECT_FALSE(store.index_enabled());
  EXPECT_FALSE(store.config().use_index);
  EXPECT_EQ(store.match_active(pub2), only_two);
  EXPECT_EQ(store.match_active(pub3), only_three);
  ASSERT_TRUE(store.erase(2));
  store.drop_index();
  store.rebuild_index();
  EXPECT_FALSE(store.index_enabled());
  EXPECT_EQ(store.match_active(pub2), only_two);
  EXPECT_TRUE(store.any_active_match(pub2));

  // Mixed arity inserted while the index was dropped: the rebuild falls
  // back as the insert would have.
  SubscriptionStore dropped(make_config(CoveragePolicy::kNone, true), 1);
  dropped.drop_index();
  (void)dropped.insert(two);
  (void)dropped.insert(three);
  dropped.rebuild_index();
  EXPECT_FALSE(dropped.index_enabled());
  EXPECT_FALSE(dropped.config().use_index);
  EXPECT_EQ(dropped.match_active(pub2), only_two);
  EXPECT_EQ(dropped.match_active(pub3), only_three);
  EXPECT_TRUE(dropped.any_active_match(pub3));

  // A kLanes store owns no index to rebuild.
  SubscriptionStore link(make_config(CoveragePolicy::kPairwise, true), 1,
                         IndexSource::kLanes);
  (void)link.insert(two);
  link.rebuild_index();
  EXPECT_FALSE(link.index_enabled());
  EXPECT_TRUE(link.config().use_index);
}

TEST(IndexEquivalence, WrongArityPublicationMatchesNothingOnBothPaths) {
  SubscriptionStore indexed(make_config(CoveragePolicy::kNone, true), 1);
  SubscriptionStore flat(make_config(CoveragePolicy::kNone, false), 1);
  const Subscription sub({core::Interval{0, 10}, core::Interval{0, 10},
                          core::Interval{0, 10}},
                         1);
  (void)indexed.insert(sub);
  (void)flat.insert(sub);
  const Publication wrong_arity({5.0, 5.0});
  EXPECT_TRUE(indexed.match_active(wrong_arity).empty());
  EXPECT_TRUE(flat.match_active(wrong_arity).empty());
  EXPECT_TRUE(indexed.match(wrong_arity).empty());
  EXPECT_FALSE(indexed.any_active_match(wrong_arity));
  EXPECT_FALSE(flat.any_active_match(wrong_arity));
}

TEST(IndexEquivalence, BoundaryTouchingActiveIsACandidateOnBothPaths) {
  // Boxes are closed: an active that only touches s on its boundary
  // intersects it, so both candidate gatherers hand it to the policy and
  // it joins a group cover's coverer list. Random streams almost never
  // produce such a touch.
  using core::Interval;
  const Subscription left({Interval{-1, 6}, Interval{-1, 11}}, 1);
  const Subscription right({Interval{4, 11}, Interval{-1, 11}}, 2);
  const Subscription touching({Interval{11, 20}, Interval{0, 10}}, 3);
  const Subscription s({Interval{0, 11}, Interval{0, 10}}, 4);
  for (const CoveragePolicy policy :
       {CoveragePolicy::kGroup, CoveragePolicy::kExact}) {
    SubscriptionStore indexed(make_config(policy, true), 5);
    SubscriptionStore flat(make_config(policy, false), 5);
    for (const Subscription& sub : {left, right, touching, s}) {
      expect_same_insert(indexed.insert(sub), flat.insert(sub),
                         static_cast<int>(sub.id()));
    }
    const std::vector<SubscriptionId> coverers{1, 2, 3};
    EXPECT_EQ(indexed.coverers_of(4), coverers) << to_string(policy);
    EXPECT_EQ(flat.coverers_of(4), coverers) << to_string(policy);
  }
}

TEST(IndexEquivalenceScenario, ScenarioInstancesAgreeOnVerdicts) {
  // Paper scenario generators stress the group policy with known ground
  // truth: both paths must agree with each other on every insert verdict.
  workload::ScenarioConfig config;
  config.attribute_count = 6;
  config.set_size = 40;
  util::Rng rng(123);
  for (int round = 0; round < 8; ++round) {
    const auto inst = (round % 2 == 0)
                          ? workload::make_redundant_covering(config, rng)
                          : workload::make_non_cover(config, rng);
    SubscriptionStore indexed(make_config(CoveragePolicy::kGroup, true), 1);
    SubscriptionStore flat(make_config(CoveragePolicy::kGroup, false), 1);
    SubscriptionId next_id = 1;
    for (const auto& sub : inst.existing) {
      Subscription copy = sub;
      copy.set_id(next_id++);
      expect_same_insert(indexed.insert(copy), flat.insert(copy), round);
    }
    Subscription tested = inst.tested;
    tested.set_id(next_id++);
    expect_same_insert(indexed.insert(tested), flat.insert(tested), round);
  }
}

}  // namespace
}  // namespace psc::store
