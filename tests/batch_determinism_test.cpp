// Property tests for the exec layer's determinism contract
// (docs/ARCHITECTURE.md):
//
//   1. shard_count == 1 is decision-for-decision identical to the
//      sequential SubscriptionStore — same InsertResults (activation,
//      coverage, demotions, engine verdicts), same promotions on erase,
//      same match outputs IN ORDER — under randomized churn, for every
//      coverage policy (the exec analogue of index_equivalence_test).
//
//   2. match_batch notifications over shards = 1, 2, 8 are identical to
//      the sequential store's matches for randomized workloads, for any
//      pool size (0 = inline, or multi-worker), as id sets per
//      publication. For a coverage-free store matching is exact and
//      partition-independent, so this holds with equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exec/sharded_store.hpp"
#include "exec/thread_pool.hpp"
#include "store/subscription_store.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"

namespace psc::exec {
namespace {

using core::Publication;
using core::Subscription;
using core::SubscriptionId;

void expect_same_insert(const store::InsertResult& a,
                        const store::InsertResult& b, int step) {
  EXPECT_EQ(a.accepted_active, b.accepted_active) << step;
  EXPECT_EQ(a.covered, b.covered) << step;
  EXPECT_EQ(a.demoted, b.demoted) << step;
  ASSERT_EQ(a.engine_result.has_value(), b.engine_result.has_value()) << step;
  if (a.engine_result) {
    EXPECT_EQ(a.engine_result->covered, b.engine_result->covered) << step;
    EXPECT_EQ(a.engine_result->path, b.engine_result->path) << step;
    EXPECT_EQ(a.engine_result->iterations, b.engine_result->iterations) << step;
    EXPECT_EQ(a.engine_result->rho_w, b.engine_result->rho_w) << step;
  }
}

store::StoreConfig store_config(store::CoveragePolicy policy) {
  store::StoreConfig config;
  config.policy = policy;
  config.engine.max_iterations = 5'000;
  return config;
}

class SingleShardEquivalence
    : public ::testing::TestWithParam<store::CoveragePolicy> {};

// Property 1: the single-shard fallback IS the sequential path.
TEST_P(SingleShardEquivalence, DecisionForDecisionIdenticalUnderChurn) {
  const std::uint64_t seed = 0xabcdULL;
  ShardConfig config;
  config.shard_count = 1;
  config.store = store_config(GetParam());
  ShardedStore sharded(config, seed);
  // The contract names the reference seed explicitly: shard_seed(seed, 0).
  store::SubscriptionStore sequential(config.store, shard_seed(seed, 0));

  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 8;
  workload::ComparisonStream stream(stream_config, 77);
  util::Rng rng(5);
  std::vector<SubscriptionId> live;

  for (int step = 0; step < 300; ++step) {
    if (!live.empty() && rng.bernoulli(0.2)) {
      const SubscriptionId victim = live[rng.next_below(live.size())];
      const auto erased_sharded = sharded.erase_reporting(victim);
      const auto erased_sequential = sequential.erase_reporting(victim);
      EXPECT_EQ(erased_sharded.erased, erased_sequential.erased) << step;
      EXPECT_EQ(erased_sharded.promoted, erased_sequential.promoted) << step;
      live.erase(std::find(live.begin(), live.end(), victim));
    } else {
      const Subscription sub = stream.next();
      expect_same_insert(sharded.insert(sub), sequential.insert(sub), step);
      live.push_back(sub.id());
    }
    ASSERT_EQ(sharded.active_count(), sequential.active_count()) << step;
    ASSERT_EQ(sharded.covered_count(), sequential.covered_count()) << step;

    const Publication pub = workload::uniform_publication(
        stream_config.attribute_count, 0.0, 1000.0, rng);
    // Including order: one shard's merge is that shard's own order.
    EXPECT_EQ(sharded.match_active(pub), sequential.match_active(pub)) << step;
    EXPECT_EQ(sharded.match(pub), sequential.match(pub)) << step;
  }
  for (const SubscriptionId id : live) {
    EXPECT_EQ(sharded.is_active(id), sequential.is_active(id));
    EXPECT_EQ(sharded.coverers_of(id), sequential.coverers_of(id));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SingleShardEquivalence,
                         ::testing::Values(store::CoveragePolicy::kNone,
                                           store::CoveragePolicy::kPairwise,
                                           store::CoveragePolicy::kGroup,
                                           store::CoveragePolicy::kExact),
                         [](const auto& info) {
                           return std::string(store::to_string(info.param));
                         });

// Property 2: notifications are shard-count- and pool-size-invariant.
TEST(MatchBatchDeterminism, ShardCountsAgreeWithSequentialStore) {
  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 10;
  stream_config.min_constrained = 2;
  stream_config.max_constrained = 5;

  std::vector<Subscription> subs;
  {
    workload::ComparisonStream stream(stream_config, 2006);
    subs = stream.take(400);
  }
  std::vector<Publication> pubs;
  util::Rng pub_rng(17);
  for (int i = 0; i < 120; ++i) {
    pubs.push_back(workload::uniform_publication(stream_config.attribute_count,
                                                 0.0, 1000.0, pub_rng));
  }

  // Sequential reference: one coverage-free store holding everything.
  store::StoreConfig reference_config;
  reference_config.policy = store::CoveragePolicy::kNone;
  reference_config.demote_covered_actives = false;
  store::SubscriptionStore reference(reference_config, 1);
  for (const auto& sub : subs) (void)reference.insert(sub);
  std::vector<std::vector<SubscriptionId>> expected;
  expected.reserve(pubs.size());
  for (const auto& pub : pubs) {
    expected.push_back(reference.match_active(pub));  // already id-sorted
  }

  ThreadPool pool(3);
  for (const std::size_t shards : {1UL, 2UL, 8UL}) {
    ShardConfig config;
    config.shard_count = shards;
    config.store = reference_config;
    ShardedStore sharded(config, 99);
    (void)sharded.insert_batch(subs, &pool);

    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const auto batched = sharded.match_active_batch(pubs, p);
      ASSERT_EQ(batched.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        auto ids = batched[i];
        std::sort(ids.begin(), ids.end());
        EXPECT_EQ(ids, expected[i]) << "shards=" << shards << " pub=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace psc::exec
