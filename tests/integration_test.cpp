// End-to-end integration: the full stack (workload -> engine -> store ->
// broker network) under realistic mixed traffic, including failure
// injection that forces probabilistic false negatives and verifies the
// system degrades exactly as the paper predicts (bounded notification
// loss, large traffic savings).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baseline/exact_subsumption.hpp"
#include "routing/broker_network.hpp"
#include "routing/flat_oracle.hpp"
#include "sim/churn_driver.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"
#include "workload/scenarios.hpp"

namespace psc {
namespace {

using core::Publication;
using core::Subscription;
using core::SubscriptionId;
using routing::BrokerNetwork;
using routing::FlatOracle;
using routing::NetworkConfig;

NetworkConfig config_with(store::CoveragePolicy policy) {
  NetworkConfig config;
  config.store.policy = policy;
  return config;
}

/// Publishes on `net` and judges the delivered set against `oracle`,
/// adding the verdict's delivered and lost counts to `judged`.
std::vector<SubscriptionId> publish_judged(BrokerNetwork& net,
                                           FlatOracle& oracle,
                                           routing::BrokerId from,
                                           const Publication& pub,
                                           sim::Metrics& judged) {
  auto delivered = net.publish(from, pub);
  const auto expected = oracle.publish(pub);
  const sim::PublishVerdict verdict =
      sim::judge_publish(delivered, expected, expected);
  judged.notifications_delivered += verdict.delivered;
  judged.notifications_lost += verdict.lost;
  return delivered;
}

TEST(Integration, MixedWorkloadGroupVsPairwiseTraffic) {
  // Same subscription stream into two identical chains differing only in
  // coverage policy: group must generate no more subscription traffic than
  // pairwise, and both must deliver every notification for subscriptions
  // whose coverage decisions were exact.
  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 6;
  stream_config.min_constrained = 2;
  stream_config.max_constrained = 4;

  auto group = BrokerNetwork::chain_topology(
      5, config_with(store::CoveragePolicy::kGroup));
  auto pairwise = BrokerNetwork::chain_topology(
      5, config_with(store::CoveragePolicy::kPairwise));

  workload::ComparisonStream stream_a(stream_config, 42);
  workload::ComparisonStream stream_b(stream_config, 42);
  FlatOracle oracle;
  util::Rng rng(77);
  for (int i = 0; i < 120; ++i) {
    const auto broker = static_cast<routing::BrokerId>(rng.next_below(5));
    const Subscription sub = stream_a.next();
    group.subscribe(broker, sub);
    pairwise.subscribe(broker, stream_b.next());
    oracle.subscribe(broker, sub);
  }
  EXPECT_LE(group.metrics().subscription_messages,
            pairwise.metrics().subscription_messages);
  EXPECT_GE(group.metrics().subscriptions_suppressed,
            pairwise.metrics().subscriptions_suppressed);

  // Publish from random brokers; compare delivery ratios.
  sim::Metrics group_judged, pairwise_judged;
  for (int i = 0; i < 200; ++i) {
    const auto broker = static_cast<routing::BrokerId>(rng.next_below(5));
    const auto pub = workload::uniform_publication(
        stream_config.attribute_count, stream_config.domain_lo,
        stream_config.domain_hi, rng);
    (void)publish_judged(group, oracle, broker, pub, group_judged);
    (void)publish_judged(pairwise, oracle, broker, pub, pairwise_judged);
  }
  // Pairwise coverage is deterministic: zero loss.
  EXPECT_EQ(pairwise_judged.notifications_lost, 0u);
  EXPECT_GT(pairwise_judged.notifications_delivered, 0u);
  // Group coverage is probabilistic with delta = 1e-6: loss is possible in
  // principle but must be negligible here.
  const double group_ratio = group_judged.delivery_ratio();
  EXPECT_GE(group_ratio, 0.999);
}

TEST(Integration, ForcedFalseNegativeLosesOnlyGapPublications) {
  // Failure injection: crank delta, strangle the iteration budget, AND
  // disable the deterministic aids (Corollary 3 + MCS catch this instance
  // exactly — a nice property, but here we *want* the probabilistic error)
  // so the engine can wrongly declare a gapped subscription covered; then
  // verify that judging against the oracle pins the lost notifications on
  // exactly the uncovered-gap publications.
  NetworkConfig config = config_with(store::CoveragePolicy::kGroup);
  config.store.engine.delta = 0.5;        // practically no trials
  config.store.engine.max_iterations = 1; // one guess only
  config.store.engine.use_fast_decisions = false;
  config.store.engine.use_mcs = false;
  auto net = BrokerNetwork::chain_topology(3, config);
  FlatOracle oracle;
  const auto subscribe = [&](const Subscription& sub) {
    net.subscribe(2, sub);
    oracle.subscribe(2, sub);
  };

  // Two slabs of [0,100]^2 leaving the gap x0 in (45, 55) uncovered.
  subscribe(Subscription({{-1, 45}, {-1, 101}}, 1));
  subscribe(Subscription({{55, 101}, {-1, 101}}, 2));
  // s3 overlaps the gap; with 1 trial the checker will usually miss the
  // 10 %-measure witness and suppress s3. Retry ids until suppression
  // actually happens (the single guess is random).
  bool suppressed = false;
  SubscriptionId s3 = 3;
  for (; s3 < 40 && !suppressed; ++s3) {
    const auto before = net.metrics().subscriptions_suppressed;
    subscribe(Subscription({{40, 60}, {40, 60}}, s3));
    if (net.metrics().subscriptions_suppressed > before) {
      suppressed = true;
      break;
    }
    net.unsubscribe(2, s3);
    oracle.unsubscribe(2, s3);
  }
  ASSERT_TRUE(suppressed) << "forced false negative did not materialize";

  // Publication inside the gap AND inside s3: s3's flood was withheld, so
  // publishing at the far end must lose it.
  sim::Metrics judged;
  const auto delivered_gap =
      publish_judged(net, oracle, 0, Publication({50.0, 50.0}), judged);
  EXPECT_TRUE(delivered_gap.empty());
  EXPECT_GE(judged.notifications_lost, 1u);

  // Publication inside s3 but also inside slab s2: travels along s2's
  // path and is matched locally at B2 — no loss.
  const auto before_lost = judged.notifications_lost;
  const auto delivered_covered =
      publish_judged(net, oracle, 0, Publication({58.0, 50.0}), judged);
  EXPECT_FALSE(delivered_covered.empty());
  EXPECT_TRUE(std::find(delivered_covered.begin(), delivered_covered.end(), s3) !=
              delivered_covered.end());
  EXPECT_EQ(judged.notifications_lost, before_lost);
}

TEST(Integration, EngineStoreNetworkAgreeOnCoverage) {
  // The store's coverage verdicts must be consistent with the standalone
  // engine given identical active sets (same algorithm, same candidates).
  workload::ScenarioConfig config;
  config.attribute_count = 4;
  config.set_size = 15;
  util::Rng rng(5150);
  for (int round = 0; round < 10; ++round) {
    const auto inst = workload::make_redundant_covering(config, rng);
    store::StoreConfig store_config;
    store_config.policy = store::CoveragePolicy::kGroup;
    store_config.demote_covered_actives = false;  // keep the set intact
    store::SubscriptionStore store(store_config, 99);
    for (const auto& si : inst.existing) store.insert(si);
    // The generator guarantees no pairwise covers among the existing set's
    // construction relative to s... existing subscriptions may cover each
    // other though; compare against the store's *actual* active set.
    const auto actives = store.active_snapshot();
    core::SubsumptionEngine engine(store_config.engine, 99);
    const auto direct = engine.check(inst.tested, actives);
    Subscription tested = inst.tested;
    tested.set_id(1000);
    const auto inserted = store.insert(tested);
    if (direct.is_definite) {
      EXPECT_EQ(inserted.covered, direct.covered) << "round " << round;
    }
  }
}

TEST(Integration, UnsubscribeChurnPreservesDelivery) {
  // Subscribe/unsubscribe churn with covered promotions: after the dust
  // settles every surviving subscription still receives its publications.
  auto net = BrokerNetwork::chain_topology(
      4, config_with(store::CoveragePolicy::kGroup));
  // Nested family at broker 3.
  net.subscribe(3, Subscription({{0, 100}, {0, 100}}, 1));
  net.subscribe(3, Subscription({{10, 90}, {10, 90}}, 2));
  net.subscribe(3, Subscription({{20, 80}, {20, 80}}, 3));
  net.subscribe(3, Subscription({{30, 70}, {30, 70}}, 4));
  // Remove outer layers one by one; inner ones must keep receiving.
  net.unsubscribe(3, 1);
  auto delivered = net.publish(0, Publication({50.0, 50.0}));
  EXPECT_EQ(delivered, (std::vector<SubscriptionId>{2, 3, 4}));
  net.unsubscribe(3, 2);
  delivered = net.publish(0, Publication({50.0, 50.0}));
  EXPECT_EQ(delivered, (std::vector<SubscriptionId>{3, 4}));
  net.unsubscribe(3, 3);
  delivered = net.publish(0, Publication({50.0, 50.0}));
  EXPECT_EQ(delivered, (std::vector<SubscriptionId>{4}));
  EXPECT_EQ(net.publish(3, Publication({50.0, 50.0})),
            (std::vector<SubscriptionId>{4}));
}

TEST(Integration, StarTopologyManySubscribers) {
  // Hub-and-spoke with 8 leaves; subscriptions at every leaf, publications
  // at the hub. Every leaf with a matching subscription must be reached.
  NetworkConfig config = config_with(store::CoveragePolicy::kGroup);
  BrokerNetwork net(config);
  const auto hub = net.add_broker();
  std::vector<routing::BrokerId> leaves;
  for (int i = 0; i < 8; ++i) {
    const auto leaf = net.add_broker();
    net.connect(hub, leaf);
    leaves.push_back(leaf);
  }
  util::Rng rng(31337);
  workload::ScenarioConfig wl;
  wl.attribute_count = 3;
  std::vector<Subscription> subs;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto sub = workload::random_box(wl, 0.2, 0.6, rng);
    sub.set_id(i + 1);
    net.subscribe(leaves[i], sub);
    subs.push_back(std::move(sub));
  }
  for (int round = 0; round < 50; ++round) {
    const auto pub = workload::uniform_publication(3, 0.0, 1000.0, rng);
    const auto delivered = net.publish(hub, pub);
    EXPECT_EQ(delivered, net.expected_recipients(pub)) << "round " << round;
  }
}

}  // namespace
}  // namespace psc
