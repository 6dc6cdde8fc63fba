// Tests for the broker network: the paper's Figure 1 walk-through,
// coverage-pruned flooding, reverse-path forwarding, delivery/loss
// accounting and unsubscription promotion.
#include "routing/broker_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "routing/flat_oracle.hpp"
#include "wire/snapshot.hpp"

namespace psc::routing {
namespace {

using core::Interval;
using core::Publication;
using core::Subscription;
using core::SubscriptionId;

Subscription box2(double lo1, double hi1, double lo2, double hi2,
                  SubscriptionId id) {
  return Subscription({Interval{lo1, hi1}, Interval{lo2, hi2}}, id);
}

NetworkConfig with_policy(store::CoveragePolicy policy) {
  NetworkConfig config;
  config.store.policy = policy;
  return config;
}

// Broker numbering helper to mirror the paper's B1..B9 names.
BrokerId B(int n) { return static_cast<BrokerId>(n - 1); }

TEST(BrokerNetwork, Figure1TopologyShape) {
  const auto net = BrokerNetwork::figure1_topology();
  EXPECT_EQ(net.broker_count(), 9u);
  EXPECT_EQ(net.broker(B(3)).neighbors().size(), 3u);  // B1, B2, B4
  EXPECT_EQ(net.broker(B(4)).neighbors().size(), 4u);  // B3, B5, B6, B7
  EXPECT_EQ(net.broker(B(7)).neighbors().size(), 3u);  // B4, B8, B9
  EXPECT_EQ(net.broker(B(1)).neighbors().size(), 1u);
}

TEST(BrokerNetwork, SubscriptionFloodsWholeTree) {
  auto net = BrokerNetwork::figure1_topology(
      with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(B(1), box2(0, 10, 0, 10, 1));
  // Tree with 9 nodes: 8 links, each crossed once.
  EXPECT_EQ(net.metrics().subscription_messages, 8u);
  // Every broker now routes s1.
  for (int b = 1; b <= 9; ++b) {
    EXPECT_EQ(net.broker(B(b)).routing_table_size(), 1u) << "B" << b;
  }
}

TEST(BrokerNetwork, PaperFigure1CoverageSuppressesSecondSubscription) {
  // s1 at S1 (B1) floods everywhere; s2 ⊑ s1 at S2 (B6) must NOT be
  // re-flooded past brokers that already forwarded s1 on the same links —
  // in the paper: B4 forwards s2 to B3 is suppressed... B4 forwards to B3?
  // The paper: "B4 will forward it to B3, but not to B5 nor B7 because B4
  // has previously subscribed to s1". With per-link covering state the
  // suppression happens at every link that already carries s1 toward the
  // publisher side. We assert the aggregate effect: s2 generates strictly
  // fewer messages than s1's 8, and brokers B5/B8/B9 never learn s2.
  auto net = BrokerNetwork::figure1_topology(
      with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(B(1), box2(0, 10, 0, 10, 1));  // s1
  const auto subs_before = net.metrics().subscription_messages;
  net.subscribe(B(6), box2(2, 8, 2, 8, 2));  // s2 ⊑ s1
  const auto s2_messages = net.metrics().subscription_messages - subs_before;
  EXPECT_LT(s2_messages, 8u);
  EXPECT_GT(net.metrics().subscriptions_suppressed, 0u);
  EXPECT_EQ(net.broker(B(5)).routing_table_size(), 1u);  // only s1
}

TEST(BrokerNetwork, PublicationFollowsReversePathOnly) {
  auto net = BrokerNetwork::figure1_topology(
      with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(B(1), box2(0, 10, 0, 10, 1));
  net.reset_metrics();
  // P1 at B9 publishes a matching notification: path B9-B7-B4-B3-B1 = 4 hops.
  const auto delivered = net.publish(B(9), Publication({5.0, 5.0}));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], 1u);
  EXPECT_EQ(net.metrics().publication_messages, 4u);
  EXPECT_EQ(net.metrics().notifications_delivered, 1u);
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
}

TEST(BrokerNetwork, PaperDeliveryTreesForS1AndS2) {
  // n1 matches both s2 and s1 -> delivered to both subscribers.
  // n2 matches s1 only.
  auto net = BrokerNetwork::figure1_topology(
      with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(B(1), box2(0, 10, 0, 10, 1));  // s1 at S1/B1
  net.subscribe(B(6), box2(2, 8, 2, 8, 2));    // s2 ⊑ s1 at S2/B6
  const auto n1 = net.publish(B(9), Publication({5.0, 5.0}));  // inside s2
  EXPECT_EQ(n1, (std::vector<SubscriptionId>{1, 2}));
  const auto n2 = net.publish(B(5), Publication({9.5, 9.5}));  // s1 only
  EXPECT_EQ(n2, (std::vector<SubscriptionId>{1}));
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
}

TEST(BrokerNetwork, NonMatchingPublicationGoesNowhere) {
  auto net = BrokerNetwork::figure1_topology(
      with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(B(1), box2(0, 10, 0, 10, 1));
  net.reset_metrics();
  const auto delivered = net.publish(B(9), Publication({50.0, 50.0}));
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(net.metrics().publication_messages, 0u);
}

TEST(BrokerNetwork, GroupCoverageSuppressesUnionCoveredSubscription) {
  // Two slab subscriptions whose union covers the third: the group policy
  // suppresses the third's flood entirely on links where both slabs
  // already travelled.
  auto net =
      BrokerNetwork::chain_topology(4, with_policy(store::CoveragePolicy::kGroup));
  net.subscribe(0, box2(820, 850, 1001, 1007, 1));
  net.subscribe(0, box2(840, 880, 1002, 1009, 2));
  net.reset_metrics();
  net.subscribe(0, box2(830, 870, 1003, 1006, 3));  // covered by 1 v 2
  // Suppressed at the very first link, so downstream brokers never see it:
  // exactly one suppression event and zero messages.
  EXPECT_EQ(net.metrics().subscription_messages, 0u);
  EXPECT_EQ(net.metrics().subscriptions_suppressed, 1u);
  // Pairwise policy would have forwarded it.
  auto net2 = BrokerNetwork::chain_topology(
      4, with_policy(store::CoveragePolicy::kPairwise));
  net2.subscribe(0, box2(820, 850, 1001, 1007, 1));
  net2.subscribe(0, box2(840, 880, 1002, 1009, 2));
  net2.reset_metrics();
  net2.subscribe(0, box2(830, 870, 1003, 1006, 3));
  EXPECT_EQ(net2.metrics().subscription_messages, 3u);
}

TEST(BrokerNetwork, SuppressedSubscriptionStillServedViaCoveringSet) {
  // The suppressed subscription's notifications still arrive: brokers
  // forward matching publications along the covering subscriptions' paths,
  // and the subscriber-side broker matches locally.
  auto net =
      BrokerNetwork::chain_topology(4, with_policy(store::CoveragePolicy::kGroup));
  net.subscribe(3, box2(820, 850, 1001, 1007, 1));
  net.subscribe(3, box2(840, 880, 1002, 1009, 2));
  net.subscribe(3, box2(830, 870, 1003, 1006, 3));  // covered; not flooded
  const auto delivered = net.publish(0, Publication({845.0, 1004.0}));
  // 845,1004 inside s3, also inside s1 and s2.
  EXPECT_EQ(delivered, (std::vector<SubscriptionId>{1, 2, 3}));
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
}

TEST(BrokerNetwork, FloodingPolicyDeliversEverythingAtHigherCost) {
  auto none = BrokerNetwork::chain_topology(
      6, with_policy(store::CoveragePolicy::kNone));
  auto pairwise = BrokerNetwork::chain_topology(
      6, with_policy(store::CoveragePolicy::kPairwise));
  for (auto* net : {&none, &pairwise}) {
    net->subscribe(0, box2(0, 10, 0, 10, 1));
    net->subscribe(0, box2(2, 8, 2, 8, 2));
    net->subscribe(0, box2(3, 7, 3, 7, 3));
  }
  EXPECT_GT(none.metrics().subscription_messages,
            pairwise.metrics().subscription_messages);
  // Both deliver the same notifications.
  const auto d1 = none.publish(5, Publication({5.0, 5.0}));
  const auto d2 = pairwise.publish(5, Publication({5.0, 5.0}));
  EXPECT_EQ(d1, d2);
}

TEST(BrokerNetwork, UnsubscribeRemovesRoutesAndPromotes) {
  auto net = BrokerNetwork::chain_topology(
      3, with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(0, box2(0, 10, 0, 10, 1));
  net.subscribe(0, box2(2, 8, 2, 8, 2));  // suppressed (covered by 1)
  net.unsubscribe(0, 1);
  // s2 must now be promoted and flooded so its publications still arrive.
  const auto delivered = net.publish(2, Publication({5.0, 5.0}));
  EXPECT_EQ(delivered, (std::vector<SubscriptionId>{2}));
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
}

TEST(BrokerNetwork, UnsubscribeOfDemotedSubscriptionReachesAllBrokers) {
  // Regression (churn differential find): s1 floods while uncovered, THEN
  // s2 ⊇ s1 arrives. s1 was announced everywhere before s2 existed, so
  // s1's unsubscription must still flood — a link store that demoted s1
  // under s2 must not swallow it, or downstream brokers keep a ghost
  // route for s1 forever.
  auto net = BrokerNetwork::chain_topology(
      3, with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(0, box2(2, 8, 2, 8, 1));    // s1 floods first
  net.subscribe(0, box2(0, 10, 0, 10, 2));  // s2 covers s1, floods too
  net.unsubscribe(0, 1);
  for (BrokerId b = 0; b < 3; ++b) {
    EXPECT_EQ(net.broker(b).routing_table_size(), 1u) << "broker " << b;
  }
}

TEST(BrokerNetwork, PromotedTtlSubscriptionStillExpiresAfterReannounce) {
  // Regression (churn differential find): a TTL subscription suppressed as
  // covered is later promoted when its coverer unsubscribes. The
  // re-announcement must carry the original expiry — without it the
  // receiving broker would route the promoted subscription forever.
  auto net = BrokerNetwork::chain_topology(
      2, with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(0, box2(0, 10, 0, 10, 1));            // coverer
  net.subscribe_with_ttl(0, box2(2, 8, 2, 8, 2), 5.0);  // suppressed on link
  EXPECT_EQ(net.broker(1).routing_table_size(), 1u);  // only s1 announced
  net.unsubscribe(0, 1);  // promotes s2, reannounces it to broker 1
  EXPECT_EQ(net.metrics().subscriptions_promoted, 1u);
  EXPECT_EQ(net.broker(1).routing_table_size(), 1u);  // now s2
  net.advance_time(6.0);  // past s2's expiry
  EXPECT_EQ(net.broker(0).routing_table_size(), 0u);
  EXPECT_EQ(net.broker(1).routing_table_size(), 0u);
  EXPECT_EQ(net.local_subscription_count(), 0u);
}

TEST(BrokerNetwork, ResubscribedIdOutlivesTheTimersOfItsTtlPredecessor) {
  // Id 1 first lives with a 1 s TTL and is unsubscribed; id 2 is
  // unsubscribed and re-subscribed with a longer TTL. Neither timer armed
  // for the first incarnation may remove the second.
  auto net = BrokerNetwork::figure1_topology(
      with_policy(store::CoveragePolicy::kPairwise));
  FlatOracle oracle;
  net.subscribe_with_ttl(B(7), box2(100, 200, 100, 200, 1), 1.0);
  oracle.subscribe_with_ttl(B(7), box2(100, 200, 100, 200, 1), 1.0);
  net.subscribe_with_ttl(B(2), box2(300, 400, 300, 400, 2), 1.0);
  oracle.subscribe_with_ttl(B(2), box2(300, 400, 300, 400, 2), 1.0);
  for (const auto& [home, id] : {std::pair{B(7), SubscriptionId{1}},
                                 std::pair{B(2), SubscriptionId{2}}}) {
    net.unsubscribe(home, id);
    oracle.unsubscribe(home, id);
  }
  net.subscribe(B(7), box2(100, 200, 100, 200, 1));
  oracle.subscribe(B(7), box2(100, 200, 100, 200, 1));
  net.subscribe_with_ttl(B(2), box2(300, 400, 300, 400, 2), 5.0);
  oracle.subscribe_with_ttl(B(2), box2(300, 400, 300, 400, 2), 5.0);

  net.advance_time(2.0);
  oracle.advance_time(2.0);
  EXPECT_EQ(net.local_subscription_count(), 2u);
  for (const Publication& pub : {Publication({150.0, 150.0}),
                                 Publication({350.0, 350.0})}) {
    EXPECT_EQ(net.publish(B(1), pub), oracle.publish(pub));
    EXPECT_EQ(oracle.publish(pub).size(), 1u);
  }
  EXPECT_EQ(net.metrics().notifications_lost, 0u);

  net.advance_time(6.0);  // past the second incarnation's own expiry
  EXPECT_EQ(net.publish(B(1), Publication({350.0, 350.0})).size(), 0u);
  EXPECT_EQ(net.local_subscription_count(), 1u);
  EXPECT_EQ(net.ghost_route_count(), 0u);
}

TEST(BrokerNetwork, ExpectedRecipientsGroundTruth) {
  auto net = BrokerNetwork::chain_topology(
      3, with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(0, box2(0, 10, 0, 10, 1));
  net.subscribe(2, box2(5, 15, 5, 15, 2));
  const auto expected = net.expected_recipients(Publication({7.0, 7.0}));
  EXPECT_EQ(expected, (std::vector<SubscriptionId>{1, 2}));
}

TEST(BrokerNetwork, DuplicateSubscriptionIdThrows) {
  auto net = BrokerNetwork::chain_topology(2);
  net.subscribe(0, box2(0, 10, 0, 10, 1));
  EXPECT_THROW(net.subscribe(1, box2(0, 1, 0, 1, 1)), std::invalid_argument);
  EXPECT_THROW(net.subscribe(0, box2(0, 1, 0, 1, 0)), std::invalid_argument);
}

TEST(BrokerNetwork, UnsubscribeUnknownThrows) {
  auto net = BrokerNetwork::chain_topology(2);
  EXPECT_THROW(net.unsubscribe(0, 99), std::invalid_argument);
  net.subscribe(0, box2(0, 10, 0, 10, 1));
  EXPECT_THROW(net.unsubscribe(1, 1), std::invalid_argument);  // wrong home
}

TEST(BrokerNetwork, SelfLinkRejected) {
  BrokerNetwork net;
  const auto a = net.add_broker();
  EXPECT_THROW(net.connect(a, a), std::invalid_argument);
}

TEST(BrokerNetwork, ConnectRejectsACycle) {
  // The overlay is always a forest: closing a chain into a ring, or
  // repeating a link, throws before either neighbour list changes.
  auto net = BrokerNetwork::chain_topology(
      4, with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(0, box2(0, 10, 0, 10, 1));
  std::vector<std::vector<BrokerId>> neighbors;
  for (BrokerId b = 0; b < 4; ++b) neighbors.push_back(net.broker(b).neighbors());
  const MembershipUniverse universe = net.universe();
  const std::vector<std::uint8_t> image = net.snapshot_all();

  EXPECT_THROW(net.connect(3, 0), std::logic_error);  // closes the ring
  EXPECT_THROW(net.connect(0, 2), std::logic_error);  // shortcut, same tree
  EXPECT_THROW(net.connect(1, 0), std::logic_error);  // repeats a link

  for (BrokerId b = 0; b < 4; ++b) {
    EXPECT_EQ(net.broker(b).neighbors(), neighbors[b]);
  }
  EXPECT_EQ(net.universe().brokers, universe.brokers);
  EXPECT_EQ(net.universe().links, universe.links);
  EXPECT_EQ(net.universe().standby, universe.standby);
  EXPECT_EQ(net.snapshot_all(), image);
  EXPECT_EQ(net.publish(3, Publication({5.0, 5.0})),
            (std::vector<SubscriptionId>{1}));
}

TEST(BrokerNetwork, PublishingLeavesNoBrokerState) {
  // On a forest a publication reaches each broker at most once, so a
  // broker keeps nothing per publication: its image is unchanged by any
  // number of publishes.
  auto net = BrokerNetwork::figure1_topology(
      with_policy(store::CoveragePolicy::kGroup));
  SubscriptionId id = 1;
  for (int b = 1; b <= 9; ++b) {
    const double lo = 10.0 * b;
    net.subscribe(B(b), box2(lo, lo + 30, 0, 60, id++));
    net.subscribe(B(b), box2(lo + 5, lo + 15, 10, 20, id++));
  }
  const auto image = [&net](BrokerId b) {
    wire::ByteWriter out;
    wire::write_broker_snapshot(out, net.broker(b).export_snapshot());
    return out.take();
  };
  std::vector<std::vector<std::uint8_t>> before;
  for (BrokerId b = 0; b < net.broker_count(); ++b) before.push_back(image(b));
  std::size_t delivered = 0;
  for (int i = 0; i < 200; ++i) {
    const BrokerId at = static_cast<BrokerId>(i % net.broker_count());
    delivered +=
        net.publish(at, Publication({(i * 7) % 140 + 0.5, (i * 3) % 70 + 0.5}))
            .size();
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(net.metrics().notifications_duplicated, 0u);
  for (BrokerId b = 0; b < net.broker_count(); ++b) {
    EXPECT_EQ(image(b), before[b]) << "broker " << b;
  }
}

}  // namespace
}  // namespace psc::routing
