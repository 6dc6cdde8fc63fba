// Tests for runtime membership: the LinkState forest state machine, the
// BrokerNetwork membership protocol (join/leave/crash/replace, link
// fail/heal with purge + re-announcement), the component-aware loss
// accounting, and the generator-driven differential soak across the
// membership topology family — partition-then-heal must reconverge to
// exactly the flat oracle's delivered sets with zero ghost routes and
// zero duplicates.
#include "routing/membership.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "routing/broker_network.hpp"
#include "routing/topology.hpp"
#include "sim/churn_driver.hpp"
#include "wire/byte_buffer.hpp"
#include "wire/codec.hpp"
#include "workload/churn_workload.hpp"

namespace psc::routing {
namespace {

using core::Publication;
using core::Subscription;
using core::SubscriptionId;

Subscription box(SubscriptionId id, double lo, double hi) {
  return Subscription({{lo, hi}, {lo, hi}}, id);
}

Publication point(double x, double y) { return Publication({x, y}); }

// --- LinkState ---------------------------------------------------------

TEST(LinkState, EnforcesTheForestInvariant) {
  LinkState state;
  for (int i = 0; i < 4; ++i) (void)state.add_broker();
  state.add_link(0, 1);
  state.add_link(1, 2);
  EXPECT_THROW(state.add_link(0, 2), std::logic_error);  // would close a cycle
  EXPECT_THROW(state.add_link(0, 0), std::invalid_argument);
  EXPECT_THROW(state.add_link(0, 9), std::invalid_argument);
  state.add_link(2, 3);
  EXPECT_EQ(state.component_count(), 1u);
}

TEST(LinkState, FailAndHealMoveLinksBetweenSets) {
  LinkState state;
  for (int i = 0; i < 3; ++i) (void)state.add_broker();
  state.add_link(0, 1);
  state.add_link(1, 2);
  state.fail_link(0, 1);
  EXPECT_FALSE(state.has_link(0, 1));
  EXPECT_TRUE(state.has_failed_link(0, 1));
  EXPECT_EQ(state.component_count(), 2u);
  EXPECT_FALSE(state.same_component(0, 2));
  state.heal_link(0, 1);
  EXPECT_TRUE(state.same_component(0, 2));
  // Healing a link whose endpoints already reconnected would close a cycle.
  state.add_standby(0, 2);
  EXPECT_THROW(state.heal_link(0, 2), std::logic_error);
}

TEST(LinkState, RemovePeerStarsTheFormerNeighbors) {
  // Star of 0: removing the hub must re-span its four leaves.
  LinkState state;
  for (int i = 0; i < 5; ++i) (void)state.add_broker();
  for (BrokerId leaf = 1; leaf < 5; ++leaf) state.add_link(0, leaf);
  const auto repairs = state.remove_peer(0);
  EXPECT_FALSE(state.is_alive(0));
  // Hub is the lowest former neighbour; each other leaf gets one spoke.
  ASSERT_EQ(repairs.size(), 3u);
  for (const auto& [a, b] : repairs) EXPECT_EQ(a, 1u);
  EXPECT_EQ(state.component_count(), 1u);
}

TEST(LinkState, CrashFailsIncidentLinksAndReplaceHealsThem) {
  LinkState state;
  for (int i = 0; i < 4; ++i) (void)state.add_broker();
  state.add_link(0, 1);
  state.add_link(1, 2);
  state.add_link(2, 3);
  const auto downed = state.crash_peer(1);
  EXPECT_EQ(downed.size(), 2u);
  EXPECT_EQ(state.component_count(), 2u);  // {0} | {2,3}
  const auto healed = state.replace_peer(1);
  EXPECT_EQ(healed.size(), 2u);
  EXPECT_EQ(state.component_count(), 1u);
}

TEST(LinkState, ReplaceSkipsLinksThatWouldCloseACycle) {
  // Ring universe: chain 0-1-2 with standby (0,2). Crash 1, heal the
  // standby bridge, then replace 1: only ONE former link may come back.
  LinkState state;
  for (int i = 0; i < 3; ++i) (void)state.add_broker();
  state.add_link(0, 1);
  state.add_link(1, 2);
  state.add_standby(0, 2);
  (void)state.crash_peer(1);
  state.heal_link(0, 2);  // the bridge rotates up
  const auto healed = state.replace_peer(1);
  EXPECT_EQ(healed.size(), 1u);
  EXPECT_EQ(state.component_count(), 1u);
  EXPECT_EQ(state.live_links().size(), 2u);
}

TEST(LinkState, SetDeadRefusesLiveLinks) {
  LinkState state;
  for (int i = 0; i < 2; ++i) (void)state.add_broker();
  state.add_link(0, 1);
  EXPECT_THROW(state.set_dead(0), std::logic_error);
  state.fail_link(0, 1);
  state.set_dead(0);
  EXPECT_FALSE(state.is_alive(0));
}

// --- BrokerNetwork membership protocol ---------------------------------

NetworkConfig quiet_config() {
  NetworkConfig config;
  config.seed = 7;
  return config;
}

TEST(Membership, FailLinkPartitionsAndHealReconverges) {
  BrokerNetwork net = BrokerNetwork::figure1_topology(quiet_config());
  net.subscribe(0, box(1, 100, 200));  // homed at B1, left of the backbone
  const Publication pub = point(150, 150);

  ASSERT_EQ(net.publish(7, pub), std::vector<SubscriptionId>{1});

  net.fail_link(2, 3);  // cut the B3-B4 backbone
  EXPECT_TRUE(net.publish(7, pub).empty());
  // Unreachable is not lost: the publisher's component has no matching sub.
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
  EXPECT_EQ(net.ghost_route_count(), 0u);

  net.heal_link(2, 3);
  EXPECT_EQ(net.publish(7, pub), std::vector<SubscriptionId>{1});
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
  EXPECT_EQ(net.metrics().notifications_duplicated, 0u);
  EXPECT_EQ(net.ghost_route_count(), 0u);
  EXPECT_GT(net.metrics().reannounced_subscriptions, 0u);
}

TEST(Membership, LeaveRepairsAroundTheHubAndDropsItsClients) {
  BrokerNetwork net = BrokerNetwork::figure1_topology(quiet_config());
  net.subscribe(0, box(1, 100, 200));
  net.subscribe(3, box(2, 100, 200));  // homed at the backbone hub B4
  net.remove_peer(3);                  // B4 leaves gracefully

  EXPECT_FALSE(net.is_alive(3));
  // Its neighbours {2,4,5,6} were starred back into one component.
  EXPECT_EQ(net.link_state().component_count(), 1u);
  // Its client went with it; B1's subscription still delivers from B8.
  EXPECT_EQ(net.publish(7, point(150, 150)), std::vector<SubscriptionId>{1});
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
  EXPECT_EQ(net.ghost_route_count(), 0u);
  EXPECT_THROW(net.publish(3, point(150, 150)), std::invalid_argument);
}

TEST(Membership, JoinReceivesExistingSubscriptionsByReannouncement) {
  BrokerNetwork net = BrokerNetwork::figure1_topology(quiet_config());
  net.subscribe(0, box(1, 100, 200));
  const BrokerId id = net.add_peer(6);  // attach to B7
  EXPECT_EQ(id, 9u);
  EXPECT_EQ(net.publish(id, point(150, 150)), std::vector<SubscriptionId>{1});
  net.subscribe(id, box(2, 100, 200));
  EXPECT_EQ(net.publish(0, point(150, 150)),
            (std::vector<SubscriptionId>{1, 2}));
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
  EXPECT_EQ(net.ghost_route_count(), 0u);
}

TEST(Membership, TtlExpiringExactlyAtThePartitionInstant) {
  BrokerNetwork net = BrokerNetwork::figure1_topology(quiet_config());
  net.subscribe_with_ttl(0, box(1, 100, 200), 1.0);
  const Publication pub = point(150, 150);
  ASSERT_EQ(net.publish(7, pub), std::vector<SubscriptionId>{1});

  // Advance exactly to the expiry instant, then cut the link the expired
  // subscription was routed over at that same instant: the expiry already
  // removed every route, so the purge must find nothing and no ghost or
  // double-removal artifacts may appear.
  net.advance_time(1.5);  // comfortably past expiry + its cascades
  net.fail_link(2, 3);
  EXPECT_EQ(net.ghost_route_count(), 0u);
  EXPECT_TRUE(net.publish(7, pub).empty());
  net.heal_link(2, 3);
  EXPECT_TRUE(net.publish(7, pub).empty());  // stayed expired through repair
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
  EXPECT_EQ(net.ghost_route_count(), 0u);
}

TEST(Membership, CrashKeepsClientsRegisteredUntilReplacement) {
  BrokerNetwork net = BrokerNetwork::figure1_topology(quiet_config());
  net.subscribe(6, box(1, 100, 200));  // homed at B7
  net.subscribe(6, box(2, 300, 400));

  net.crash_peer(6);
  // B8 and B9 are cut off; the crashed broker's clients are unreachable
  // but still registered (component-aware accounting, not loss).
  EXPECT_TRUE(net.publish(0, point(150, 150)).empty());
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
  EXPECT_EQ(net.ghost_route_count(), 0u);

  const auto outcome = net.replace_peer(6);
  EXPECT_EQ(outcome.restored_routes, 2u);  // both homed subs, from the registry
  EXPECT_EQ(outcome.healed_links.size(), 3u);
  EXPECT_EQ(net.link_state().component_count(), 1u);

  EXPECT_EQ(net.publish(0, point(150, 150)), std::vector<SubscriptionId>{1});
  EXPECT_EQ(net.publish(8, point(350, 350)), std::vector<SubscriptionId>{2});
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
  EXPECT_EQ(net.metrics().notifications_duplicated, 0u);
  EXPECT_EQ(net.ghost_route_count(), 0u);
}

TEST(Membership, ReplacementEqualsNeverCrashedRun) {
  // Drive two identical networks through the same client ops; crash and
  // replace a broker in one of them. Deliveries afterwards must be
  // indistinguishable from the run that never crashed.
  BrokerNetwork crashed = BrokerNetwork::figure1_topology(quiet_config());
  BrokerNetwork control = BrokerNetwork::figure1_topology(quiet_config());
  for (auto* net : {&crashed, &control}) {
    net->subscribe(6, box(1, 100, 200));
    net->subscribe(1, box(2, 120, 180));
    net->subscribe(6, box(3, 500, 600));
  }
  crashed.crash_peer(6);
  (void)crashed.replace_peer(6);

  for (const auto& pub : {point(150, 150), point(550, 550), point(10, 10)}) {
    for (std::size_t from = 0; from < 9; ++from) {
      EXPECT_EQ(crashed.publish(static_cast<BrokerId>(from), pub),
                control.publish(static_cast<BrokerId>(from), pub))
          << "publisher " << from;
    }
  }
  EXPECT_EQ(crashed.metrics().notifications_lost, 0u);
  EXPECT_EQ(crashed.ghost_route_count(), 0u);
}

TEST(Membership, ReplacementRestoresTheCurrentBoxOfAReusedId) {
  // Id 1 is subscribed, dropped, and subscribed again at B7 with another
  // box. The replacement must route the box the client holds now.
  BrokerNetwork net = BrokerNetwork::figure1_topology(quiet_config());
  net.subscribe(6, box(1, 100, 200));
  net.unsubscribe(6, 1);
  net.subscribe(6, box(1, 300, 400));
  net.crash_peer(6);
  (void)net.replace_peer(6);

  EXPECT_EQ(net.publish(0, point(350, 350)), std::vector<SubscriptionId>{1});
  EXPECT_TRUE(net.publish(0, point(150, 150)).empty());
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
  EXPECT_EQ(net.ghost_route_count(), 0u);
}

TEST(Membership, ExpiryArmedBeforeACrashFiresAgainstTheReplacement) {
  // Broker 6 armed expiry timers for the TTL subscriptions it routes: id 1
  // from B1, id 2 from its own client. The crash wipes it; the replacement
  // re-installs id 2 from the registry without arming a timer and relearns
  // id 1 over the healed link. The timers armed before the crash must
  // resolve against the replacement (never against state the crash freed)
  // and leave no trace of either subscription.
  BrokerNetwork net = BrokerNetwork::figure1_topology(quiet_config());
  net.subscribe_with_ttl(0, box(1, 100, 200), 1.0);
  net.subscribe_with_ttl(6, box(2, 300, 400), 1.0);
  net.crash_peer(6);
  (void)net.replace_peer(6);
  EXPECT_EQ(net.publish(0, point(350, 350)), std::vector<SubscriptionId>{2});
  net.advance_time(1.5);
  EXPECT_EQ(net.local_subscription_count(), 0u);
  EXPECT_EQ(net.ghost_route_count(), 0u);
  for (BrokerId b = 0; b < net.broker_count(); ++b) {
    EXPECT_EQ(net.broker(b).routing_table_size(), 0u) << "broker " << b;
  }
  EXPECT_TRUE(net.publish(0, point(150, 150)).empty());
}

TEST(Membership, TimerLeftOnACrashedBrokerSparesTheNextIncarnation) {
  // B7 routes TTL id 1 when it crashes. While it is down the client drops
  // id 1 and subscribes it again without a TTL; the replacement relearns
  // it over the healed link. The timer B7 armed for the first incarnation
  // must not remove the second.
  BrokerNetwork net = BrokerNetwork::figure1_topology(quiet_config());
  net.subscribe_with_ttl(0, box(1, 100, 200), 1.0);
  net.crash_peer(6);
  net.unsubscribe(0, 1);
  net.subscribe(0, box(1, 100, 200));
  (void)net.replace_peer(6);
  net.advance_time(1.5);
  EXPECT_EQ(net.publish(8, point(150, 150)), std::vector<SubscriptionId>{1});
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
  EXPECT_EQ(net.ghost_route_count(), 0u);
}

TEST(Membership, GuardsRejectOpsOnDeadBrokers) {
  BrokerNetwork net = BrokerNetwork::figure1_topology(quiet_config());
  net.crash_peer(8);
  EXPECT_THROW(net.subscribe(8, box(1, 0, 1)), std::invalid_argument);
  EXPECT_THROW(net.publish(8, point(0, 0)), std::invalid_argument);
  EXPECT_THROW(net.crash_peer(8), std::invalid_argument);
  EXPECT_THROW(net.remove_peer(8), std::invalid_argument);
  EXPECT_THROW(net.add_peer(8), std::invalid_argument);
  // Replacing an alive broker is a protocol violation, not bad input.
  EXPECT_THROW((void)net.replace_peer(0), std::logic_error);
}

// --- snapshot round trip ------------------------------------------------

TEST(Membership, SnapshotRestoresTheLinkState) {
  BrokerNetwork net = BrokerNetwork::figure1_topology(quiet_config());
  net.subscribe(0, box(1, 100, 200));
  net.fail_link(2, 3);
  net.crash_peer(8);
  const auto bytes = net.snapshot_all();

  BrokerNetwork restored(quiet_config());
  restored.restore_all({bytes.data(), bytes.size()});
  EXPECT_FALSE(restored.is_alive(8));
  EXPECT_TRUE(restored.link_state().has_failed_link(2, 3));
  EXPECT_EQ(restored.link_state().component_count(),
            net.link_state().component_count());
  // The restored replica keeps making the same decisions.
  restored.heal_link(2, 3);
  net.heal_link(2, 3);
  EXPECT_EQ(restored.publish(7, point(150, 150)),
            net.publish(7, point(150, 150)));
  EXPECT_EQ(restored.ghost_route_count(), 0u);
}

// --- generator + driver differential soak ------------------------------

workload::ChurnConfig soak_config(double duration, std::size_t brokers) {
  workload::ChurnConfig config;
  config.duration = duration;
  config.subscription_rate = 3.0;
  config.publication_rate = 6.0;
  config.membership.join_rate = 0.2;
  config.membership.leave_rate = 0.15;
  config.membership.crash_rate = 0.2;
  config.membership.partition_rate = 0.4;
  config.membership.partition_mean = 2.0;
  config.membership.replace_mean = 1.5;
  // Bound growth so the cascade slot contract holds at the default slot
  // width (slot/2 must clear (max_brokers + 1) hops of link latency).
  config.membership.max_brokers = brokers + 8;
  return config;
}

TEST(MembershipSoak, PartitionThenHealReconvergesOnEveryTopology) {
  for (const auto& topology : membership_topologies(24, 2006)) {
    for (const std::uint64_t seed : {11u, 22u, 33u}) {
      NetworkConfig config = quiet_config();
      config.seed = seed;
      BrokerNetwork net = topology.build(config);
      const MembershipUniverse universe = topology.universe(net);
      const workload::ChurnTrace trace = workload::generate_churn_trace(
          soak_config(20.0, topology.brokers), universe, seed);

      sim::ChurnDriver::Options options;
      options.differential = true;
      const sim::ChurnReport report = sim::ChurnDriver::run(net, trace, options);

      EXPECT_EQ(report.mismatched_publishes, 0u)
          << topology.name << " seed " << seed;
      EXPECT_EQ(report.membership.ghost_routes, 0u)
          << topology.name << " seed " << seed;
      EXPECT_EQ(report.totals.notifications_lost, 0u)
          << topology.name << " seed " << seed;
      EXPECT_EQ(report.totals.notifications_duplicated, 0u)
          << topology.name << " seed " << seed;
      EXPECT_EQ(report.membership.events, trace.membership_count)
          << topology.name << " seed " << seed;
      EXPECT_GE(report.membership.final_alive_brokers,
                soak_config(20.0, topology.brokers).membership.min_brokers)
          << topology.name << " seed " << seed;
    }
  }
}

TEST(MembershipSoak, MembershipTraceSurvivesTheWireRoundTrip) {
  const auto topologies = membership_topologies(24, 2006);
  const auto& ring = topologies[5];
  ASSERT_EQ(ring.name, "ring");
  NetworkConfig config = quiet_config();
  BrokerNetwork net = ring.build(config);
  const workload::ChurnTrace trace = workload::generate_churn_trace(
      soak_config(15.0, ring.brokers), ring.universe(net), 99);
  ASSERT_TRUE(trace.has_membership);
  ASSERT_GT(trace.membership_count, 0u);

  wire::ByteWriter out;
  wire::write_churn_trace(out, trace);
  const auto bytes = out.take();
  wire::ByteReader in({bytes.data(), bytes.size()});
  const workload::ChurnTrace decoded = wire::read_churn_trace(in);

  // The decoded trace must drive a fresh network to the identical report.
  BrokerNetwork original = ring.build(config);
  BrokerNetwork replayed = ring.build(config);
  sim::ChurnDriver::Options options;
  options.differential = true;
  const auto a = sim::ChurnDriver::run(original, trace, options);
  const auto b = sim::ChurnDriver::run(replayed, decoded, options);
  EXPECT_EQ(a.mismatched_publishes, 0u);
  EXPECT_EQ(b.mismatched_publishes, 0u);
  EXPECT_EQ(a.totals.notifications_delivered, b.totals.notifications_delivered);
  EXPECT_EQ(a.membership.events, b.membership.events);
  EXPECT_EQ(decoded.universe.standby, trace.universe.standby);
}

}  // namespace
}  // namespace psc::routing
