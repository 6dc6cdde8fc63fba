// Tests for the churn workload generator and the churn driver: trace
// determinism and shape (the slot/mid-slot time discipline the
// differential oracle depends on), driver replay determinism, the
// epoch-series bookkeeping, and the per-publish verdict against the oracle.
#include "sim/churn_driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "routing/link_channel.hpp"
#include "routing/topology.hpp"
#include "workload/churn_workload.hpp"

namespace psc::sim {
namespace {

using core::SubscriptionId;
using routing::BrokerNetwork;
using routing::NetworkConfig;
using workload::ChurnConfig;
using workload::ChurnOp;
using workload::ChurnOpKind;
using workload::ChurnTrace;
using workload::generate_churn_trace;

bool ops_equal(const ChurnOp& a, const ChurnOp& b) {
  if (a.kind != b.kind || a.time != b.time || a.broker != b.broker ||
      a.ttl != b.ttl || a.id != b.id) {
    return false;
  }
  if (a.sub.id() != b.sub.id() || !(a.sub == b.sub)) return false;
  if (a.pub.attribute_count() != b.pub.attribute_count()) return false;
  for (std::size_t i = 0; i < a.pub.attribute_count(); ++i) {
    if (a.pub.value(i) != b.pub.value(i)) return false;
  }
  return true;
}

TEST(ChurnWorkload, TraceIsDeterministicPerSeed) {
  const ChurnConfig config;
  const ChurnTrace a = generate_churn_trace(config, 9, 42);
  const ChurnTrace b = generate_churn_trace(config, 9, 42);
  const ChurnTrace c = generate_churn_trace(config, 9, 43);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_TRUE(ops_equal(a.ops[i], b.ops[i])) << "op " << i;
  }
  bool any_difference = a.ops.size() != c.ops.size();
  for (std::size_t i = 0; !any_difference && i < a.ops.size(); ++i) {
    any_difference = !ops_equal(a.ops[i], c.ops[i]);
  }
  EXPECT_TRUE(any_difference);
}

TEST(ChurnWorkload, TraceHonorsTheSlotTimeDiscipline) {
  ChurnConfig config;
  config.duration = 40.0;
  const ChurnTrace trace = generate_churn_trace(config, 36, 7);
  ASSERT_FALSE(trace.ops.empty());
  double previous = 0.0;
  for (const ChurnOp& op : trace.ops) {
    // One op per slot, strictly increasing, slot-aligned.
    EXPECT_GT(op.time, previous);
    const double slots = op.time / config.slot;
    EXPECT_NEAR(slots, std::round(slots), 1e-9);
    previous = op.time;
    if (op.kind == ChurnOpKind::kSubscribeTtl) {
      // TTLs are whole slots plus half a slot, so expiries fire mid-slot,
      // clear of every cascade window.
      const double offset = op.ttl / config.slot;
      EXPECT_NEAR(offset - std::floor(offset), 0.5, 1e-9);
      EXPECT_GE(op.ttl, config.slot);
    }
  }
}

TEST(ChurnWorkload, MultiCascadeMembershipOpsOwnASlotPerCascade) {
  // Replays the trace's client registry and link state beside it. A leave
  // runs a cascade per homed unsubscription, the purge and a cascade per
  // star-repair link; a replacement a cascade per healed link. Each must
  // own that many slots before the next op, with no expiry inside them.
  ChurnConfig config;
  config.duration = 60.0;
  config.subscription_rate = 6.0;
  config.membership.join_rate = 0.15;
  config.membership.leave_rate = 0.3;
  config.membership.crash_rate = 0.2;
  config.membership.partition_rate = 0.3;
  config.membership.max_brokers = 32;
  const auto topologies = routing::membership_topologies(24, 2006);
  const routing::MembershipTopology& topology = topologies.front();
  auto net = topology.build(NetworkConfig{});
  const ChurnTrace trace =
      generate_churn_trace(config, topology.universe(net), 7);

  routing::LinkState state(trace.universe);
  struct Entry {
    routing::BrokerId home;
    double expiry;
  };
  std::map<SubscriptionId, Entry> registry;
  std::size_t busy_leaves = 0;
  for (std::size_t i = 0; i + 1 < trace.ops.size(); ++i) {
    const ChurnOp& op = trace.ops[i];
    std::erase_if(registry,
                  [&](const auto& e) { return e.second.expiry <= op.time; });
    std::size_t cascades = 1;
    switch (op.kind) {
      case ChurnOpKind::kSubscribe:
        registry[op.sub.id()] = {op.broker, INFINITY};
        break;
      case ChurnOpKind::kSubscribeTtl:
        registry[op.sub.id()] = {op.broker, op.time + op.ttl};
        break;
      case ChurnOpKind::kUnsubscribe:
        registry.erase(op.id);
        break;
      case ChurnOpKind::kPublish:
      case ChurnOpKind::kAdvance:
        break;
      case ChurnOpKind::kMembership:
        switch (static_cast<routing::MembershipOpKind>(op.member)) {
          case routing::MembershipOpKind::kJoin:
            (void)state.add_broker();
            state.add_link(op.broker, op.peer);
            break;
          case routing::MembershipOpKind::kLeave: {
            const auto homed = static_cast<std::size_t>(std::count_if(
                registry.begin(), registry.end(),
                [&](const auto& e) { return e.second.home == op.broker; }));
            cascades = homed + 1 + state.remove_peer(op.broker).size();
            busy_leaves += cascades > 2 ? 1 : 0;
            break;
          }
          case routing::MembershipOpKind::kCrash:
            (void)state.crash_peer(op.broker);
            break;
          case routing::MembershipOpKind::kReplace:
            cascades = std::max<std::size_t>(
                1, state.replace_peer(op.broker).size());
            break;
          case routing::MembershipOpKind::kFailLink:
            state.fail_link(op.broker, op.peer);
            break;
          case routing::MembershipOpKind::kHealLink:
            state.heal_link(op.broker, op.peer);
            break;
        }
        break;
    }
    // A slot per cascade; each cascade quiesces within half a slot.
    const auto n = static_cast<double>(cascades);
    EXPECT_GE(trace.ops[i + 1].time, op.time + n * config.slot - 1e-9)
        << "op " << i;
    const double busy_until = op.time + n * config.slot / 2 - 1e-9;
    for (const auto& [sid, entry] : registry) {
      EXPECT_FALSE(entry.expiry > op.time && entry.expiry < busy_until)
          << "op " << i << " expires " << sid << " inside its cascades";
    }
    if (op.kind == ChurnOpKind::kMembership &&
        static_cast<routing::MembershipOpKind>(op.member) ==
            routing::MembershipOpKind::kLeave) {
      std::erase_if(registry,
                    [&](const auto& e) { return e.second.home == op.broker; });
    }
  }
  EXPECT_GT(busy_leaves, 0u);
}

TEST(ChurnWorkload, TraceMixesAllOpKinds) {
  ChurnConfig config;
  config.duration = 60.0;
  const ChurnTrace trace = generate_churn_trace(config, 9, 2006);
  std::set<ChurnOpKind> kinds;
  std::set<core::SubscriptionId> subscribed;
  for (const ChurnOp& op : trace.ops) {
    kinds.insert(op.kind);
    if (op.kind == ChurnOpKind::kSubscribe ||
        op.kind == ChurnOpKind::kSubscribeTtl) {
      EXPECT_TRUE(subscribed.insert(op.sub.id()).second)
          << "duplicate id " << op.sub.id();
      EXPECT_LT(op.broker, 9u);
    }
    if (op.kind == ChurnOpKind::kUnsubscribe) {
      EXPECT_TRUE(subscribed.count(op.id)) << "unsubscribe before subscribe";
    }
  }
  EXPECT_TRUE(kinds.count(ChurnOpKind::kSubscribe));
  EXPECT_TRUE(kinds.count(ChurnOpKind::kSubscribeTtl));
  EXPECT_TRUE(kinds.count(ChurnOpKind::kUnsubscribe));
  EXPECT_TRUE(kinds.count(ChurnOpKind::kPublish));
  EXPECT_TRUE(kinds.count(ChurnOpKind::kAdvance));
  EXPECT_EQ(trace.subscribe_count, subscribed.size());
}

TEST(ChurnWorkload, RejectsConfigsThatBreakTheTimeContract) {
  ChurnConfig config;
  // slot/2 must exceed (brokers + 1) * link_latency: 0.05 <= 0.101.
  EXPECT_THROW(generate_churn_trace(config, 100, 1), std::invalid_argument);
  config.slot = 0.5;
  EXPECT_NO_THROW(generate_churn_trace(config, 100, 1));
  config.ttl_fraction = 1.5;
  EXPECT_THROW(generate_churn_trace(config, 9, 1), std::invalid_argument);
  config.ttl_fraction = 0.5;
  config.subscription_rate = 0.0;
  config.publication_rate = 0.0;
  EXPECT_THROW(generate_churn_trace(config, 9, 1), std::invalid_argument);
  config.subscription_rate = 2.0;
  config.epoch_length = 0.0;  // would loop the driver's epoch closer forever
  EXPECT_THROW(generate_churn_trace(config, 9, 1), std::invalid_argument);
  config.epoch_length = 5.13;  // boundary would land mid-slot
  EXPECT_THROW(generate_churn_trace(config, 9, 1), std::invalid_argument);
}

TEST(ChurnDriver, ReplayIsDeterministic) {
  ChurnConfig config;
  config.duration = 30.0;
  const ChurnTrace trace = generate_churn_trace(config, 9, 11);
  auto net_a = BrokerNetwork::figure1_topology();
  auto net_b = BrokerNetwork::figure1_topology();
  ChurnDriver::Options options;
  options.differential = true;
  const ChurnReport a = ChurnDriver::run(net_a, trace, options);
  const ChurnReport b = ChurnDriver::run(net_b, trace, options);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.publishes, b.publishes);
  EXPECT_EQ(a.totals.total_messages(), b.totals.total_messages());
  EXPECT_EQ(a.totals.notifications_delivered, b.totals.notifications_delivered);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].delivered, b.epochs[i].delivered) << i;
    EXPECT_EQ(a.epochs[i].routing_entries, b.epochs[i].routing_entries) << i;
    EXPECT_EQ(a.epochs[i].forwarded_entries, b.epochs[i].forwarded_entries) << i;
  }
}

TEST(ChurnDriver, EpochSeriesAccountsForEveryOpAndMessage) {
  ChurnConfig config;
  config.duration = 30.0;
  config.epoch_length = 5.0;
  const ChurnTrace trace = generate_churn_trace(config, 8, 3);
  auto net = BrokerNetwork::chain_topology(8);
  ChurnDriver::Options options;
  options.differential = true;  // delivered counts exist only against it
  const ChurnReport report = ChurnDriver::run(net, trace, options);
  ASSERT_FALSE(report.epochs.empty());
  std::size_t ops = 0, publishes = 0;
  std::uint64_t delivered = 0, messages = 0;
  double previous_end = 0.0;
  std::size_t peak = 0;
  for (const ChurnEpoch& epoch : report.epochs) {
    EXPECT_NEAR(epoch.end_time - previous_end, config.epoch_length, 1e-9);
    previous_end = epoch.end_time;
    ops += epoch.ops;
    publishes += epoch.publishes;
    delivered += epoch.delivered;
    messages += epoch.subscription_messages + epoch.unsubscription_messages +
                epoch.publication_messages;
    peak = std::max(peak, epoch.routing_entries);
  }
  EXPECT_EQ(ops, report.ops);
  EXPECT_EQ(publishes, report.publishes);
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(delivered, report.totals.notifications_delivered);
  EXPECT_EQ(messages, report.totals.total_messages());
  EXPECT_EQ(peak, report.peak_routing_entries);
  EXPECT_EQ(report.final_live_subscriptions, net.local_subscription_count());
}

TEST(ChurnDriver, RejectsBrokerCountMismatch) {
  const ChurnTrace trace = generate_churn_trace(ChurnConfig{}, 9, 1);
  auto net = BrokerNetwork::chain_topology(4);
  EXPECT_THROW((void)ChurnDriver::run(net, trace), std::invalid_argument);
}

TEST(ChurnDriver, ExactPolicySoakIsLossFreeWithLiveChurn) {
  ChurnConfig config;
  config.duration = 60.0;
  NetworkConfig net_config;
  net_config.store.policy = store::CoveragePolicy::kExact;
  const ChurnTrace trace = generate_churn_trace(config, 9, 2006);
  auto net = BrokerNetwork::figure1_topology(net_config);
  ChurnDriver::Options options;
  options.differential = true;
  const ChurnReport report = ChurnDriver::run(net, trace, options);
  EXPECT_EQ(report.totals.notifications_lost, 0u);
  EXPECT_EQ(report.mismatched_publishes, 0u);
  EXPECT_GT(report.totals.notifications_delivered, 0u);
  EXPECT_GT(report.totals.subscriptions_suppressed, 0u)
      << "hotspot workload should trigger coverage pruning";
  // Churn actually happened: subscriptions arrived and left.
  EXPECT_GT(report.ops, 100u);
  EXPECT_LT(report.final_live_subscriptions, trace.subscribe_count);
}

TEST(JudgePublish, ExactDeliveryCountsEveryIdDelivered) {
  const std::vector<SubscriptionId> expected{2, 5, 9};
  const PublishVerdict verdict = judge_publish(expected, expected, expected);
  EXPECT_EQ(verdict.delivered, 3u);
  EXPECT_EQ(verdict.lost, 0u);
  EXPECT_FALSE(verdict.mismatched);
}

TEST(JudgePublish, MissingExpectedIdIsLostAndMismatched) {
  const std::vector<SubscriptionId> expected{2, 5, 9};
  const PublishVerdict verdict =
      judge_publish(std::vector<SubscriptionId>{2, 9}, expected, expected);
  EXPECT_EQ(verdict.delivered, 2u);
  EXPECT_EQ(verdict.lost, 1u);
  EXPECT_TRUE(verdict.mismatched);
}

TEST(JudgePublish, ExtraIdIsMismatchedOnly) {
  const std::vector<SubscriptionId> expected{2, 5};
  const PublishVerdict verdict =
      judge_publish(std::vector<SubscriptionId>{2, 4, 5}, expected, expected);
  EXPECT_EQ(verdict.delivered, 2u);
  EXPECT_EQ(verdict.lost, 0u);
  EXPECT_TRUE(verdict.mismatched);
}

TEST(JudgePublish, IdThatCrossedBeforeItsLinkEscalatedIsNeither) {
  // 7 was reachable before a link escalated mid-publish and not after; the
  // notification crossed first, so delivering it or not is both fine.
  const std::vector<SubscriptionId> after{2, 5};
  const std::vector<SubscriptionId> before{2, 5, 7};
  for (const std::vector<SubscriptionId>& delivered :
       {std::vector<SubscriptionId>{2, 5, 7}, std::vector<SubscriptionId>{2, 5}}) {
    const PublishVerdict verdict = judge_publish(delivered, after, before);
    EXPECT_EQ(verdict.delivered, 2u);
    EXPECT_EQ(verdict.lost, 0u);
    EXPECT_FALSE(verdict.mismatched);
  }
}

/// A lossy grid whose only membership churn is link failures and heals,
/// shaped like the lossy soak (12 brokers, 150 op slots) with four burst
/// windows of 0.05 slots, seed 2027. One burst escalates a link while a
/// publication is in flight: its notification crossed that link first,
/// so the oracle's sets before and after mirroring the escalation differ.
ChurnReport run_mid_publish_escalation() {
  constexpr double kLatency = 1e-4;
  constexpr std::uint64_t kSeed = 2027;
  routing::LinkConfig link;
  link.enabled = true;
  link.rto = 4 * kLatency;
  link.rto_max = 8 * kLatency;
  link.max_retries = 12;
  link.window = 128;
  link.faults.drop_probability = 0.2;
  link.faults.dup_probability = 0.1;
  link.faults.reorder_probability = 0.1;
  link.faults.delay_jitter = 0.5;

  const auto topologies = routing::membership_topologies(12, 2006);
  const auto grid = std::find_if(topologies.begin(), topologies.end(),
                                 [](const auto& t) { return t.name == "grid"; });
  if (grid == topologies.end()) throw std::logic_error("no grid topology");
  const std::size_t max_brokers = grid->brokers + 8;

  ChurnConfig churn;
  churn.link_latency = kLatency;
  churn.publication_rate = 4.0;
  churn.faults.link = link.faults;
  churn.faults.cascade_hop_bound = link.worst_hop_delay(kLatency);
  churn.slot = 2.2 * static_cast<double>(max_brokers + 1) *
               churn.faults.cascade_hop_bound;
  churn.epoch_length = churn.slot * 50;
  churn.duration = churn.slot * 150;
  churn.membership.max_brokers = max_brokers;
  churn.membership.partition_rate = 0.4 / churn.slot;
  churn.faults.burst_count = 4;
  churn.faults.burst_length = churn.slot * 0.05;

  NetworkConfig config;
  config.store.policy = store::CoveragePolicy::kExact;
  config.link_latency = kLatency;
  config.link = link;
  config.seed = kSeed;
  auto net = grid->build(config);
  const ChurnTrace trace =
      generate_churn_trace(churn, grid->universe(net), kSeed);
  ChurnDriver::Options options;
  options.differential = true;
  return ChurnDriver::run(net, trace, options);
}

TEST(ChurnDriver, LossyEscalationsKeepTheDeliveredAndLostTotals) {
  // Pinned figures: the same run counted 173 delivered and 0 lost when the
  // network still counted them against its own client registry.
  const ChurnReport report = run_mid_publish_escalation();
  EXPECT_EQ(report.membership.link_escalations, 1u);
  EXPECT_EQ(report.publishes, 298u);
  EXPECT_EQ(report.mismatched_publishes, 0u);
  EXPECT_EQ(report.totals.notifications_delivered, 173u);
  EXPECT_EQ(report.totals.notifications_lost, 0u);
}

}  // namespace
}  // namespace psc::sim
