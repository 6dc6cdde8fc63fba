// Differential network oracle tests: seeded random op sequences
// (subscribe / subscribe_with_ttl / unsubscribe / publish / advance_time)
// replayed against every standard topology must deliver exactly what the
// flat single-store oracle delivers, with zero lost notifications, under
// the exact coverage configurations (kNone / kPairwise / kExact). The
// TTL-equivalence property rides along: expiring a subscription by TTL is
// indistinguishable from explicitly unsubscribing it at the same instant.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "routing/broker_network.hpp"
#include "routing/flat_oracle.hpp"
#include "routing/topology.hpp"
#include "sim/churn_driver.hpp"
#include "util/rng.hpp"
#include "workload/churn_workload.hpp"

namespace psc::routing {
namespace {

using core::Interval;
using core::Publication;
using core::Subscription;
using core::SubscriptionId;
using workload::ChurnOp;
using workload::ChurnOpKind;
using workload::ChurnTrace;

NetworkConfig with_policy(store::CoveragePolicy policy) {
  NetworkConfig config;
  config.store.policy = policy;
  return config;
}

std::string policy_name(store::CoveragePolicy policy) {
  return std::string(store::to_string(policy));
}

sim::ChurnDriver::Options differential_options() {
  sim::ChurnDriver::Options options;
  options.differential = true;
  return options;
}

/// Exact coverage configurations: every decision is definite, so the
/// network may never lose a notification on any topology or trace.
const store::CoveragePolicy kExactPolicies[] = {
    store::CoveragePolicy::kNone,
    store::CoveragePolicy::kPairwise,
    store::CoveragePolicy::kExact,
};

TEST(NetworkDifferential, ChurnTracesMatchOracleOnAllTopologiesAndSeeds) {
  workload::ChurnConfig churn;
  churn.duration = 80.0;  // >= 500 ops per trace at the default rates
  for (const store::CoveragePolicy policy : kExactPolicies) {
    for (const Topology& topology : standard_topologies(2006)) {
      for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
        const ChurnTrace trace =
            workload::generate_churn_trace(churn, topology.brokers, seed);
        ASSERT_GE(trace.ops.size(), 500u) << topology.name;
        auto net = topology.build(with_policy(policy));
        const sim::ChurnReport report =
            sim::ChurnDriver::run(net, trace, differential_options());
        const std::string label = topology.name + "/" + policy_name(policy) +
                                  "/seed" + std::to_string(seed);
        EXPECT_EQ(report.mismatched_publishes, 0u) << label;
        EXPECT_EQ(report.totals.notifications_lost, 0u) << label;
        EXPECT_GT(report.publishes, 0u) << label;
        EXPECT_GT(report.totals.notifications_delivered, 0u) << label;
      }
    }
  }
}

TEST(NetworkDifferential, GroupPolicyStaysOracleCleanOnPinnedSeeds) {
  // kGroup may legally suppress falsely with probability <= delta per
  // check (the paper's only error mode). With delta = 1e-6 and fixed
  // seeds the replay is deterministic, so this pins that the standard
  // traces happen to be loss-free — a canary for accidental error-rate
  // regressions, not a proof of exactness.
  workload::ChurnConfig churn;
  churn.duration = 60.0;
  for (const Topology& topology : standard_topologies(2006)) {
    const ChurnTrace trace =
        workload::generate_churn_trace(churn, topology.brokers, 7);
    auto net = topology.build(with_policy(store::CoveragePolicy::kGroup));
    const sim::ChurnReport report =
        sim::ChurnDriver::run(net, trace, differential_options());
    EXPECT_EQ(report.mismatched_publishes, 0u) << topology.name;
    EXPECT_EQ(report.totals.notifications_lost, 0u) << topology.name;
  }
}

/// Hand-rolled uniform op mix (not the churn generator): denser
/// publication coverage and direct publish-by-publish comparison, so a
/// divergence pinpoints the failing publication immediately.
TEST(NetworkDifferential, UniformRandomOpMixMatchesPublishByPublish) {
  constexpr double kSlot = 0.1;
  for (const Topology& topology : standard_topologies(2006)) {
    for (const std::uint64_t seed : {5ull, 6ull, 7ull}) {
      util::Rng rng(seed);
      auto net = topology.build(with_policy(store::CoveragePolicy::kExact));
      FlatOracle oracle;
      std::vector<std::pair<BrokerId, SubscriptionId>> live;  // explicit subs
      SubscriptionId next_id = 1;
      double now = 0.0;
      std::size_t publishes = 0;
      for (int step = 0; step < 600; ++step) {
        now += kSlot;
        net.advance_time(now);
        oracle.advance_time(now);
        const auto broker =
            static_cast<BrokerId>(rng.next_below(topology.brokers));
        const double roll = rng.next_double();
        if (roll < 0.25) {  // subscribe (permanent until unsubscribed)
          const double lo0 = rng.uniform(0, 900), lo1 = rng.uniform(0, 900);
          const Subscription sub({Interval{lo0, lo0 + rng.uniform(20, 200)},
                                  Interval{lo1, lo1 + rng.uniform(20, 200)}},
                                 next_id++);
          net.subscribe(broker, sub);
          oracle.subscribe(broker, sub);
          live.emplace_back(broker, sub.id());
        } else if (roll < 0.45) {  // subscribe with TTL, expiry mid-slot
          const double lo0 = rng.uniform(0, 900), lo1 = rng.uniform(0, 900);
          const Subscription sub({Interval{lo0, lo0 + rng.uniform(20, 200)},
                                  Interval{lo1, lo1 + rng.uniform(20, 200)}},
                                 next_id++);
          const double ttl =
              static_cast<double>(1 + rng.next_below(40)) * kSlot + kSlot / 2;
          net.subscribe_with_ttl(broker, sub, ttl);
          oracle.subscribe_with_ttl(broker, sub, ttl);
        } else if (roll < 0.55 && !live.empty()) {  // unsubscribe
          const std::size_t pick = rng.next_below(live.size());
          const auto [home, id] = live[pick];
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
          net.unsubscribe(home, id);
          oracle.unsubscribe(home, id);
        } else if (roll < 0.65) {  // pure time advance, several slots
          now += static_cast<double>(rng.next_below(20)) * kSlot;
          net.advance_time(now);
          oracle.advance_time(now);
        } else {  // publish
          const Publication pub({rng.uniform(0, 1000), rng.uniform(0, 1000)});
          ++publishes;
          EXPECT_EQ(net.publish(broker, pub), oracle.publish(pub))
              << topology.name << " seed " << seed << " step " << step;
        }
      }
      EXPECT_GT(publishes, 100u) << topology.name;
      EXPECT_EQ(net.local_subscription_count(), oracle.live_count())
          << topology.name << " seed " << seed;
    }
  }
}

/// Property: subscribe_with_ttl(s, t) + advance_time(t + eps) is
/// indistinguishable from subscribe(s) + unsubscribe(s) at the expiry
/// instant — identical routing tables and identical subsequent deliveries.
TEST(NetworkProperty, TtlExpiryEquivalentToUnsubscribeAtSameInstant) {
  workload::ChurnConfig churn;
  churn.duration = 40.0;
  churn.ttl_fraction = 1.0;    // every mortal subscription uses TTL
  churn.immortal_fraction = 0.2;
  for (const store::CoveragePolicy policy : kExactPolicies) {
    for (const Topology& topology : standard_topologies(2006)) {
      const ChurnTrace ttl_trace =
          workload::generate_churn_trace(churn, topology.brokers, 17);

      // Transform: every TTL subscription becomes a permanent subscription
      // plus an explicit unsubscribe at the exact expiry instant.
      ChurnTrace unsub_trace = ttl_trace;
      std::vector<ChurnOp> extra;
      for (ChurnOp& op : unsub_trace.ops) {
        if (op.kind != ChurnOpKind::kSubscribeTtl) continue;
        ChurnOp unsub;
        unsub.kind = ChurnOpKind::kUnsubscribe;
        unsub.time = op.time + op.ttl;
        unsub.broker = op.broker;
        unsub.id = op.sub.id();
        extra.push_back(std::move(unsub));
        op.kind = ChurnOpKind::kSubscribe;
        op.ttl = 0.0;
      }
      unsub_trace.ops.insert(unsub_trace.ops.end(), extra.begin(), extra.end());
      std::stable_sort(unsub_trace.ops.begin(), unsub_trace.ops.end(),
                       [](const ChurnOp& a, const ChurnOp& b) {
                         return a.time < b.time;
                       });

      ASSERT_FALSE(extra.empty()) << topology.name;

      auto ttl_net = topology.build(with_policy(policy));
      auto unsub_net = topology.build(with_policy(policy));
      const auto ttl_report =
          sim::ChurnDriver::run(ttl_net, ttl_trace, differential_options());
      const auto unsub_report =
          sim::ChurnDriver::run(unsub_net, unsub_trace, differential_options());
      const std::string label = topology.name + "/" + policy_name(policy);

      // Some expiries lie past the trace's closing advance; settle both
      // replicas at a common horizon beyond the last removal instant so
      // the comparison sees final states, not armed timers.
      double horizon = 0.0;
      for (const ChurnOp& op : unsub_trace.ops) {
        horizon = std::max(horizon, op.time);
      }
      horizon += 1.0;
      ttl_net.advance_time(horizon);
      unsub_net.advance_time(horizon);

      EXPECT_EQ(ttl_report.totals.notifications_lost, 0u) << label;
      EXPECT_EQ(unsub_report.totals.notifications_lost, 0u) << label;
      EXPECT_EQ(ttl_net.local_subscription_count(),
                unsub_net.local_subscription_count())
          << label;
      for (std::size_t b = 0; b < topology.brokers; ++b) {
        EXPECT_EQ(ttl_net.broker(static_cast<BrokerId>(b)).routing_table_size(),
                  unsub_net.broker(static_cast<BrokerId>(b)).routing_table_size())
            << label << " broker " << b;
      }
      // Subsequent deliveries: an identical probe sweep sees no difference.
      util::Rng probe_rng(99);
      for (int probe = 0; probe < 50; ++probe) {
        const Publication pub(
            {probe_rng.uniform(0, 1000), probe_rng.uniform(0, 1000)});
        const auto at =
            static_cast<BrokerId>(probe_rng.next_below(topology.brokers));
        EXPECT_EQ(ttl_net.publish(at, pub), unsub_net.publish(at, pub))
            << label << " probe " << probe;
      }
    }
  }
}

}  // namespace
}  // namespace psc::routing
