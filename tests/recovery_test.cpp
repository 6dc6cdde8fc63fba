// Crash-recovery differential tests: the ChurnDriver failure-injection
// mode (kill mid-churn -> restore from last snapshot -> WAL gap replay)
// must be delivery-invisible — delivered sets identical to FlatOracle
// before, across, and after the crash, with zero losses and zero replayed
// divergence — on every standard topology. This is the tier-1 version of
// `bench/soak --scenario=recovery` (same machinery, CI-friendly sizes).
#include "sim/churn_driver.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "routing/topology.hpp"
#include "workload/churn_workload.hpp"

namespace psc::sim {
namespace {

using routing::BrokerNetwork;
using routing::NetworkConfig;
using routing::Topology;
using workload::ChurnConfig;
using workload::generate_churn_trace;

ChurnConfig small_config() {
  ChurnConfig config;
  config.duration = 12.0;
  config.subscription_rate = 3.0;
  config.publication_rate = 5.0;
  return config;
}

ChurnDriver::Options failure_options(double kill_time, double cadence = 0.0) {
  ChurnDriver::Options options;
  options.differential = true;
  options.failure.enabled = true;
  options.failure.kill_time = kill_time;
  options.failure.snapshot_every = cadence;
  return options;
}

TEST(Recovery, CrashMidChurnIsDeliveryInvisibleOnAllTopologies) {
  const ChurnConfig config = small_config();
  for (Topology& topology : routing::standard_topologies(2006)) {
    NetworkConfig net_config;
    net_config.store.policy = store::CoveragePolicy::kExact;
    const auto trace = generate_churn_trace(config, topology.brokers, 2006);
    auto net = topology.build(net_config);
    // Kill mid-cadence (7.3s with 5s epochs) so the WAL gap is non-empty.
    const ChurnReport report =
        ChurnDriver::run(net, trace, failure_options(7.3));
    EXPECT_EQ(report.recovery.crashes, 1u) << topology.name;
    EXPECT_GT(report.recovery.snapshots, 0u) << topology.name;
    EXPECT_GT(report.recovery.gap_ops_replayed, 0u) << topology.name;
    EXPECT_EQ(report.recovery.replay_mismatches, 0u) << topology.name;
    EXPECT_EQ(report.mismatched_publishes, 0u) << topology.name;
    EXPECT_EQ(report.totals.notifications_lost, 0u) << topology.name;
  }
}

TEST(Recovery, PairwisePolicySurvivesCrashToo) {
  const ChurnConfig config = small_config();
  for (Topology& topology : routing::standard_topologies(11)) {
    NetworkConfig net_config;
    net_config.store.policy = store::CoveragePolicy::kPairwise;
    const auto trace = generate_churn_trace(config, topology.brokers, 11);
    auto net = topology.build(net_config);
    const ChurnReport report =
        ChurnDriver::run(net, trace, failure_options(6.2));
    EXPECT_EQ(report.recovery.crashes, 1u) << topology.name;
    EXPECT_EQ(report.recovery.replay_mismatches, 0u) << topology.name;
    EXPECT_EQ(report.mismatched_publishes, 0u) << topology.name;
    EXPECT_EQ(report.totals.notifications_lost, 0u) << topology.name;
  }
}

TEST(Recovery, FineAndCoarseSnapshotCadences) {
  const ChurnConfig config = small_config();
  const auto trace = generate_churn_trace(config, 9, 77);
  for (const double cadence : {1.0, 4.0, 10.0}) {
    auto net = BrokerNetwork::figure1_topology();
    const ChurnReport report =
        ChurnDriver::run(net, trace, failure_options(8.7, cadence));
    EXPECT_EQ(report.recovery.crashes, 1u) << "cadence " << cadence;
    EXPECT_EQ(report.recovery.replay_mismatches, 0u) << "cadence " << cadence;
    EXPECT_EQ(report.mismatched_publishes, 0u) << "cadence " << cadence;
    EXPECT_EQ(report.totals.notifications_lost, 0u) << "cadence " << cadence;
  }
  // Coarser cadence => older snapshot => longer WAL gap.
  auto fine_net = BrokerNetwork::figure1_topology();
  auto coarse_net = BrokerNetwork::figure1_topology();
  const auto fine = ChurnDriver::run(fine_net, trace, failure_options(8.7, 1.0));
  const auto coarse =
      ChurnDriver::run(coarse_net, trace, failure_options(8.7, 10.0));
  EXPECT_LT(fine.recovery.gap_ops_replayed, coarse.recovery.gap_ops_replayed);
}

TEST(Recovery, EpochAndTotalAccountingSplicesAcrossTheCrash) {
  // The same trace with and without failure injection must agree on the
  // client-visible accounting: ops, publishes, delivered/lost totals, and
  // the per-epoch delivered series (replayed traffic is excluded).
  const ChurnConfig config = small_config();
  const auto trace = generate_churn_trace(config, 9, 123);
  auto plain_net = BrokerNetwork::figure1_topology();
  auto crash_net = BrokerNetwork::figure1_topology();
  ChurnDriver::Options plain;
  plain.differential = true;
  const ChurnReport a = ChurnDriver::run(plain_net, trace, plain);
  const ChurnReport b =
      ChurnDriver::run(crash_net, trace, failure_options(7.3));
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.publishes, b.publishes);
  EXPECT_EQ(a.totals.notifications_delivered, b.totals.notifications_delivered);
  EXPECT_EQ(a.totals.notifications_lost, b.totals.notifications_lost);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].delivered, b.epochs[e].delivered) << "epoch " << e;
    EXPECT_EQ(a.epochs[e].live_subscriptions, b.epochs[e].live_subscriptions)
        << "epoch " << e;
    EXPECT_EQ(a.epochs[e].routing_entries, b.epochs[e].routing_entries)
        << "epoch " << e;
  }
}

TEST(Recovery, KillBeforeFirstSnapshotUsesBootImage) {
  const ChurnConfig config = small_config();
  const auto trace = generate_churn_trace(config, 9, 5);
  auto net = BrokerNetwork::figure1_topology();
  // Kill inside the first cadence interval: recovery replays from t=0.
  const ChurnReport report = ChurnDriver::run(net, trace, failure_options(2.3));
  EXPECT_EQ(report.recovery.crashes, 1u);
  EXPECT_EQ(report.recovery.replay_mismatches, 0u);
  EXPECT_EQ(report.mismatched_publishes, 0u);
  EXPECT_EQ(report.totals.notifications_lost, 0u);
}

TEST(Recovery, RestoreAllTwiceIsIdempotent) {
  // restore_all must fully wipe whatever state the target network holds —
  // including an engaged membership LinkState — so restoring the same
  // image twice (or over a dirtier network) converges to one state.
  auto source = BrokerNetwork::figure1_topology();
  source.subscribe(0, core::Subscription({{100, 200}, {100, 200}}, 1));
  source.subscribe(6, core::Subscription({{300, 400}, {300, 400}}, 2));
  source.fail_link(2, 3);
  source.crash_peer(8);
  const std::vector<std::uint8_t> image = source.snapshot_all();

  auto target = BrokerNetwork::figure1_topology();
  target.subscribe(4, core::Subscription({{0, 1}, {0, 1}}, 9));
  target.crash_peer(0);  // different membership state to overwrite
  target.restore_all({image.data(), image.size()});
  const std::vector<std::uint8_t> once = target.snapshot_all();
  target.restore_all({image.data(), image.size()});
  const std::vector<std::uint8_t> twice = target.snapshot_all();
  EXPECT_EQ(once, twice);
  EXPECT_EQ(once, image);

  // The twice-restored replica behaves like the source.
  EXPECT_FALSE(target.is_alive(8));
  target.heal_link(2, 3);
  source.heal_link(2, 3);
  const core::Publication probe({150, 150});
  EXPECT_EQ(target.publish(7, probe), source.publish(7, probe));
  EXPECT_EQ(target.ghost_route_count(), 0u);
}

TEST(Recovery, InvalidFailureConfigsThrow) {
  const ChurnConfig config = small_config();
  const auto trace = generate_churn_trace(config, 9, 5);
  auto net = BrokerNetwork::figure1_topology();
  ChurnDriver::Options bad_kill = failure_options(0.0);
  EXPECT_THROW((void)ChurnDriver::run(net, trace, bad_kill),
               std::invalid_argument);
  ChurnDriver::Options bad_cadence = failure_options(5.0, -1.0);
  EXPECT_THROW((void)ChurnDriver::run(net, trace, bad_cadence),
               std::invalid_argument);
}

}  // namespace
}  // namespace psc::sim
