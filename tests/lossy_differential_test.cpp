// Lossy-link differential tests: churn traces replayed over unreliable
// wires (drop / dup / reorder / jitter, plus scripted burst loss) must
// deliver EXACTLY what the flat oracle delivers — the reliable link
// protocol makes the fault schedule invisible to the application, except
// where a burst outlives the whole retransmit chain and deterministically
// escalates into the same fail_link the oracle mirrors. This is the
// tier-1 slice of the `bench/soak --scenario=lossy` headline gate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "routing/broker_network.hpp"
#include "routing/link_channel.hpp"
#include "routing/topology.hpp"
#include "sim/churn_driver.hpp"
#include "workload/churn_workload.hpp"

namespace psc::routing {
namespace {

using workload::ChurnConfig;
using workload::ChurnTrace;

// A deliberately short retransmit chain (still >= 12 retries, so a random
// escalation needs 13 consecutive iid drops — probability ~0.2^13, never
// observed) keeps the worst-case hop bound, and with it the op slot, small
// enough for dense tier-1 traces.
constexpr double kLatency = 1e-4;

LinkConfig lossy_link() {
  LinkConfig link;
  link.enabled = true;
  link.rto = 2 * kLatency;
  link.rto_max = 8 * kLatency;
  link.faults.drop_probability = 0.2;
  link.faults.dup_probability = 0.1;
  link.faults.reorder_probability = 0.1;
  link.faults.delay_jitter = 0.5;
  return link;
}

/// Sizes the slot from the protocol's worst hop delay so retransmit
/// chains quiesce inside half a slot even at the join cap, then shapes
/// duration/epoch as slot multiples for roughly `ops` ops.
ChurnConfig lossy_churn(const LinkConfig& link, std::size_t max_brokers,
                        std::size_t ops) {
  ChurnConfig churn;
  churn.link_latency = kLatency;
  churn.faults.link = link.faults;
  churn.faults.cascade_hop_bound = link.worst_hop_delay(kLatency);
  churn.slot = 2.2 * static_cast<double>(max_brokers + 1) *
               churn.faults.cascade_hop_bound;
  churn.epoch_length = churn.slot * 50;
  churn.duration = churn.slot * static_cast<double>(ops);
  return churn;
}

NetworkConfig lossy_net_config(const LinkConfig& link, std::uint64_t seed) {
  NetworkConfig config;
  config.link_latency = kLatency;
  config.link = link;
  config.seed = seed;  // drives the per-link fault substreams
  return config;
}

void expect_oracle_exact(const sim::ChurnReport& report,
                         const std::string& label) {
  EXPECT_EQ(report.mismatched_publishes, 0u) << label;
  EXPECT_EQ(report.totals.notifications_lost, 0u) << label;
  EXPECT_EQ(report.totals.notifications_duplicated, 0u) << label;
  EXPECT_EQ(report.membership.ghost_routes, 0u) << label;
  EXPECT_GT(report.publishes, 0u) << label;
  EXPECT_GT(report.totals.notifications_delivered, 0u) << label;
}

void expect_clean(const sim::ChurnReport& report, const std::string& label) {
  expect_oracle_exact(report, label);
  // The wire must actually have been hostile, and the protocol busy.
  EXPECT_GT(report.totals.frames_dropped, 0u) << label;
  EXPECT_GT(report.totals.retransmits, 0u) << label;
  EXPECT_GT(report.totals.dups_suppressed, 0u) << label;
  EXPECT_GT(report.totals.acks_sent, 0u) << label;
}

TEST(LossyDifferential, StaticTopologiesMatchOracleUnderFaults) {
  const LinkConfig link = lossy_link();
  for (const Topology& topology : standard_topologies(2006)) {
    for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
      const ChurnConfig churn = lossy_churn(link, topology.brokers, 220);
      const ChurnTrace trace =
          workload::generate_churn_trace(churn, topology.brokers, seed);
      auto net = topology.build(lossy_net_config(link, seed));
      sim::ChurnDriver::Options options;
      options.differential = true;
      const sim::ChurnReport report = sim::ChurnDriver::run(net, trace, options);
      expect_clean(report,
                   topology.name + "/seed" + std::to_string(seed));
      EXPECT_EQ(report.membership.link_escalations, 0u) << topology.name;
    }
  }
}

TEST(LossyDifferential, MembershipChurnMatchesOracleUnderFaults) {
  const LinkConfig link = lossy_link();
  for (const MembershipTopology& topology : membership_topologies(12, 2006)) {
    for (const std::uint64_t seed : {5ull, 6ull}) {
      ChurnConfig churn = lossy_churn(
          link, topology.brokers + std::max<std::size_t>(8, topology.brokers / 16),
          200);
      churn.membership.join_rate = 0.3 / churn.slot;
      churn.membership.leave_rate = 0.2 / churn.slot;
      churn.membership.crash_rate = 0.3 / churn.slot;
      churn.membership.partition_rate = 0.5 / churn.slot;
      churn.membership.max_brokers =
          topology.brokers + std::max<std::size_t>(8, topology.brokers / 16);
      auto net = topology.build(lossy_net_config(link, seed));
      const MembershipUniverse universe = topology.universe(net);
      const ChurnTrace trace =
          workload::generate_churn_trace(churn, universe, seed);
      sim::ChurnDriver::Options options;
      options.differential = true;
      const sim::ChurnReport report = sim::ChurnDriver::run(net, trace, options);
      expect_clean(report,
                   topology.name + "/seed" + std::to_string(seed));
      EXPECT_GT(report.membership.events, 0u) << topology.name;
    }
  }
}

TEST(LossyDifferential, BurstLossEscalatesIntoMirroredFailLink) {
  LinkConfig link = lossy_link();
  link.max_retries = 4;  // short chain: bursts escalate quickly
  // No iid loss here, deliberately: a burst drops BOTH directions, so an
  // escalation can never strand an already-delivered frame on the far
  // side. With iid loss and a cap this short, "data crossed, all acks
  // lost" (~drop^(cap+1) per chain) becomes observable — which is exactly
  // why the production cap is 12, making that probability ~0.2^13.
  link.faults.drop_probability = 0.0;
  std::size_t escalations = 0;
  sim::Metrics faults_seen;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const MembershipTopology& topology : membership_topologies(12, 2006)) {
      if (topology.name != "ring" && topology.name != "chain") continue;
      ChurnConfig churn = lossy_churn(link, topology.brokers + 8, 160);
      churn.membership.partition_rate = 0.4 / churn.slot;
      churn.membership.max_brokers = topology.brokers + 8;
      churn.faults.burst_count = 4;
      // Windows far longer than the whole retransmit-backoff chain: any
      // frame sent into one deterministically exhausts the retry cap.
      churn.faults.burst_length = churn.slot * 2.5;
      auto net = topology.build(lossy_net_config(link, seed));
      const MembershipUniverse universe = topology.universe(net);
      const ChurnTrace trace =
          workload::generate_churn_trace(churn, universe, seed);
      EXPECT_EQ(trace.bursts.size(), 4u);
      sim::ChurnDriver::Options options;
      options.differential = true;
      const sim::ChurnReport report = sim::ChurnDriver::run(net, trace, options);
      expect_oracle_exact(report,
                          topology.name + "/burst-seed" + std::to_string(seed));
      escalations += report.membership.link_escalations;
      faults_seen = faults_seen + report.totals;
    }
  }
  // The scripted bursts must actually force the degradation path: the
  // delivered sets above stayed oracle-exact THROUGH retry-cap fail_links.
  EXPECT_GT(escalations, 0u);
  EXPECT_GT(faults_seen.frames_dropped, 0u);
  EXPECT_GT(faults_seen.retransmits, 0u);
  EXPECT_GT(faults_seen.dups_suppressed, 0u);
}

TEST(LossyDifferential, DeliveryIsFaultScheduleInvariant) {
  // One trace, three wires: perfect, and two different fault substreams
  // (different NetworkConfig seeds). The application-visible outcome —
  // per-publish delivered sets, checked via the shared oracle — must be
  // identical; only the transport-layer counters may differ.
  const LinkConfig link = lossy_link();
  const Topology topology = standard_topologies(2006).front();
  const ChurnConfig churn = lossy_churn(link, topology.brokers, 250);
  const ChurnTrace trace =
      workload::generate_churn_trace(churn, topology.brokers, 77);
  sim::ChurnDriver::Options options;
  options.differential = true;

  NetworkConfig perfect;
  perfect.link_latency = kLatency;
  auto perfect_net = topology.build(perfect);
  const auto baseline = sim::ChurnDriver::run(perfect_net, trace, options);
  ASSERT_EQ(baseline.mismatched_publishes, 0u);

  for (const std::uint64_t wire_seed : {100ull, 200ull}) {
    auto net = topology.build(lossy_net_config(link, wire_seed));
    const auto report = sim::ChurnDriver::run(net, trace, options);
    const std::string label = "wire-seed" + std::to_string(wire_seed);
    expect_clean(report, label);
    EXPECT_EQ(report.totals.notifications_delivered,
              baseline.totals.notifications_delivered)
        << label;
    EXPECT_EQ(report.final_live_subscriptions,
              baseline.final_live_subscriptions)
        << label;
  }
}

}  // namespace
}  // namespace psc::routing
