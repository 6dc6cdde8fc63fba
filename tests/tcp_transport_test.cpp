// TCP loopback differential suite (tier 1): a real multi-process broker
// cluster — psc_brokerd processes peered over nonblocking epoll sockets —
// replaying churn traces with delivered sets gated byte-identical against
// the in-process FlatOracle, exactly like the sim's differential suites.
//
// Also the direct sim-vs-TCP leg: the same trace through a BrokerNetwork
// (SimTransport) and through the cluster must produce identical delivered
// sets publish for publish. Both are independently gated against the
// oracle, so this is implied transitively — asserting it directly makes a
// transport-behavior regression point at the transport, not the gate.
//
// The kill leg SIGKILLs a broker mid-trace: every surviving neighbour's
// EOF-triggered purge (the fail_link repair semantics) must quiesce before
// traffic resumes, and the oracle mirrors the crash — zero divergence,
// zero ghost deliveries from the dead component.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/cluster.hpp"
#include "net/cluster_driver.hpp"
#include "routing/broker_network.hpp"
#include "workload/churn_workload.hpp"

#ifndef PSC_BROKERD_BIN
#error "PSC_BROKERD_BIN must point at the psc_brokerd executable"
#endif

namespace psc {
namespace {

using Link = std::pair<routing::BrokerId, routing::BrokerId>;

workload::ChurnTrace make_trace(std::size_t brokers, std::uint64_t seed,
                                double duration) {
  workload::ChurnConfig config;
  config.duration = duration;
  // The TCP op vocabulary is TTL-free (wall clock is not sim time) and
  // membership-free (kills are driver-initiated). ttl_fraction = 0 routes
  // every mortal subscription through an explicit kUnsubscribe instead.
  config.ttl_fraction = 0.0;
  return workload::generate_churn_trace(config, brokers, seed);
}

net::ClusterOptions chain_options(std::size_t brokers, std::uint64_t seed) {
  net::ClusterOptions options;
  options.brokerd_path = PSC_BROKERD_BIN;
  options.brokers = brokers;
  for (routing::BrokerId b = 1; b < brokers; ++b) {
    options.links.emplace_back(b - 1, b);
  }
  options.seed = seed;
  return options;
}

TEST(TcpTransportTest, FiveBrokerChainMatchesOracle) {
  const auto trace = make_trace(5, 0x5eed1, 20.0);
  net::Cluster cluster(chain_options(5, 0x5eed1));
  cluster.start();
  const net::ReplayReport report =
      net::replay_trace_vs_oracle(cluster, trace);
  cluster.shutdown();
  EXPECT_GT(report.publishes, 0u);
  EXPECT_GT(report.subscribes, 0u);
  EXPECT_EQ(report.divergences, 0u);
  EXPECT_EQ(report.skipped, 0u);
}

TEST(TcpTransportTest, SeedAboveInt64MaxMatchesOracle) {
  // psc_brokerd parses --seed as an unsigned 64-bit value: a network seed
  // at or above 2^63 must reach every broker intact.
  const std::uint64_t seed = (1ULL << 63) + 5;
  const auto trace = make_trace(3, 0x5eed6, 10.0);
  net::Cluster cluster(chain_options(3, seed));
  cluster.start();
  const net::ReplayReport report =
      net::replay_trace_vs_oracle(cluster, trace);
  cluster.shutdown();
  EXPECT_GT(report.publishes, 0u);
  EXPECT_EQ(report.divergences, 0u);
  EXPECT_EQ(report.skipped, 0u);
}

TEST(TcpTransportTest, RejectsLinksThatAreNotAForest) {
  // Closing the chain into a ring, or repeating a link, is refused before
  // any broker is spawned.
  net::ClusterOptions ring = chain_options(4, 0x5eed7);
  ring.links.emplace_back(3, 0);
  EXPECT_THROW(net::Cluster{std::move(ring)}, std::runtime_error);
  net::ClusterOptions repeated = chain_options(3, 0x5eed7);
  repeated.links.emplace_back(1, 0);
  EXPECT_THROW(net::Cluster{std::move(repeated)}, std::runtime_error);
}

TEST(TcpTransportTest, StarTopologyMatchesOracle) {
  net::ClusterOptions options;
  options.brokerd_path = PSC_BROKERD_BIN;
  options.brokers = 5;
  options.links = {{0, 1}, {0, 2}, {0, 3}, {0, 4}};
  options.seed = 0x5eed2;
  const auto trace = make_trace(5, 0x5eed2, 15.0);
  net::Cluster cluster(std::move(options));
  cluster.start();
  const net::ReplayReport report =
      net::replay_trace_vs_oracle(cluster, trace);
  cluster.shutdown();
  EXPECT_GT(report.publishes, 0u);
  EXPECT_EQ(report.divergences, 0u);
}

TEST(TcpTransportTest, DeliveredSetsMatchSimTransportPublishForPublish) {
  const std::uint64_t seed = 0x5eed3;
  const auto trace = make_trace(5, seed, 15.0);

  // Sim twin: same chain, same seed, the differential kExact store policy
  // the brokerd default uses — decisions are deterministic on both sides.
  routing::NetworkConfig config;
  config.seed = seed;
  config.store.policy = store::CoveragePolicy::kExact;
  auto sim_net = routing::BrokerNetwork::chain_topology(5, config);

  net::Cluster cluster(chain_options(5, seed));
  cluster.start();

  std::size_t publishes = 0;
  for (const workload::ChurnOp& op : trace.ops) {
    switch (op.kind) {
      case workload::ChurnOpKind::kSubscribe:
        sim_net.subscribe(op.broker, op.sub);
        cluster.subscribe(op.broker, op.sub);
        break;
      case workload::ChurnOpKind::kUnsubscribe: {
        sim_net.unsubscribe(op.broker, op.id);
        cluster.unsubscribe(op.broker, op.id);
        break;
      }
      case workload::ChurnOpKind::kPublish: {
        const auto sim_got = sim_net.publish(op.broker, op.pub);
        const auto tcp_got = cluster.publish(op.broker, op.pub);
        EXPECT_EQ(sim_got, tcp_got) << "publish #" << publishes;
        ++publishes;
        break;
      }
      default:
        break;  // kAdvance: wall clock needs no driving
    }
  }
  cluster.shutdown();
  EXPECT_GT(publishes, 0u);
}

TEST(TcpTransportTest, KillBrokerMidTraceEscalatesWithoutDivergence) {
  const std::uint64_t seed = 0x5eed4;
  const auto trace = make_trace(5, seed, 20.0);
  net::Cluster cluster(chain_options(5, seed));
  cluster.start();

  net::ReplayOptions options;
  options.kill_at_op = trace.ops.size() / 2;
  options.victim = 2;  // mid-chain: splits {0,1} from {3,4}
  const net::ReplayReport report =
      net::replay_trace_vs_oracle(cluster, trace, options);
  EXPECT_FALSE(cluster.is_alive(2));
  EXPECT_TRUE(cluster.is_alive(0));
  cluster.shutdown();
  EXPECT_TRUE(report.killed);
  EXPECT_GT(report.publishes, 0u);
  EXPECT_EQ(report.divergences, 0u);
}

TEST(TcpTransportTest, KillLeafPurgesItsSubscriptionsEverywhere) {
  // Targeted (non-trace) scenario: subs at a leaf must stop being
  // delivered the moment the leaf dies and its neighbour's purge ran.
  net::Cluster cluster(chain_options(3, 0x5eed5));
  cluster.start();
  cluster.subscribe(2, core::Subscription({{0.0, 100.0}}, 1));
  cluster.subscribe(0, core::Subscription({{0.0, 100.0}}, 2));

  auto delivered = cluster.publish(1, core::Publication({50.0}));
  EXPECT_EQ(delivered, (std::vector<core::SubscriptionId>{1, 2}));

  cluster.kill_broker(2);
  delivered = cluster.publish(1, core::Publication({50.0}));
  // Route to the dead leaf purged: only the surviving sub delivers, and no
  // ghost route makes broker 1 forward into the void.
  EXPECT_EQ(delivered, (std::vector<core::SubscriptionId>{2}));
  cluster.shutdown();
}

}  // namespace
}  // namespace psc
