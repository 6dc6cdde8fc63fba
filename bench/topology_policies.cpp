// Traffic matrix: coverage policy x overlay topology.
//
// Complements the figure harnesses with the distributed view the paper's
// Section 5 argues qualitatively: the longer the broker paths, the more a
// suppressed subscription saves — the local reduction is "exponentially
// amplified in the network diameter". Measures subscription messages,
// publication messages and delivery ratio for flooding / pairwise / group
// across chain, star, balanced-tree and 3x5 grid (comb spanning tree)
// topologies of 15 brokers. Delivery and loss are judged against a
// FlatOracle fed the same subscriptions.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "routing/broker_network.hpp"
#include "routing/flat_oracle.hpp"
#include "sim/churn_driver.hpp"
#include "util/flags.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"

namespace {

using namespace psc;
using routing::BrokerId;
using routing::BrokerNetwork;
using routing::NetworkConfig;

constexpr std::size_t kBrokers = 15;

BrokerNetwork make_topology(const std::string& name, NetworkConfig config) {
  if (name == "chain") return BrokerNetwork::chain_topology(kBrokers, config);
  if (name == "grid") return BrokerNetwork::grid_topology(3, 5, config);
  BrokerNetwork net(config);
  for (std::size_t i = 0; i < kBrokers; ++i) net.add_broker();
  if (name == "star") {
    for (BrokerId leaf = 1; leaf < kBrokers; ++leaf) net.connect(0, leaf);
  } else if (name == "tree") {
    for (BrokerId child = 1; child < kBrokers; ++child) {
      net.connect((child - 1) / 2, child);  // balanced binary tree
    }
  } else {
    throw std::invalid_argument("unknown topology " + name);
  }
  return net;
}

const char* policy_name(store::CoveragePolicy policy) {
  switch (policy) {
    case store::CoveragePolicy::kNone: return "flood";
    case store::CoveragePolicy::kPairwise: return "pair";
    case store::CoveragePolicy::kGroup: return "group";
    case store::CoveragePolicy::kExact: return "exact";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) try {
  const bench::HarnessArgs args(argc, argv, {"subs", "pubs"});
  const util::Flags& flags = args.flags;
  const auto subs = static_cast<std::size_t>(flags.get_int("subs", 150));
  const auto pubs = static_cast<std::size_t>(flags.get_int("pubs", 300));
  util::Timer timer;

  util::print_banner(std::cout, "Distributed traffic: coverage policy x topology",
                     std::to_string(kBrokers) + " brokers, " + std::to_string(subs) +
                         " subscriptions, " + std::to_string(pubs) + " publications");

  util::TableWriter table({"topology", "policy", "sub_msgs", "suppressed",
                           "pub_msgs", "delivery", "lost"},
                          4);

  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 8;
  stream_config.min_constrained = 3;
  stream_config.max_constrained = 6;

  for (const std::string topology : {"chain", "star", "tree", "grid"}) {
    for (const auto policy :
         {store::CoveragePolicy::kNone, store::CoveragePolicy::kPairwise,
          store::CoveragePolicy::kGroup}) {
      NetworkConfig config;
      config.store.policy = policy;
      config.store.engine.delta = 1e-6;
      config.store.engine.max_iterations = 20'000;
      auto net = make_topology(topology, config);
      routing::FlatOracle oracle;
      sim::Metrics judged;  // delivered and lost, against the oracle
      std::vector<core::SubscriptionId> expected;

      workload::ComparisonStream stream(stream_config, args.seed);
      util::Rng rng(args.seed ^ 0x70f0);
      for (std::size_t i = 0; i < subs; ++i) {
        const auto home = static_cast<BrokerId>(rng.next_below(kBrokers));
        const core::Subscription sub = stream.next();
        net.subscribe(home, sub);
        oracle.subscribe(home, sub);
      }
      for (std::size_t i = 0; i < pubs; ++i) {
        const core::Publication pub = workload::uniform_publication(
            stream_config.attribute_count, stream_config.domain_lo,
            stream_config.domain_hi, rng);
        const auto from = static_cast<BrokerId>(rng.next_below(kBrokers));
        const auto delivered = net.publish(from, pub);
        oracle.publish(pub, expected);
        const sim::PublishVerdict verdict =
            sim::judge_publish(delivered, expected, expected);
        judged.notifications_delivered += verdict.delivered;
        judged.notifications_lost += verdict.lost;
      }
      table.add_row({topology, std::string(policy_name(policy)),
                     static_cast<long long>(net.metrics().subscription_messages),
                     static_cast<long long>(net.metrics().subscriptions_suppressed),
                     static_cast<long long>(net.metrics().publication_messages),
                     judged.delivery_ratio(),
                     static_cast<long long>(judged.notifications_lost)});
    }
  }
  bench::finish(table, args, timer);
  return 0;
} catch (const std::invalid_argument& error) {
  std::cerr << "topology_policies: " << error.what() << "\n";
  return 2;
}
