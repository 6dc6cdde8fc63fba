// Broker network — the paper's Figure 1 walk-through, end to end on the
// discrete-event simulator, then a policy shoot-out on the same topology.
//
// Nine brokers; subscriber S1 at B1, S2 at B6; publishers P1 at B9,
// P2 at B5. s2 is covered by s1, so reverse-path forwarding with covering
// suppresses most of s2's flood; notifications still reach both
// subscribers along the delivery trees the paper draws. A FlatOracle fed
// the same client ops judges every delivered set: an expected subscriber
// that received nothing is a lost notification.
#include <iostream>
#include <vector>

#include "core/publication.hpp"
#include "routing/broker_network.hpp"
#include "routing/flat_oracle.hpp"
#include "sim/churn_driver.hpp"
#include "util/rng.hpp"
#include "workload/publications.hpp"

namespace {

using namespace psc;
using core::Interval;
using core::Publication;
using core::Subscription;
using routing::BrokerId;
using routing::BrokerNetwork;
using routing::FlatOracle;
using routing::NetworkConfig;

BrokerId B(int n) { return static_cast<BrokerId>(n - 1); }

NetworkConfig with_policy(store::CoveragePolicy policy) {
  NetworkConfig config;
  config.store.policy = policy;
  return config;
}

const char* policy_name(store::CoveragePolicy policy) {
  switch (policy) {
    case store::CoveragePolicy::kNone: return "flooding ";
    case store::CoveragePolicy::kPairwise: return "pairwise ";
    case store::CoveragePolicy::kGroup: return "group    ";
    case store::CoveragePolicy::kExact: return "exact    ";
  }
  return "?";
}

/// Publishes on the network and judges the delivered set against the
/// oracle, adding to `judged`'s delivered and lost counts.
std::vector<core::SubscriptionId> publish_judged(BrokerNetwork& net,
                                                 FlatOracle& oracle,
                                                 BrokerId from,
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

}  // namespace

int main() {
  // --- Part 1: the paper's example, step by step -------------------------
  auto net = BrokerNetwork::figure1_topology(
      with_policy(store::CoveragePolicy::kPairwise));
  FlatOracle oracle;
  sim::Metrics judged;

  const Subscription s1({Interval{0, 10}, Interval{0, 10}}, 1);   // S1 at B1
  const Subscription s2({Interval{2, 8}, Interval{2, 8}}, 2);     // S2 at B6

  net.subscribe(B(1), s1);
  oracle.subscribe(B(1), s1);
  std::cout << "s1 flooded: " << net.metrics().subscription_messages
            << " messages (8 links, each crossed once)\n";

  const auto before = net.metrics().subscription_messages;
  net.subscribe(B(6), s2);
  oracle.subscribe(B(6), s2);
  std::cout << "s2 (covered by s1): only "
            << net.metrics().subscription_messages - before
            << " further messages, " << net.metrics().subscriptions_suppressed
            << " link(s) suppressed by covering\n";

  // P1 at B9 publishes n1 matching s2 (hence also s1): the delivery tree
  // B9-B7-B4-B3-B1 + B4-B6 from the paper.
  auto delivered =
      publish_judged(net, oracle, B(9), Publication({5.0, 5.0}, 1), judged);
  std::cout << "n1 from B9 delivered to " << delivered.size()
            << " subscribers (s1 and s2)\n";

  // P2 at B5 publishes n2 matching only s1: tree B5-B4-B3-B1.
  delivered =
      publish_judged(net, oracle, B(5), Publication({9.5, 9.5}, 2), judged);
  std::cout << "n2 from B5 delivered to " << delivered.size()
            << " subscriber (s1)\n";
  std::cout << "lost notifications: " << judged.notifications_lost
            << "\n\n";

  // --- Part 2: policy shoot-out on the same topology ---------------------
  // 60 clustered subscriptions spread over the leaf brokers, then 200
  // publications from the two publisher brokers. Compare subscription
  // traffic, publication traffic and delivery for the three policies.
  std::cout << "policy     sub_msgs  suppressed  pub_msgs  delivered  lost\n";
  for (const auto policy :
       {store::CoveragePolicy::kNone, store::CoveragePolicy::kPairwise,
        store::CoveragePolicy::kGroup}) {
    auto arena = BrokerNetwork::figure1_topology(with_policy(policy));
    FlatOracle arena_oracle;
    sim::Metrics arena_judged;
    util::Rng rng(99);
    core::SubscriptionId id = 1;
    const BrokerId leaves[] = {B(1), B(2), B(5), B(6), B(8), B(9)};
    for (int i = 0; i < 60; ++i) {
      const double lo1 = rng.uniform(0, 40), lo2 = rng.uniform(0, 40);
      const Subscription sub({Interval{lo1, lo1 + rng.uniform(20, 60)},
                              Interval{lo2, lo2 + rng.uniform(20, 60)}},
                             id++);
      const BrokerId home = leaves[rng.next_below(6)];
      arena.subscribe(home, sub);
      arena_oracle.subscribe(home, sub);
    }
    const auto subs_msgs = arena.metrics().subscription_messages;
    for (int i = 0; i < 200; ++i) {
      const BrokerId from = (i % 2 == 0) ? B(9) : B(5);
      (void)publish_judged(
          arena, arena_oracle, from,
          Publication({rng.uniform(0, 100), rng.uniform(0, 100)}),
          arena_judged);
    }
    std::cout << policy_name(policy) << "  " << subs_msgs << "       "
              << arena.metrics().subscriptions_suppressed << "          "
              << arena.metrics().publication_messages << "      "
              << arena_judged.notifications_delivered << "        "
              << arena_judged.notifications_lost << "\n";
  }
  std::cout << "\n(flooding pays in subscription traffic; covering pays a\n"
               " tiny probabilistic-loss risk for large savings — Section 5)\n";
  return 0;
}
