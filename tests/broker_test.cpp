// Direct unit tests for the Broker node logic (routing table, per-link
// coverage state, duplicate suppression) independent of the network/event
// machinery.
#include "routing/broker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"

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

store::StoreConfig pairwise() {
  store::StoreConfig config;
  config.policy = store::CoveragePolicy::kPairwise;
  return config;
}

Broker make_broker(std::initializer_list<BrokerId> neighbors,
                   store::StoreConfig config = pairwise()) {
  Broker broker(0, config, /*seed=*/1);
  for (const BrokerId n : neighbors) broker.add_neighbor(n);
  return broker;
}

TEST(Broker, ForwardsToAllNeighborsExceptOrigin) {
  Broker broker = make_broker({1, 2, 3});
  const auto targets =
      broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{false, 2});
  EXPECT_EQ(targets, (std::vector<BrokerId>{1, 3}));
}

TEST(Broker, LocalSubscriptionForwardsEverywhere) {
  Broker broker = make_broker({1, 2});
  const auto targets = broker.handle_subscription(box2(0, 10, 0, 10, 1),
                                                  Origin{true, kInvalidBroker});
  EXPECT_EQ(targets, (std::vector<BrokerId>{1, 2}));
  EXPECT_EQ(broker.routing_table_size(), 1u);
}

TEST(Broker, DuplicateSubscriptionNotReforwarded) {
  Broker broker = make_broker({1, 2});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{false, 1});
  const auto second =
      broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{false, 2});
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(broker.routing_table_size(), 1u);
}

TEST(Broker, CoverageSuppressesPerLink) {
  Broker broker = make_broker({1});
  std::uint64_t suppressed = 0;
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{true, kInvalidBroker},
                                   &suppressed);
  EXPECT_EQ(suppressed, 0u);
  const auto covered = broker.handle_subscription(
      box2(2, 8, 2, 8, 2), Origin{true, kInvalidBroker}, &suppressed);
  EXPECT_TRUE(covered.empty());
  EXPECT_EQ(suppressed, 1u);
  // Both subscriptions are still routed locally.
  EXPECT_EQ(broker.routing_table_size(), 2u);
  // The link store knows one active + one covered.
  const auto* link = broker.forwarded_store(1);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->active_count(), 1u);
  EXPECT_EQ(link->covered_count(), 1u);
}

TEST(Broker, PublicationRoutedAlongReversePaths) {
  Broker broker = make_broker({1, 2, 3});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{false, 1});
  (void)broker.handle_subscription(box2(20, 30, 0, 10, 2), Origin{false, 2});
  (void)broker.handle_subscription(box2(0, 5, 0, 5, 3), Origin{true, kInvalidBroker});

  std::vector<SubscriptionId> local;
  auto destinations =
      broker.handle_publication(Publication({3.0, 3.0}), Origin{false, 3}, local);
  std::sort(destinations.begin(), destinations.end());
  EXPECT_EQ(destinations, (std::vector<BrokerId>{1}));
  EXPECT_EQ(local, (std::vector<SubscriptionId>{3}));
}

TEST(Broker, PublicationNeverSentBackToOrigin) {
  Broker broker = make_broker({1, 2});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{false, 1});
  std::vector<SubscriptionId> local;
  const auto destinations =
      broker.handle_publication(Publication({5.0, 5.0}), Origin{false, 1}, local);
  EXPECT_TRUE(destinations.empty());
  EXPECT_TRUE(local.empty());
}

TEST(Broker, UnsubscriptionOnlyToLinksThatCarriedIt) {
  Broker broker = make_broker({1, 2});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{true, kInvalidBroker});
  (void)broker.handle_subscription(box2(2, 8, 2, 8, 2), Origin{true, kInvalidBroker});
  // #2 was suppressed on both links; unsubscribing it forwards nowhere.
  const auto outcome2 = broker.handle_unsubscription(2, Origin{true, kInvalidBroker});
  EXPECT_TRUE(outcome2.forward_to.empty());
  EXPECT_TRUE(outcome2.reannounce.empty());
}

TEST(Broker, UnsubscriptionReannouncesPromotedCoveredSubs) {
  Broker broker = make_broker({1});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{true, kInvalidBroker});
  (void)broker.handle_subscription(box2(2, 8, 2, 8, 2), Origin{true, kInvalidBroker});
  const auto outcome = broker.handle_unsubscription(1, Origin{true, kInvalidBroker});
  EXPECT_EQ(outcome.forward_to, (std::vector<BrokerId>{1}));
  ASSERT_EQ(outcome.reannounce.size(), 1u);
  EXPECT_EQ(outcome.reannounce[0].first, 1u);
  EXPECT_EQ(outcome.reannounce[0].second.id(), 2u);
}

TEST(Broker, UnknownUnsubscriptionIsNoop) {
  Broker broker = make_broker({1});
  const auto outcome = broker.handle_unsubscription(99, Origin{true, kInvalidBroker});
  EXPECT_TRUE(outcome.forward_to.empty());
}

TEST(Broker, ExpiryDropsRouteAndReannounces) {
  Broker broker = make_broker({1});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{true, kInvalidBroker});
  (void)broker.handle_subscription(box2(2, 8, 2, 8, 2), Origin{true, kInvalidBroker});
  const auto reannounce = broker.handle_expiry(1);
  EXPECT_EQ(broker.routing_table_size(), 1u);
  ASSERT_EQ(reannounce.size(), 1u);
  EXPECT_EQ(reannounce[0].second.id(), 2u);
}

TEST(Broker, SubscriptionsFromFiltersByOrigin) {
  Broker broker = make_broker({1, 2});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{false, 1});
  (void)broker.handle_subscription(box2(20, 30, 0, 10, 2), Origin{false, 2});
  (void)broker.handle_subscription(box2(40, 50, 0, 10, 3), Origin{false, 1});
  auto from1 = broker.subscriptions_from(Origin{false, 1});
  std::sort(from1.begin(), from1.end());
  EXPECT_EQ(from1, (std::vector<SubscriptionId>{1, 3}));
}

TEST(Broker, AddNeighborIdempotent) {
  Broker broker = make_broker({1, 1, 1});
  EXPECT_EQ(broker.neighbors().size(), 1u);
}

// --- publication routes vs a brute-force reference ------------------------
//
// The reference scans routed_ids(), classifies each id by the origin the
// test recorded for it, checks box containment, and applies never-send-back:
// local deliveries ascending, destinations in first-match order (by the
// minimum matching id of each neighbour). The broker must reproduce it
// exactly — contents and order — for every match_shards value (accepted
// and ignored), from every origin, across subscribe, unsubscribe, expiry,
// remove_neighbor, and import_snapshot.

constexpr std::size_t kAttrs = 4;

struct RouteModel {
  /// What the test inserted: id -> (subscription, origin).
  std::unordered_map<SubscriptionId, std::pair<Subscription, Origin>> routes;

  Broker::PublicationRoute expected(const Broker& broker,
                                    const Publication& pub,
                                    const Origin& from) const {
    Broker::PublicationRoute route;
    std::vector<std::pair<SubscriptionId, BrokerId>> first_match;
    for (const SubscriptionId id : broker.routed_ids()) {  // ascending
      const auto& [sub, origin] = routes.at(id);
      if (!pub.matches(sub)) continue;
      if (origin.local) {
        route.local_matches.push_back(id);
        continue;
      }
      if (!from.local && origin.neighbor == from.neighbor) continue;
      const bool seen = std::any_of(
          first_match.begin(), first_match.end(),
          [&](const auto& entry) { return entry.second == origin.neighbor; });
      if (!seen) first_match.emplace_back(id, origin.neighbor);
    }
    for (const auto& entry : first_match) {
      route.destinations.push_back(entry.second);
    }
    return route;
  }
};

void expect_routes_match(const Broker& broker, const RouteModel& model,
                         const std::vector<Publication>& pubs,
                         const std::string& what) {
  ASSERT_EQ(broker.routing_table_size(), model.routes.size()) << what;
  Broker::PublishScratch scratch;
  for (const Origin& from : {Origin{true, kInvalidBroker}, Origin{false, 1},
                             Origin{false, 2}, Origin{false, 3}}) {
    const std::string where =
        what + " from " +
        (from.local ? std::string("local") : std::to_string(from.neighbor));
    for (std::size_t p = 0; p < pubs.size(); ++p) {
      const Broker::PublicationRoute expected =
          model.expected(broker, pubs[p], from);
      const Broker::PublicationRoute& route =
          broker.handle_publication(pubs[p], from, scratch);
      ASSERT_EQ(route.local_matches, expected.local_matches)
          << where << " pub " << p;
      ASSERT_EQ(route.destinations, expected.destinations)
          << where << " pub " << p;
      std::vector<SubscriptionId> local;
      EXPECT_EQ(broker.handle_publication(pubs[p], from, local),
                expected.destinations)
          << where << " pub " << p;
      EXPECT_EQ(local, expected.local_matches) << where << " pub " << p;
    }
  }
}

TEST(Broker, PublicationRoutesMatchBruteForceReference) {
  for (const std::size_t shards : {1UL, 2UL, 8UL}) {
    const std::string tag = "shards=" + std::to_string(shards);
    Broker broker(0, pairwise(), 2006, shards);
    for (const BrokerId n : {1u, 2u, 3u}) broker.add_neighbor(n);
    RouteModel model;

    workload::ComparisonConfig stream_config;
    stream_config.attribute_count = kAttrs;
    stream_config.max_constrained = 3;
    workload::ComparisonStream stream(stream_config, 41);
    util::Rng rng(42);
    const auto subscribe = [&](std::size_t count) {
      for (std::size_t i = 0; i < count; ++i) {
        const auto draw = rng.next_below(4);
        const Origin origin = draw == 0
                                  ? Origin{true, kInvalidBroker}
                                  : Origin{false, static_cast<BrokerId>(draw)};
        Subscription sub = stream.next();
        (void)broker.handle_subscription(sub, origin);
        model.routes.emplace(sub.id(), std::make_pair(std::move(sub), origin));
      }
    };
    std::vector<Publication> pubs;
    for (int i = 0; i < 40; ++i) {
      pubs.push_back(workload::uniform_publication(kAttrs, 0.0, 1000.0, rng));
    }

    subscribe(600);
    expect_routes_match(broker, model, pubs, tag + " subscribe");

    std::vector<SubscriptionId> ids = broker.routed_ids();
    for (std::size_t i = 0; i < ids.size(); i += 3) {
      (void)broker.handle_unsubscription(ids[i], model.routes.at(ids[i]).second);
      model.routes.erase(ids[i]);
    }
    expect_routes_match(broker, model, pubs, tag + " unsubscribe");

    ids = broker.routed_ids();
    for (std::size_t i = 0; i < ids.size(); i += 5) {
      (void)broker.handle_expiry(ids[i]);
      model.routes.erase(ids[i]);
    }
    expect_routes_match(broker, model, pubs, tag + " expiry");

    // Detaching a link keeps its routes until they are purged; purging
    // them (as the network's detach cascade does) empties that lane.
    broker.remove_neighbor(2);
    expect_routes_match(broker, model, pubs, tag + " detach");
    for (const SubscriptionId id : broker.subscriptions_from(Origin{false, 2})) {
      (void)broker.handle_unsubscription(id, Origin{false, 2});
      model.routes.erase(id);
    }
    expect_routes_match(broker, model, pubs, tag + " purge");

    // A lane emptied while its link is still up is dropped as well; the
    // next route over that link re-creates it.
    for (const SubscriptionId id : broker.subscriptions_from(Origin{false, 3})) {
      (void)broker.handle_unsubscription(id, Origin{false, 3});
      model.routes.erase(id);
    }
    expect_routes_match(broker, model, pubs, tag + " empty attached lane");

    // Re-attach and learn fresh routes over the link again.
    broker.add_neighbor(2);
    (void)broker.announce_all_to(2);
    subscribe(150);
    expect_routes_match(broker, model, pubs, tag + " reattach");

    Broker restored(0, pairwise(), 2006, shards);
    for (const BrokerId n : broker.neighbors()) restored.add_neighbor(n);
    restored.import_snapshot(broker.export_snapshot());
    expect_routes_match(restored, model, pubs, tag + " import_snapshot");
    for (const auto& record : restored.export_snapshot().routes) {
      const auto& [sub, origin] = model.routes.at(record.sub.id());
      EXPECT_EQ(record.sub, sub);
      EXPECT_EQ(record.origin, origin);
    }
  }
}

}  // namespace
}  // namespace psc::routing
