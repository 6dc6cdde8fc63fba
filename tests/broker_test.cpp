// Direct unit tests for the Broker node logic (routing table, per-link
// coverage state, duplicate suppression) independent of the network/event
// machinery.
#include "routing/broker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
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
using store::CoveragePolicy;
using store::SubscriptionStore;
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

  Broker::PublishScratch scratch;
  const Broker::PublicationRoute& route = broker.handle_publication(
      Publication({3.0, 3.0}), Origin{false, 3}, scratch);
  EXPECT_EQ(route.destinations, (std::vector<BrokerId>{1}));
  EXPECT_EQ(route.local_matches, (std::vector<SubscriptionId>{3}));
}

TEST(Broker, PublicationNeverSentBackToOrigin) {
  Broker broker = make_broker({1, 2});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{false, 1});
  Broker::PublishScratch scratch;
  const Broker::PublicationRoute& route = broker.handle_publication(
      Publication({5.0, 5.0}), Origin{false, 1}, scratch);
  EXPECT_TRUE(route.destinations.empty());
  EXPECT_TRUE(route.local_matches.empty());
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
// exactly — contents and order — from every origin, across subscribe,
// unsubscribe, expiry, remove_neighbor, and import_snapshot.

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
    }
  }
}

TEST(Broker, PublicationRoutesMatchBruteForceReference) {
  Broker broker(0, pairwise(), 2006);
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
  expect_routes_match(broker, model, pubs, "subscribe");

  std::vector<SubscriptionId> ids = broker.routed_ids();
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    (void)broker.handle_unsubscription(ids[i], model.routes.at(ids[i]).second);
    model.routes.erase(ids[i]);
  }
  expect_routes_match(broker, model, pubs, "unsubscribe");

  ids = broker.routed_ids();
  for (std::size_t i = 0; i < ids.size(); i += 5) {
    (void)broker.handle_expiry(ids[i]);
    model.routes.erase(ids[i]);
  }
  expect_routes_match(broker, model, pubs, "expiry");

  // Detaching a link keeps its routes until they are purged; purging
  // them (as the network's detach cascade does) empties that lane.
  broker.remove_neighbor(2);
  expect_routes_match(broker, model, pubs, "detach");
  for (const SubscriptionId id : broker.subscriptions_from(Origin{false, 2})) {
    (void)broker.handle_unsubscription(id, Origin{false, 2});
    model.routes.erase(id);
  }
  expect_routes_match(broker, model, pubs, "purge");

  // A lane emptied while its link is still up is dropped as well; the
  // next route over that link re-creates it.
  for (const SubscriptionId id : broker.subscriptions_from(Origin{false, 3})) {
    (void)broker.handle_unsubscription(id, Origin{false, 3});
    model.routes.erase(id);
  }
  expect_routes_match(broker, model, pubs, "empty attached lane");

  // Re-attach and learn fresh routes over the link again.
  broker.add_neighbor(2);
  (void)broker.announce_all_to(2);
  subscribe(150);
  expect_routes_match(broker, model, pubs, "reattach");

  Broker restored(0, pairwise(), 2006);
  for (const BrokerId n : broker.neighbors()) restored.add_neighbor(n);
  restored.import_snapshot(broker.export_snapshot());
  expect_routes_match(restored, model, pubs, "import_snapshot");
  for (const auto& record : restored.export_snapshot().routes) {
    const auto& [sub, origin] = model.routes.at(record.sub.id());
    EXPECT_EQ(record.sub, sub);
    EXPECT_EQ(record.origin, origin);
  }
}

// --- link-store snapshots must agree with the routing table ---------------

/// A broker with one link (to 1) that holds both an active (#1) and a
/// covered (#2) entry, plus its exported image.
Broker::Snapshot two_entry_snapshot() {
  Broker broker = make_broker({1, 2});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{true, kInvalidBroker});
  (void)broker.handle_subscription(box2(2, 8, 2, 8, 2), Origin{false, 2});
  const auto* link = broker.forwarded_store(1);
  EXPECT_TRUE(link->is_active(1));
  EXPECT_TRUE(link->contains(2) && !link->is_active(2));
  return broker.export_snapshot();
}

void expect_import_rejected(const Broker::Snapshot& snapshot, const std::string& what) {
  Broker fresh = make_broker({1, 2});
  EXPECT_THROW(fresh.import_snapshot(snapshot), std::invalid_argument) << what;
}

TEST(Broker, ImportRejectsLinkIdsTheRoutingTableDoesNotHold) {
  {
    Broker fresh = make_broker({1, 2});
    EXPECT_NO_THROW(fresh.import_snapshot(two_entry_snapshot()));
  }
  for (const SubscriptionId id : {1u, 2u}) {  // active, then covered
    const std::string which = id == 1 ? "active" : "covered";
    const auto route_of =
        [id](Broker::Snapshot& snapshot) -> Broker::Snapshot::RouteRecord& {
      return *std::find_if(
          snapshot.routes.begin(), snapshot.routes.end(),
          [id](const auto& record) { return record.sub.id() == id; });
    };

    Broker::Snapshot unrouted = two_entry_snapshot();
    std::erase_if(unrouted.routes,
                  [id](const auto& record) { return record.sub.id() == id; });
    expect_import_rejected(unrouted, which + " id not routed");

    Broker::Snapshot other_box = two_entry_snapshot();
    route_of(other_box).sub = box2(3, 7, 3, 7, id);
    expect_import_rejected(other_box, which + " id routed with another box");

    Broker::Snapshot from_link = two_entry_snapshot();
    route_of(from_link).origin = Origin{false, 1};
    expect_import_rejected(from_link, which + " id routed from the link's neighbour");
  }
}

// --- link stores vs standalone own-index stores ---------------------------
//
// A link store keeps no index: on the index path its coverage queries run
// on the broker's publish lanes and keep the ids active on the link. The
// reference here is, per link, a standalone store with its own index, the
// link's config and per-link seed, fed the insert/erase stream the broker
// feeds that link. After every op (subscribe, duplicate subscribe,
// unsubscribe, expiry, remove_neighbor, re-attach with announce_all_to)
// each link store's actives in slot order, covered entries with their
// coverer lists, cover DAG and engine RNG state must equal the
// reference's, and so must the forwards, announcements and promotions the
// broker reports.

void expect_same_store(const SubscriptionStore& got, const SubscriptionStore& want,
                       const std::string& what) {
  const auto a = got.export_snapshot();
  const auto b = want.export_snapshot();
  const auto ids = [](const std::vector<Subscription>& subs) {
    std::vector<SubscriptionId> out;
    for (const Subscription& sub : subs) out.push_back(sub.id());
    return out;
  };
  ASSERT_EQ(ids(a.actives), ids(b.actives)) << what << ": active slots";
  ASSERT_EQ(a.covered.size(), b.covered.size()) << what << ": covered count";
  for (std::size_t i = 0; i < a.covered.size(); ++i) {
    ASSERT_EQ(a.covered[i].sub.id(), b.covered[i].sub.id()) << what << ": covered ids";
    ASSERT_EQ(a.covered[i].coverers, b.covered[i].coverers)
        << what << ": coverers of " << a.covered[i].sub.id();
  }
  ASSERT_EQ(a.children.size(), b.children.size()) << what << ": cover DAG";
  for (std::size_t i = 0; i < a.children.size(); ++i) {
    ASSERT_EQ(a.children[i].coverer, b.children[i].coverer) << what << ": cover DAG";
    ASSERT_EQ(a.children[i].covered_ids, b.children[i].covered_ids)
        << what << ": children of " << a.children[i].coverer;
  }
  ASSERT_EQ(a.group_checks, b.group_checks) << what << ": group checks";
  ASSERT_EQ(a.engine_rng_state, b.engine_rng_state) << what << ": engine RNG";
}

/// A box on the integer grid [0, 20]^2, often wide enough to cover others.
Subscription grid_box2(SubscriptionId id, util::Rng& rng) {
  const bool wide = rng.bernoulli(0.2);
  std::vector<Interval> ranges(2);
  for (auto& range : ranges) {
    const auto width = wide ? rng.uniform_int(6, 14) : rng.uniform_int(1, 6);
    const auto lo = rng.uniform_int(0, 20 - width);
    range = {static_cast<double>(lo), static_cast<double>(lo + width)};
  }
  return Subscription(std::move(ranges), id);
}

void run_link_store_differential(CoveragePolicy policy, std::uint64_t seed) {
  constexpr std::uint64_t kBrokerSeed = 77;
  store::StoreConfig config;
  config.policy = policy;
  config.index.domain_hi = 20.0;
  config.index.bucket_count = 16;
  store::StoreConfig link_config = config;
  link_config.demote_covered_actives = false;

  Broker broker(0, config, kBrokerSeed);
  std::vector<BrokerId> attached = {1, 2, 3};
  for (const BrokerId n : attached) broker.add_neighbor(n);

  std::map<BrokerId, SubscriptionStore> reference;
  const auto reference_link = [&](BrokerId n) -> SubscriptionStore& {
    auto it = reference.find(n);
    if (it == reference.end()) {
      it = reference.try_emplace(n, link_config, link_seed(kBrokerSeed, 0, n)).first;
    }
    return it->second;
  };
  std::map<SubscriptionId, std::pair<Subscription, Origin>> routes;
  util::Rng rng(seed);
  SubscriptionId next_id = 1;
  std::uint64_t promotions = 0;

  // The reference's side of an unsubscription or expiry: `origin` is the
  // arrival origin (local for an expiry).
  const auto reference_erase = [&](SubscriptionId id, const Origin& origin) {
    Broker::UnsubscriptionOutcome want;
    for (const BrokerId n : attached) {
      if (!origin.local && origin.neighbor == n) continue;
      const auto it = reference.find(n);
      if (it == reference.end()) continue;
      const auto erased = it->second.erase_reporting(id);
      if (erased.was_active) want.forward_to.push_back(n);
      for (const SubscriptionId promoted : erased.promoted) {
        want.reannounce.emplace_back(n, routes.at(promoted).first);
      }
    }
    routes.erase(id);
    return want;
  };
  const auto expect_same_reannounce =
      [&](const std::vector<std::pair<BrokerId, Subscription>>& got,
          const std::vector<std::pair<BrokerId, Subscription>>& want,
          const std::string& what) {
        ASSERT_EQ(got.size(), want.size()) << what << ": reannounce count";
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].first, want[i].first) << what;
          ASSERT_EQ(got[i].second.id(), want[i].second.id()) << what;
        }
        promotions += got.size();
      };
  const auto random_route = [&]() {
    auto it = routes.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(routes.size())));
    return it;
  };

  for (int op = 0; op < 1500; ++op) {
    const std::string what = std::string(store::to_string(policy)) + " op " +
                             std::to_string(op);
    const auto draw = rng.next_below(100);
    if (draw < 55 || routes.size() < 8) {
      // Subscribe from the local side or an attached neighbour.
      const auto pick = rng.next_below(attached.size() + 1);
      const Origin origin = pick == attached.size()
                                ? Origin{true, kInvalidBroker}
                                : Origin{false, attached[pick]};
      const Subscription sub = grid_box2(next_id++, rng);
      const auto got = broker.handle_subscription(sub, origin);
      std::vector<BrokerId> want;
      for (const BrokerId n : attached) {
        if (!origin.local && origin.neighbor == n) continue;
        if (!reference_link(n).insert(sub).covered) want.push_back(n);
      }
      routes.emplace(sub.id(), std::make_pair(sub, origin));
      ASSERT_EQ(got, want) << what << ": forwards";
    } else if (draw < 58) {
      // A duplicate arrival changes nothing.
      const auto route = random_route();
      ASSERT_TRUE(broker.handle_subscription(route->second.first,
                                             Origin{true, kInvalidBroker})
                      .empty())
          << what;
    } else if (draw < 80) {
      const auto route = random_route();
      const SubscriptionId id = route->first;
      const Origin origin = route->second.second;
      const auto got = broker.handle_unsubscription(id, origin);
      const auto want = reference_erase(id, origin);
      ASSERT_EQ(got.forward_to, want.forward_to) << what << ": unsubscription forwards";
      ASSERT_NO_FATAL_FAILURE(
          expect_same_reannounce(got.reannounce, want.reannounce, what));
    } else if (draw < 92) {
      const SubscriptionId id = random_route()->first;
      const auto got = broker.handle_expiry(id);
      const auto want = reference_erase(id, Origin{true, kInvalidBroker});
      ASSERT_NO_FATAL_FAILURE(expect_same_reannounce(got, want.reannounce, what));
    } else if (draw < 96) {
      // Detach a link; its routes stay in their lane, and the other links
      // keep querying it.
      if (attached.size() < 2) continue;
      const BrokerId n = attached[rng.next_below(attached.size())];
      broker.remove_neighbor(n);
      std::erase(attached, n);
      reference.erase(n);
    } else {
      // Re-attach a detached link and announce the routing table over it.
      BrokerId n = kInvalidBroker;
      for (const BrokerId candidate : {1u, 2u, 3u}) {
        if (std::find(attached.begin(), attached.end(), candidate) == attached.end()) {
          n = candidate;
        }
      }
      if (n == kInvalidBroker) continue;
      broker.add_neighbor(n);
      attached.push_back(n);
      const auto got = broker.announce_all_to(n);
      std::vector<SubscriptionId> want;
      std::uint64_t suppressed = 0;
      for (const auto& [id, route] : routes) {  // ascending id
        if (!route.second.local && route.second.neighbor == n) continue;
        if (reference_link(n).insert(route.first).covered) {
          ++suppressed;
        } else {
          want.push_back(id);
        }
      }
      std::vector<SubscriptionId> got_ids;
      for (const Subscription& sub : got.announce) got_ids.push_back(sub.id());
      ASSERT_EQ(got_ids, want) << what << ": announcements";
      ASSERT_EQ(got.suppressed, suppressed) << what << ": suppressed";
    }
    for (const BrokerId n : {1u, 2u, 3u}) {
      const SubscriptionStore* link = broker.forwarded_store(n);
      const auto it = reference.find(n);
      ASSERT_EQ(link != nullptr, it != reference.end()) << what << " link " << n;
      if (link != nullptr) {
        ASSERT_NO_FATAL_FAILURE(
            expect_same_store(*link, it->second, what + " link " + std::to_string(n)));
      }
    }
  }
  // The stream must reach the re-check path it is meant to cover.
  EXPECT_GT(promotions, 0u) << store::to_string(policy);
}

TEST(Broker, LinkStoresDecideAsOwnIndexStoresPairwise) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    ASSERT_NO_FATAL_FAILURE(run_link_store_differential(CoveragePolicy::kPairwise, seed));
  }
}

TEST(Broker, LinkStoresDecideAsOwnIndexStoresGroup) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    ASSERT_NO_FATAL_FAILURE(run_link_store_differential(CoveragePolicy::kGroup, seed));
  }
}

TEST(Broker, LinkStoresDecideAsOwnIndexStoresExact) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    ASSERT_NO_FATAL_FAILURE(run_link_store_differential(CoveragePolicy::kExact, seed));
  }
}

}  // namespace
}  // namespace psc::routing
