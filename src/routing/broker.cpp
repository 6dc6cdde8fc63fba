#include "routing/broker.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/radix_sort.hpp"
#include "util/rng.hpp"

namespace psc::routing {

using core::Publication;
using core::Subscription;
using core::SubscriptionId;

namespace {

/// Configuration of a publish lane: coverage-free (every routed
/// subscription must stay individually matchable), index on/off and
/// bucketing inherited from the broker's store config.
store::StoreConfig lane_config(const store::StoreConfig& store_config) {
  store::StoreConfig config;
  config.policy = store::CoveragePolicy::kNone;
  config.use_index = store_config.use_index;
  config.index = store_config.index;
  return config;
}

}  // namespace

std::uint64_t broker_seed(std::uint64_t network_seed, BrokerId id) noexcept {
  std::uint64_t seed = network_seed ^ (0x9e3779b97f4a7c15ULL * (id + 1));
  return util::splitmix64(seed);
}

std::uint64_t link_seed(std::uint64_t broker_seed, BrokerId broker,
                        BrokerId neighbor) noexcept {
  std::uint64_t mix =
      broker_seed ^ (static_cast<std::uint64_t>(broker) << 32) ^ neighbor;
  return util::splitmix64(mix);
}

Broker::Broker(BrokerId id, store::StoreConfig store_config, std::uint64_t seed)
    : id_(id),
      store_config_(store_config),
      seed_(seed),
      // Lanes are coverage-free: the engine seed never drives a decision.
      local_lane_(lane_config(store_config), seed) {}

void Broker::add_neighbor(BrokerId neighbor) {
  if (std::find(neighbors_.begin(), neighbors_.end(), neighbor) !=
      neighbors_.end()) {
    return;
  }
  neighbors_.push_back(neighbor);
  for (auto& [origin, lane] : neighbor_lanes_) sync_lane_index(origin, lane);
}

void Broker::remove_neighbor(BrokerId neighbor) {
  neighbors_.erase(std::remove(neighbors_.begin(), neighbors_.end(), neighbor),
                   neighbors_.end());
  forwarded_.erase(neighbor);
  for (auto& [origin, lane] : neighbor_lanes_) sync_lane_index(origin, lane);
}

void Broker::sync_lane_index(BrokerId origin, store::SubscriptionStore& lane) {
  // link_lanes hands the lane to the link store of every neighbour but
  // `origin`; with no such neighbour nothing reads its index.
  if (std::any_of(neighbors_.begin(), neighbors_.end(),
                  [&](BrokerId n) { return n != origin; })) {
    lane.rebuild_index();
  } else {
    lane.drop_index();
  }
}

Broker::AnnounceOutcome Broker::announce_all_to(BrokerId neighbor) {
  if (std::find(neighbors_.begin(), neighbors_.end(), neighbor) ==
      neighbors_.end()) {
    throw std::invalid_argument("Broker::announce_all_to: not a neighbour");
  }
  if (forwarded_.find(neighbor) != forwarded_.end()) {
    throw std::logic_error("Broker::announce_all_to: link store is not fresh");
  }
  std::vector<std::pair<SubscriptionId, Origin>> entries;
  entries.reserve(routing_table_.size());
  routing_table_.for_each([&](SubscriptionId sid, const Origin& origin) {
    if (!origin.local && origin.neighbor == neighbor) return;
    entries.emplace_back(sid, origin);
  });
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  AnnounceOutcome outcome;
  store::SubscriptionStore& link_store = forwarded_mutable(neighbor);
  const auto lanes = link_lanes(neighbor);
  for (const auto& [sid, origin] : entries) {
    const Subscription& sub = *lane_find(sid, origin);
    if (link_store.insert(sub, lanes).covered) {
      ++outcome.suppressed;
      continue;
    }
    outcome.announce.push_back(sub);
  }
  return outcome;
}

store::SubscriptionStore& Broker::forwarded_mutable(BrokerId neighbor) {
  auto it = forwarded_.find(neighbor);
  if (it == forwarded_.end()) {
    // The link store's ACTIVE set must stay exactly the set of
    // subscriptions ANNOUNCED to the neighbour: an id is forwarded when it
    // inserts active, reannounced when promotion makes it active, and an
    // unsubscription is forwarded iff the id is active here. Demoting an
    // active (because a later subscription covers it) would break that
    // invariant — the neighbour learned the id when it was announced, so
    // skipping its unsubscription leaks a ghost route on the neighbour's
    // side forever (caught by the churn differential suite). Demotion is
    // therefore disabled on link stores; it costs nothing in suppression
    // power because anything covered by a demoted active is also covered
    // by that active's coverer.
    store::StoreConfig link_config = store_config_;
    link_config.demote_covered_actives = false;
    // The lanes answer its coverage queries (see forwarded_), so it keeps
    // no index of its own.
    it = forwarded_
             .emplace(neighbor, std::make_unique<store::SubscriptionStore>(
                                    link_config, link_seed(seed_, id_, neighbor),
                                    store::IndexSource::kLanes))
             .first;
  }
  return *it->second;
}

std::vector<const store::SubscriptionStore*> Broker::link_lanes(
    BrokerId neighbor) const {
  std::vector<const store::SubscriptionStore*> lanes;
  lanes.reserve(neighbor_lanes_.size() + 1);
  lanes.push_back(&local_lane_);
  for (const auto& [origin, lane] : neighbor_lanes_) {
    if (origin != neighbor) lanes.push_back(&lane);
  }
  return lanes;
}

const store::SubscriptionStore* Broker::forwarded_store(BrokerId neighbor) const {
  const auto it = forwarded_.find(neighbor);
  return it == forwarded_.end() ? nullptr : it->second.get();
}

const store::SubscriptionStore* Broker::publish_lane(const Origin& origin) const {
  if (origin.local) return &local_lane_;
  const auto it = neighbor_lanes_.find(origin.neighbor);
  return it == neighbor_lanes_.end() ? nullptr : &it->second;
}

bool Broker::add_route(const Subscription& sub, const Origin& origin) {
  if (!routing_table_.try_emplace(sub.id(), origin).second) return false;
  if (origin.local) {
    (void)local_lane_.insert(sub);
    return true;
  }
  auto lane = neighbor_lanes_.find(origin.neighbor);
  if (lane == neighbor_lanes_.end()) {
    lane = neighbor_lanes_
               .try_emplace(origin.neighbor, lane_config(store_config_), seed_)
               .first;
    sync_lane_index(origin.neighbor, lane->second);
  }
  (void)lane->second.insert(sub);
  return true;
}

void Broker::drop_route(SubscriptionId id, Origin origin) {
  (void)routing_table_.erase(id);
  if (origin.local) {
    (void)local_lane_.erase(id);
    return;
  }
  const auto lane = neighbor_lanes_.find(origin.neighbor);
  if (lane == neighbor_lanes_.end()) return;
  (void)lane->second.erase(id);
  if (lane->second.total_count() == 0) neighbor_lanes_.erase(lane);
}

const Subscription* Broker::lane_find(SubscriptionId id,
                                      const Origin& origin) const {
  const store::SubscriptionStore* lane = publish_lane(origin);
  return lane == nullptr ? nullptr : lane->find(id);
}

const Subscription* Broker::routed_subscription(SubscriptionId id) const {
  const Origin* origin = routing_table_.find(id);
  return origin == nullptr ? nullptr : lane_find(id, *origin);
}

std::vector<BrokerId> Broker::handle_subscription(const Subscription& sub,
                                                  const Origin& origin,
                                                  std::uint64_t* suppressed_out) {
  // Duplicate suppression: if we already route this subscription (a
  // re-announcement of an id this broker still holds), do not re-forward.
  // A suppressed duplicate costs one table probe and no subscription copy.
  if (!add_route(sub, origin)) return {};

  std::vector<BrokerId> forward_to;
  for (const BrokerId neighbor : neighbors_) {
    if (!origin.local && origin.neighbor == neighbor) continue;
    store::SubscriptionStore& link_store = forwarded_mutable(neighbor);
    const store::InsertResult inserted =
        link_store.insert(sub, link_lanes(neighbor));
    if (inserted.covered) {
      if (suppressed_out) ++*suppressed_out;
      continue;  // neighbour already holds a covering set; stay silent
    }
    forward_to.push_back(neighbor);
  }
  return forward_to;
}

Broker::UnsubscriptionOutcome Broker::handle_unsubscription(
    SubscriptionId id, const Origin& origin) {
  UnsubscriptionOutcome outcome;
  const Origin* departing = routing_table_.find(id);
  if (departing == nullptr) return outcome;
  drop_route(id, *departing);

  for (const BrokerId neighbor : neighbors_) {
    if (!origin.local && origin.neighbor == neighbor) continue;
    const auto store_it = forwarded_.find(neighbor);
    if (store_it == forwarded_.end()) continue;
    // Only links that announced the subscription see the unsubscription.
    // If the departing subscription was covering others on this link,
    // those get promoted back to active and must be announced to the
    // neighbour now — it never saw them while they were suppressed.
    const auto erased =
        store_it->second->erase_reporting(id, link_lanes(neighbor));
    if (erased.was_active) outcome.forward_to.push_back(neighbor);
    for (const SubscriptionId promoted_id : erased.promoted) {
      const Subscription* route = routed_subscription(promoted_id);
      if (route == nullptr) continue;  // also being removed
      outcome.reannounce.emplace_back(neighbor, *route);
    }
  }
  return outcome;
}

const Broker::PublicationRoute& Broker::handle_publication(
    const Publication& pub, const Origin& origin,
    PublishScratch& scratch) const {
  PublicationRoute& route = scratch.route;
  // Local lane: its matches are exactly the local deliveries, made
  // ascending by one radix pass.
  route.local_matches.clear();
  local_lane_.match_active_unsorted(pub, route.local_matches);
  util::radix_sort_u64(route.local_matches, scratch.sort_scratch);

  // Neighbour lanes: a lane with any match is a destination (the paper's
  // forwarding rule), in the lane map's ascending neighbour-id order. The
  // origin's own lane is skipped: never send a publication back.
  route.destinations.clear();
  for (const auto& [neighbor, lane] : neighbor_lanes_) {
    if (!origin.local && neighbor == origin.neighbor) continue;
    if (lane.any_active_match(pub)) route.destinations.push_back(neighbor);
  }
  return route;
}

std::vector<std::pair<BrokerId, Subscription>> Broker::handle_expiry(
    SubscriptionId id) {
  // Expiry is an unsubscription with no origin and no forwarding: peers
  // run their own timers. Reuse the unsubscription path with a synthetic
  // local origin and drop the forward list.
  UnsubscriptionOutcome outcome =
      handle_unsubscription(id, Origin{true, kInvalidBroker});
  return std::move(outcome.reannounce);
}

std::vector<SubscriptionId> Broker::routed_ids() const {
  std::vector<SubscriptionId> ids;
  ids.reserve(routing_table_.size());
  routing_table_.for_each(
      [&](SubscriptionId sid, const Origin&) { ids.push_back(sid); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<SubscriptionId> Broker::subscriptions_from(const Origin& origin) const {
  std::vector<SubscriptionId> ids;
  routing_table_.for_each([&](SubscriptionId sid, const Origin& route_origin) {
    if (route_origin == origin) ids.push_back(sid);
  });
  return ids;
}

Broker::Snapshot Broker::export_snapshot() const {
  Snapshot snapshot;
  snapshot.id = id_;
  snapshot.routes.reserve(routing_table_.size());
  routing_table_.for_each([&](SubscriptionId sid, const Origin& origin) {
    snapshot.routes.push_back({*lane_find(sid, origin), origin});
  });
  // FlatMap iteration order is a hash artifact; canonicalize by id so two
  // snapshots of identical logical state are byte-identical.
  std::sort(snapshot.routes.begin(), snapshot.routes.end(),
            [](const Snapshot::RouteRecord& a, const Snapshot::RouteRecord& b) {
              return a.sub.id() < b.sub.id();
            });
  for (const BrokerId neighbor : neighbors_) {
    const auto it = forwarded_.find(neighbor);
    if (it == forwarded_.end()) continue;
    snapshot.links.emplace_back(neighbor, it->second->export_snapshot());
  }
  return snapshot;
}

void Broker::import_snapshot(const Snapshot& snapshot) {
  if (snapshot.id != id_) {
    throw std::invalid_argument(
        "Broker::import_snapshot: snapshot belongs to another broker id");
  }
  if (routing_table_.size() != 0 || !forwarded_.empty()) {
    throw std::logic_error("Broker::import_snapshot: broker is not empty");
  }
  routing_table_.reserve(snapshot.routes.size());
  for (const Snapshot::RouteRecord& record : snapshot.routes) {
    // Lanes are coverage-free and matches are ordered by id, so rebuild
    // order is decision-neutral.
    if (!add_route(record.sub, record.origin)) {
      throw std::invalid_argument(
          "Broker::import_snapshot: duplicate routing-table id");
    }
  }
  for (const auto& [neighbor, store_snapshot] : snapshot.links) {
    if (std::find(neighbors_.begin(), neighbors_.end(), neighbor) ==
        neighbors_.end()) {
      throw std::invalid_argument(
          "Broker::import_snapshot: link snapshot for unknown neighbour");
    }
    // The link store's coverage queries run on the lanes, which answer
    // only for ids routed here with the same box and from another origin.
    const auto check_routed = [&](const Subscription& sub) {
      const Origin* route_origin = routing_table_.find(sub.id());
      if (route_origin == nullptr ||
          (!route_origin->local && route_origin->neighbor == neighbor) ||
          !(*lane_find(sub.id(), *route_origin) == sub)) {
        throw std::invalid_argument(
            "Broker::import_snapshot: link snapshot holds an id that is not "
            "routed here with the same box from another origin");
      }
    };
    for (const Subscription& active : store_snapshot.actives) check_routed(active);
    for (const auto& record : store_snapshot.covered) check_routed(record.sub);
    // forwarded_mutable builds the store with this broker's per-link
    // config and seed; the snapshot then overwrites its decision state
    // (incl. the engine RNG stream captured at export).
    forwarded_mutable(neighbor).import_snapshot(store_snapshot);
  }
}

}  // namespace psc::routing
