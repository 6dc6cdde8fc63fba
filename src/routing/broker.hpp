// Broker — one node of the distributed pub/sub overlay (paper, Section 2).
//
// State, per reverse-path forwarding:
//   * routing_table_: subscription id -> the neighbour (or local client) it
//     arrived from. Publications matching the subscription are sent toward
//     that neighbour (reverse path of the subscription flood).
//   * publish lanes: the routed subscriptions themselves, partitioned by
//     that origin. local_lane_ holds every local-origin route;
//     neighbor_lanes_[n] holds the routes whose reverse path points at n.
//     Lanes are coverage-free stores, so each lane's match set is exact,
//     and each routed subscription is stored exactly once — in its
//     origin's lane. Publication matching stabs the lanes: local-lane
//     matches ARE the local deliveries, and a neighbour lane with any
//     match IS a destination, so no matched id is ever looked up again.
//   * forwarded_[n]: store of subscriptions this broker has propagated to
//     neighbour n. A new subscription is forwarded to n only if it is not
//     covered (per the configured policy) by what n already received —
//     the paper's traffic-suppression step, and where the probabilistic
//     group check plugs in. A link store holds only routed ids, with their
//     routed boxes, and none that arrived from n, so it keeps no index:
//     its coverage queries run on every lane but n's and keep the ids
//     active on the link (or scan its own actives, when those are few
//     against the lanes).
//
// A broker keeps no per-publication state: the overlay is a forest and a
// publication is never sent back where it came from, so each broker sees
// it at most once (routing/broker_network.hpp). Publishing leaves a broker
// byte-identical.
//
// Concurrency model: a Broker is externally single-threaded — one event
// at a time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/publication.hpp"
#include "core/subscription.hpp"
#include "store/subscription_store.hpp"
#include "util/flat_map.hpp"

namespace psc::routing {

using BrokerId = std::uint32_t;
inline constexpr BrokerId kInvalidBroker = 0xffffffffU;

/// Where a subscription/publication entered this broker from.
struct Origin {
  bool local = false;        ///< from a directly-attached client
  BrokerId neighbor = kInvalidBroker;  ///< valid when !local

  friend bool operator==(const Origin&, const Origin&) = default;
};

/// Engine seed of broker `id` in a network seeded with `network_seed`. The
/// simulator (BrokerNetwork) and psc_brokerd both derive it here, so a TCP
/// broker makes the same (kGroup-policy) coverage decisions as its sim twin.
[[nodiscard]] std::uint64_t broker_seed(std::uint64_t network_seed,
                                        BrokerId id) noexcept;

/// Engine seed of the link store that broker `broker`, seeded with
/// `broker_seed`, keeps toward `neighbor`: link stores draw independent RNG
/// streams while the whole network stays reproducible.
[[nodiscard]] std::uint64_t link_seed(std::uint64_t broker_seed, BrokerId broker,
                                      BrokerId neighbor) noexcept;

/// Per-broker state. A BrokerRuntime turns its decisions into messages.
class Broker {
 public:
  Broker(BrokerId id, store::StoreConfig store_config, std::uint64_t seed);

  [[nodiscard]] BrokerId id() const noexcept { return id_; }

  void add_neighbor(BrokerId neighbor);
  [[nodiscard]] const std::vector<BrokerId>& neighbors() const noexcept {
    return neighbors_;
  }

  /// Detaches a neighbour link: removes it from the neighbour list and
  /// drops its forwarded-store coverage state. A later re-attach starts
  /// from a fresh store via announce_all_to — coverage decisions made for
  /// the dead link describe state the peer no longer holds, so they must
  /// not survive the link. No-op if `neighbor` is not attached.
  void remove_neighbor(BrokerId neighbor);

  /// Outcome of re-announcing the full routing table over a fresh link.
  struct AnnounceOutcome {
    /// Subscriptions the network must flood over the link (ascending id).
    std::vector<core::Subscription> announce;
    std::uint64_t suppressed = 0;  ///< withheld by link-store coverage
  };

  /// Link-attach re-announcement (membership heal/join/repair): seeds the
  /// forwarded store of `neighbor` — which must be fresh, i.e. the link
  /// carries no coverage state yet — with every routed subscription in
  /// canonical id order, and returns the uncovered ones. Routes whose
  /// reverse path already points at `neighbor` are excluded (none exist on
  /// a genuinely fresh attach; the guard keeps misuse from echoing).
  /// Id order makes the link store's decisions (and its engine RNG
  /// consumption) a pure function of the routed set, independent of the
  /// hash-map iteration order the table happens to have.
  /// Throws std::invalid_argument if `neighbor` is not attached,
  /// std::logic_error if the link store already exists.
  [[nodiscard]] AnnounceOutcome announce_all_to(BrokerId neighbor);

  /// Handles a subscription arriving from `origin`. Records the reverse
  /// path and returns the neighbours the subscription must be forwarded to:
  /// all neighbours except the origin, minus those whose forwarded-set
  /// already covers it. `suppressed_out`, when non-null, receives the
  /// number of links on which coverage suppressed forwarding.
  [[nodiscard]] std::vector<BrokerId> handle_subscription(
      const core::Subscription& sub, const Origin& origin,
      std::uint64_t* suppressed_out = nullptr);

  /// Expires a subscription locally (paper, Section 5: expiration times as
  /// the message-free alternative to unsubscription flooding). Every
  /// broker that received the subscription fires its own expiry timer, so
  /// no unsubscription traffic is generated; only covered subscriptions
  /// promoted on this broker's links still need announcing.
  [[nodiscard]] std::vector<std::pair<BrokerId, core::Subscription>>
  handle_expiry(core::SubscriptionId id);

  /// Outcome of an unsubscription at this broker.
  struct UnsubscriptionOutcome {
    /// Neighbours that previously received the subscription and must see
    /// the unsubscription.
    std::vector<BrokerId> forward_to;
    /// Per-link re-announcements: subscriptions that were suppressed as
    /// covered on a link and became active again when the coverer left
    /// (paper, Section 5 — covered subscriptions are "promoted").
    std::vector<std::pair<BrokerId, core::Subscription>> reannounce;
  };

  /// Handles an unsubscription arriving from `origin`.
  [[nodiscard]] UnsubscriptionOutcome handle_unsubscription(
      core::SubscriptionId id, const Origin& origin);

  /// Where one publication must travel.
  struct PublicationRoute {
    std::vector<core::SubscriptionId> local_matches;  ///< sorted by id
    std::vector<BrokerId> destinations;  ///< first-match order, deduplicated
  };

  /// Caller-owned scratch for the zero-allocation publish path: the lane
  /// stab buffer, radix-sort and destination-ordering scratch, and the
  /// route vectors are reused across calls, so once warm a steady-state
  /// publish performs no heap allocations end to end (pinned by
  /// tests/publish_alloc_test.cpp). One scratch per calling thread; its
  /// contents are valid until the next call that uses it.
  struct PublishScratch {
    std::vector<core::SubscriptionId> ids;
    std::vector<core::SubscriptionId> sort_scratch;
    /// (minimum matching id, neighbour) per matching neighbour lane.
    std::vector<std::pair<core::SubscriptionId, BrokerId>> first_match;
    PublicationRoute route;
  };

  /// Handles a publication arriving from `origin`: stabs the publish lanes
  /// into `scratch` and returns where it must travel (a reference into
  /// `scratch.route`). `local_matches` comes back sorted by id and
  /// destinations in first-match order (ascending minimum matching id),
  /// both a pure function of the routed set and the publication. The
  /// origin's own lane is never stabbed: a publication is never sent back
  /// where it came from.
  const PublicationRoute& handle_publication(const core::Publication& pub,
                                             const Origin& origin,
                                             PublishScratch& scratch) const;

  /// All subscription ids whose reverse path points at `origin`.
  [[nodiscard]] std::vector<core::SubscriptionId> subscriptions_from(
      const Origin& origin) const;

  [[nodiscard]] std::size_t routing_table_size() const noexcept {
    return routing_table_.size();
  }

  /// True iff this broker's routing table holds `id` (the network layer
  /// uses this to re-derive per-broker TTL timers when restoring a
  /// snapshot — only brokers that route a subscription armed one).
  [[nodiscard]] bool routes(core::SubscriptionId id) const {
    return routing_table_.find(id) != nullptr;
  }

  /// Every routed subscription id, ascending — the membership layer's
  /// ghost-route audit walks these against the client registry.
  [[nodiscard]] std::vector<core::SubscriptionId> routed_ids() const;

  /// Forwarded-store of a neighbour link (tests introspect coverage state).
  [[nodiscard]] const store::SubscriptionStore* forwarded_store(
      BrokerId neighbor) const;

  /// Complete serializable state of a broker: the routing table (with
  /// reverse-path origins), every per-link forwarded store (full coverage
  /// state incl. engine RNG — see store::SubscriptionStore::Snapshot). The
  /// lane indexes are rebuilt on import.
  /// Binary codec: wire/snapshot.hpp (embedded in the network snapshot).
  struct Snapshot {
    BrokerId id = kInvalidBroker;
    struct RouteRecord {
      core::Subscription sub;  ///< id rides inside
      Origin origin;
    };
    /// Routing-table entries sorted by subscription id (table order is a
    /// hash artifact; lanes are coverage-free and matches are ordered by
    /// id, so rebuild order is decision-neutral).
    std::vector<RouteRecord> routes;
    /// Per-link coverage state, in neighbour order. Links that never
    /// forwarded anything have no entry.
    std::vector<std::pair<BrokerId, store::SubscriptionStore::Snapshot>> links;
  };

  [[nodiscard]] Snapshot export_snapshot() const;

  /// Rebuilds this broker from `snapshot`. Preconditions: the broker holds
  /// no routing state (freshly constructed, or after a crash wiped it),
  /// was constructed with the same (id, config, seed) as the
  /// exporter, and already has its neighbour links attached (topology is
  /// owned by the network layer and is not part of broker state). Every
  /// id a link snapshot holds, active or covered, must be routed with the
  /// same box and not from that link's neighbour.
  /// Violations throw std::invalid_argument / std::logic_error. Afterwards
  /// the broker is decision-for-decision identical to the exporter.
  void import_snapshot(const Snapshot& snapshot);

 private:
  BrokerId id_;
  store::StoreConfig store_config_;
  std::uint64_t seed_;
  std::vector<BrokerId> neighbors_;

  /// Open-addressing flat map (util::FlatMap): under churn the table
  /// mutates constantly, which wants contiguous probes and no node churn.
  /// The subscription itself lives in the lane named by the origin.
  util::FlatMap<core::SubscriptionId, Origin> routing_table_;

  /// Publish lanes: local-origin routes, and routes per neighbour origin.
  /// Ordered map so lane iteration (and so the work schedule) is
  /// deterministic; results do not depend on it.
  store::SubscriptionStore local_lane_;
  std::map<BrokerId, store::SubscriptionStore> neighbor_lanes_;

  /// Per outgoing link: what we already forwarded there (coverage state).
  /// Each is an IndexSource::kLanes store: every id it holds is routed
  /// here with the same box and from another origin (add_route runs before
  /// the link insert; drop_route and the link erase run in the same
  /// handler; import_snapshot rejects a link image that breaks this), so
  /// its index-path queries run on the lanes (link_lanes), passed per call.
  std::unordered_map<BrokerId, std::unique_ptr<store::SubscriptionStore>> forwarded_;

  store::SubscriptionStore& forwarded_mutable(BrokerId neighbor);
  /// The lanes a link store toward `neighbor` queries: every lane but
  /// `neighbor`'s own, whose routes never enter that link store. Built per
  /// call, after the call's route changes.
  [[nodiscard]] std::vector<const store::SubscriptionStore*> link_lanes(
      BrokerId neighbor) const;

  /// Records a new route: table entry plus the subscription in its lane.
  /// Returns false (and changes nothing) if `sub`'s id is already routed.
  bool add_route(const core::Subscription& sub, const Origin& origin);
  /// Drops the route for `id` (table entry and lane copy); a neighbour
  /// lane left empty is dropped with it (add_route re-creates lanes on
  /// demand). `origin` is taken by value: callers pass the table entry
  /// this erases.
  void drop_route(core::SubscriptionId id, Origin origin);
  [[nodiscard]] const core::Subscription* lane_find(
      core::SubscriptionId id, const Origin& origin) const;
  /// The routed subscription stored under `id`, or nullptr.
  [[nodiscard]] const core::Subscription* routed_subscription(
      core::SubscriptionId id) const;
};

}  // namespace psc::routing
