// BrokerNetwork — the distributed overlay: brokers + logical links driven by
// the discrete-event simulator. Each broker runs the routing protocol
// (paper, Section 2 and Figure 1) in its BrokerRuntime over one shared
// SimTransport; the network owns the topology, runtime membership, the
// client registry, traffic and loss accounting, and snapshots.
//
// One overlay model: the live links always form a spanning forest of the
// alive brokers (the paper's acyclic broker tree, Figure 1). connect() and
// every membership operation keep the network's LinkState in lockstep
// with the brokers' neighbour lists and refuse a link that would close a
// cycle, so a publication reaches each broker at most once and no broker
// keeps per-publication state.
//
// Loss accounting: when a publication is injected, the network computes the
// ground-truth recipient set (every local subscription anywhere whose box
// contains the point, by stabbing the client registry's own coverage-free
// interval index) and compares it with the set that actually received a
// notification. A shortfall is a lost notification — the paper's
// probabilistic-error cost (Section 5).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "routing/broker.hpp"
#include "routing/broker_runtime.hpp"
#include "routing/link_channel.hpp"
#include "routing/membership.hpp"
#include "routing/sim_transport.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "store/subscription_store.hpp"
#include "wire/codec.hpp"

namespace psc::routing {

struct NetworkConfig {
  store::StoreConfig store;      ///< coverage policy + engine tuning
  sim::SimTime link_latency = 0.001;  ///< seconds per hop
  std::uint64_t seed = 0xfeedbeefULL;
  /// Reliable-link protocol + fault injection (link.enabled routes every
  /// hop through LinkChannels; disabled = the perfect zero-loss wire, with
  /// the pre-existing direct-schedule hot path byte-for-byte intact).
  LinkConfig link;
};

/// One publication injected at one broker: the request form of
/// BrokerNetwork::publish, shared by the simulator and TCP drivers.
class PublishRequest {
 public:
  static PublishRequest single(BrokerId broker, core::Publication pub);

 private:
  friend class BrokerNetwork;
  BrokerId broker_ = 0;
  core::Publication pub_;
};

class BrokerNetwork {
 public:
  explicit BrokerNetwork(NetworkConfig config = {});

  /// Adds a broker; ids are dense [0, broker_count).
  BrokerId add_broker();

  /// Adds an undirected link between two existing, alive brokers. Throws
  /// std::invalid_argument on a self-link or an unknown id, and
  /// std::logic_error if the brokers are already connected (a repeated
  /// link, or one that would close a cycle); either way before any
  /// neighbour list changes.
  void connect(BrokerId a, BrokerId b);

  /// Builds the paper's Figure 1 topology: nine brokers B1..B9 (ids 0..8)
  /// wired as in the example. Returns the network for chaining.
  static BrokerNetwork figure1_topology(NetworkConfig config = {});

  /// Builds a chain B1-B2-...-Bn (Section 5 analysis topology).
  static BrokerNetwork chain_topology(std::size_t n, NetworkConfig config = {});

  /// Builds a random attachment tree: broker i (i >= 1) links to a
  /// uniformly random earlier broker. Produces skewed degree distributions
  /// (early brokers become hubs), the classic random-recursive-tree shape.
  /// Deterministic per (n, seed). Requires n > 0.
  static BrokerNetwork random_tree_topology(std::size_t n, std::uint64_t seed,
                                            NetworkConfig config = {});

  /// Builds rows x cols brokers laid out on a grid, routed over the grid's
  /// comb spanning tree (full first row + every vertical column edge), so
  /// the overlay stays acyclic: long row/column paths, high diameter
  /// (rows + cols - 2). Requires rows, cols > 0 and rows * cols > 1.
  static BrokerNetwork grid_topology(std::size_t rows, std::size_t cols,
                                     NetworkConfig config = {});

  /// Builds a random degree-regular graph (pairing model, rejecting
  /// self-loops / parallel edges / disconnected draws) and routes over its
  /// BFS spanning tree from broker 0: a bushy low-diameter tree whose node
  /// degrees never exceed `degree`. Deterministic per (n, degree, seed).
  /// Requires 2 <= degree < n and n * degree even.
  static BrokerNetwork random_regular_topology(std::size_t n, std::size_t degree,
                                               std::uint64_t seed,
                                               NetworkConfig config = {});

  // --- runtime membership (live overlay mutation) -----------------------
  //
  // Every operation below mutates the overlay while it carries routing
  // state, runs the resulting repair traffic to quiescence before
  // returning, and keeps the LIVE link set a spanning forest of the alive
  // brokers (the forest invariant — see routing/membership.hpp; an op that
  // would close a live cycle throws std::logic_error). Preconditions
  // mirror LinkState's; all ops assume a quiescent network (between
  // client ops), like snapshot_all.
  //
  // Protocol summary (docs/ARCHITECTURE.md, "Runtime membership"):
  //   * link detach (fail_link, crash, leave): both surviving endpoints
  //     purge every route learned over the dead link via cascading
  //     unsubscriptions, so each partition's routing state immediately
  //     describes only subscriptions reachable inside it;
  //   * link attach (heal_link, join, repair): each endpoint re-announces
  //     its full routing table over the new link in canonical id order
  //     through a fresh coverage store, flooding only the uncovered ones;
  //   * node replacement: the crashed broker is rebuilt from the client
  //     registry alone (every subscription homed there comes back as a
  //     local route), and every former link that still bridges distinct
  //     components is healed.

  /// Joins a new broker to the overlay, attached to `attach_to` (which
  /// re-announces its routing table over the new link). Returns the new
  /// broker's id (dense, == broker_count() before the call).
  BrokerId add_peer(BrokerId attach_to);

  /// Graceful departure of `broker`: its local clients unsubscribe (in
  /// ascending id order), every neighbour purges the routes it learned
  /// from it, and the overlay is repaired by starring its former
  /// neighbours (lowest id becomes the hub), with re-announcement over
  /// each repair link. The id stays allocated but permanently dead.
  void remove_peer(BrokerId broker);

  /// Partitions the overlay: the live link (a, b) goes down, both sides
  /// purge the routes learned over it. The link stays known (failed) and
  /// can come back via heal_link or a future replacement.
  void fail_link(BrokerId a, BrokerId b);

  /// Brings a failed (or provisioned standby) link up, with mutual full
  /// re-announcement. Throws std::logic_error if the endpoints are already
  /// connected (forest invariant) or either is dead.
  void heal_link(BrokerId a, BrokerId b);

  /// Provisions a standby bridge: a link that exists but is down, eligible
  /// for heal_link when a partition makes it useful. This is how cyclic
  /// universes (rings, clustered meshes with rotating bridges) are
  /// expressed over a forest overlay.
  void add_standby_link(BrokerId a, BrokerId b);

  /// Crash-stop of `broker`: its state is lost (the broker object is
  /// wiped), every incident live link fails, and each former neighbour
  /// purges the routes it learned from it. Client subscriptions homed at
  /// the crashed broker stay in the registry — their clients still believe
  /// they are subscribed; they are simply unreachable until replace_peer
  /// (and their TTLs keep governing them throughout).
  void crash_peer(BrokerId broker);

  struct ReplaceOutcome {
    std::size_t restored_routes = 0;  ///< homed subscriptions re-installed
    std::vector<std::pair<BrokerId, BrokerId>> healed_links;
  };

  /// Replaces a crashed broker from the client registry: a fresh broker
  /// routes every registered subscription homed at it, in ascending id
  /// order (the clients still hold them; the TTL timers armed for them
  /// before the crash are still pending and resolve against the
  /// replacement). Then every former link still bridging distinct
  /// components is healed with mutual re-announcement.
  ReplaceOutcome replace_peer(BrokerId broker);

  /// True while `broker` is alive. Throws std::invalid_argument on an
  /// unknown id.
  [[nodiscard]] bool is_alive(BrokerId broker) const {
    return link_state_.is_alive(broker);
  }

  /// The membership link-state (alive set, live/failed links, components).
  [[nodiscard]] const LinkState& link_state() const noexcept {
    return link_state_;
  }

  /// The overlay's static shape for workload generation: broker count,
  /// live links, and standby bridges (normalized (min, max), ascending).
  [[nodiscard]] MembershipUniverse universe() const;

  /// Ghost-route audit: routing-table entries on alive brokers whose
  /// subscription id is no longer in the client registry. Zero at every
  /// quiescent instant is the membership correctness invariant the soaks
  /// and tier-1 tests gate on.
  [[nodiscard]] std::size_t ghost_route_count() const;

  /// Client subscribes at `broker`. The subscription floods immediately
  /// (events are processed to quiescence before returning).
  void subscribe(BrokerId broker, const core::Subscription& sub);

  /// Subscribes with an expiration time `ttl` seconds from now (paper,
  /// Section 5): every broker that receives the subscription arms its own
  /// expiry timer, so removal needs NO unsubscription messages. Expiry
  /// fires when simulated time advances past it (publish/run_until drive
  /// the clock).
  void subscribe_with_ttl(BrokerId broker, const core::Subscription& sub,
                          sim::SimTime ttl);

  /// Advances simulated time to `horizon`, firing due expiries.
  void advance_time(sim::SimTime horizon);

  [[nodiscard]] sim::SimTime now() const noexcept { return queue_.now(); }

  /// Client unsubscribes (id must have been subscribed).
  void unsubscribe(BrokerId broker, core::SubscriptionId id);

  /// Injects one publication at `broker`, runs the cascade to quiescence,
  /// and returns the delivered subscription ids, sorted and deduplicated.
  std::vector<core::SubscriptionId> publish(BrokerId broker,
                                            const core::Publication& pub);

  /// Request form of publish: returns one delivered set, in a
  /// one-element vector.
  std::vector<std::vector<core::SubscriptionId>> publish(
      const PublishRequest& request);

  // --- unreliable links --------------------------------------------------

  /// True when hops run through the reliable link protocol over a faulty
  /// wire (NetworkConfig::link.enabled).
  [[nodiscard]] bool lossy_links() const noexcept { return config_.link.enabled; }

  /// Installs scripted burst-loss windows (absolute sim-time, both
  /// directions of each listed link) into the fault models. Replaces any
  /// prior schedule. No-op scheduling is fine on a perfect-wire network —
  /// the windows only matter once link.enabled routes traffic through the
  /// channels.
  void set_link_bursts(std::vector<LinkChannels::BurstWindow> bursts);

  /// Links the reliable protocol gave up on since the last call (retry cap
  /// exhausted -> escalated into fail_link), as normalized (min, max)
  /// pairs in escalation order. A differential driver mirrors these into
  /// its oracle's fail_link before comparing delivered sets.
  [[nodiscard]] std::vector<std::pair<BrokerId, BrokerId>> take_escalated_links();

  [[nodiscard]] std::size_t broker_count() const noexcept { return brokers_.size(); }
  /// Live client subscriptions network-wide (TTL-expired ones excluded).
  [[nodiscard]] std::size_t local_subscription_count() const noexcept {
    return local_subs_.size();
  }
  [[nodiscard]] const Broker& broker(BrokerId id) const { return *brokers_.at(id); }
  [[nodiscard]] const sim::Metrics& metrics() const noexcept { return metrics_; }
  void reset_metrics() noexcept { metrics_.reset(); }

  /// Ground truth: ids of local subscriptions (anywhere) matching `pub`,
  /// sorted ascending, ignoring liveness and components. One stab of the
  /// client registry's index: every registered subscription is an active
  /// entry there (no coverage, no demotion).
  [[nodiscard]] std::vector<core::SubscriptionId> expected_recipients(
      const core::Publication& pub) const;

  /// Component-aware ground truth: ids of matching local subscriptions
  /// whose home broker is alive and reachable from `from` over the live
  /// link set, sorted ascending. The registry stab comes first; only its
  /// matches are filtered by home liveness and component. Identical to
  /// the overload above while every broker is alive and the live links
  /// form one tree. This is what publish()'s loss accounting uses — a
  /// partition is not a loss, it is a smaller ground-truth set.
  [[nodiscard]] std::vector<core::SubscriptionId> expected_recipients(
      BrokerId from, const core::Publication& pub) const;

  /// Serializes the WHOLE overlay — configuration, topology (per-broker
  /// neighbour lists in their original order), every broker's state
  /// (routing tables, link coverage stores incl. engine RNG streams), the
  /// membership block (alive bitmap, failed links), client subscription
  /// registry with TTL expiries, the simulation clock, and the publication
  /// token counter — into one self-describing buffer ("PSCN" magic + format version; see
  /// docs/ARCHITECTURE.md, "Wire format").
  ///
  /// Precondition: the network is QUIESCENT — between client ops, with no
  /// cascade in flight (every public entry point runs its cascade to
  /// completion before returning, so this is the normal state). Pending
  /// events are then exactly the armed TTL expiry timers, which are
  /// derived state (local_subs_ expiries x routing tables) and are
  /// re-armed on restore rather than serialized.
  [[nodiscard]] std::vector<std::uint8_t> snapshot_all() const;

  /// Rebuilds this network IN PLACE from a snapshot_all buffer: existing
  /// state (brokers, links, subscriptions, clock, pending events, metrics)
  /// is discarded and replaced wholesale. Throws wire::DecodeError on a
  /// malformed buffer, leaving the network in an unspecified but
  /// destructible state (callers recover by restoring a good snapshot or
  /// rebuilding from scratch). After a successful restore the network is
  /// decision-for-decision identical to the snapshotted one: replaying the
  /// same client ops yields the same delivered sets, messages, and
  /// suppression decisions. Metrics restart from zero (the churn driver
  /// splices them across the boundary).
  void restore_all(std::span<const std::uint8_t> bytes);

 private:
  NetworkConfig config_;
  sim::EventQueue queue_;
  /// Heap-held so each runtime's Broker reference survives growth; a crash
  /// wipes a broker in place.
  std::vector<std::unique_ptr<Broker>> brokers_;
  /// One protocol runtime per broker, built with the transport (their
  /// callbacks close over `this`): runtime(id) builds any that are missing.
  std::vector<std::unique_ptr<BrokerRuntime>> runtimes_;
  /// Alive set and live/failed links, kept in lockstep with the brokers'
  /// neighbour lists by add_broker, connect and the membership operations.
  LinkState link_state_;

  /// Client registry: where each live client subscription is homed and
  /// when it expires. The subscription itself lives in registry_subs_.
  struct LocalSub {
    BrokerId home;
    /// Absolute expiry for TTL subscriptions. Promotion re-announcements
    /// must carry it: a promoted TTL subscription delivered without its
    /// expiry would never die at the receiving broker (ghost route).
    std::optional<sim::SimTime> expiry;
    /// The timer that forgets it at `expiry`; forget_local cancels it, so
    /// it never fires for a later subscription under the same id.
    Transport::TimerId timer = Transport::kNoTimer;
  };
  std::unordered_map<core::SubscriptionId, LocalSub> local_subs_;
  /// The registry's subscriptions (the only copy), in a coverage-free
  /// indexed store: every one stays active, so expected_recipients is one
  /// stab. Kept in lockstep with local_subs_: register_local and
  /// forget_local write both, and restore_all resets both.
  store::SubscriptionStore registry_subs_;
  sim::Metrics metrics_;
  std::uint64_t publication_token_ = 0;
  /// Publish scratch shared by every runtime: the cascade is
  /// single-threaded and each hop finishes with the route before the next
  /// handler runs, so one network-wide scratch keeps every broker hop
  /// allocation-free once warm.
  Broker::PublishScratch publish_scratch_;

  /// The hop-delivery transport (the Transport seam): SimTransport over
  /// the event queue — the perfect wire, or LinkChannels when
  /// config_.link.enabled. Built lazily on first use (its callbacks close
  /// over `this`, and topology factories return networks by value).
  /// Runtime-only: never serialized; restore_all discards and rebuilds so
  /// both ends of every link protocol stream restart at sequence zero
  /// together.
  std::unique_ptr<SimTransport> transport_;
  /// Links whose retry cap fired mid-cascade; drained into fail_link at
  /// the next quiescent point (escalating inside the cascade would re-enter
  /// broker state mid-flight).
  std::vector<std::pair<BrokerId, BrokerId>> pending_escalations_;
  /// Escalations already applied, awaiting take_escalated_links().
  std::vector<std::pair<BrokerId, BrokerId>> escalated_links_;
  bool draining_escalations_ = false;
  /// The delivered set of the publish call in progress, whose token is
  /// publication_token_ (a wire frame cannot carry a pointer). Local
  /// matches of any other token, such as a late retransmit of an earlier
  /// publication, go nowhere.
  std::vector<core::SubscriptionId>* sink_ = nullptr;

  /// Adds a client subscription to the registry; false (and no change)
  /// when its id is already registered.
  bool register_local(BrokerId home, const core::Subscription& sub,
                      std::optional<sim::SimTime> expiry);
  /// Removes a client subscription from the registry and cancels its
  /// expiry timer; unknown ids are a no-op.
  void forget_local(core::SubscriptionId id);

  /// The runtime of broker `id`, building the transport and any missing
  /// runtimes first.
  BrokerRuntime& runtime(BrokerId id);

  /// Runs the message cascade triggered "now" to completion: every hop adds
  /// one link latency and the cascade depth is bounded by the broker count,
  /// so events beyond now + (brokers+1) * latency belong to armed timers,
  /// not to this cascade. Keeps publish/subscribe from fast-forwarding the
  /// clock into future expiries.
  void run_cascade();

  /// Constructs broker `id` with the same derived seed original
  /// construction would have used (shared by add_broker, crash wipes, and
  /// restore_all).
  [[nodiscard]] Broker make_broker(BrokerId id) const;

  /// Builds the transport on first send (callbacks close over `this`, so
  /// construction is deferred past the moveable-config phase).
  SimTransport& ensure_transport();
  /// Applies pending retry-cap escalations as fail_link calls, looping
  /// until none remain (a purge cascade can escalate further links).
  /// Re-entrant calls (fail_link runs inside the drain) are no-ops.
  void drain_escalations();

  void require_alive(BrokerId broker, const char* what) const;

  /// Detach-side purge: resets the (at, dead) link's channel state, then
  /// `at`'s runtime purges every route learned over it. Caller runs the
  /// cascade.
  void detach_and_purge(BrokerId at, BrokerId dead);

  /// Brings a link up at the broker layer (both neighbour lists + mutual
  /// re-announcement) and runs the cascade. Link-state bookkeeping is the
  /// caller's (it differs per event kind).
  void attach_link(BrokerId a, BrokerId b);
};

}  // namespace psc::routing
