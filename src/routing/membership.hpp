// Membership — the shared vocabulary and link-graph state machine behind
// runtime overlay mutation (peer join/leave/crash/replace, link fail/heal).
//
// Three independent components must agree, transition for transition, on
// what the overlay's membership looks like: the BrokerNetwork (which moves
// real state around on every event), the FlatOracle (which only needs
// reachability to compute ground-truth delivered sets), and the workload
// generator (which must emit only feasible event sequences). LinkState is
// that single source of truth: each of the three owns one instance and
// drives it through the same mutations, so the *policy* decisions — which
// repair links to add when a peer leaves, which failed links a replacement
// heals — are made by one function and can never drift apart. The
// *correctness* question (does the overlay deliver exactly what the flat
// table says?) stays independent: the oracle never looks at routing state,
// only at components.
//
// Forest invariant: the LIVE link set always forms a spanning forest of
// the alive brokers. Reverse-path forwarding with coverage pruning is the
// paper's tree-based model — on a cyclic overlay, purging routes learned
// over a failed link would wrongly unsubscribe subscriptions still
// reachable the other way around the cycle. Every mutation preserves the
// invariant: attach/heal of a same-component pair throws, a leave repairs
// by starring the leaver's neighbours (which a tree guarantees are in
// distinct components), and a replacement heals only the subset of its
// former links that still bridge distinct components. Cyclic *universes*
// (rings, meshes) are expressed as a forest plus STANDBY links — bridges
// that are provisioned but down, eligible for heal_link when a partition
// makes them useful (SNIPPETS.md Snippet 1's dynamic-bridge shapes).
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace psc::routing {

using BrokerId = std::uint32_t;  // mirrors routing/broker.hpp

/// Membership event kinds, shared by the churn-trace codec (wire), the
/// workload generator, and the churn driver. Values are wire-stable.
enum class MembershipOpKind : std::uint8_t {
  kJoin = 1,      ///< new broker attaches to an existing one
  kLeave = 2,     ///< graceful departure; overlay repaired in place
  kCrash = 3,     ///< broker dies, state lost; links fail unilaterally
  kReplace = 4,   ///< crashed broker rebuilt from the client registry
  kFailLink = 5,  ///< link down: partition (until heal or replacement)
  kHealLink = 6,  ///< failed/standby link up, with re-announcement
};

/// The static shape a membership workload is generated against: initial
/// broker count, the live spanning-forest links, and the standby bridges.
/// Extracted from a built network via BrokerNetwork::universe().
struct MembershipUniverse {
  std::size_t brokers = 0;
  std::vector<std::pair<BrokerId, BrokerId>> links;
  std::vector<std::pair<BrokerId, BrokerId>> standby;
};

/// Alive set + live/failed link sets + component queries + repair plans.
/// Mutators validate the forest invariant and throw std::invalid_argument
/// (bad ids, unknown links) or std::logic_error (invariant violations).
class LinkState {
 public:
  LinkState() = default;

  /// Seeds the state from a universe: all brokers alive, `links` live,
  /// `standby` failed-but-provisioned.
  explicit LinkState(const MembershipUniverse& universe);

  /// Adds a broker (dense ids); returns its id. Alive, no links.
  BrokerId add_broker();

  /// Adds a live link. Throws std::logic_error if both endpoints are alive
  /// and already connected (cycle), std::invalid_argument on bad ids.
  void add_link(BrokerId a, BrokerId b);

  /// Registers a provisioned-but-down bridge (heal_link brings it up).
  void add_standby(BrokerId a, BrokerId b);

  /// Moves a live link to the failed set (partition event).
  void fail_link(BrokerId a, BrokerId b);

  /// Moves a failed/standby link to the live set. Throws std::logic_error
  /// if the endpoints are already in one component (would close a cycle).
  void heal_link(BrokerId a, BrokerId b);

  /// Graceful leave: removes b and every incident link (live and failed),
  /// then repairs by starring b's former live-link neighbours (ascending
  /// id, first neighbour is the hub), skipping pairs a prior repair
  /// already connected. Returns the repair links actually added.
  std::vector<std::pair<BrokerId, BrokerId>> remove_peer(BrokerId b);

  /// Crash: b dies; every incident live link moves to the failed set
  /// (replacement heals them; until then they partition). Returns the
  /// links that failed.
  std::vector<std::pair<BrokerId, BrokerId>> crash_peer(BrokerId b);

  /// Restore-only: marks a broker dead with no repair plan, for rebuilding
  /// a serialized alive bitmap. Throws std::logic_error if a live link is
  /// still incident (a snapshotted dead broker never has one — crash and
  /// leave both take their links down first).
  void set_dead(BrokerId b);

  /// Replacement: b comes back alive and heals, in ascending-peer order,
  /// each former (failed) link whose far endpoint is alive and still in a
  /// different component. Returns the links healed.
  std::vector<std::pair<BrokerId, BrokerId>> replace_peer(BrokerId b);

  [[nodiscard]] std::size_t broker_count() const noexcept { return alive_.size(); }
  [[nodiscard]] std::size_t alive_count() const noexcept;
  [[nodiscard]] bool is_alive(BrokerId b) const;
  [[nodiscard]] bool has_link(BrokerId a, BrokerId b) const;
  [[nodiscard]] bool has_failed_link(BrokerId a, BrokerId b) const;

  /// Live-link neighbours of `b`, ascending.
  [[nodiscard]] std::vector<BrokerId> neighbors(BrokerId b) const;

  /// Component id of an ALIVE broker under the live link set; dead brokers
  /// belong to no component (same_component is false for them).
  [[nodiscard]] bool same_component(BrokerId a, BrokerId b) const;
  [[nodiscard]] std::size_t component_count() const;

  [[nodiscard]] const std::set<std::pair<BrokerId, BrokerId>>& live_links()
      const noexcept {
    return links_;
  }
  [[nodiscard]] const std::set<std::pair<BrokerId, BrokerId>>& failed_links()
      const noexcept {
    return failed_;
  }

 private:
  std::vector<char> alive_;
  /// Normalized (min, max) pairs; std::set for deterministic iteration.
  std::set<std::pair<BrokerId, BrokerId>> links_;
  std::set<std::pair<BrokerId, BrokerId>> failed_;

  /// Component label per broker (0..component_count_-1 over the alive
  /// brokers), rebuilt by one BFS after any change to the live links.
  mutable std::vector<std::uint32_t> component_;
  mutable std::uint32_t component_count_ = 0;
  mutable bool components_dirty_ = true;

  void check_id(BrokerId b, const char* what) const;
  void refresh_components() const;
};

}  // namespace psc::routing
