// BrokerRuntime — one broker's side of the routing protocol (paper,
// Section 2): subscription flooding with coverage pruning, unsubscription
// cascades with promotion re-announcement, TTL expiry, and reverse-path
// publication forwarding. It turns arriving frames and client operations
// into Broker decisions and sends every resulting hop through the
// routing::Transport seam. The simulator (BrokerNetwork) runs one per
// broker over SimTransport; psc_brokerd runs one over TcpTransport. What
// differs between those hosts is passed in as two callbacks:
//
//   * deliver — where this broker's local publication matches go (the sim
//     appends them to the publish call's sink, keyed by token; TCP adds
//     them to the active cascade record);
//   * lookup  — whether a subscription about to be re-announced is still
//     registered at its subscriber, and its TTL expiry (the sim asks its
//     client registry; TCP has none, so every id is live with no expiry).
//
// The host owns the Broker, the counters and the publish scratch. Timers
// the runtime arms capture it, so it must outlive its transport's pending
// timers; a crashed broker is wiped in place (the host assigns a fresh
// Broker), and its armed timers resolve against the replacement.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "routing/broker.hpp"
#include "routing/transport.hpp"
#include "sim/metrics.hpp"
#include "wire/codec.hpp"

namespace psc::routing {

class BrokerRuntime {
 public:
  /// Local matches of publication `token` at this broker (never empty).
  using DeliverFn = std::function<void(
      std::uint64_t token, std::span<const core::SubscriptionId> ids)>;

  /// The subscriber-side registration of a subscription.
  struct Registration {
    bool live = true;  ///< false: gone at its subscriber; do not re-announce
    std::optional<sim::SimTime> expiry;  ///< TTL expiry the receiver arms
  };
  using LookupFn = std::function<Registration(core::SubscriptionId id)>;

  BrokerRuntime(Broker& broker, Transport& transport, sim::Metrics& metrics,
                Broker::PublishScratch& scratch, DeliverFn deliver,
                LookupFn lookup);

  /// The frame handler: routes an Announcement that arrived over the link
  /// from neighbour `from` to the matching operation below.
  void on_frame(BrokerId from, const wire::Announcement& msg);

  /// A subscription arrives from `origin`: records the route, arms its
  /// expiry timer (every broker that routes a TTL subscription expires it
  /// itself, so removal costs no messages — Section 5), and forwards it
  /// on every link whose coverage does not suppress it.
  void subscribe(const core::Subscription& sub, Origin origin,
                 std::optional<sim::SimTime> expiry);

  /// An unsubscription arrives from `origin`: forwards it on the links
  /// that carried the subscription and re-announces what it promoted.
  void unsubscribe(core::SubscriptionId id, Origin origin);

  /// A publication arrives from `origin`: delivers the local matches and
  /// forwards it along the reverse paths. Each token is handled once.
  void publish(const core::Publication& pub, Origin origin,
               std::uint64_t token);

  /// Arms this broker's expiry timer for `id` at transport time `expiry`;
  /// when it fires the broker drops the route and re-announces what the
  /// removal promoted.
  void arm_expiry(core::SubscriptionId id, sim::SimTime expiry);

  /// Link-attach re-announcement: floods the uncovered part of the routing
  /// table over the fresh link to `to`, in ascending id order.
  void announce_over(BrokerId to);

  /// Peer-loss purge: detaches `peer` and unsubscribes, in ascending id
  /// order, every route learned over that link.
  void purge_peer(BrokerId peer);

 private:
  /// Re-announces `sub` to `next` with its registered expiry and returns
  /// true; false (nothing sent) when the subscriber no longer registers
  /// it, since announcing it would plant a route nothing cleans up.
  bool reannounce(BrokerId next, const core::Subscription& sub);
  void send_subscription(BrokerId next, const core::Subscription& sub,
                         std::optional<sim::SimTime> expiry);

  Broker& broker_;
  Transport& transport_;
  sim::Metrics& metrics_;
  Broker::PublishScratch& scratch_;
  DeliverFn deliver_;
  LookupFn lookup_;
};

}  // namespace psc::routing
