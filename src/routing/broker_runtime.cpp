#include "routing/broker_runtime.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace psc::routing {

using core::Publication;
using core::Subscription;
using core::SubscriptionId;

BrokerRuntime::BrokerRuntime(Broker& broker, Transport& transport,
                             sim::Metrics& metrics,
                             Broker::PublishScratch& scratch,
                             DeliverFn deliver, LookupFn lookup)
    : broker_(broker),
      transport_(transport),
      metrics_(metrics),
      scratch_(scratch),
      deliver_(std::move(deliver)),
      lookup_(std::move(lookup)) {}

void BrokerRuntime::on_frame(BrokerId from, const wire::Announcement& msg) {
  const Origin origin{false, from};
  switch (msg.kind) {
    case wire::Announcement::Kind::kSubscribe:
      subscribe(msg.sub, origin, msg.expiry);
      break;
    case wire::Announcement::Kind::kUnsubscribe:
      unsubscribe(msg.id, origin);
      break;
    case wire::Announcement::Kind::kPublication:
      publish(msg.pub, origin, msg.token);
      break;
  }
}

void BrokerRuntime::subscribe(const Subscription& sub, Origin origin,
                              std::optional<sim::SimTime> expiry) {
  std::uint64_t suppressed = 0;
  const std::vector<BrokerId> forward_to =
      broker_.handle_subscription(sub, origin, &suppressed);
  metrics_.subscriptions_suppressed += suppressed;
  if (expiry) {
    arm_expiry(sub.id(), *expiry);
  } else {
    cancel_expiry(sub.id());
  }
  for (const BrokerId next : forward_to) send_subscription(next, sub, expiry);
}

void BrokerRuntime::unsubscribe(SubscriptionId id, Origin origin) {
  cancel_expiry(id);
  const Broker::UnsubscriptionOutcome outcome =
      broker_.handle_unsubscription(id, origin);
  for (const BrokerId next : outcome.forward_to) {
    ++metrics_.unsubscription_messages;
    wire::Announcement msg;
    msg.kind = wire::Announcement::Kind::kUnsubscribe;
    msg.from = broker_.id();
    msg.id = id;
    transport_.send_frame(broker_.id(), next, msg);
  }
  // Promoted subscriptions flow as fresh subscription messages: the
  // neighbour never saw them while they were covered. The receiving broker
  // treats it like any subscription arrival (duplicate-suppressed if it
  // somehow already routes the id).
  metrics_.subscriptions_promoted += outcome.reannounce.size();
  for (const auto& [next, sub] : outcome.reannounce) reannounce(next, sub);
}

void BrokerRuntime::publish(const Publication& pub, Origin origin,
                            std::uint64_t token) {
  // The route lives in the host's shared scratch and is consumed before
  // this call returns: sends copy what they need, so the next hop reusing
  // the scratch is safe.
  const Broker::PublicationRoute& route =
      broker_.handle_publication(pub, origin, scratch_);
  if (!route.local_matches.empty()) deliver_(token, route.local_matches);
  for (const BrokerId next : route.destinations) {
    ++metrics_.publication_messages;
    wire::Announcement msg;
    msg.kind = wire::Announcement::Kind::kPublication;
    msg.from = broker_.id();
    msg.pub = pub;
    msg.token = token;
    transport_.send_frame(broker_.id(), next, msg);
  }
}

void BrokerRuntime::arm_expiry(SubscriptionId id, sim::SimTime expiry) {
  cancel_expiry(id);
  expiry_timers_[id] = transport_.schedule_timer_at(expiry, [this, id]() {
    expiry_timers_.erase(id);
    const auto promoted = broker_.handle_expiry(id);
    metrics_.subscriptions_promoted += promoted.size();
    for (const auto& [next, sub] : promoted) reannounce(next, sub);
  });
}

void BrokerRuntime::announce_over(BrokerId to) {
  const Broker::AnnounceOutcome outcome = broker_.announce_all_to(to);
  metrics_.subscriptions_suppressed += outcome.suppressed;
  // A routed id its subscriber no longer registers is a ghost (gated to
  // zero elsewhere): reannounce skips rather than spreads it.
  for (const Subscription& sub : outcome.announce) {
    if (reannounce(to, sub)) ++metrics_.reannounced_subscriptions;
  }
}

void BrokerRuntime::purge_peer(BrokerId peer) {
  broker_.remove_neighbor(peer);
  // Ascending id for determinism: the routing table iterates in hash
  // order. The origin marks the dead link so the cascade never crosses it.
  const Origin dead{false, peer};
  std::vector<SubscriptionId> ids = broker_.subscriptions_from(dead);
  std::sort(ids.begin(), ids.end());
  for (const SubscriptionId id : ids) unsubscribe(id, dead);
}

void BrokerRuntime::cancel_expiry(SubscriptionId id) {
  const auto timer = expiry_timers_.find(id);
  if (timer == expiry_timers_.end()) return;
  transport_.cancel_timer(timer->second);
  expiry_timers_.erase(timer);
}

bool BrokerRuntime::reannounce(BrokerId next, const Subscription& sub) {
  // It travels with its original TTL expiry, or the receiver would hold it
  // forever. Gone at its subscriber (its own removal fires at this same
  // instant): every broker that routes it runs its own removal anyway.
  const Registration registration = lookup_(sub.id());
  if (registration.live) send_subscription(next, sub, registration.expiry);
  return registration.live;
}

void BrokerRuntime::send_subscription(BrokerId next, const Subscription& sub,
                                      std::optional<sim::SimTime> expiry) {
  ++metrics_.subscription_messages;
  wire::Announcement msg;
  msg.kind = wire::Announcement::Kind::kSubscribe;
  msg.from = broker_.id();
  msg.sub = sub;
  msg.expiry = expiry;
  transport_.send_frame(broker_.id(), next, msg);
}

}  // namespace psc::routing
