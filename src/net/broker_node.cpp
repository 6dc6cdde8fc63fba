#include "net/broker_node.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/flags.hpp"

namespace psc::net {

BrokerNode::BrokerNode(BrokerNodeOptions options)
    : broker_(options.id, options.store,
              routing::broker_seed(options.network_seed, options.id),
              options.match_shards),
      transport_(options.transport) {
  for (const routing::BrokerId neighbor : options.transport.neighbors) {
    broker_.add_neighbor(neighbor);
  }
  transport_.set_frame_handler(
      [this](routing::BrokerId from, routing::BrokerId,
             const wire::Announcement& msg) { dispatch_frame(from, msg); });
  transport_.set_client_handler(
      [this](const NetMessage& msg) { handle_client_op(msg); });
  transport_.set_peer_death_handler(
      [this](routing::BrokerId peer) { handle_peer_death(peer); });
  transport_.set_ready_handler([this]() {
    transport_.send_to_client(
        make_event(EventKind::kReady, transport_.self(), 0));
  });
}

void BrokerNode::run() {
  transport_.connect_peers();
  transport_.run();
}

void BrokerNode::dispatch_frame(routing::BrokerId from,
                                const wire::Announcement& msg) {
  // Mirror of BrokerNetwork::dispatch_frame.
  const routing::Origin origin{false, from};
  switch (msg.kind) {
    case wire::Announcement::Kind::kSubscribe:
      deliver_subscription(msg.sub, origin, msg.expiry);
      break;
    case wire::Announcement::Kind::kUnsubscribe:
      deliver_unsubscription(msg.id, origin);
      break;
    case wire::Announcement::Kind::kPublication:
      deliver_publication(msg.pub, origin, msg.token);
      break;
    case wire::Announcement::Kind::kMembership:
      break;  // membership ops are driver-issued, never link traffic
  }
}

void BrokerNode::deliver_subscription(const core::Subscription& sub,
                                      const routing::Origin& origin,
                                      std::optional<double> expiry) {
  const std::vector<routing::BrokerId> forward_to =
      broker_.handle_subscription(sub, origin);
  if (expiry) {
    // Accepted for wire parity; cluster traces keep TTLs off (sim time and
    // wall time are not comparable), so this timer is never armed there.
    const auto id = sub.id();
    (void)transport_.schedule_timer_at(*expiry, [this, id]() {
      const auto reannounce = broker_.handle_expiry(id);
      for (const auto& [next, promoted] : reannounce) {
        wire::Announcement msg;
        msg.kind = wire::Announcement::Kind::kSubscribe;
        msg.from = transport_.self();
        msg.sub = promoted;
        transport_.send_frame(transport_.self(), next, msg);
      }
    });
  }
  for (const routing::BrokerId next : forward_to) {
    wire::Announcement msg;
    msg.kind = wire::Announcement::Kind::kSubscribe;
    msg.from = transport_.self();
    msg.sub = sub;
    msg.expiry = expiry;
    transport_.send_frame(transport_.self(), next, msg);
  }
}

void BrokerNode::deliver_unsubscription(core::SubscriptionId id,
                                        const routing::Origin& origin) {
  const routing::Broker::UnsubscriptionOutcome outcome =
      broker_.handle_unsubscription(id, origin);
  for (const routing::BrokerId next : outcome.forward_to) {
    wire::Announcement msg;
    msg.kind = wire::Announcement::Kind::kUnsubscribe;
    msg.from = transport_.self();
    msg.id = id;
    transport_.send_frame(transport_.self(), next, msg);
  }
  // Promotions travel as fresh subscription announcements, like the sim's
  // schedule_reannounce. No registry TTL lookup here: the TCP vocabulary
  // is TTL-free, so every promoted subscription is live with no expiry.
  for (const auto& [next, sub] : outcome.reannounce) {
    wire::Announcement msg;
    msg.kind = wire::Announcement::Kind::kSubscribe;
    msg.from = transport_.self();
    msg.sub = sub;
    transport_.send_frame(transport_.self(), next, msg);
  }
}

void BrokerNode::deliver_publication(const core::Publication& pub,
                                     const routing::Origin& origin,
                                     std::uint64_t token) {
  if (!broker_.mark_publication_seen(token)) return;
  const routing::Broker::PublicationRoute& route =
      broker_.handle_publication(pub, origin, publish_scratch_);
  transport_.add_delivered(route.local_matches);
  for (const routing::BrokerId next : route.destinations) {
    wire::Announcement msg;
    msg.kind = wire::Announcement::Kind::kPublication;
    msg.from = transport_.self();
    msg.pub = pub;
    msg.token = token;
    transport_.send_frame(transport_.self(), next, msg);
  }
}

void BrokerNode::handle_client_op(const NetMessage& msg) {
  const routing::Origin local{true, routing::kInvalidBroker};
  if (msg.op == ClientOpKind::kShutdown) {
    transport_.stop();
    return;
  }
  const std::uint64_t op_id = msg.op_id;
  transport_.begin_root();
  switch (msg.op) {
    case ClientOpKind::kSubscribe:
      deliver_subscription(msg.sub, local, std::nullopt);
      break;
    case ClientOpKind::kUnsubscribe:
      deliver_unsubscription(msg.id, local);
      break;
    case ClientOpKind::kPublish:
      // The token is driver-assigned (globally unique without broker
      // coordination); marking it seen at the source mirrors publish_one.
      deliver_publication(msg.pub, local, msg.token);
      break;
    case ClientOpKind::kShutdown:
      break;  // handled above
  }
  transport_.end_root([this, op_id](std::vector<core::SubscriptionId> ids) {
    // The root's merged ids arrive in cascade-completion order; the
    // supervisor compares sets, so sort/dedup here once.
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    NetMessage result;
    result.kind = NetMessage::Kind::kOpResult;
    result.op_id = op_id;
    result.ids = std::move(ids);
    transport_.send_to_client(result);
  });
}

void BrokerNode::handle_peer_death(routing::BrokerId peer) {
  // Mirror of BrokerNetwork::detach_and_purge: drop the link, then purge
  // every route learned over it with the normal unsubscription cascade in
  // ascending id order. The kPeerDown event fires only when the purge's
  // cascade tree has quiesced, so the supervisor can serialize repair
  // against in-flight traffic.
  broker_.remove_neighbor(peer);
  std::vector<core::SubscriptionId> ids =
      broker_.subscriptions_from(routing::Origin{false, peer});
  std::sort(ids.begin(), ids.end());
  transport_.begin_root();
  for (const core::SubscriptionId sid : ids) {
    deliver_unsubscription(sid, routing::Origin{false, peer});
  }
  const routing::BrokerId self = transport_.self();
  transport_.end_root([this, self, peer](std::vector<core::SubscriptionId>) {
    transport_.send_to_client(make_event(EventKind::kPeerDown, self, peer));
  });
}

int run_brokerd(int argc, const char* const* argv) {
  // A peer SIGKILLed mid-write must surface as EPIPE (handled by the
  // failed-connection sweep), not kill this process too.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const util::Flags flags(argc, argv);
    BrokerNodeOptions options;
    options.id = static_cast<routing::BrokerId>(flags.get_int("id", 0));
    options.network_seed = flags.get_uint64("seed", 0xfeedbeefULL);
    options.match_shards =
        static_cast<std::size_t>(flags.get_int("match-shards", 1));
    try {
      options.store.policy =
          store::parse_coverage_policy(flags.get_string("policy", "exact"));
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "psc_brokerd: --policy: %s\n", error.what());
      return 2;
    }
    options.transport.self = options.id;
    options.transport.listen_fd =
        static_cast<int>(flags.get_int("listen-fd", -1));
    for (std::stringstream in(flags.get_string("neighbors", ""));
         in.good() && in.peek() != std::stringstream::traits_type::eof();) {
      std::string item;
      std::getline(in, item, ',');
      if (!item.empty()) {
        options.transport.neighbors.push_back(
            static_cast<routing::BrokerId>(std::stoul(item)));
      }
    }
    for (std::stringstream in(flags.get_string("ports", ""));
         in.good() && in.peek() != std::stringstream::traits_type::eof();) {
      std::string item;
      std::getline(in, item, ',');
      if (!item.empty()) {
        options.transport.ports.push_back(
            static_cast<std::uint16_t>(std::stoul(item)));
      }
    }
    BrokerNode node(std::move(options));
    node.run();
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "psc_brokerd: fatal: %s\n", error.what());
    return 1;
  }
}

}  // namespace psc::net
