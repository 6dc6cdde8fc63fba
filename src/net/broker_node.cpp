#include "net/broker_node.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <exception>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "net/tcp_transport.hpp"
#include "routing/broker.hpp"
#include "routing/broker_runtime.hpp"
#include "sim/metrics.hpp"
#include "store/subscription_store.hpp"
#include "util/flags.hpp"

namespace psc::net {
namespace {

/// One client op as a cascade root; the kOpResult carries the delivered set
/// once the whole cascade has completed.
void serve_client_op(TcpTransport& transport, routing::BrokerRuntime& runtime,
                     const NetMessage& msg) {
  const routing::Origin local{true, routing::kInvalidBroker};
  if (msg.op == ClientOpKind::kShutdown) {
    transport.stop();
    return;
  }
  const std::uint64_t op_id = msg.op_id;
  transport.begin_root();
  switch (msg.op) {
    case ClientOpKind::kSubscribe:
      runtime.subscribe(msg.sub, local, std::nullopt);
      break;
    case ClientOpKind::kUnsubscribe:
      runtime.unsubscribe(msg.id, local);
      break;
    case ClientOpKind::kPublish:
      // The token is driver-assigned (globally unique without broker
      // coordination); the source marks it seen like any other hop.
      runtime.publish(msg.pub, local, msg.token);
      break;
    case ClientOpKind::kShutdown:
      break;  // handled above
  }
  transport.end_root(
      [&transport, op_id](std::vector<core::SubscriptionId> ids) {
        // The root's merged ids arrive in cascade-completion order; the
        // supervisor compares sets, so sort/dedup here once.
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        NetMessage result;
        result.kind = NetMessage::Kind::kOpResult;
        result.op_id = op_id;
        result.ids = std::move(ids);
        transport.send_to_client(result);
      });
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> items;
  std::stringstream in(list);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

}  // namespace

int run_brokerd(int argc, const char* const* argv) {
  // A peer SIGKILLed mid-write must surface as EPIPE (handled by the
  // failed-connection sweep), not kill this process too.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const util::Flags flags(argc, argv);
    const auto id = static_cast<routing::BrokerId>(flags.get_int("id", 0));
    // The cluster-wide seed (NetworkConfig::seed): the per-broker store
    // seed derives from it through routing::broker_seed, as in the
    // simulator, so a TCP broker's coverage decisions match its sim twin's.
    const std::uint64_t network_seed = flags.get_uint64("seed", 0xfeedbeefULL);
    store::StoreConfig store;
    try {
      store.policy =
          store::parse_coverage_policy(flags.get_string("policy", "exact"));
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "psc_brokerd: --policy: %s\n", error.what());
      return 2;
    }
    TcpTransportConfig config;
    config.self = id;
    config.listen_fd = static_cast<int>(flags.get_int("listen-fd", -1));
    for (const std::string& item :
         split_csv(flags.get_string("neighbors", ""))) {
      config.neighbors.push_back(
          static_cast<routing::BrokerId>(std::stoul(item)));
    }
    for (const std::string& item : split_csv(flags.get_string("ports", ""))) {
      config.ports.push_back(static_cast<std::uint16_t>(std::stoul(item)));
    }

    routing::Broker broker(id, store, routing::broker_seed(network_seed, id));
    for (const routing::BrokerId neighbor : config.neighbors) {
      broker.add_neighbor(neighbor);
    }
    TcpTransport transport(config);
    sim::Metrics metrics;
    routing::Broker::PublishScratch scratch;
    routing::BrokerRuntime runtime(
        broker, transport, metrics, scratch,
        [&transport](std::uint64_t, std::span<const core::SubscriptionId> ids) {
          transport.add_delivered(ids);
        },
        [](core::SubscriptionId) {
          return routing::BrokerRuntime::Registration{};
        });

    transport.set_frame_handler(
        [&runtime](routing::BrokerId from, routing::BrokerId,
                   const wire::Announcement& msg) {
          runtime.on_frame(from, msg);
        });
    transport.set_client_handler([&transport, &runtime](const NetMessage& msg) {
      serve_client_op(transport, runtime, msg);
    });
    transport.set_peer_death_handler([&transport, &runtime, id](
                                         routing::BrokerId peer) {
      // The purge is a cascade root: kPeerDown fires only once its cascade
      // tree has quiesced, so the supervisor can serialize repair against
      // in-flight traffic.
      transport.begin_root();
      runtime.purge_peer(peer);
      transport.end_root(
          [&transport, id, peer](std::vector<core::SubscriptionId>) {
            transport.send_to_client(
                make_event(EventKind::kPeerDown, id, peer));
          });
    });
    transport.set_ready_handler([&transport, id]() {
      transport.send_to_client(make_event(EventKind::kReady, id, 0));
    });
    transport.connect_peers();
    transport.run();
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "psc_brokerd: fatal: %s\n", error.what());
    return 1;
  }
}

}  // namespace psc::net
