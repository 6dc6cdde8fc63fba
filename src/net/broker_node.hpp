// BrokerNode — one broker as a real process: the routing::Broker policy
// core wired to a TcpTransport instead of the BrokerNetwork/EventQueue
// harness. Its dispatch and deliver_* bodies mirror BrokerNetwork's
// (routing/broker_network.cpp) hop for hop — same handle_* calls, same
// forwarding loops, same Announcement fields — so the delivered sets a TCP
// cluster produces are gated against the same FlatOracle ground truth the
// sim's differential suites use.
//
// Scope (what the TCP op vocabulary covers): subscribe / unsubscribe /
// publish client ops and EOF-triggered peer-death purges. TTL expiries are
// accepted on the wire (the announcement codec carries them) and armed on
// the transport's wall clock, but cluster traces run with TTLs disabled —
// wall-clock time is not the sim clock, so expiry instants would not be
// comparable. Membership repair beyond crash-purge (heal, replace) stays a
// sim-side concern.
//
// Delivered-set plumbing: the sim collects per-publication matches through
// pub_sinks_ pointers; a process cannot. Instead every local match is
// added to the transport's active cascade record, and the record tree's
// kDone aggregation returns the full delivered set to the op's root — the
// supervisor gets it in the kOpResult, byte-comparable to the oracle.
#pragma once

#include <cstdint>
#include <optional>

#include "net/message.hpp"
#include "net/tcp_transport.hpp"
#include "routing/broker.hpp"
#include "store/subscription_store.hpp"

namespace psc::net {

struct BrokerNodeOptions {
  routing::BrokerId id = 0;
  /// The cluster-wide seed (NetworkConfig::seed). The per-broker store
  /// seed derives from it through routing::broker_seed, as in the
  /// simulator, so a TCP broker's coverage decisions match its sim twin's.
  std::uint64_t network_seed = 0xfeedbeefULL;
  std::size_t match_shards = 1;
  store::StoreConfig store;
  TcpTransportConfig transport;
};

class BrokerNode {
 public:
  explicit BrokerNode(BrokerNodeOptions options);

  /// Dials peers and serves the epoll loop until the supervisor
  /// disconnects or sends kShutdown.
  void run();

  [[nodiscard]] const routing::Broker& broker() const noexcept { return broker_; }

 private:
  void dispatch_frame(routing::BrokerId from, const wire::Announcement& msg);
  void deliver_subscription(const core::Subscription& sub,
                            const routing::Origin& origin,
                            std::optional<double> expiry);
  void deliver_unsubscription(core::SubscriptionId id,
                              const routing::Origin& origin);
  void deliver_publication(const core::Publication& pub,
                           const routing::Origin& origin, std::uint64_t token);
  void handle_client_op(const NetMessage& msg);
  void handle_peer_death(routing::BrokerId peer);

  routing::Broker broker_;
  TcpTransport transport_;
  routing::Broker::PublishScratch publish_scratch_;
};

/// Entry point for the psc_brokerd executable (tools/brokerd_main.cpp):
/// parses --id / --listen-fd / --seed / --match-shards / --policy /
/// --neighbors / --ports, builds a BrokerNode, and serves. Returns the
/// process exit code.
int run_brokerd(int argc, const char* const* argv);

}  // namespace psc::net
