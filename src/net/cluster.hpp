// net::Cluster — the supervisor side of the TCP transport: spawns one
// psc_brokerd process per broker and drives the whole overlay as a client.
//
// Startup choreography (race-free by construction):
//   1. bind + listen one 127.0.0.1:0 socket per broker (kernel-assigned
//      ports; parallel test runs never collide);
//   2. fork+exec every brokerd with its OWN listener inherited by fd (the
//      accept queue exists before any process runs, so a fast broker
//      dialing a slow one just lands in the backlog);
//   3. each broker dials its lower-id neighbours; the supervisor dials
//      every broker as a client (kClientSender hello);
//   4. wait for kReady from every broker (sent once all its links are
//      handshaken) — then the mesh is up and ops can flow.
//
// Ops are serialized: one kClientOp at a time, blocking until the home
// broker's kOpResult arrives. The result's ids are the cascade-complete
// delivered set (see tcp_transport.hpp's termination records), so each op
// is a quiescence barrier exactly like the sim's run_cascade — which is
// what makes delivered sets comparable against FlatOracle despite
// wall-clock interleaving inside the cascade.
//
// kill_broker is the fault leg: SIGKILL mid-trace, then wait for every
// surviving neighbour's kPeerDown (its EOF-triggered purge finished — the
// same BrokerRuntime::purge_peer the sim's fail_link repair path runs).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/publication.hpp"
#include "core/subscription.hpp"
#include "net/frame.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "routing/broker.hpp"
#include "routing/membership.hpp"

namespace psc::net {

struct ClusterOptions {
  /// Path to the psc_brokerd executable (tests compile it in via the
  /// PSC_BROKERD_BIN definition).
  std::string brokerd_path;
  std::size_t brokers = 0;
  /// Undirected overlay links over [0, brokers); the constructor throws
  /// unless they form a forest (no cycle, no repeated link).
  std::vector<std::pair<routing::BrokerId, routing::BrokerId>> links;
  std::uint64_t seed = 0xfeedbeefULL;
  /// Ignored: a broker's publish lane is one store and psc_brokerd takes
  /// no shard count. Kept because the repository benchmark sets it.
  std::size_t match_shards = 1;
  /// Coverage policy name passed through to brokerd (--policy). The
  /// differential default is "exact": every suppression is definite, so
  /// delivered sets must equal the oracle's bit for bit.
  std::string policy = "exact";
  /// Per-wait timeout for op results / readiness / purge events.
  double timeout_s = 30.0;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  /// Destructor force-kills and reaps any broker still running.
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Spawns the processes and blocks until every broker reported ready.
  void start();

  /// Client ops (serialized, each a quiescence barrier). Publish returns
  /// the cascade-complete delivered ids, sorted ascending, deduplicated.
  void subscribe(routing::BrokerId broker, const core::Subscription& sub);
  void unsubscribe(routing::BrokerId broker, core::SubscriptionId id);
  [[nodiscard]] std::vector<core::SubscriptionId> publish(
      routing::BrokerId broker, const core::Publication& pub);

  /// SIGKILLs `broker` and blocks until every surviving neighbour finished
  /// its EOF-triggered purge (kPeerDown received from each).
  void kill_broker(routing::BrokerId broker);

  /// Graceful teardown: kShutdown to every live broker, then reap.
  void shutdown();

  [[nodiscard]] bool is_alive(routing::BrokerId broker) const;
  [[nodiscard]] std::size_t broker_count() const noexcept { return members_.size(); }
  /// The overlay's static shape, for FlatOracle::enable_membership.
  [[nodiscard]] routing::MembershipUniverse universe() const;

 private:
  struct Member {
    int pid = -1;
    Fd listener;
    std::uint16_t port = 0;
    Fd conn;            ///< supervisor's client connection
    FrameReader reader;
    bool ready = false;
    bool alive = true;
    std::vector<routing::BrokerId> neighbors;
  };

  void spawn(routing::BrokerId id);
  void send_message(Member& member, const NetMessage& msg);
  /// Blocks until one complete NetMessage from `member` (poll + timeout).
  [[nodiscard]] NetMessage read_message(Member& member);
  /// Runs one op against `broker` and returns the kOpResult ids.
  std::vector<core::SubscriptionId> run_op(routing::BrokerId broker,
                                           NetMessage op);
  void reap(Member& member) noexcept;

  ClusterOptions options_;
  std::vector<Member> members_;
  std::uint64_t next_op_id_ = 1;
  std::uint64_t next_token_ = 1;  ///< driver-assigned publication tokens
  bool started_ = false;
};

}  // namespace psc::net
