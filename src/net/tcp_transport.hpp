// TcpTransport — the second implementation of the routing::Transport seam:
// real sockets instead of the discrete-event queue. One instance lives in
// each broker process (see net/broker_node.hpp) and owns:
//
//   * the epoll event loop: the inherited listening socket, one nonblocking
//     connection per overlay neighbour (higher id dials lower id, so each
//     link is established exactly once), and the supervisor's client
//     connection. All fds are level-triggered; partial reads accumulate in
//     a per-connection FrameReader and partial writes drain from a
//     per-connection outbound buffer gated on EPOLLOUT.
//   * the versioned handshake: every connection opens with
//     kHello{wire::kCodecVersion, self}; a hello announcing any other
//     version — or any other first message — is fatal (the process
//     exits; the supervisor sees EOF).
//   * frame integrity: every Announcement rides a v3 wire::LinkFrame with a
//     per-directed-connection sequence number checked against the
//     receiver's cumulative count — TCP already guarantees ordered
//     delivery, so a gap can only mean a framing bug, and it trips
//     immediately instead of corrupting routing state.
//   * cascade termination (the TCP replacement for the sim's run_cascade):
//     every inbound kData opens a record; frames the handler sends while it
//     runs become the record's children (fresh nonces); the record's kDone
//     — carrying the delivered ids collected beneath it — flows back once
//     all children have replied. Roots (client ops, peer-death purges) use
//     begin_root/end_root and get their completion via callback. This is
//     Dijkstra-Scholten termination detection specialized to the acyclic
//     overlay: quiescence is detected exactly, with zero timeouts.
//   * teardown escalation: EOF or a write error on a peer connection
//     resolves that peer's outstanding child nonces (empty Dones — the
//     branch died with it) and hands the peer id to the death handler,
//     which runs the same purge path a sim fail_link does.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "routing/transport.hpp"

namespace psc::net {

struct TcpTransportConfig {
  routing::BrokerId self = 0;
  int listen_fd = -1;  ///< inherited from the supervisor, already listening
  /// Overlay neighbours; this process dials those with id < self and
  /// accepts those with id > self.
  std::vector<routing::BrokerId> neighbors;
  /// ports[id] = loopback port of broker `id`'s listener (dial targets).
  std::vector<std::uint16_t> ports;
};

class TcpTransport final : public routing::Transport {
 public:
  /// Supervisor traffic (kClientOp) arriving on the client connection.
  using ClientHandler = std::function<void(const NetMessage& msg)>;
  /// A peer connection died (EOF / write error). Runs after the peer's
  /// outstanding cascade branches were resolved; typically purges routes.
  using PeerDeathHandler = std::function<void(routing::BrokerId peer)>;
  /// Root-cascade completion: the sorted-merged delivered ids beneath it.
  using CompleteFn = std::function<void(std::vector<core::SubscriptionId> ids)>;

  explicit TcpTransport(TcpTransportConfig config);
  ~TcpTransport() override;

  // --- routing::Transport -----------------------------------------------

  void set_frame_handler(FrameHandler handler) override;
  /// `from` must be this process's broker id. Frames to a dead/unknown
  /// peer are dropped (the link is gone; the purge path owns cleanup).
  void send_frame(routing::BrokerId from, routing::BrokerId to,
                  const wire::Announcement& msg) override;
  /// Wall seconds (CLOCK_MONOTONIC) since transport construction.
  [[nodiscard]] sim::SimTime now() const override;
  TimerId schedule_timer_at(sim::SimTime at, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;

  // --- lifecycle ----------------------------------------------------------

  void set_client_handler(ClientHandler handler);
  void set_peer_death_handler(PeerDeathHandler handler);
  /// Invoked once, when every neighbour link is handshaken AND the
  /// supervisor connection is handshaken (the broker-ready condition).
  void set_ready_handler(std::function<void()> handler);

  /// Dials every lower-id neighbour and queues hellos. The listeners were
  /// bound by the supervisor before any fork, so connects cannot race.
  void connect_peers();

  /// Runs the epoll loop until stop() or the supervisor connection closes.
  void run();
  void stop() noexcept { running_ = false; }

  // --- cascade records ----------------------------------------------------

  /// Opens a root record: frames sent until the matching end_root() are
  /// its children. Must not nest inside another active record.
  void begin_root();
  /// Closes the root. `on_complete` fires with the merged delivered ids
  /// once every child has replied — synchronously, inside this call, when
  /// the root spawned no children.
  void end_root(CompleteFn on_complete);
  /// Adds locally-delivered ids to the active record (publication matches
  /// at this broker). No-op with no record active (e.g. a subscribe op's
  /// flood — nothing is delivered).
  void add_delivered(std::span<const core::SubscriptionId> ids);

  /// Queues `msg` on the supervisor connection (OpResult, Event). Dropped
  /// if the supervisor is gone (the process is about to exit anyway).
  void send_to_client(const NetMessage& msg);

  [[nodiscard]] routing::BrokerId self() const noexcept { return config_.self; }

 private:
  struct Connection {
    Fd fd;
    routing::BrokerId peer = routing::kInvalidBroker;  ///< set by hello
    bool is_client = false;
    bool hello_received = false;
    FrameReader reader;
    std::vector<std::uint8_t> out;  ///< unsent bytes (drained from front)
    std::size_t out_off = 0;
    bool want_write = false;        ///< EPOLLOUT currently registered
    /// EOF or hard I/O error seen; the event loop's death sweep runs
    /// connection_lost outside any half-updated cascade record.
    bool failed = false;
    std::uint64_t send_seq = 0;     ///< next kData LinkFrame seq to send
    std::uint64_t recv_seq = 0;     ///< next kData LinkFrame seq expected
  };

  struct CascadeRecord {
    std::uint64_t key = 0;      ///< index in records_
    std::uint64_t nonce = 0;    ///< inbound nonce to kDone (non-root)
    routing::BrokerId reply_peer = routing::kInvalidBroker;  ///< root: invalid
    CompleteFn on_complete;     ///< root only
    std::size_t pending = 0;    ///< children awaiting kDone
    bool closed = false;        ///< handler returned / end_root called
    std::vector<core::SubscriptionId> ids;
  };

  struct PendingChild {
    std::uint64_t record_key = 0;
    routing::BrokerId target = routing::kInvalidBroker;
  };

  struct PendingTimer {
    sim::SimTime deadline = 0;
    std::function<void()> fn;
  };

  Connection& register_connection(Fd fd, routing::BrokerId peer,
                                  bool dialed_out);
  void queue_message(Connection& conn, const NetMessage& msg);
  void flush_out(Connection& conn);
  void update_write_interest(Connection& conn);
  void handle_readable(int fd);
  void handle_message(Connection& conn, const NetMessage& msg);
  void handle_data(Connection& conn, const NetMessage& msg);
  void handle_done(std::uint64_t child_nonce,
                   std::span<const core::SubscriptionId> ids);
  void connection_lost(int fd);
  void maybe_complete(CascadeRecord& record);
  void check_ready();
  void fire_due_timers();
  [[nodiscard]] int epoll_timeout_ms() const;

  TcpTransportConfig config_;
  Fd epoll_;
  FrameHandler handler_;
  ClientHandler client_handler_;
  PeerDeathHandler peer_death_handler_;
  std::function<void()> ready_handler_;
  bool ready_fired_ = false;
  bool running_ = false;
  bool client_seen_ = false;

  std::unordered_map<int, std::unique_ptr<Connection>> connections_;  ///< by fd
  std::unordered_map<routing::BrokerId, int> peer_fds_;
  int client_fd_ = -1;

  std::unordered_map<std::uint64_t, std::unique_ptr<CascadeRecord>> records_;
  std::unordered_map<std::uint64_t, PendingChild> children_;  ///< by child nonce
  CascadeRecord* active_ = nullptr;
  std::uint64_t next_nonce_ = 1;
  std::uint64_t next_record_key_ = 1;

  std::map<TimerId, PendingTimer> timers_;  ///< ordered: scan for due/next
  TimerId next_timer_id_ = 1;
  double epoch_ = 0;  ///< CLOCK_MONOTONIC at construction; now() subtracts

  std::vector<std::uint8_t> read_chunk_;   ///< reused recv buffer
  std::vector<std::uint8_t> frame_scratch_;  ///< reused frame payload
};

}  // namespace psc::net
