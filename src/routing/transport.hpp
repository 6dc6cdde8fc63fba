// Transport — the hop-delivery seam between routing policy and frame
// mechanism.
//
// BrokerRuntime (the routing protocol) decides WHAT crosses each overlay link
// (subscription floods, unsubscription cascades, promotion re-announcements,
// reverse-path publication hops); a Transport decides HOW a frame gets from
// one broker to the other and WHEN it arrives. Splitting the two (the
// policy/mechanism separation the middleware literature argues for) lets the
// same broker logic run over:
//
//   * SimTransport  (sim_transport.hpp) — the deterministic discrete-event
//     wire: every hop is one EventQueue entry at now + latency, optionally
//     routed through the go-back-N LinkChannels protocol when the wire is
//     faulty. Behavior-identical to the pre-seam code paths by
//     construction: same schedule calls in the same order, so the event
//     sequence numbers (and therefore every tie-break and every delivered
//     set) are bit-for-bit unchanged.
//   * TcpTransport  (net/ — brokers as real processes) — nonblocking
//     epoll sockets with length-prefixed frames; `now` is wall-clock and
//     timers are epoll-timeout driven.
//
// The frame unit is wire::Announcement — the one message vocabulary every
// layer of the repo already speaks (codec, link channels, snapshots).
#pragma once

#include <cstdint>
#include <functional>

#include "routing/broker.hpp"
#include "sim/event_queue.hpp"
#include "wire/codec.hpp"

namespace psc::routing {

class Transport {
 public:
  /// Receive-side demux: an Announcement arrived at `to` over the directed
  /// link from `from`. Invoked mid-cascade; the handler may send more
  /// frames (and usually does).
  using FrameHandler = std::function<void(BrokerId from, BrokerId to,
                                          const wire::Announcement& msg)>;
  using TimerId = sim::EventQueue::TimerId;
  static constexpr TimerId kNoTimer = sim::EventQueue::kNoTimer;

  virtual ~Transport() = default;

  /// Installs the receive-side handler. Must be set before the first
  /// send_frame; frames arriving with no handler installed are dropped.
  virtual void set_frame_handler(FrameHandler handler) = 0;

  /// Queues `msg` for delivery from -> to. Ordering and reliability are
  /// the implementation's contract: SimTransport delivers in-order
  /// (perfect wire) or via the reliable link protocol (faulty wire);
  /// TcpTransport rides the socket's byte stream.
  virtual void send_frame(BrokerId from, BrokerId to,
                          const wire::Announcement& msg) = 0;

  /// The transport's clock (simulated seconds or wall seconds).
  [[nodiscard]] virtual sim::SimTime now() const = 0;

  /// Arms a cancelable timer at absolute transport time `at`.
  virtual TimerId schedule_timer_at(sim::SimTime at,
                                    std::function<void()> fn) = 0;

  /// Cancels a pending timer (idempotent; unknown ids are ignored). The
  /// handler is destroyed promptly — see EventQueue::cancel for why that
  /// matters.
  virtual void cancel_timer(TimerId id) = 0;
};

}  // namespace psc::routing
