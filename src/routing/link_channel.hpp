// LinkChannels — the reliable-delivery transport between brokers when the
// wire is unreliable (NetworkConfig::link.enabled).
//
// Every directed link (from -> to) carries an independent channel running a
// go-back-N protocol over wire::LinkFrame frames:
//   * the sender stamps each Announcement with a per-link monotone sequence
//     number, keeps up to `window` unacked frames (later sends park in a
//     backlog — backpressure, counted), and retransmits ALL unacked frames
//     when the retransmit timer fires, doubling the timeout up to rto_max;
//   * after `max_retries` consecutive timeouts with no ack progress the
//     channel gives up and ESCALATES: both directions mute, and the network
//     turns the escalation into a fail_link at the next quiescent point
//     (the PR-7 partition/repair machinery takes over from there);
//   * the receiver delivers exactly-once in-order: duplicates are
//     suppressed (and re-acked — the first ack may have been lost), gaps
//     park frames in a bounded reorder buffer that drains as the missing
//     frames arrive, and every delivery schedules a cumulative ack —
//     piggybacked on any data frame headed back, or a pure ack frame after
//     ack_delay when the reverse direction is idle.
//
// Faults come from a per-directed-link sim::LinkFaultModel (seeded, so two
// runs with one seed see identical fault schedules) plus scripted
// burst-loss windows installed from the workload trace. The protocol makes
// delivery fault-INVARIANT — the differential soaks replay the same trace
// with and without faults and demand identical delivered sets — except
// where a burst outlives the whole retransmit chain, which deterministic-
// ally escalates into the same fail_link the oracle mirrors.
//
// Determinism & safety notes:
//   * all timers capture (key, epoch, generation) values, never pointers;
//     a fired timer re-looks the channel up and drops itself when stale;
//   * reset_link bumps the epoch, so in-flight arrivals and timers from
//     before a fail/heal/crash/restore can never leak into the new link
//     incarnation;
//   * frames are actually encoded/decoded through wire::write_link_frame /
//     read_link_frame per transmission, so the codec path is exercised on
//     every lossy hop.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "routing/broker.hpp"
#include "sim/event_queue.hpp"
#include "sim/link_fault_model.hpp"
#include "sim/metrics.hpp"
#include "wire/codec.hpp"

namespace psc::routing {

/// Reliable-link protocol knobs (NetworkConfig::link). Zero-valued timing
/// knobs auto-derive from the link latency: rto = 4 x latency,
/// rto_max = 8 x rto, ack_delay = latency.
struct LinkConfig {
  bool enabled = false;       ///< route hops through LinkChannels
  double rto = 0.0;           ///< initial retransmit timeout; 0 = 4 x latency
  double backoff = 2.0;       ///< RTO multiplier per consecutive timeout
  double rto_max = 0.0;       ///< RTO ceiling; 0 = 8 x effective rto
  std::size_t max_retries = 12;  ///< timeouts before escalating to fail_link
  std::size_t window = 128;   ///< max unacked frames per directed link
  double ack_delay = 0.0;     ///< pure-ack latency; 0 = link latency
  sim::LinkFaultConfig faults;  ///< injected fault rates, every direction

  [[nodiscard]] double effective_rto(double latency) const noexcept {
    return rto > 0 ? rto : 4.0 * latency;
  }
  [[nodiscard]] double effective_rto_max(double latency) const noexcept {
    return rto_max > 0 ? rto_max : 8.0 * effective_rto(latency);
  }
  [[nodiscard]] double effective_ack_delay(double latency) const noexcept {
    return ack_delay > 0 ? ack_delay : latency;
  }

  /// Upper bound on the time one hop can take from send() to either
  /// delivery or escalation: the full retransmit-backoff chain plus the
  /// worst one-way trip (latency + jitter + reorder push) on each end and
  /// one delayed ack. The lossy cascade horizon and the workload's slot
  /// validation (ChurnConfig::FaultConfig::cascade_hop_bound) derive from
  /// this.
  [[nodiscard]] double worst_hop_delay(double latency) const noexcept;
};

class LinkChannels {
 public:
  /// Delivery callback: a data frame's Announcement arrived in order at
  /// `to` over the link from `from` (invoked mid-cascade, may send more).
  using DeliverFn =
      std::function<void(BrokerId from, BrokerId to, const wire::Announcement&)>;
  /// Escalation callback: the (a, b) link's retry cap fired; the network
  /// must fail_link it once the cascade quiesces. Invoked at most once per
  /// link incarnation (both directions mute immediately).
  using EscalateFn = std::function<void(BrokerId a, BrokerId b)>;

  /// One scripted burst-loss window on the undirected link (a, b): every
  /// transmission attempt in EITHER direction during [start, end) is lost.
  struct BurstWindow {
    BrokerId a = 0;
    BrokerId b = 0;
    sim::SimTime start = 0.0;
    sim::SimTime end = 0.0;
  };

  LinkChannels(sim::EventQueue& queue, sim::Metrics& metrics,
               const LinkConfig& config, sim::SimTime latency,
               std::uint64_t seed, DeliverFn deliver, EscalateFn escalate);

  /// Queues one Announcement for reliable in-order delivery from -> to.
  /// Silently dropped while the link is escalating (the pending fail_link
  /// purge makes the frame moot). Transmission happens inline: the arrival
  /// (or retransmit timer) is scheduled on the event queue.
  void send(BrokerId from, BrokerId to, const wire::Announcement& msg);

  /// Resets both directions of (a, b): state cleared, sequences restart at
  /// zero on both ends, in-flight frames and timers from the old
  /// incarnation become stale. Call on fail/heal/attach/crash so the two
  /// endpoints always agree on the stream position.
  void reset_link(BrokerId a, BrokerId b);

  /// Installs the scripted burst schedule (absolute sim-time windows,
  /// applied to both directions of each listed link). Replaces any prior
  /// schedule; affects channels created later too.
  void set_bursts(std::vector<BurstWindow> bursts);

  /// Frames queued (unacked + backlog) across all channels — zero at true
  /// quiescence unless a link is mid-escalation.
  [[nodiscard]] std::size_t in_flight() const noexcept;

 private:
  using Key = std::uint64_t;  ///< (from << 32) | to
  static constexpr Key make_key(BrokerId from, BrokerId to) noexcept {
    return (static_cast<Key>(from) << 32) | to;
  }

  struct Channel {
    BrokerId from = 0;
    BrokerId to = 0;
    /// Incarnation counter: bumped by every reset so stale timers and
    /// in-flight arrivals drop themselves. Never rewinds.
    std::uint64_t epoch = 0;
    /// Escalated: drop sends until the network fails the link and resets.
    bool muted = false;

    // --- sender state (stream from -> to) ------------------------------
    std::uint64_t next_seq = 0;
    struct Pending {
      std::uint64_t seq = 0;
      std::vector<std::uint8_t> payload;  ///< encoded Announcement
    };
    std::deque<Pending> unacked;   ///< in flight, <= window entries
    std::deque<Pending> backlog;   ///< parked behind a full window
    std::size_t retries = 0;       ///< consecutive timeouts w/o ack progress
    double rto_cur = 0.0;
    std::uint64_t rto_gen = 0;     ///< arms/disarms the retransmit timer
    /// Armed retransmit timer, cancelled on disarm/reset so the handler
    /// (and what it captures) is released immediately instead of riding
    /// the queue to a possibly rto_max-deep backoff deadline. The gen
    /// guard above stays as defense in depth.
    sim::EventQueue::TimerId rto_timer = sim::EventQueue::kNoTimer;

    // --- receiver state (frames arriving from -> to, kept at `to`) -----
    std::uint64_t next_expected = 0;  ///< == cumulative ack we owe
    std::map<std::uint64_t, std::vector<std::uint8_t>> reorder;
    bool ack_pending = false;
    std::uint64_t ack_gen = 0;     ///< arms/disarms the delayed-ack timer
    /// Armed delayed-ack timer; same ownership contract as rto_timer.
    sim::EventQueue::TimerId ack_timer = sim::EventQueue::kNoTimer;

    sim::LinkFaultModel faults;

    Channel(BrokerId from_, BrokerId to_, const sim::LinkFaultConfig& config,
            std::uint64_t seed)
        : from(from_), to(to_), faults(config, seed, from_, to_) {}
  };

  Channel& ensure(BrokerId from, BrokerId to);
  [[nodiscard]] Channel* find(Key key) noexcept;

  /// Cumulative ack we owe for the reverse stream (to -> from), or 0 when
  /// no such channel exists yet.
  [[nodiscard]] std::uint64_t reverse_ack(const Channel& ch) noexcept;

  /// One physical transmission attempt: runs the fault model, encodes the
  /// frame, and schedules the arrival(s). Pure acks ride the same path.
  void transmit(Channel& ch, const wire::LinkFrame& frame);
  void on_arrival(Key key, std::uint64_t epoch,
                  std::vector<std::uint8_t> bytes);
  void process_ack(Channel& reverse, std::uint64_t ack);
  void process_data(Channel& ch, std::uint64_t seq,
                    std::vector<std::uint8_t>& payload);
  void deliver_payload(Channel& ch, const std::vector<std::uint8_t>& payload);

  void arm_rto(Channel& ch);
  void disarm_rto(Channel& ch) noexcept {
    ++ch.rto_gen;
    queue_.cancel(std::exchange(ch.rto_timer, sim::EventQueue::kNoTimer));
  }
  void disarm_ack(Channel& ch) noexcept {
    ch.ack_pending = false;
    ++ch.ack_gen;
    queue_.cancel(std::exchange(ch.ack_timer, sim::EventQueue::kNoTimer));
  }
  void on_rto(Key key, std::uint64_t epoch, std::uint64_t gen);
  void escalate(Channel& ch);

  void request_ack(Channel& ch);
  void on_ack_timer(Key key, std::uint64_t epoch, std::uint64_t gen);

  void reset_channel(Channel& ch);
  void apply_bursts(Channel& ch);

  sim::EventQueue& queue_;
  sim::Metrics& metrics_;
  LinkConfig config_;
  sim::SimTime latency_;
  std::uint64_t seed_;
  DeliverFn deliver_;
  EscalateFn escalate_;
  double rto_base_ = 0.0;
  double rto_max_ = 0.0;
  double ack_delay_ = 0.0;
  std::unordered_map<Key, Channel> channels_;
  std::vector<BurstWindow> bursts_;
};

}  // namespace psc::routing
