// SimTransport — the discrete-event implementation of the Transport seam.
//
// Perfect wire (link.enabled == false): every frame is one EventQueue entry
// at now + latency, delivered straight into the frame handler. This is the
// exact schedule_in call the pre-seam BrokerNetwork send sites issued, in
// the same order, so event sequence numbers — and with them every FIFO
// tie-break the deterministic replay contract leans on — are unchanged.
//
// Faulty wire (link.enabled == true): frames route through the go-back-N
// LinkChannels protocol (retransmits, cumulative acks, escalation into the
// membership repair path), which itself schedules on the same queue.
//
// The sim-only control surface (reset_link on membership churn, scripted
// burst windows, in-flight accounting) stays on the concrete type;
// BrokerNetwork owns a SimTransport and hands the base interface to its
// BrokerRuntimes, which only need to send.
#pragma once

#include <memory>
#include <vector>

#include "routing/link_channel.hpp"
#include "routing/transport.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"

namespace psc::routing {

class SimTransport final : public Transport {
 public:
  /// `escalate` is forwarded to LinkChannels (retry-cap exhaustion); only
  /// ever invoked when `link.enabled`.
  SimTransport(sim::EventQueue& queue, sim::Metrics& metrics,
               const LinkConfig& link, sim::SimTime latency,
               std::uint64_t seed, LinkChannels::EscalateFn escalate);

  void set_frame_handler(FrameHandler handler) override;
  void send_frame(BrokerId from, BrokerId to,
                  const wire::Announcement& msg) override;
  [[nodiscard]] sim::SimTime now() const override { return queue_.now(); }
  TimerId schedule_timer_at(sim::SimTime at, std::function<void()> fn) override {
    return queue_.schedule_cancelable_at(at, std::move(fn));
  }
  void cancel_timer(TimerId id) override { queue_.cancel(id); }

  // --- sim-only surface --------------------------------------------------

  [[nodiscard]] bool lossy() const noexcept { return link_.enabled; }

  /// Resets both directions of (a, b) in the link protocol (fail / heal /
  /// crash / attach). No-op on the perfect wire.
  void reset_link(BrokerId a, BrokerId b);

  /// Installs scripted burst-loss windows; no-op on the perfect wire.
  void set_bursts(std::vector<LinkChannels::BurstWindow> bursts);

  /// Frames queued in the link protocol (zero on the perfect wire).
  [[nodiscard]] std::size_t in_flight() const noexcept;

 private:
  sim::EventQueue& queue_;
  sim::SimTime latency_;
  LinkConfig link_;
  FrameHandler handler_;
  /// Present iff link_.enabled: the reliable protocol over the faulty wire.
  std::unique_ptr<LinkChannels> channels_;
};

}  // namespace psc::routing
