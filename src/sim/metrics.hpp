// Network-wide traffic and delivery accounting for the broker simulator.
#pragma once

#include <cstdint>
#include <ostream>

namespace psc::sim {

/// Counters accumulated across all brokers/links of one simulation run.
struct Metrics {
  std::uint64_t subscription_messages = 0;   ///< per-hop subscription sends
  std::uint64_t unsubscription_messages = 0;
  std::uint64_t publication_messages = 0;    ///< per-hop publication sends
  std::uint64_t notifications_delivered = 0; ///< matched at the subscriber
  std::uint64_t notifications_lost = 0;      ///< should have matched, didn't
  std::uint64_t notifications_duplicated = 0;///< same sub notified twice
  std::uint64_t subscriptions_suppressed = 0;///< withheld by coverage
  std::uint64_t membership_events = 0;       ///< join/leave/crash/fail/heal
  std::uint64_t reannounced_subscriptions = 0;///< re-floods on link attach
  std::uint64_t subscriptions_promoted = 0;  ///< covered -> active on a link
                                             ///< store, then re-announced

  // --- link-channel counters (all zero on perfect links) ----------------
  std::uint64_t frames_dropped = 0;     ///< transmissions lost on the wire
  std::uint64_t frames_duplicated = 0;  ///< extra copies injected by faults
  std::uint64_t retransmits = 0;        ///< sender RTO-driven resends
  std::uint64_t dups_suppressed = 0;    ///< receiver-side duplicate discards
  std::uint64_t reorders_healed = 0;    ///< frames released from the reorder
                                        ///< buffer once the gap was filled
  std::uint64_t acks_sent = 0;          ///< pure (non-piggybacked) ack frames
  std::uint64_t backpressure_stalls = 0;///< sends parked in the backlog while
                                        ///< the unacked window was full
  std::uint64_t link_escalations = 0;   ///< retry-cap -> fail_link escalations

  void reset() noexcept { *this = Metrics{}; }

  [[nodiscard]] std::uint64_t total_messages() const noexcept {
    return subscription_messages + unsubscription_messages + publication_messages;
  }

  /// Delivered / (delivered + lost); 1.0 when nothing was expected.
  [[nodiscard]] double delivery_ratio() const noexcept;
};

Metrics operator+(const Metrics& a, const Metrics& b) noexcept;

/// Componentwise difference. Caller guarantees a >= b componentwise (the
/// counters are monotone within one network incarnation, so "later minus
/// earlier" always qualifies); used by the churn driver to splice epoch
/// deltas across a crash/restore boundary.
Metrics operator-(const Metrics& a, const Metrics& b) noexcept;

std::ostream& operator<<(std::ostream& out, const Metrics& m);

}  // namespace psc::sim
