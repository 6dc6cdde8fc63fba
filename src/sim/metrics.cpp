#include "sim/metrics.hpp"

namespace psc::sim {

double Metrics::delivery_ratio() const noexcept {
  const std::uint64_t expected = notifications_delivered + notifications_lost;
  if (expected == 0) return 1.0;
  return static_cast<double>(notifications_delivered) /
         static_cast<double>(expected);
}

Metrics operator+(const Metrics& a, const Metrics& b) noexcept {
  Metrics sum = a;
  sum.subscription_messages += b.subscription_messages;
  sum.unsubscription_messages += b.unsubscription_messages;
  sum.publication_messages += b.publication_messages;
  sum.notifications_delivered += b.notifications_delivered;
  sum.notifications_lost += b.notifications_lost;
  sum.notifications_duplicated += b.notifications_duplicated;
  sum.subscriptions_suppressed += b.subscriptions_suppressed;
  sum.membership_events += b.membership_events;
  sum.reannounced_subscriptions += b.reannounced_subscriptions;
  sum.subscriptions_promoted += b.subscriptions_promoted;
  sum.frames_dropped += b.frames_dropped;
  sum.frames_duplicated += b.frames_duplicated;
  sum.retransmits += b.retransmits;
  sum.dups_suppressed += b.dups_suppressed;
  sum.reorders_healed += b.reorders_healed;
  sum.acks_sent += b.acks_sent;
  sum.backpressure_stalls += b.backpressure_stalls;
  sum.link_escalations += b.link_escalations;
  return sum;
}

Metrics operator-(const Metrics& a, const Metrics& b) noexcept {
  Metrics diff = a;
  diff.subscription_messages -= b.subscription_messages;
  diff.unsubscription_messages -= b.unsubscription_messages;
  diff.publication_messages -= b.publication_messages;
  diff.notifications_delivered -= b.notifications_delivered;
  diff.notifications_lost -= b.notifications_lost;
  diff.notifications_duplicated -= b.notifications_duplicated;
  diff.subscriptions_suppressed -= b.subscriptions_suppressed;
  diff.membership_events -= b.membership_events;
  diff.reannounced_subscriptions -= b.reannounced_subscriptions;
  diff.subscriptions_promoted -= b.subscriptions_promoted;
  diff.frames_dropped -= b.frames_dropped;
  diff.frames_duplicated -= b.frames_duplicated;
  diff.retransmits -= b.retransmits;
  diff.dups_suppressed -= b.dups_suppressed;
  diff.reorders_healed -= b.reorders_healed;
  diff.acks_sent -= b.acks_sent;
  diff.backpressure_stalls -= b.backpressure_stalls;
  diff.link_escalations -= b.link_escalations;
  return diff;
}

std::ostream& operator<<(std::ostream& out, const Metrics& m) {
  return out << "sub_msgs=" << m.subscription_messages
             << " unsub_msgs=" << m.unsubscription_messages
             << " pub_msgs=" << m.publication_messages
             << " delivered=" << m.notifications_delivered
             << " lost=" << m.notifications_lost
             << " duplicated=" << m.notifications_duplicated
             << " suppressed=" << m.subscriptions_suppressed
             << " membership=" << m.membership_events
             << " reannounced=" << m.reannounced_subscriptions
             << " promoted=" << m.subscriptions_promoted
             << " frames_dropped=" << m.frames_dropped
             << " frames_duplicated=" << m.frames_duplicated
             << " retransmits=" << m.retransmits
             << " dups_suppressed=" << m.dups_suppressed
             << " reorders_healed=" << m.reorders_healed
             << " acks_sent=" << m.acks_sent
             << " backpressure_stalls=" << m.backpressure_stalls
             << " link_escalations=" << m.link_escalations;
}

}  // namespace psc::sim
