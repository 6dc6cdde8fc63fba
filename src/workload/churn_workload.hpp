// Churn workload — an open, deterministic client-op trace for soaking a
// broker overlay: Poisson subscription arrivals with a TTL / explicit-
// unsubscribe mix, exponential lifetimes, and Zipf-skewed publication
// hotspots (popular regions of the attribute space attract both
// subscriptions and publications, so coverage pruning, TTL expiry, and
// promotion-on-erase all fire continuously).
//
// A trace is a plain vector of client-visible ops, so the SAME trace can
// be replayed against a BrokerNetwork (sim::ChurnDriver) and against the
// routing::FlatOracle for differential checking.
//
// Time discipline (the determinism contract, see docs/ARCHITECTURE.md):
// every op lands on its own slot boundary k * slot, and every TTL is a
// whole number of slots plus HALF a slot. Expiries therefore fire at
// mid-slot instants, strictly after any publish/subscribe cascade started
// at the preceding boundary has quiesced (cascades span at most
// (brokers + 1) * link_latency, and generation validates
// slot / 2 > that bound). A membership op that runs several cascades (a
// leave: one per homed unsubscription, the purge, one per star-repair
// link; a replacement: one per healed link) owns one slot per cascade,
// none holding an expiry instant. This keeps the network's cascade-time
// clock drift invisible to the flat oracle, whose clock only moves on
// advance_time.
#pragma once

#include <cstdint>
#include <vector>

#include "core/publication.hpp"
#include "core/subscription.hpp"
#include "routing/broker.hpp"
#include "routing/membership.hpp"
#include "sim/event_queue.hpp"
#include "sim/link_fault_model.hpp"

namespace psc::workload {

/// One client-visible operation of a churn trace.
enum class ChurnOpKind : std::uint8_t {
  kSubscribe,     ///< permanent (or explicitly unsubscribed later)
  kSubscribeTtl,  ///< expires ttl seconds after issue, message-free
  kUnsubscribe,   ///< explicit removal of an earlier kSubscribe
  kPublish,       ///< point publication
  kAdvance,       ///< pure time advance (flushes due expiries)
  kMembership,    ///< overlay mutation (join/leave/crash/replace/fail/heal)
};

struct ChurnOp {
  ChurnOpKind kind = ChurnOpKind::kAdvance;
  sim::SimTime time = 0.0;        ///< absolute, slot-aligned issue time
  routing::BrokerId broker = 0;   ///< issuing client's home broker
  core::Subscription sub;         ///< kSubscribe / kSubscribeTtl payload
  sim::SimTime ttl = 0.0;         ///< kSubscribeTtl only
  core::SubscriptionId id = 0;    ///< kUnsubscribe target
  core::Publication pub;          ///< kPublish payload
  // kMembership payload. `broker`/`peer` operands by kind: kJoin attaches
  // the new broker `peer` (predicted dense id, asserted at replay) to
  // `broker`; kLeave/kCrash/kReplace target `broker`; kFailLink/kHealLink
  // name the link (`broker`, `peer`).
  std::uint8_t member = 0;        ///< routing::MembershipOpKind value
  routing::BrokerId peer = 0;     ///< second operand, see above
};

/// Knobs of the churn model. Rates are per simulated second; the defaults
/// give a sustained mixed workload on the standard topology family (see
/// docs/TUNING.md for the measured effect of each knob).
struct ChurnConfig {
  // --- attribute space ------------------------------------------------
  std::size_t attribute_count = 2;
  double domain_lo = 0.0;
  double domain_hi = 1000.0;

  // --- workload shape -------------------------------------------------
  double subscription_rate = 2.0;  ///< Poisson arrivals of new subscriptions
  double publication_rate = 5.0;   ///< Poisson arrivals of publications
  double ttl_fraction = 0.5;       ///< share of subs removed by TTL expiry
  double immortal_fraction = 0.1;  ///< share of subs that never leave
  double mean_lifetime = 8.0;      ///< exponential lifetime mean, seconds

  // --- hotspot model (Zipf-skewed popularity) -------------------------
  std::size_t hotspot_count = 16;        ///< distinct popular regions
  double zipf_skew = 0.9;                ///< hotspot popularity exponent
  double hotspot_radius_fraction = 0.04; ///< normal jitter stddev / domain
  double width_fraction_lo = 0.02;       ///< sub box width bounds / domain
  double width_fraction_hi = 0.25;

  // --- membership churn (all-zero rates = static membership) ----------
  // Poisson event streams over the overlay itself, interleaved with the
  // client churn above. Crashes schedule a replacement ~Exp(replace_mean)
  // later; partitions schedule a heal ~Exp(partition_mean) later. A heal
  // picks uniformly among ALL currently healable down links — so on
  // ring/mesh universes a partition can rotate which bridge is up rather
  // than restoring the one that failed.
  struct MembershipConfig {
    double join_rate = 0.0;       ///< new-broker attachments per second
    double leave_rate = 0.0;      ///< graceful departures per second
    double crash_rate = 0.0;      ///< crash-stop failures per second
    double partition_rate = 0.0;  ///< link failures per second
    double partition_mean = 4.0;  ///< mean seconds a partition stays open
    double replace_mean = 3.0;    ///< mean seconds from crash to replacement
    std::size_t min_brokers = 4;  ///< leave/crash keep at least this many alive
    std::size_t max_brokers = 0;  ///< join cap; 0 = twice the initial count
    [[nodiscard]] bool any() const noexcept {
      return join_rate > 0 || leave_rate > 0 || crash_rate > 0 ||
             partition_rate > 0;
    }
  };
  MembershipConfig membership;

  // --- link faults (all-zero = perfect wire) --------------------------
  // Probabilistic drop/dup/reorder/jitter rates applied to every directed
  // link, plus scripted burst-loss windows the generator lays into the
  // trace (LinkBurst records). Traces with faults are meant to replay
  // against a network with NetworkConfig::link.enabled — the reliable
  // link protocol makes delivery fault-invariant, which is exactly what
  // the differential gates check. cascade_hop_bound is the worst-case
  // per-hop delivery/escalation time of that protocol
  // (routing::LinkConfig::worst_hop_delay); the slot validation uses it
  // instead of the raw latency so retransmit chains still quiesce inside
  // half a slot.
  struct FaultConfig {
    sim::LinkFaultConfig link;       ///< iid rates, every direction
    std::size_t burst_count = 0;     ///< scripted full-loss windows to emit
    double burst_length = 0.0;       ///< seconds per window
    double cascade_hop_bound = 0.0;  ///< worst per-hop time; 0 = link_latency
    [[nodiscard]] bool any() const noexcept {
      return link.any() || burst_count > 0;
    }
  };
  FaultConfig faults;

  // --- time discipline ------------------------------------------------
  double duration = 60.0;      ///< simulated seconds of churn
  double slot = 0.1;           ///< op-time quantum; one op per slot
  double link_latency = 0.001; ///< must match NetworkConfig::link_latency
  double epoch_length = 5.0;   ///< driver snapshot period (slot multiple)
};

/// One scripted burst-loss window: both directions of the undirected link
/// (a, b) lose every transmission attempt during [start, end). A window
/// longer than the retransmit-backoff chain forces a deterministic
/// retry-cap escalation into fail_link.
struct LinkBurst {
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;
  routing::BrokerId a = 0;
  routing::BrokerId b = 0;
};

/// A generated trace: time-ordered ops plus the config that shaped it.
/// Membership traces additionally embed the universe they were generated
/// against, making a serialized trace self-contained for replay.
struct ChurnTrace {
  ChurnConfig config;
  std::size_t broker_count = 0;
  std::uint64_t seed = 0;
  std::vector<ChurnOp> ops;
  std::size_t publish_count = 0;
  std::size_t subscribe_count = 0;  ///< kSubscribe + kSubscribeTtl ops
  std::size_t membership_count = 0;
  bool has_membership = false;
  routing::MembershipUniverse universe;
  /// Scripted burst-loss windows (config.faults.burst_count of them),
  /// time-ordered; empty for perfect-link traces.
  std::vector<LinkBurst> bursts;
};

/// Generates a deterministic trace for an overlay of `broker_count`
/// brokers. Throws std::invalid_argument on nonsensical configs, including
/// a slot too small for the overlay's worst-case cascade
/// (slot / 2 <= (broker_count + 1) * link_latency), which would break the
/// differential time contract above. Membership rates require the
/// universe overload (the generator must know the link graph) and throw
/// here.
[[nodiscard]] ChurnTrace generate_churn_trace(const ChurnConfig& config,
                                              std::size_t broker_count,
                                              std::uint64_t seed);

/// Membership-aware overload: generates against a concrete universe,
/// running its own LinkState through the exact event sequence it emits so
/// every op is feasible by construction (the same LinkState policy the
/// network and oracle replay, so all three stay in lockstep). The cascade
/// bound is validated against the join cap, not the initial broker count.
[[nodiscard]] ChurnTrace generate_churn_trace(
    const ChurnConfig& config, const routing::MembershipUniverse& universe,
    std::uint64_t seed);

}  // namespace psc::workload
