// ChurnDriver — replays a workload::ChurnTrace against a BrokerNetwork and
// reports a per-epoch metrics time series; optionally replays the same
// trace against routing::FlatOracle in lockstep, differentially checks
// every publication's delivered set and counts delivered and lost
// notifications against the oracle's.
//
// Layering note: unlike the event-queue core (which sits at the bottom of
// the stack), the driver is a harness — it sits ABOVE routing/ and
// workload/ and owns no state of its own. It lives in sim/ because it is
// the simulator's steering wheel, not because the routing layer depends
// on it (it doesn't).
//
// Determinism: a replay is a pure function of (trace, NetworkConfig). Two
// replays of one trace against identically-configured networks produce
// identical metrics, epoch series, and delivered sets — this is what the
// churn regression tests pin.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "routing/broker_network.hpp"
#include "routing/flat_oracle.hpp"
#include "sim/metrics.hpp"
#include "workload/churn_workload.hpp"

namespace psc::sim {

/// One publish judged against the oracle. `after` is the oracle's set once
/// the links that escalated during the publish are mirrored into it,
/// `before` its set without them (equal when none escalated). A
/// notification that crossed a link before the link gave up is a real
/// delivery, so the network must deliver at least `after` and at most
/// `before`.
struct PublishVerdict {
  std::uint64_t delivered = 0;  ///< |after ∩ delivered|
  std::uint64_t lost = 0;       ///< |after \ delivered|
  /// The delivered set falls outside [after, before]: some id is lost or
  /// was never expected. An id in before \ after counts as neither.
  bool mismatched = false;
};

/// The per-publish arithmetic of ChurnDriver. All three sets are sorted
/// ascending and deduplicated (BrokerNetwork::publish and
/// FlatOracle::publish return them so).
[[nodiscard]] PublishVerdict judge_publish(
    std::span<const core::SubscriptionId> delivered,
    std::span<const core::SubscriptionId> after,
    std::span<const core::SubscriptionId> before);

/// One epoch of the soak: deltas over (epoch_start, epoch_end] plus
/// end-of-epoch state snapshots.
struct ChurnEpoch {
  SimTime end_time = 0.0;

  // --- deltas within the epoch ---------------------------------------
  std::size_t ops = 0;             ///< client ops issued
  std::size_t publishes = 0;
  /// Notifications delivered and lost, judged against the oracle (both 0
  /// without Options::differential).
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t subscription_messages = 0;
  std::uint64_t unsubscription_messages = 0;
  std::uint64_t publication_messages = 0;
  std::uint64_t suppressed = 0;    ///< link-forwards withheld by coverage
  std::uint64_t membership_events = 0;     ///< overlay mutations this epoch
  /// Differential failures: publishes whose delivered set differs from
  /// the oracle's (or, for a publish during which links escalated, falls
  /// outside the oracle's sets after and before mirroring them).
  std::uint64_t mismatched_publishes = 0;

  // --- end-of-epoch state ---------------------------------------------
  std::size_t live_subscriptions = 0;   ///< client subs alive network-wide
  std::size_t routing_entries = 0;      ///< sum of broker routing tables
  std::size_t forwarded_entries = 0;    ///< sum of per-link store sizes
  std::size_t forwarded_active = 0;     ///< uncovered (announced) share

  /// Publication hops per publication this epoch; 0 when no publishes.
  [[nodiscard]] double hops_per_publication() const noexcept {
    return publishes == 0 ? 0.0
                          : static_cast<double>(publication_messages) /
                                static_cast<double>(publishes);
  }
};

/// Crash/recovery bookkeeping of a failure-injection run (all zero when
/// failure injection is off).
struct RecoveryStats {
  std::size_t snapshots = 0;        ///< snapshots taken (incl. the boot image)
  std::size_t snapshot_bytes = 0;   ///< size of the most recent snapshot
  std::size_t crashes = 0;          ///< kill+restore cycles executed (0 or 1)
  std::size_t gap_ops_replayed = 0; ///< WAL ops replayed after restore
  std::size_t gap_publishes_replayed = 0;
  /// Replayed publications whose delivered set differed from the oracle
  /// set recorded when the op first ran — any nonzero value means restore
  /// was not decision-identical (counted only with differential on).
  std::uint64_t replay_mismatches = 0;
  double recovery_sim_gap = 0.0;    ///< sim-seconds between snapshot and kill
};

/// Membership-churn bookkeeping (all zero for static-membership traces).
/// `ghost_routes` is the peak of the post-op audits: any routing entry on
/// an alive broker whose client subscription no longer exists. The soak
/// gates demand it stays 0 — a nonzero value means a purge cascade or
/// replacement left a stale route behind.
struct MembershipStats {
  std::size_t events = 0;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t crashes = 0;
  std::size_t replaces = 0;
  std::size_t link_failures = 0;
  std::size_t link_heals = 0;
  /// Homed subscriptions replacements re-installed from the registry.
  std::size_t replace_restored_routes = 0;
  std::size_t ghost_routes = 0;             ///< peak audit count (gate: 0)
  std::size_t final_alive_brokers = 0;
  /// Links the reliable protocol escalated into fail_link (retry cap
  /// exhausted mid-cascade); mirrored into the oracle before the next
  /// differential compare. Zero on perfect wires and for fault schedules
  /// whose bursts stay shorter than the retransmit chain.
  std::size_t link_escalations = 0;
  /// Planned kFailLink trace ops skipped because an escalation had already
  /// failed the link (skipped symmetrically on both replicas).
  std::size_t skipped_link_failures = 0;
  /// Planned kHealLink ops skipped because the link is not healable in the
  /// replayed reality. Escalations make reality's topology diverge from
  /// the generator's model — most visibly through graceful-leave repair,
  /// which stars the leaver's LIVE neighbours, a set an escalation may
  /// have shrunk — so a planned heal can target a link reality never
  /// created, already healed differently, or whose endpoints reality
  /// already reconnected. Skipped symmetrically on both replicas.
  std::size_t skipped_link_heals = 0;
};

/// Whole-run result: the epoch series plus totals.
struct ChurnReport {
  std::vector<ChurnEpoch> epochs;
  /// Network metrics for the whole run, except notifications_delivered and
  /// notifications_lost: the sums of the epochs' oracle-judged counts.
  Metrics totals;
  std::size_t ops = 0;
  std::size_t publishes = 0;
  std::uint64_t mismatched_publishes = 0;  ///< 0 unless differential found drift
  std::size_t peak_routing_entries = 0;
  std::size_t final_live_subscriptions = 0;
  RecoveryStats recovery;
  MembershipStats membership;
};

class ChurnDriver {
 public:
  /// Failure-injection mode: the broker process is killed mid-churn and
  /// recovered from its last snapshot plus a WAL-style replay of the
  /// client ops issued since (the standard snapshot + op-log recovery
  /// discipline). Concretely the driver
  ///   1. takes a BrokerNetwork::snapshot_all boot image at t=0 and a new
  ///      snapshot every `snapshot_every` sim-seconds, remembering the
  ///      client ops (and, with differential on, the oracle delivered set
  ///      of every publish) issued since the newest snapshot;
  ///   2. at the first op at or after `kill_time`, discards the entire
  ///      live network state ("crash"), rebuilds it in place from the
  ///      newest snapshot, and replays the remembered gap ops — checking
  ///      each replayed publish against its recorded oracle sets;
  ///   3. resumes the trace. Post-recovery publishes keep being checked
  ///      against the live oracle, so zero loss / zero ghost routes after
  ///      recovery is exactly `mismatched_publishes == 0 &&
  ///      recovery.replay_mismatches == 0 && totals.notifications_lost == 0`.
  /// Replayed traffic is excluded from epochs and totals (it re-derives
  /// state, it is not client-visible delivery); RecoveryStats counts it.
  struct FailureInjection {
    bool enabled = false;
    /// Snapshot cadence in sim-seconds; 0 uses the trace's epoch_length.
    /// See docs/TUNING.md for the cadence / replay-cost trade-off.
    double snapshot_every = 0.0;
    /// Sim time of the crash; must be > 0 and < the trace duration to
    /// actually fire (the first op at or after it triggers the kill).
    double kill_time = 0.0;
  };

  struct Options {
    /// Replay the trace against a FlatOracle in lockstep, judge every
    /// publish against it (judge_publish): count delivered and lost
    /// notifications and the publications whose delivered set diverges.
    bool differential = false;
    FailureInjection failure;
  };

  /// Replays `trace` against `net`. The network must have
  /// trace.broker_count brokers (throws std::invalid_argument otherwise)
  /// and should be configured with the link latency the trace was
  /// generated for — the trace's slot quantization assumes it. Epoch
  /// boundaries come from trace.config.epoch_length. Resets the network's
  /// metrics first so the report's deltas are self-contained.
  [[nodiscard]] static ChurnReport run(routing::BrokerNetwork& net,
                                       const workload::ChurnTrace& trace,
                                       Options options);
  [[nodiscard]] static ChurnReport run(routing::BrokerNetwork& net,
                                       const workload::ChurnTrace& trace) {
    return run(net, trace, Options{});
  }
};

}  // namespace psc::sim
