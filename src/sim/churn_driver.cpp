#include "sim/churn_driver.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace psc::sim {

using routing::BrokerId;
using routing::BrokerNetwork;
using routing::FlatOracle;
using routing::MembershipOpKind;
using workload::ChurnOp;
using workload::ChurnOpKind;
using workload::ChurnTrace;

namespace {

/// End-of-epoch state sweep over every broker and link store.
void snapshot_state(const BrokerNetwork& net, ChurnEpoch& epoch) {
  epoch.live_subscriptions = net.local_subscription_count();
  for (std::size_t b = 0; b < net.broker_count(); ++b) {
    const auto& broker = net.broker(static_cast<routing::BrokerId>(b));
    epoch.routing_entries += broker.routing_table_size();
    for (const routing::BrokerId neighbor : broker.neighbors()) {
      const auto* store = broker.forwarded_store(neighbor);
      if (store == nullptr) continue;
      epoch.forwarded_entries += store->total_count();
      epoch.forwarded_active += store->active_count();
    }
  }
}

/// True when a planned kHealLink is feasible against the network's actual
/// link state — the same predicate the workload generator applied to its
/// own model when it emitted the op. Retry-cap escalations mutate reality
/// behind the generator's back (most visibly through graceful-leave
/// repair, which stars the leaver's LIVE neighbours — a set an escalation
/// may have shrunk), so the model can plan heals of links reality never
/// created or has already reconnected around. Both replicas see the same
/// escalations, so skipping on reality's state keeps them in lockstep.
bool link_healable(const BrokerNetwork& net, BrokerId a, BrokerId b) {
  const auto& state = net.link_state();
  return state.is_alive(a) && state.is_alive(b) &&
         state.has_failed_link(a, b) && !state.same_component(a, b);
}

/// The differential verdict for one publish, given the oracle's sets before
/// and after mirroring the links that escalated during it (equal when none
/// did). A notification that crossed a link before the link gave up is a
/// real delivery, so the network must deliver at least `after` and at most
/// `before`; with no escalation that is exact equality. All three are
/// sorted and deduplicated.
bool delivered_within(const std::vector<core::SubscriptionId>& delivered,
                      const std::vector<core::SubscriptionId>& after,
                      const std::vector<core::SubscriptionId>& before) {
  return std::includes(delivered.begin(), delivered.end(), after.begin(),
                       after.end()) &&
         std::includes(before.begin(), before.end(), delivered.begin(),
                       delivered.end());
}

/// Applies one trace op to `net` alone — the WAL replay path after a
/// restore (the oracle already consumed the op in its first life).
/// Returns the delivered set for publishes (empty otherwise). Membership
/// replays work because restore_all revives the link-state (snapshot v2):
/// the replayed sequence drives it through the same transitions as the
/// first life. A replacement restores from the client registry, which the
/// replay has brought to the same state the first life saw.
std::vector<core::SubscriptionId> replay_op(BrokerNetwork& net,
                                            const ChurnOp& op) {
  net.advance_time(op.time);
  std::vector<core::SubscriptionId> delivered;
  switch (op.kind) {
    case ChurnOpKind::kSubscribe:
      net.subscribe(op.broker, op.sub);
      break;
    case ChurnOpKind::kSubscribeTtl:
      net.subscribe_with_ttl(op.broker, op.sub, op.ttl);
      break;
    case ChurnOpKind::kUnsubscribe:
      net.unsubscribe(op.broker, op.id);
      break;
    case ChurnOpKind::kPublish:
      delivered = net.publish(op.broker, op.pub);
      break;
    case ChurnOpKind::kAdvance:
      break;
    case ChurnOpKind::kMembership:
      switch (static_cast<MembershipOpKind>(op.member)) {
        case MembershipOpKind::kJoin:
          if (net.add_peer(op.broker) != op.peer) {
            throw std::logic_error("ChurnDriver: join id drift on replay");
          }
          break;
        case MembershipOpKind::kLeave:
          net.remove_peer(op.broker);
          break;
        case MembershipOpKind::kCrash:
          net.crash_peer(op.broker);
          break;
        case MembershipOpKind::kReplace:
          (void)net.replace_peer(op.broker);
          break;
        case MembershipOpKind::kFailLink:
          // Mirror the first life's skip: a retry-cap escalation may have
          // failed this link already (bursts are absolute-time, so the
          // escalation recurs on replay before this op does).
          if (net.link_state().has_link(op.broker, op.peer)) {
            net.fail_link(op.broker, op.peer);
          }
          break;
        case MembershipOpKind::kHealLink:
          if (link_healable(net, op.broker, op.peer)) {
            net.heal_link(op.broker, op.peer);
          }
          break;
      }
      break;
  }
  // Escalations recurring during replay were already mirrored into the
  // oracle in the op's first life; drop the duplicate records.
  (void)net.take_escalated_links();
  return delivered;
}

}  // namespace

ChurnReport ChurnDriver::run(BrokerNetwork& net, const ChurnTrace& trace,
                             Options options) {
  if (net.broker_count() != trace.broker_count) {
    throw std::invalid_argument(
        "ChurnDriver::run: network broker count does not match the trace");
  }
  // generate_churn_trace validates this, but hand-built traces reach here
  // too, and a non-positive epoch length would loop close_epoch forever.
  if (!(trace.config.epoch_length > 0)) {
    throw std::invalid_argument("ChurnDriver::run: epoch_length must be > 0");
  }
  const FailureInjection& failure = options.failure;
  double snapshot_every = failure.snapshot_every;
  if (failure.enabled) {
    if (snapshot_every == 0.0) snapshot_every = trace.config.epoch_length;
    if (!(snapshot_every > 0)) {
      throw std::invalid_argument(
          "ChurnDriver::run: snapshot_every must be >= 0");
    }
    if (!(failure.kill_time > 0)) {
      throw std::invalid_argument(
          "ChurnDriver::run: failure kill_time must be > 0");
    }
  }
  net.reset_metrics();

  ChurnReport report;
  FlatOracle oracle;
  // Reused per publish: the oracle's set, and its set before the links
  // that escalated during the publish were mirrored.
  std::vector<core::SubscriptionId> oracle_delivered;
  std::vector<core::SubscriptionId> oracle_before;

  // Membership setup: the network must start on the trace's universe (the
  // same live forest the generator planned against), its standby bridges
  // must be registered so heals can find them, and the oracle gets its own
  // link-state replica of the same universe.
  if (trace.has_membership) {
    if (net.universe().links != trace.universe.links) {
      throw std::invalid_argument(
          "ChurnDriver::run: network links do not match the trace universe");
    }
    for (const auto& [a, b] : trace.universe.standby) {
      net.add_standby_link(a, b);
    }
    if (options.differential) oracle.enable_membership(trace.universe);
  }
  const auto audit_ghosts = [&]() {
    report.membership.ghost_routes =
        std::max(report.membership.ghost_routes, net.ghost_route_count());
  };

  // Lossy-link setup: install the trace's scripted burst windows.
  if (net.lossy_links() && !trace.bursts.empty()) {
    std::vector<routing::LinkChannels::BurstWindow> bursts;
    bursts.reserve(trace.bursts.size());
    for (const workload::LinkBurst& b : trace.bursts) {
      bursts.push_back({b.a, b.b, b.start, b.end});
    }
    net.set_link_bursts(std::move(bursts));
  }
  // Retry-cap escalations surface as fail_link on the network side only;
  // the oracle must see the same topology before the next delivered-set
  // compare. Called after every net op (escalations drain at op exit).
  const auto mirror = [&](const auto& links) {
    for (const auto& [a, b] : links) {
      if (options.differential) oracle.fail_link(a, b);
      ++report.membership.link_escalations;
    }
  };
  const auto mirror_escalations = [&]() { mirror(net.take_escalated_links()); };

  const double epoch_length = trace.config.epoch_length;
  Metrics at_epoch_start;  // metrics totals when the current epoch began
  // Crash splice state: epoch/run deltas accumulated in incarnations that
  // died mid-interval (Metrics restart at zero after restore_all).
  Metrics epoch_accum;
  Metrics run_accum;
  Metrics run_base;
  ChurnEpoch epoch;
  double epoch_end = epoch_length;

  const auto close_epoch = [&]() {
    // Settle both replicas exactly at the boundary, then snapshot.
    net.advance_time(epoch_end);
    mirror_escalations();
    if (options.differential) oracle.advance_time(epoch_end);
    epoch.end_time = epoch_end;
    const Metrics delta = epoch_accum + (net.metrics() - at_epoch_start);
    epoch.delivered = delta.notifications_delivered;
    epoch.lost = delta.notifications_lost;
    epoch.subscription_messages = delta.subscription_messages;
    epoch.unsubscription_messages = delta.unsubscription_messages;
    epoch.publication_messages = delta.publication_messages;
    epoch.suppressed = delta.subscriptions_suppressed;
    epoch.membership_events = delta.membership_events;
    snapshot_state(net, epoch);
    if (trace.has_membership) audit_ghosts();
    report.peak_routing_entries =
        std::max(report.peak_routing_entries, epoch.routing_entries);
    report.mismatched_publishes += epoch.mismatched_publishes;
    report.epochs.push_back(epoch);
    at_epoch_start = net.metrics();
    epoch_accum = Metrics{};
    epoch = ChurnEpoch{};
    epoch_end += epoch_length;
  };

  // Failure-injection state: newest snapshot + the WAL since it.
  std::vector<std::uint8_t> snapshot_bytes;
  double snapshot_time = 0.0;
  double next_snapshot = snapshot_every;
  std::vector<std::size_t> gap_ops;  // indices into trace.ops
  // Per gap publish: the oracle's (after, before) sets of its first life.
  std::vector<std::pair<std::vector<core::SubscriptionId>,
                        std::vector<core::SubscriptionId>>>
      gap_oracle_sets;
  bool crashed = false;

  const auto take_snapshot = [&](double at) {
    net.advance_time(at);
    mirror_escalations();
    if (options.differential) oracle.advance_time(at);
    snapshot_bytes = net.snapshot_all();
    snapshot_time = at;
    gap_ops.clear();
    gap_oracle_sets.clear();
    ++report.recovery.snapshots;
    report.recovery.snapshot_bytes = snapshot_bytes.size();
  };

  if (failure.enabled) take_snapshot(0.0);  // boot image: a kill before the
                                            // first cadence point recovers too

  for (std::size_t op_index = 0; op_index < trace.ops.size(); ++op_index) {
    const ChurnOp& op = trace.ops[op_index];
    // Interleave epoch closes and snapshot points in time order before
    // processing the op. Epoch boundaries are slot multiples, so neither
    // collides with mid-slot expiry instants.
    while (true) {
      const bool epoch_due = op.time > epoch_end;
      const bool snap_due = failure.enabled && next_snapshot <= op.time;
      if (epoch_due && (!snap_due || epoch_end <= next_snapshot)) {
        close_epoch();
      } else if (snap_due) {
        take_snapshot(next_snapshot);
        next_snapshot += snapshot_every;
      } else {
        break;
      }
    }

    // Crash point: wipe the live network, restore the newest snapshot,
    // replay the WAL gap, then fall through to normal processing of this
    // op against the recovered state.
    if (failure.enabled && !crashed && op.time >= failure.kill_time) {
      crashed = true;
      ++report.recovery.crashes;
      report.recovery.recovery_sim_gap = op.time - snapshot_time;
      const Metrics pre = net.metrics();
      epoch_accum = epoch_accum + (pre - at_epoch_start);
      run_accum = run_accum + (pre - run_base);
      net.restore_all(snapshot_bytes);
      std::size_t publish_cursor = 0;
      for (const std::size_t gap_index : gap_ops) {
        const ChurnOp& gap_op = trace.ops[gap_index];
        const auto delivered = replay_op(net, gap_op);
        ++report.recovery.gap_ops_replayed;
        if (gap_op.kind == ChurnOpKind::kPublish) {
          ++report.recovery.gap_publishes_replayed;
          if (options.differential) {
            const auto& [after, before] = gap_oracle_sets.at(publish_cursor);
            if (!delivered_within(delivered, after, before)) {
              ++report.recovery.replay_mismatches;
            }
            ++publish_cursor;
          }
        }
      }
      // Replay traffic re-derives state; exclude it from epochs/totals.
      at_epoch_start = net.metrics();
      run_base = net.metrics();
    }

    net.advance_time(op.time);
    mirror_escalations();  // TTL-expiry cascades can exhaust the retry cap
    if (options.differential) oracle.advance_time(op.time);
    ++epoch.ops;
    ++report.ops;
    if (failure.enabled) gap_ops.push_back(op_index);
    switch (op.kind) {
      case ChurnOpKind::kSubscribe:
        net.subscribe(op.broker, op.sub);
        if (options.differential) oracle.subscribe(op.broker, op.sub);
        break;
      case ChurnOpKind::kSubscribeTtl:
        net.subscribe_with_ttl(op.broker, op.sub, op.ttl);
        if (options.differential) {
          oracle.subscribe_with_ttl(op.broker, op.sub, op.ttl);
        }
        break;
      case ChurnOpKind::kUnsubscribe:
        net.unsubscribe(op.broker, op.id);
        if (options.differential) oracle.unsubscribe(op.broker, op.id);
        break;
      case ChurnOpKind::kPublish: {
        ++epoch.publishes;
        ++report.publishes;
        const auto delivered = net.publish(op.broker, op.pub);
        // Escalations fire inside net.publish before its own delivery
        // accounting. The oracle's set is taken before and after the same
        // fail_links, and the delivered set must lie between the two.
        const auto escalated = net.take_escalated_links();
        if (options.differential && !escalated.empty()) {
          oracle.publish(op.broker, op.pub, oracle_before);
        }
        mirror(escalated);
        if (options.differential) {
          oracle.publish(op.broker, op.pub, oracle_delivered);
          if (escalated.empty()) oracle_before = oracle_delivered;
          if (!delivered_within(delivered, oracle_delivered, oracle_before)) {
            ++epoch.mismatched_publishes;
          }
          if (failure.enabled) {
            gap_oracle_sets.emplace_back(oracle_delivered, oracle_before);
          }
        }
        break;
      }
      case ChurnOpKind::kAdvance:
        break;  // the advance above already moved both clocks
      case ChurnOpKind::kMembership: {
        const auto member = static_cast<MembershipOpKind>(op.member);
        ++report.membership.events;
        switch (member) {
          case MembershipOpKind::kJoin:
            // The generator predicted the dense id; any drift means the
            // network and the trace disagree about membership history.
            if (net.add_peer(op.broker) != op.peer) {
              throw std::logic_error("ChurnDriver: join id drift");
            }
            if (options.differential && oracle.add_peer(op.broker) != op.peer) {
              throw std::logic_error("ChurnDriver: oracle join id drift");
            }
            ++report.membership.joins;
            break;
          case MembershipOpKind::kLeave: {
            net.remove_peer(op.broker);
            // The leaver's clients unsubscribe before its links go, and
            // those cascades can escalate a link of the leaver: the network
            // fails it first, so the star repair leaves that neighbour out.
            // The oracle must fail it before planning its own repair (after
            // the repair the leaver has no links left to fail). The other
            // escalations cannot touch the leaver's neighbour set, so they
            // follow, in escalation order.
            auto escalated = net.take_escalated_links();
            const auto rest = std::stable_partition(
                escalated.begin(), escalated.end(), [&](const auto& link) {
                  return link.first == op.broker || link.second == op.broker;
                });
            mirror(std::span(escalated.begin(), rest));
            if (options.differential) oracle.remove_peer(op.broker);
            mirror(std::span(rest, escalated.end()));
            ++report.membership.leaves;
            break;
          }
          case MembershipOpKind::kCrash:
            net.crash_peer(op.broker);
            if (options.differential) oracle.crash_peer(op.broker);
            ++report.membership.crashes;
            break;
          case MembershipOpKind::kReplace:
            report.membership.replace_restored_routes +=
                net.replace_peer(op.broker).restored_routes;
            if (options.differential) oracle.replace_peer(op.broker);
            ++report.membership.replaces;
            break;
          case MembershipOpKind::kFailLink:
            // A retry-cap escalation may have failed this link before the
            // trace's planned failure arrives; skip it on both replicas
            // (they already agree the link is down).
            if (!net.link_state().has_link(op.broker, op.peer)) {
              ++report.membership.skipped_link_failures;
              break;
            }
            net.fail_link(op.broker, op.peer);
            if (options.differential) oracle.fail_link(op.broker, op.peer);
            ++report.membership.link_failures;
            break;
          case MembershipOpKind::kHealLink:
            // Escalations diverge reality from the generator's model; a
            // planned heal may no longer be feasible. Skip it on both
            // replicas — they share reality's link state.
            if (!link_healable(net, op.broker, op.peer)) {
              ++report.membership.skipped_link_heals;
              break;
            }
            net.heal_link(op.broker, op.peer);
            if (options.differential) oracle.heal_link(op.broker, op.peer);
            ++report.membership.link_heals;
            break;
        }
        audit_ghosts();  // every mutation must leave zero stale routes
        break;
      }
    }
    mirror_escalations();  // any op's cascade can exhaust the retry cap
  }
  // Close the trailing (possibly partial) epoch at its natural boundary.
  close_epoch();

  report.totals = run_accum + (net.metrics() - run_base);
  report.final_live_subscriptions = net.local_subscription_count();
  report.membership.final_alive_brokers = net.link_state().alive_count();
  return report;
}

}  // namespace psc::sim
