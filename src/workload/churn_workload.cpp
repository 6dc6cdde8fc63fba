#include "workload/churn_workload.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/interval.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace psc::workload {

using core::Interval;
using core::Publication;
using core::Subscription;
using core::SubscriptionId;
using routing::BrokerId;

namespace {

/// Expiry slot of a subscription that never expires.
constexpr std::uint64_t kNoExpiry = std::numeric_limits<std::uint64_t>::max();

/// Exponential variate with the given mean (inverse-CDF, one rng call).
double sample_exponential(util::Rng& rng, double mean) {
  const double u = 1.0 - rng.next_double();  // (0, 1], avoids log(0)
  return -mean * std::log(u);
}

void validate(const ChurnConfig& c, std::size_t broker_count,
              std::size_t cascade_broker_bound) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("generate_churn_trace: ") + what);
  };
  if (broker_count == 0) fail("broker_count must be > 0");
  const auto& m = c.membership;
  if (m.join_rate < 0 || m.leave_rate < 0 || m.crash_rate < 0 ||
      m.partition_rate < 0) {
    fail("negative membership rate");
  }
  if (m.any()) {
    if (!(m.partition_mean > 0)) fail("partition_mean must be > 0");
    if (!(m.replace_mean > 0)) fail("replace_mean must be > 0");
    if (m.min_brokers == 0) fail("min_brokers must be > 0");
    if (m.min_brokers > broker_count) fail("min_brokers above broker_count");
    if (m.max_brokers != 0 && m.max_brokers < broker_count) {
      fail("max_brokers below initial broker_count");
    }
  }
  if (c.attribute_count == 0) fail("attribute_count must be > 0");
  if (!(c.domain_hi > c.domain_lo)) fail("domain must be non-empty");
  if (c.subscription_rate < 0 || c.publication_rate < 0) fail("negative rate");
  if (c.subscription_rate + c.publication_rate <= 0) fail("all rates zero");
  if (c.ttl_fraction < 0 || c.ttl_fraction > 1) fail("ttl_fraction outside [0,1]");
  if (c.immortal_fraction < 0 || c.immortal_fraction > 1) {
    fail("immortal_fraction outside [0,1]");
  }
  if (!(c.mean_lifetime > 0)) fail("mean_lifetime must be > 0");
  if (c.hotspot_count == 0) fail("hotspot_count must be > 0");
  if (c.zipf_skew < 0) fail("zipf_skew must be >= 0");
  if (!(c.hotspot_radius_fraction >= 0)) fail("hotspot_radius_fraction < 0");
  if (!(c.width_fraction_lo > 0) || c.width_fraction_hi < c.width_fraction_lo ||
      c.width_fraction_hi > 1.0) {
    fail("width fractions need 0 < lo <= hi <= 1");
  }
  const auto& f = c.faults;
  if (f.link.drop_probability < 0 || f.link.drop_probability > 1 ||
      f.link.dup_probability < 0 || f.link.dup_probability > 1 ||
      f.link.reorder_probability < 0 || f.link.reorder_probability > 1) {
    fail("fault rates must be in [0, 1]");
  }
  if (f.link.delay_jitter < 0) fail("delay_jitter must be >= 0");
  if (f.cascade_hop_bound < 0) fail("cascade_hop_bound must be >= 0");
  if (f.any()) {
    // The caller must size the per-hop bound from the reliable protocol it
    // will replay against (routing::LinkConfig::worst_hop_delay); the raw
    // latency would let retransmit chains spill past mid-slot expiries.
    if (!(f.cascade_hop_bound >= c.link_latency)) {
      fail("faults require cascade_hop_bound >= link_latency");
    }
  }
  if (f.burst_count > 0 && !(f.burst_length > 0)) {
    fail("bursts require burst_length > 0");
  }
  if (!(c.slot > 0) || !(c.duration >= c.slot)) fail("need 0 < slot <= duration");
  if (!(c.link_latency > 0)) fail("link_latency must be > 0");
  if (!(c.epoch_length > 0)) fail("epoch_length must be > 0");
  // Epoch boundaries must land on slot boundaries, or a driver snapshot
  // could fall on a mid-slot expiry instant and observe mid-cascade state.
  const double epoch_slots = c.epoch_length / c.slot;
  if (std::abs(epoch_slots - std::round(epoch_slots)) > 1e-9) {
    fail("epoch_length must be a whole number of slots");
  }
  // The differential time contract: expiries sit half a slot past a
  // boundary, which must clear the worst-case cascade window. Under
  // membership churn the overlay can GROW, so the bound uses the join cap
  // rather than the initial broker count. With link faults the per-hop
  // time is the protocol's worst retransmit chain, not the raw latency.
  const double hop_bound =
      c.faults.any() ? c.faults.cascade_hop_bound : c.link_latency;
  if (c.slot / 2 <= static_cast<double>(cascade_broker_bound + 1) * hop_bound) {
    fail("slot too small: slot/2 must exceed (brokers + 1) * hop bound");
  }
}

/// Pending proto-event: payloads are sampled at pop time so the RNG stream
/// is consumed in one deterministic (time, insertion) order.
struct Proto {
  double t = 0.0;
  ChurnOpKind kind = ChurnOpKind::kAdvance;
  std::uint64_t seq = 0;           ///< FIFO tie-break
  SubscriptionId unsub_id = 0;     ///< kUnsubscribe payload
  BrokerId unsub_home = 0;
  std::uint8_t member = 0;         ///< kMembership: MembershipOpKind value
  BrokerId target = 0;             ///< kReplace: the broker to revive
};

struct ProtoLater {
  bool operator()(const Proto& a, const Proto& b) const noexcept {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
};

ChurnTrace generate_impl(const ChurnConfig& config, std::size_t broker_count,
                         const routing::MembershipUniverse* universe,
                         std::uint64_t seed) {
  const std::size_t max_brokers =
      config.membership.max_brokers != 0 ? config.membership.max_brokers
                                         : 2 * broker_count;
  validate(config, broker_count,
           config.membership.any() ? max_brokers : broker_count);

  ChurnTrace trace;
  trace.config = config;
  trace.broker_count = broker_count;
  trace.seed = seed;
  if (universe != nullptr) {
    trace.has_membership = true;
    trace.universe = *universe;
  }

  // The generator's own link-state replica: membership protos are checked
  // for feasibility against it and mutate it exactly as the network and
  // oracle will, so every emitted op is legal by construction. `alive`
  // mirrors its alive set as a sorted vector for uniform target sampling.
  std::optional<routing::LinkState> state;
  std::vector<BrokerId> alive;
  if (universe != nullptr) {
    state.emplace(*universe);  // throws if the live links are cyclic
    alive.reserve(max_brokers);
    for (std::size_t b = 0; b < broker_count; ++b) {
      alive.push_back(static_cast<BrokerId>(b));
    }
  }

  util::Rng rng(seed);

  // Scripted burst-loss windows: drawn first, so a burst-free config's op
  // stream is untouched and a bursted one is deterministic per (config,
  // seed). Each window starts ON a slot boundary — ops issued inside it
  // send their first frames straight into 100% loss — and covers
  // burst_length seconds on a uniformly drawn universe link (both
  // directions). A window longer than the retransmit chain plus a slot
  // guarantees any frame sent in its first slot exhausts the retry cap.
  if (config.faults.burst_count > 0) {
    if (universe == nullptr || trace.universe.links.empty()) {
      throw std::invalid_argument(
          "generate_churn_trace: burst windows require a universe with links");
    }
    const auto total_slots =
        static_cast<std::uint64_t>(config.duration / config.slot);
    const auto burst_slots = static_cast<std::uint64_t>(std::ceil(
                                 config.faults.burst_length / config.slot)) +
                             1;
    const std::uint64_t range =
        total_slots > burst_slots + 1 ? total_slots - burst_slots : 1;
    for (std::size_t i = 0; i < config.faults.burst_count; ++i) {
      const auto& link = trace.universe.links[rng.next_below(
          trace.universe.links.size())];
      LinkBurst burst;
      burst.start = static_cast<double>(1 + rng.next_below(range)) * config.slot;
      burst.end = burst.start + config.faults.burst_length;
      burst.a = link.first;
      burst.b = link.second;
      trace.bursts.push_back(burst);
    }
    std::sort(trace.bursts.begin(), trace.bursts.end(),
              [](const LinkBurst& a, const LinkBurst& b) {
                if (a.start != b.start) return a.start < b.start;
                if (a.a != b.a) return a.a < b.a;
                return a.b < b.b;
              });
  }

  const double domain_width = config.domain_hi - config.domain_lo;
  const util::ZipfSampler hotspot_rank(config.hotspot_count, config.zipf_skew);
  const util::NormalSampler jitter(0.0,
                                   config.hotspot_radius_fraction * domain_width);

  // Hotspot centers: the popular regions both sides of the workload share.
  std::vector<std::vector<double>> hotspots(config.hotspot_count);
  for (auto& center : hotspots) {
    center.reserve(config.attribute_count);
    for (std::size_t a = 0; a < config.attribute_count; ++a) {
      center.push_back(rng.uniform(config.domain_lo, config.domain_hi));
    }
  }

  // Poisson arrival processes (exponential inter-arrival times).
  std::priority_queue<Proto, std::vector<Proto>, ProtoLater> pending;
  std::uint64_t seq = 0;
  if (config.subscription_rate > 0) {
    for (double t = sample_exponential(rng, 1.0 / config.subscription_rate);
         t < config.duration;
         t += sample_exponential(rng, 1.0 / config.subscription_rate)) {
      pending.push(Proto{t, ChurnOpKind::kSubscribe, seq++, 0, 0});
    }
  }
  if (config.publication_rate > 0) {
    for (double t = sample_exponential(rng, 1.0 / config.publication_rate);
         t < config.duration;
         t += sample_exponential(rng, 1.0 / config.publication_rate)) {
      pending.push(Proto{t, ChurnOpKind::kPublish, seq++, 0, 0});
    }
  }
  if (universe != nullptr) {
    using routing::MembershipOpKind;
    const auto stream = [&](double rate, MembershipOpKind member) {
      if (rate <= 0) return;
      for (double t = sample_exponential(rng, 1.0 / rate); t < config.duration;
           t += sample_exponential(rng, 1.0 / rate)) {
        Proto proto{t, ChurnOpKind::kMembership, seq++, 0, 0};
        proto.member = static_cast<std::uint8_t>(member);
        pending.push(proto);
      }
    };
    stream(config.membership.join_rate, MembershipOpKind::kJoin);
    stream(config.membership.leave_rate, MembershipOpKind::kLeave);
    stream(config.membership.crash_rate, MembershipOpKind::kCrash);
    stream(config.membership.partition_rate, MembershipOpKind::kFailLink);
  }

  // Slot assignment: ops are serialized one-per-slot in event order, so
  // every op owns a quiet boundary and replay is collision-free.
  const auto slot_of = [&](double t) {
    return static_cast<std::uint64_t>(std::ceil(t / config.slot));
  };
  std::uint64_t last_slot = 0;  // slot 0 is reserved: time 0 issues nothing
  SubscriptionId next_id = 1;

  // The client registry as the network will hold it: each live
  // subscription's home and, for a TTL one, the slot whose middle is its
  // expiry instant. A graceful leave takes its registry entries with it,
  // so the explicit unsubscribes still pending for them must be dropped
  // from the trace (a crash keeps the registry — those stay).
  struct Registered {
    BrokerId home = 0;
    std::uint64_t expiry_slot = kNoExpiry;
  };
  std::unordered_map<SubscriptionId, Registered> registered;
  std::set<SubscriptionId> gone;

  // A membership op whose protocol runs several cascades back to back (a
  // leave: one per homed unsubscription, the purge, one per star-repair
  // link; a replacement: one per healed link) owns one slot per cascade,
  // so each cascade keeps the one-slot bound. It starts at the first slot
  // from `first` on whose run of slots holds no expiry instant, or the
  // network would expire a subscription mid-op while the oracle's clock
  // stands still. `cascades()` counts the op's cascades against the
  // registry as it stands at the op's slot. Claims the slots and returns
  // the op's time.
  const auto reserve_slots = [&](std::uint64_t first, const auto& cascades) {
    while (true) {
      std::erase_if(registered, [&](const auto& entry) {
        return entry.second.expiry_slot < first;  // expired before the op
      });
      const std::uint64_t count = std::max<std::uint64_t>(1, cascades());
      std::optional<std::uint64_t> blocked;
      for (const auto& [sid, entry] : registered) {
        if (entry.expiry_slot < first + count) {
          blocked = std::max(blocked.value_or(0), entry.expiry_slot);
        }
      }
      if (!blocked) {
        last_slot = first + count - 1;
        return static_cast<double>(first) * config.slot;
      }
      first = *blocked + 1;
    }
  };

  // Uniform target over the currently-alive brokers (all of them when
  // membership is off).
  const auto pick_broker = [&]() {
    if (state) return alive[rng.next_below(alive.size())];
    return static_cast<BrokerId>(rng.next_below(broker_count));
  };
  const auto drop_alive = [&](BrokerId b) {
    alive.erase(std::find(alive.begin(), alive.end(), b));
  };

  while (!pending.empty()) {
    Proto proto = pending.top();
    pending.pop();
    if (proto.t >= config.duration) continue;
    const std::uint64_t op_slot = std::max(slot_of(proto.t), last_slot + 1);
    last_slot = op_slot;

    ChurnOp op;
    op.time = static_cast<double>(op_slot) * config.slot;
    switch (proto.kind) {
      case ChurnOpKind::kSubscribe: {
        // Box around a Zipf-popular hotspot: popular regions accumulate
        // overlapping subscriptions, which is what coverage pruning eats.
        const auto& center = hotspots[hotspot_rank.sample(rng)];
        std::vector<Interval> ranges;
        ranges.reserve(config.attribute_count);
        for (std::size_t a = 0; a < config.attribute_count; ++a) {
          const double mid = std::clamp(center[a] + jitter.sample(rng),
                                        config.domain_lo, config.domain_hi);
          const double width = rng.uniform(config.width_fraction_lo,
                                           config.width_fraction_hi) *
                               domain_width;
          ranges.emplace_back(
              std::max(config.domain_lo, mid - width / 2),
              std::min(config.domain_hi, mid + width / 2));
        }
        op.broker = pick_broker();
        op.sub = Subscription(std::move(ranges), next_id++);
        trace.subscribe_count += 1;

        // Fate: immortal, TTL-expired, or explicitly unsubscribed.
        if (rng.bernoulli(config.immortal_fraction)) {
          op.kind = ChurnOpKind::kSubscribe;
        } else if (rng.bernoulli(config.ttl_fraction)) {
          op.kind = ChurnOpKind::kSubscribeTtl;
          const double lifetime = sample_exponential(rng, config.mean_lifetime);
          const auto ttl_slots = std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(std::llround(lifetime / config.slot)));
          // Whole slots plus half a slot: the expiry instant sits mid-slot,
          // clear of every cascade window (see header contract).
          op.ttl = static_cast<double>(ttl_slots) * config.slot + config.slot / 2;
          registered[op.sub.id()] = {op.broker, op_slot + ttl_slots};
          break;
        } else {
          op.kind = ChurnOpKind::kSubscribe;
          const double lifetime = sample_exponential(rng, config.mean_lifetime);
          pending.push(Proto{proto.t + lifetime, ChurnOpKind::kUnsubscribe,
                             seq++, op.sub.id(), op.broker});
        }
        registered[op.sub.id()] = {op.broker, kNoExpiry};
        break;
      }
      case ChurnOpKind::kPublish: {
        const auto& center = hotspots[hotspot_rank.sample(rng)];
        std::vector<double> point;
        point.reserve(config.attribute_count);
        for (std::size_t a = 0; a < config.attribute_count; ++a) {
          point.push_back(std::clamp(center[a] + jitter.sample(rng),
                                     config.domain_lo, config.domain_hi));
        }
        op.kind = ChurnOpKind::kPublish;
        op.broker = pick_broker();
        op.pub = Publication(std::move(point));
        trace.publish_count += 1;
        break;
      }
      case ChurnOpKind::kUnsubscribe:
        if (gone.count(proto.unsub_id) > 0) continue;  // home broker left
        registered.erase(proto.unsub_id);
        op.kind = ChurnOpKind::kUnsubscribe;
        op.id = proto.unsub_id;
        op.broker = proto.unsub_home;
        break;
      case ChurnOpKind::kMembership: {
        using routing::MembershipOpKind;
        const auto member = static_cast<MembershipOpKind>(proto.member);
        op.kind = ChurnOpKind::kMembership;
        op.member = proto.member;
        switch (member) {
          case MembershipOpKind::kJoin: {
            if (state->broker_count() >= max_brokers) continue;
            const BrokerId attach = pick_broker();
            const BrokerId id = state->add_broker();
            state->add_link(attach, id);
            alive.push_back(id);  // dense ids, so the vector stays sorted
            op.broker = attach;
            op.peer = id;  // replay asserts the network hands out this id
            break;
          }
          case MembershipOpKind::kLeave: {
            if (state->alive_count() <= config.membership.min_brokers) continue;
            const BrokerId b = pick_broker();
            const std::size_t repairs = state->remove_peer(b).size();
            op.time = reserve_slots(op_slot, [&] {
              const auto homed = std::count_if(
                  registered.begin(), registered.end(),
                  [&](const auto& entry) { return entry.second.home == b; });
              return static_cast<std::uint64_t>(homed) + 1 + repairs;
            });
            std::erase_if(registered, [&](const auto& entry) {
              if (entry.second.home != b) return false;
              gone.insert(entry.first);
              return true;
            });
            drop_alive(b);
            op.broker = b;
            break;
          }
          case MembershipOpKind::kCrash: {
            if (state->alive_count() <= config.membership.min_brokers) continue;
            const BrokerId b = pick_broker();
            (void)state->crash_peer(b);
            drop_alive(b);
            Proto replace{
                proto.t + sample_exponential(rng, config.membership.replace_mean),
                ChurnOpKind::kMembership, seq++, 0, 0};
            replace.member = static_cast<std::uint8_t>(MembershipOpKind::kReplace);
            replace.target = b;
            pending.push(replace);
            op.broker = b;
            break;
          }
          case MembershipOpKind::kReplace: {
            // One replace proto per crash, and only replace revives, so the
            // target must still be down; guard anyway for robustness.
            if (state->is_alive(proto.target)) continue;
            const std::size_t heals = state->replace_peer(proto.target).size();
            op.time = reserve_slots(op_slot, [&] { return heals; });
            alive.insert(std::lower_bound(alive.begin(), alive.end(),
                                          proto.target),
                         proto.target);
            op.broker = proto.target;
            break;
          }
          case MembershipOpKind::kFailLink: {
            if (state->live_links().empty()) continue;
            auto it = state->live_links().begin();
            std::advance(it, rng.next_below(state->live_links().size()));
            const auto [a, b] = *it;
            state->fail_link(a, b);
            Proto heal{proto.t + sample_exponential(
                                     rng, config.membership.partition_mean),
                       ChurnOpKind::kMembership, seq++, 0, 0};
            heal.member = static_cast<std::uint8_t>(MembershipOpKind::kHealLink);
            pending.push(heal);
            op.broker = a;
            op.peer = b;
            break;
          }
          case MembershipOpKind::kHealLink: {
            // Uniform over ALL healable down links, not the one that
            // failed: on cyclic universes this rotates the standby bridges.
            std::vector<std::pair<BrokerId, BrokerId>> healable;
            for (const auto& [a, b] : state->failed_links()) {
              if (!state->is_alive(a) || !state->is_alive(b)) continue;
              if (state->same_component(a, b)) continue;
              healable.push_back({a, b});
            }
            if (healable.empty()) continue;
            const auto [a, b] = healable[rng.next_below(healable.size())];
            state->heal_link(a, b);
            op.broker = a;
            op.peer = b;
            break;
          }
        }
        trace.membership_count += 1;
        break;
      }
      case ChurnOpKind::kSubscribeTtl:
      case ChurnOpKind::kAdvance:
        continue;  // never enqueued as proto events
    }
    trace.ops.push_back(std::move(op));
  }

  // Closing advance: fires every expiry due by the end of the run, so a
  // replayed trace ends with both replicas at the same instant.
  ChurnOp closing;
  closing.kind = ChurnOpKind::kAdvance;
  closing.time =
      static_cast<double>(std::max(last_slot + 1, slot_of(config.duration))) *
      config.slot;
  trace.ops.push_back(std::move(closing));
  return trace;
}

}  // namespace

ChurnTrace generate_churn_trace(const ChurnConfig& config,
                                std::size_t broker_count, std::uint64_t seed) {
  if (config.membership.any()) {
    throw std::invalid_argument(
        "generate_churn_trace: membership rates require the universe "
        "overload");
  }
  return generate_impl(config, broker_count, nullptr, seed);
}

ChurnTrace generate_churn_trace(const ChurnConfig& config,
                                const routing::MembershipUniverse& universe,
                                std::uint64_t seed) {
  return generate_impl(config, universe.brokers, &universe, seed);
}

}  // namespace psc::workload
