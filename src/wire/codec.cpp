#include "wire/codec.hpp"

#include <cmath>
#include <stdexcept>

namespace psc::wire {

using core::Interval;
using core::Publication;
using core::Subscription;
using workload::ChurnConfig;
using workload::ChurnOp;
using workload::ChurnOpKind;
using workload::ChurnTrace;

// --- core geometry ----------------------------------------------------

void write_interval(ByteWriter& out, const Interval& iv) {
  out.f64(iv.lo);
  out.f64(iv.hi);
}

Interval read_interval(ByteReader& in) {
  const double lo = in.f64();
  const double hi = in.f64();
  // A stored predicate is never empty and never NaN; both states only
  // arise from corruption (or an empty-marker leaking across the wire).
  if (std::isnan(lo) || std::isnan(hi) || lo > hi) {
    throw DecodeError("wire: interval with NaN or inverted bounds");
  }
  return Interval{lo, hi};
}

void write_subscription(ByteWriter& out, const Subscription& sub) {
  out.varint(sub.id());
  out.varint(sub.attribute_count());
  for (const Interval& iv : sub.ranges()) write_interval(out, iv);
}

Subscription read_subscription(ByteReader& in) {
  const auto id = in.varint();
  const std::size_t arity = in.count(16);  // two f64 per interval
  std::vector<Interval> ranges;
  ranges.reserve(arity);
  for (std::size_t i = 0; i < arity; ++i) ranges.push_back(read_interval(in));
  try {
    return Subscription(std::move(ranges), id);
  } catch (const std::invalid_argument& error) {
    // Constructor-level validation (empty range) becomes a decode error:
    // the bytes, not the caller, are at fault.
    throw DecodeError(std::string("wire: invalid subscription: ") + error.what());
  }
}

void write_publication(ByteWriter& out, const Publication& pub) {
  out.varint(pub.id());
  out.varint(pub.attribute_count());
  for (const core::Value value : pub.values()) out.f64(value);
}

Publication read_publication(ByteReader& in) {
  const auto id = in.varint();
  const std::size_t arity = in.count(8);  // one f64 per attribute
  std::vector<core::Value> values;
  values.reserve(arity);
  for (std::size_t i = 0; i < arity; ++i) {
    const double value = in.f64();
    if (std::isnan(value)) {
      throw DecodeError("wire: publication with NaN attribute value");
    }
    values.push_back(value);
  }
  return Publication(std::move(values), id);
}

// --- routing announcements --------------------------------------------

void write_announcement(ByteWriter& out, const Announcement& msg) {
  out.u8(static_cast<std::uint8_t>(msg.kind));
  out.varint(msg.from);
  switch (msg.kind) {
    case Announcement::Kind::kSubscribe:
      write_subscription(out, msg.sub);
      out.u8(msg.expiry.has_value() ? 1 : 0);
      if (msg.expiry) out.f64(*msg.expiry);
      break;
    case Announcement::Kind::kUnsubscribe:
      out.varint(msg.id);
      break;
    case Announcement::Kind::kPublication:
      write_publication(out, msg.pub);
      out.varint(msg.token);
      break;
  }
}

Announcement read_announcement(ByteReader& in) {
  Announcement msg;
  const std::uint8_t kind = in.u8();
  if (kind < 1 || kind > 3) {
    throw DecodeError("wire: unknown announcement kind " + std::to_string(kind));
  }
  msg.kind = static_cast<Announcement::Kind>(kind);
  msg.from = static_cast<std::uint32_t>(in.varint());
  switch (msg.kind) {
    case Announcement::Kind::kSubscribe: {
      msg.sub = read_subscription(in);
      const std::uint8_t has_expiry = in.u8();
      if (has_expiry > 1) throw DecodeError("wire: bad expiry flag");
      if (has_expiry) msg.expiry = in.f64();
      break;
    }
    case Announcement::Kind::kUnsubscribe:
      msg.id = in.varint();
      break;
    case Announcement::Kind::kPublication:
      msg.pub = read_publication(in);
      msg.token = in.varint();
      break;
  }
  return msg;
}

// --- reliable-link frames (codec v3) -----------------------------------

void write_link_frame(ByteWriter& out, const LinkFrame& frame) {
  out.u8(static_cast<std::uint8_t>(frame.kind));
  out.varint(frame.ack);
  if (frame.kind == LinkFrame::Kind::kData) {
    out.varint(frame.seq);
    out.bytes(frame.payload);
  }
}

LinkFrame read_link_frame(ByteReader& in) {
  LinkFrame frame;
  const std::uint8_t kind = in.u8();
  if (kind < 1 || kind > 2) {
    throw DecodeError("wire: unknown link frame kind " + std::to_string(kind));
  }
  frame.kind = static_cast<LinkFrame::Kind>(kind);
  frame.ack = in.varint();
  if (frame.kind == LinkFrame::Kind::kData) {
    frame.seq = in.varint();
    const auto view = in.bytes();
    frame.payload.assign(view.begin(), view.end());
    // Validate the embedded announcement eagerly: a data frame whose
    // payload does not decode is corrupt as a whole — the receiver must
    // not ack (and thereby consume) a frame it cannot interpret.
    ByteReader payload(frame.payload);
    (void)read_announcement(payload);
    if (!payload.at_end()) {
      throw DecodeError("wire: trailing bytes after link frame payload");
    }
  }
  return frame;
}

// --- churn-trace records ----------------------------------------------

void write_churn_op(ByteWriter& out, const ChurnOp& op) {
  out.u8(static_cast<std::uint8_t>(op.kind));
  out.f64(op.time);
  out.varint(op.broker);
  switch (op.kind) {
    case ChurnOpKind::kSubscribe:
      write_subscription(out, op.sub);
      break;
    case ChurnOpKind::kSubscribeTtl:
      write_subscription(out, op.sub);
      out.f64(op.ttl);
      break;
    case ChurnOpKind::kUnsubscribe:
      out.varint(op.id);
      break;
    case ChurnOpKind::kPublish:
      write_publication(out, op.pub);
      break;
    case ChurnOpKind::kAdvance:
      break;
    case ChurnOpKind::kMembership:
      out.u8(op.member);
      out.varint(op.peer);
      break;
  }
}

ChurnOp read_churn_op(ByteReader& in) {
  ChurnOp op;
  const std::uint8_t kind = in.u8();
  if (kind > static_cast<std::uint8_t>(ChurnOpKind::kMembership)) {
    throw DecodeError("wire: unknown churn op kind " + std::to_string(kind));
  }
  op.kind = static_cast<ChurnOpKind>(kind);
  op.time = in.f64();
  if (std::isnan(op.time)) throw DecodeError("wire: NaN op time");
  op.broker = static_cast<routing::BrokerId>(in.varint());
  switch (op.kind) {
    case ChurnOpKind::kSubscribe:
      op.sub = read_subscription(in);
      break;
    case ChurnOpKind::kSubscribeTtl:
      op.sub = read_subscription(in);
      op.ttl = in.f64();
      if (!(op.ttl > 0)) throw DecodeError("wire: non-positive TTL");
      break;
    case ChurnOpKind::kUnsubscribe:
      op.id = in.varint();
      break;
    case ChurnOpKind::kPublish:
      op.pub = read_publication(in);
      break;
    case ChurnOpKind::kAdvance:
      break;
    case ChurnOpKind::kMembership:
      op.member = in.u8();
      if (op.member < 1 || op.member > 6) {
        throw DecodeError("wire: unknown membership op kind " +
                          std::to_string(op.member));
      }
      op.peer = static_cast<routing::BrokerId>(in.varint());
      break;
  }
  return op;
}

namespace {

void write_churn_config(ByteWriter& out, const ChurnConfig& config) {
  out.varint(config.attribute_count);
  out.f64(config.domain_lo);
  out.f64(config.domain_hi);
  out.f64(config.subscription_rate);
  out.f64(config.publication_rate);
  out.f64(config.ttl_fraction);
  out.f64(config.immortal_fraction);
  out.f64(config.mean_lifetime);
  out.varint(config.hotspot_count);
  out.f64(config.zipf_skew);
  out.f64(config.hotspot_radius_fraction);
  out.f64(config.width_fraction_lo);
  out.f64(config.width_fraction_hi);
  out.f64(config.duration);
  out.f64(config.slot);
  out.f64(config.link_latency);
  out.f64(config.epoch_length);
  out.f64(config.membership.join_rate);
  out.f64(config.membership.leave_rate);
  out.f64(config.membership.crash_rate);
  out.f64(config.membership.partition_rate);
  out.f64(config.membership.partition_mean);
  out.f64(config.membership.replace_mean);
  out.varint(config.membership.min_brokers);
  out.varint(config.membership.max_brokers);
}

ChurnConfig read_churn_config(ByteReader& in) {
  ChurnConfig config;
  config.attribute_count = static_cast<std::size_t>(in.varint());
  config.domain_lo = in.f64();
  config.domain_hi = in.f64();
  config.subscription_rate = in.f64();
  config.publication_rate = in.f64();
  config.ttl_fraction = in.f64();
  config.immortal_fraction = in.f64();
  config.mean_lifetime = in.f64();
  config.hotspot_count = static_cast<std::size_t>(in.varint());
  config.zipf_skew = in.f64();
  config.hotspot_radius_fraction = in.f64();
  config.width_fraction_lo = in.f64();
  config.width_fraction_hi = in.f64();
  config.duration = in.f64();
  config.slot = in.f64();
  config.link_latency = in.f64();
  config.epoch_length = in.f64();
  config.membership.join_rate = in.f64();
  config.membership.leave_rate = in.f64();
  config.membership.crash_rate = in.f64();
  config.membership.partition_rate = in.f64();
  config.membership.partition_mean = in.f64();
  config.membership.replace_mean = in.f64();
  config.membership.min_brokers = static_cast<std::size_t>(in.varint());
  config.membership.max_brokers = static_cast<std::size_t>(in.varint());
  return config;
}

void write_universe(ByteWriter& out,
                    const routing::MembershipUniverse& universe) {
  out.varint(universe.brokers);
  const auto write_links =
      [&](const std::vector<std::pair<routing::BrokerId, routing::BrokerId>>&
              links) {
        out.varint(links.size());
        for (const auto& [a, b] : links) {
          out.varint(a);
          out.varint(b);
        }
      };
  write_links(universe.links);
  write_links(universe.standby);
}

routing::MembershipUniverse read_universe(ByteReader& in) {
  routing::MembershipUniverse universe;
  universe.brokers = static_cast<std::size_t>(in.varint());
  const auto read_links =
      [&](std::vector<std::pair<routing::BrokerId, routing::BrokerId>>& links) {
        const std::size_t count = in.count(2);
        links.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
          const auto a = static_cast<routing::BrokerId>(in.varint());
          const auto b = static_cast<routing::BrokerId>(in.varint());
          if (a >= universe.brokers || b >= universe.brokers) {
            throw DecodeError("wire: universe link id out of range");
          }
          links.emplace_back(a, b);
        }
      };
  read_links(universe.links);
  read_links(universe.standby);
  return universe;
}

}  // namespace

namespace {

// Fault-schedule block: the probabilistic fault rates the trace was
// generated for, the fault-aware cascade hop bound its slot validation
// used, and the scripted burst-loss windows (absolute sim-time, per
// undirected link).
void write_fault_block(ByteWriter& out, const ChurnTrace& trace) {
  out.f64(trace.config.faults.link.drop_probability);
  out.f64(trace.config.faults.link.dup_probability);
  out.f64(trace.config.faults.link.reorder_probability);
  out.f64(trace.config.faults.link.delay_jitter);
  out.f64(trace.config.faults.burst_length);
  out.varint(trace.config.faults.burst_count);
  out.f64(trace.config.faults.cascade_hop_bound);
  out.varint(trace.bursts.size());
  for (const workload::LinkBurst& burst : trace.bursts) {
    out.f64(burst.start);
    out.f64(burst.end);
    out.varint(burst.a);
    out.varint(burst.b);
  }
}

void read_fault_block(ByteReader& in, ChurnTrace& trace) {
  auto& faults = trace.config.faults;
  const auto rate = [&in](const char* what) {
    const double value = in.f64();
    if (std::isnan(value) || value < 0 || value > 1) {
      throw DecodeError(std::string("wire: bad fault rate ") + what);
    }
    return value;
  };
  faults.link.drop_probability = rate("drop");
  faults.link.dup_probability = rate("dup");
  faults.link.reorder_probability = rate("reorder");
  faults.link.delay_jitter = in.f64();
  faults.burst_length = in.f64();
  faults.burst_count = static_cast<std::size_t>(in.varint());
  faults.cascade_hop_bound = in.f64();
  if (std::isnan(faults.link.delay_jitter) || faults.link.delay_jitter < 0 ||
      std::isnan(faults.burst_length) || faults.burst_length < 0 ||
      std::isnan(faults.cascade_hop_bound) || faults.cascade_hop_bound < 0) {
    throw DecodeError("wire: bad fault-schedule field");
  }
  const std::size_t burst_count = in.count(18);  // 2x f64 + 2 varints floor
  trace.bursts.reserve(burst_count);
  for (std::size_t i = 0; i < burst_count; ++i) {
    workload::LinkBurst burst;
    burst.start = in.f64();
    burst.end = in.f64();
    if (std::isnan(burst.start) || std::isnan(burst.end) ||
        burst.end < burst.start) {
      throw DecodeError("wire: inverted burst window");
    }
    burst.a = static_cast<routing::BrokerId>(in.varint());
    burst.b = static_cast<routing::BrokerId>(in.varint());
    trace.bursts.push_back(burst);
  }
}

}  // namespace

void write_churn_trace(ByteWriter& out, const ChurnTrace& trace) {
  out.u32(kTraceMagic);
  out.u32(kCodecVersion);
  write_churn_config(out, trace.config);
  out.varint(trace.broker_count);
  out.u64(trace.seed);
  out.varint(trace.publish_count);
  out.varint(trace.subscribe_count);
  out.varint(trace.membership_count);
  out.u8(trace.has_membership ? 1 : 0);
  if (trace.has_membership) write_universe(out, trace.universe);
  write_fault_block(out, trace);
  out.varint(trace.ops.size());
  for (const ChurnOp& op : trace.ops) write_churn_op(out, op);
}

ChurnTrace read_churn_trace(ByteReader& in) {
  if (in.u32() != kTraceMagic) {
    throw DecodeError("wire: not a churn trace (bad magic)");
  }
  const std::uint32_t version = in.u32();
  if (version != kCodecVersion) {
    throw DecodeError("wire: unsupported trace version " +
                      std::to_string(version));
  }
  ChurnTrace trace;
  trace.config = read_churn_config(in);
  trace.broker_count = static_cast<std::size_t>(in.varint());
  trace.seed = in.u64();
  trace.publish_count = static_cast<std::size_t>(in.varint());
  trace.subscribe_count = static_cast<std::size_t>(in.varint());
  trace.membership_count = static_cast<std::size_t>(in.varint());
  const std::uint8_t has_membership = in.u8();
  if (has_membership > 1) throw DecodeError("wire: bad membership flag");
  trace.has_membership = has_membership != 0;
  if (trace.has_membership) trace.universe = read_universe(in);
  read_fault_block(in, trace);
  const std::size_t op_count = in.count(10);  // kind + time + broker floor
  trace.ops.reserve(op_count);
  for (std::size_t i = 0; i < op_count; ++i) {
    trace.ops.push_back(read_churn_op(in));
  }
  return trace;
}

}  // namespace psc::wire
