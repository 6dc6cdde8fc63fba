#include "wire/snapshot.hpp"

#include <cmath>
#include <string>

#include "wire/codec.hpp"

namespace psc::wire {

using routing::Broker;
using routing::NetworkConfig;
using store::SubscriptionStore;

void write_frame_header(ByteWriter& out, std::uint32_t magic) {
  out.u32(magic);
  out.u32(kSnapshotVersion);
}

void read_frame_header(ByteReader& in, std::uint32_t magic, const char* what) {
  if (in.u32() != magic) {
    throw DecodeError(std::string("wire: not a ") + what + " snapshot (bad magic)");
  }
  const std::uint32_t version = in.u32();
  if (version != kSnapshotVersion) {
    throw DecodeError(std::string("wire: unsupported ") + what +
                      " snapshot version " + std::to_string(version));
  }
}

namespace {

void write_id_list(ByteWriter& out, const std::vector<core::SubscriptionId>& ids) {
  out.varint(ids.size());
  for (const core::SubscriptionId id : ids) out.varint(id);
}

std::vector<core::SubscriptionId> read_id_list(ByteReader& in) {
  const std::size_t count = in.count();
  std::vector<core::SubscriptionId> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) ids.push_back(in.varint());
  return ids;
}

}  // namespace

void write_store_snapshot(ByteWriter& out,
                          const SubscriptionStore::Snapshot& snapshot) {
  out.u8(snapshot.use_index ? 1 : 0);
  out.varint(snapshot.group_checks);
  for (const std::uint64_t word : snapshot.engine_rng_state) out.u64(word);
  out.varint(snapshot.actives.size());
  for (const core::Subscription& sub : snapshot.actives) {
    write_subscription(out, sub);
  }
  out.varint(snapshot.covered.size());
  for (const auto& record : snapshot.covered) {
    out.varint(record.id);
    write_subscription(out, record.sub);
    write_id_list(out, record.coverers);
  }
  out.varint(snapshot.children.size());
  for (const auto& record : snapshot.children) {
    out.varint(record.coverer);
    write_id_list(out, record.covered_ids);
  }
}

SubscriptionStore::Snapshot read_store_snapshot(ByteReader& in) {
  SubscriptionStore::Snapshot snapshot;
  const std::uint8_t use_index = in.u8();
  if (use_index > 1) throw DecodeError("wire: bad use_index flag");
  snapshot.use_index = use_index != 0;
  snapshot.group_checks = in.varint();
  for (std::uint64_t& word : snapshot.engine_rng_state) word = in.u64();
  const std::size_t active_count = in.count();
  snapshot.actives.reserve(active_count);
  for (std::size_t i = 0; i < active_count; ++i) {
    snapshot.actives.push_back(read_subscription(in));
  }
  const std::size_t covered_count = in.count();
  snapshot.covered.reserve(covered_count);
  for (std::size_t i = 0; i < covered_count; ++i) {
    SubscriptionStore::Snapshot::CoveredRecord record;
    record.id = in.varint();
    record.sub = read_subscription(in);
    record.coverers = read_id_list(in);
    snapshot.covered.push_back(std::move(record));
  }
  const std::size_t dag_count = in.count();
  snapshot.children.reserve(dag_count);
  for (std::size_t i = 0; i < dag_count; ++i) {
    SubscriptionStore::Snapshot::DagRecord record;
    record.coverer = in.varint();
    record.covered_ids = read_id_list(in);
    snapshot.children.push_back(std::move(record));
  }
  return snapshot;
}

void write_broker_snapshot(ByteWriter& out, const Broker::Snapshot& snapshot) {
  out.varint(snapshot.id);
  out.varint(snapshot.routes.size());
  for (const auto& record : snapshot.routes) {
    write_subscription(out, record.sub);
    out.u8(record.origin.local ? 1 : 0);
    out.varint(record.origin.neighbor);
  }
  out.varint(snapshot.links.size());
  for (const auto& [neighbor, store_snapshot] : snapshot.links) {
    out.varint(neighbor);
    write_store_snapshot(out, store_snapshot);
  }
  out.varint(snapshot.seen_tokens.size());
  for (const std::uint64_t token : snapshot.seen_tokens) out.varint(token);
}

Broker::Snapshot read_broker_snapshot(ByteReader& in) {
  Broker::Snapshot snapshot;
  snapshot.id = static_cast<routing::BrokerId>(in.varint());
  const std::size_t route_count = in.count();
  snapshot.routes.reserve(route_count);
  for (std::size_t i = 0; i < route_count; ++i) {
    Broker::Snapshot::RouteRecord record;
    record.sub = read_subscription(in);
    const std::uint8_t local = in.u8();
    if (local > 1) throw DecodeError("wire: bad origin flag");
    record.origin.local = local != 0;
    record.origin.neighbor = static_cast<routing::BrokerId>(in.varint());
    snapshot.routes.push_back(std::move(record));
  }
  const std::size_t link_count = in.count();
  snapshot.links.reserve(link_count);
  for (std::size_t i = 0; i < link_count; ++i) {
    const auto neighbor = static_cast<routing::BrokerId>(in.varint());
    snapshot.links.emplace_back(neighbor, read_store_snapshot(in));
  }
  const std::size_t token_count = in.count();
  snapshot.seen_tokens.reserve(token_count);
  for (std::size_t i = 0; i < token_count; ++i) {
    snapshot.seen_tokens.push_back(in.varint());
  }
  return snapshot;
}

void write_network_config(ByteWriter& out, const NetworkConfig& config) {
  // StoreConfig.
  out.u8(static_cast<std::uint8_t>(config.store.policy));
  out.u8(config.store.demote_covered_actives ? 1 : 0);
  out.u8(config.store.hierarchical_match ? 1 : 0);
  out.u8(config.store.use_index ? 1 : 0);
  // EngineConfig.
  out.f64(config.store.engine.delta);
  out.varint(config.store.engine.max_iterations);
  out.u8(config.store.engine.use_fast_decisions ? 1 : 0);
  out.u8(config.store.engine.use_mcs ? 1 : 0);
  out.f64(config.store.engine.grid_spacing);
  out.u8(config.store.engine.prefilter_intersecting ? 1 : 0);
  // IndexConfig.
  out.f64(config.store.index.domain_lo);
  out.f64(config.store.index.domain_hi);
  out.varint(config.store.index.bucket_count);
  // Network-level knobs.
  out.f64(config.link_latency);
  out.u64(config.seed);
  // v3: reliable-link protocol + fault rates (LinkConfig).
  out.u8(config.link.enabled ? 1 : 0);
  out.f64(config.link.rto);
  out.f64(config.link.backoff);
  out.f64(config.link.rto_max);
  out.varint(config.link.max_retries);
  out.varint(config.link.window);
  out.f64(config.link.ack_delay);
  out.f64(config.link.faults.drop_probability);
  out.f64(config.link.faults.dup_probability);
  out.f64(config.link.faults.reorder_probability);
  out.f64(config.link.faults.delay_jitter);
}

NetworkConfig read_network_config(ByteReader& in) {
  NetworkConfig config;
  const std::uint8_t policy = in.u8();
  if (policy > static_cast<std::uint8_t>(store::CoveragePolicy::kExact)) {
    throw DecodeError("wire: unknown coverage policy " + std::to_string(policy));
  }
  const auto flag = [&in](const char* what) {
    const std::uint8_t value = in.u8();
    if (value > 1) throw DecodeError(std::string("wire: bad flag ") + what);
    return value != 0;
  };
  config.store.policy = static_cast<store::CoveragePolicy>(policy);
  config.store.demote_covered_actives = flag("demote_covered_actives");
  config.store.hierarchical_match = flag("hierarchical_match");
  config.store.use_index = flag("use_index");
  config.store.engine.delta = in.f64();
  config.store.engine.max_iterations = in.varint();
  config.store.engine.use_fast_decisions = flag("use_fast_decisions");
  config.store.engine.use_mcs = flag("use_mcs");
  config.store.engine.grid_spacing = in.f64();
  config.store.engine.prefilter_intersecting = flag("prefilter_intersecting");
  config.store.index.domain_lo = in.f64();
  config.store.index.domain_hi = in.f64();
  config.store.index.bucket_count = static_cast<std::size_t>(in.varint());
  config.link_latency = in.f64();
  if (std::isnan(config.link_latency)) {
    throw DecodeError("wire: NaN link latency");
  }
  config.seed = in.u64();
  config.link.enabled = flag("link_enabled");
  const auto nonneg = [&in](const char* what) {
    const double value = in.f64();
    if (std::isnan(value) || value < 0) {
      throw DecodeError(std::string("wire: bad link knob ") + what);
    }
    return value;
  };
  const auto rate = [&in](const char* what) {
    const double value = in.f64();
    if (std::isnan(value) || value < 0 || value > 1) {
      throw DecodeError(std::string("wire: bad fault rate ") + what);
    }
    return value;
  };
  config.link.rto = nonneg("rto");
  config.link.backoff = nonneg("backoff");
  if (config.link.backoff < 1.0) {
    throw DecodeError("wire: link backoff below 1");
  }
  config.link.rto_max = nonneg("rto_max");
  config.link.max_retries = static_cast<std::size_t>(in.varint());
  config.link.window = static_cast<std::size_t>(in.varint());
  if (config.link.window == 0) throw DecodeError("wire: zero link window");
  config.link.ack_delay = nonneg("ack_delay");
  config.link.faults.drop_probability = rate("drop");
  config.link.faults.dup_probability = rate("dup");
  config.link.faults.reorder_probability = rate("reorder");
  config.link.faults.delay_jitter = nonneg("delay_jitter");
  return config;
}

}  // namespace psc::wire
