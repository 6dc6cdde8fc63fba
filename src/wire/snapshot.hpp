// Snapshot codecs — the self-describing binary format behind
// store::SubscriptionStore::export_snapshot, Broker::snapshot(), and
// BrokerNetwork::snapshot_all().
//
// Frame layout (full tables in docs/ARCHITECTURE.md, "Wire format"):
//
//   broker frame   : u32 magic "PSCB" | u32 version | broker body
//   network frame  : u32 magic "PSCN" | u32 version | network body
//
// Bodies are built from the element codecs in wire/codec.hpp plus the
// store/broker codecs below. The network body embeds broker bodies without
// their own magic (one frame per top-level artifact). Version checks are
// exact-match: the format is young enough that forward/backward bridging
// would be speculative — a mismatch throws DecodeError and the caller
// falls back to cold start (snapshots are an optimization, never the only
// copy of the truth; the op log / trace can always be replayed from
// scratch).
//
// Everything here throws wire::DecodeError on malformed input and never
// exhibits UB on truncated or bit-flipped buffers (tests/wire_test.cpp
// exercises both under ASan/UBSan).
#pragma once

#include <cstdint>

#include "routing/broker_network.hpp"
#include "store/subscription_store.hpp"
#include "wire/byte_buffer.hpp"

namespace psc::wire {

/// Snapshot format version; bump on ANY layout change to a store, broker,
/// or network body (they version together — a network body embeds the
/// other two). v3 appends the reliable-link config (NetworkConfig::link)
/// to the network-config block; v4 drops the index's three mutation-tier
/// fields from it (IndexConfig is domain + bucket count only); v5 drops
/// the retired match-shard count.
inline constexpr std::uint32_t kSnapshotVersion = 5;

/// Frame magics ("PSCB" / "PSCN" little-endian).
inline constexpr std::uint32_t kBrokerSnapshotMagic = 0x42435350U;
inline constexpr std::uint32_t kNetworkSnapshotMagic = 0x4e435350U;

/// Writes/reads a frame header; read throws DecodeError on a magic or
/// version mismatch.
void write_frame_header(ByteWriter& out, std::uint32_t magic);
void read_frame_header(ByteReader& in, std::uint32_t magic, const char* what);

void write_store_snapshot(ByteWriter& out,
                          const store::SubscriptionStore::Snapshot& snapshot);
[[nodiscard]] store::SubscriptionStore::Snapshot read_store_snapshot(
    ByteReader& in);

/// Broker BODY codec (no frame header); Broker::snapshot()/restore() add
/// the "PSCB" frame around it, the network body embeds it bare.
void write_broker_snapshot(ByteWriter& out,
                           const routing::Broker::Snapshot& snapshot);
[[nodiscard]] routing::Broker::Snapshot read_broker_snapshot(ByteReader& in);

/// NetworkConfig codec — the part of the network body that makes a
/// snapshot self-describing: a restored network rebuilds its brokers from
/// the serialized config instead of trusting the caller's.
void write_network_config(ByteWriter& out, const routing::NetworkConfig& config);
[[nodiscard]] routing::NetworkConfig read_network_config(ByteReader& in);

}  // namespace psc::wire
