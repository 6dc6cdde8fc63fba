// Wire codecs — versioned binary round trips for the repo's message-level
// vocabulary: Interval, Subscription, Publication, routing announcements,
// and churn-trace records. Announcements are what brokers send each other
// per hop (psc_brokerd frames one per LinkFrame over TCP); the element
// codecs also build the snapshot format (wire/snapshot.hpp) and the trace
// artifacts the nightly soaks archive.
//
// Conventions (see docs/ARCHITECTURE.md, "Wire format" for the full
// layout and compatibility rules):
//   * ids, counts, arities, and enum tags are varints; interval bounds and
//     publication values are IEEE-754 bit patterns (f64) — ±inf round-trips
//     bit-exactly, which the unbounded "everything" predicate needs;
//   * every read_* validates semantic invariants, not just framing: an
//     empty interval inside a subscription, an unknown enum tag, or a
//     count the buffer cannot hold all throw wire::DecodeError (never UB —
//     property-tested under ASan/UBSan);
//   * self-contained streams (traces, snapshots) carry a magic + format
//     version header; the element codecs below are headerless building
//     blocks and version with their enclosing stream.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/publication.hpp"
#include "core/subscription.hpp"
#include "wire/byte_buffer.hpp"
#include "workload/churn_workload.hpp"

namespace psc::wire {

/// Format version of the headerless element codecs in this file. Bumped on
/// any layout change; embedded by the stream-level headers (trace,
/// snapshot) and the TCP peer handshake, and readers accept exactly this
/// version. v3 added the reliable-link frame header (LinkFrame) and the
/// fault-schedule block of churn traces; v4 adds the TCP transport's
/// NetMessage envelope (net/message.hpp) and the handshake that carries
/// this version; v5 retires Announcement kind 4 (membership), which nothing
/// produced — membership travels in churn ops.
inline constexpr std::uint32_t kCodecVersion = 5;

/// Magic prefix of a serialized churn trace ("PSCT" little-endian).
inline constexpr std::uint32_t kTraceMagic = 0x54435350U;

// --- core geometry ----------------------------------------------------

void write_interval(ByteWriter& out, const core::Interval& iv);
/// Accepts any lo <= hi (incl. ±inf); throws DecodeError on NaN bounds or
/// an empty (lo > hi) interval — no stored predicate is ever either.
[[nodiscard]] core::Interval read_interval(ByteReader& in);

void write_subscription(ByteWriter& out, const core::Subscription& sub);
[[nodiscard]] core::Subscription read_subscription(ByteReader& in);

void write_publication(ByteWriter& out, const core::Publication& pub);
[[nodiscard]] core::Publication read_publication(ByteReader& in);

// --- routing announcements --------------------------------------------

/// One link-level routing message — the unit a cross-process transport
/// would frame per hop. Mirrors what BrokerNetwork moves over its logical
/// links: subscription floods (with optional TTL expiry, carried so the
/// receiver arms its own timer), unsubscription floods, and publication
/// forwards (with the publish call's token, which keys each broker's local
/// matches to the call that caused them).
struct Announcement {
  enum class Kind : std::uint8_t {
    kSubscribe = 1,    ///< sub (+ optional absolute expiry)
    kUnsubscribe = 2,  ///< id only
    kPublication = 3,  ///< pub + token
  };

  Kind kind = Kind::kSubscribe;
  std::uint32_t from = 0;  ///< sending broker (routing::BrokerId)
  core::Subscription sub;                 ///< kSubscribe payload
  std::optional<double> expiry;           ///< kSubscribe TTL expiry, absolute
  core::SubscriptionId id = 0;            ///< kUnsubscribe target
  core::Publication pub;                  ///< kPublication payload
  std::uint64_t token = 0;                ///< kPublication: publish-call key

  friend bool operator==(const Announcement& a, const Announcement& b) {
    if (a.kind != b.kind || a.from != b.from) return false;
    switch (a.kind) {
      case Kind::kSubscribe:
        return a.sub == b.sub && a.sub.id() == b.sub.id() && a.expiry == b.expiry;
      case Kind::kUnsubscribe:
        return a.id == b.id;
      case Kind::kPublication:
        return a.pub.id() == b.pub.id() && a.token == b.token &&
               std::equal(a.pub.values().begin(), a.pub.values().end(),
                          b.pub.values().begin(), b.pub.values().end());
    }
    return false;
  }
};

void write_announcement(ByteWriter& out, const Announcement& msg);
[[nodiscard]] Announcement read_announcement(ByteReader& in);

// --- reliable-link frames (codec v3) -----------------------------------

/// The per-hop transport frame of the reliable link protocol
/// (routing/link_channel.hpp): a data frame carries one encoded
/// Announcement plus its per-directed-link sequence number; every frame —
/// data or pure ack — piggybacks the cumulative ack of the REVERSE
/// direction's stream (all sequence numbers below `ack` have been
/// received in order). Pure ack frames carry no payload and no meaningful
/// sequence number; they exist so a one-way traffic pattern still
/// acknowledges promptly.
struct LinkFrame {
  enum class Kind : std::uint8_t {
    kData = 1,  ///< seq + payload significant
    kAck = 2,   ///< ack-only; seq must be 0, payload empty
  };

  Kind kind = Kind::kData;
  std::uint64_t seq = 0;   ///< per-directed-link, monotone from 0
  std::uint64_t ack = 0;   ///< cumulative ack for the reverse stream
  std::vector<std::uint8_t> payload;  ///< encoded Announcement (kData)

  friend bool operator==(const LinkFrame& a, const LinkFrame& b) {
    return a.kind == b.kind && a.seq == b.seq && a.ack == b.ack &&
           a.payload == b.payload;
  }
};

void write_link_frame(ByteWriter& out, const LinkFrame& frame);
/// Validates framing AND the embedded payload: a kData payload must decode
/// as a complete Announcement with no trailing bytes. Corruption anywhere
/// throws DecodeError, never UB.
[[nodiscard]] LinkFrame read_link_frame(ByteReader& in);

// --- churn-trace records ----------------------------------------------

void write_churn_op(ByteWriter& out, const workload::ChurnOp& op);
[[nodiscard]] workload::ChurnOp read_churn_op(ByteReader& in);

/// Self-describing trace stream: magic, version, the generating config,
/// then the op records. Round-trips everything ChurnDriver consumes, so an
/// archived nightly trace replays bit-identically.
void write_churn_trace(ByteWriter& out, const workload::ChurnTrace& trace);
[[nodiscard]] workload::ChurnTrace read_churn_trace(ByteReader& in);

}  // namespace psc::wire
