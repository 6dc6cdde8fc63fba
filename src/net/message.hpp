// NetMessage — the codec-v4 envelope every byte on a TCP cluster socket
// travels in (one encoded NetMessage per length-prefixed frame, see
// net/frame.hpp). Two traffic classes share it:
//
//   * peer <-> peer: kHello (the versioned handshake) and kData (one
//     wire::LinkFrame carrying one Announcement, plus the cascade nonce) /
//     kDone (the nonce's completion receipt, carrying the delivered ids
//     collected beneath it). The nonce pair implements Dijkstra-Scholten
//     style termination detection over the acyclic overlay: every inbound
//     kData spawns child nonces for the frames it causes, and kDone flows
//     back up once all children completed — so the op's root learns the
//     exact instant (and the exact delivered set) its cascade quiesced,
//     without clocks or timeouts.
//   * supervisor <-> broker: kClientOp (subscribe / unsubscribe / publish /
//     shutdown, with a driver-assigned publication token so tokens are
//     globally unique without coordination) / kOpResult (delivered ids),
//     and kEvent notifications (broker ready, peer-death purge complete).
//
// Handshake: each side sends kHello{version = wire::kCodecVersion, sender}
// first; a receiver accepts exactly wire::kCodecVersion (every peer is
// built from the same tree) and must treat anything else — or any
// non-Hello first message — as fatal.
#pragma once

#include <cstdint>
#include <vector>

#include "core/publication.hpp"
#include "core/subscription.hpp"
#include "wire/byte_buffer.hpp"
#include "wire/codec.hpp"

namespace psc::net {

/// `sender` value announcing a supervisor/client connection rather than a
/// peer broker (same bit pattern as routing::kInvalidBroker: "no broker").
inline constexpr std::uint32_t kClientSender = 0xffffffffU;

/// Client-op verbs a supervisor can issue (NetMessage::kClientOp).
enum class ClientOpKind : std::uint8_t {
  kSubscribe = 1,    ///< sub payload
  kUnsubscribe = 2,  ///< id payload
  kPublish = 3,      ///< pub + driver-assigned token
  kShutdown = 4,     ///< graceful exit; broker replies kOpResult then exits
};

/// Broker-to-supervisor notification kinds (NetMessage::kEvent).
enum class EventKind : std::uint8_t {
  kReady = 1,     ///< all peer links connected + handshaken; a = broker id
  kPeerDown = 2,  ///< EOF-triggered purge of peer b finished at broker a
};

struct NetMessage {
  enum class Kind : std::uint8_t {
    kHello = 1,     ///< version + sender
    kData = 2,      ///< nonce + frame (LinkFrame wrapping one Announcement)
    kDone = 3,      ///< nonce + ids (delivered beneath that cascade branch)
    kClientOp = 4,  ///< op_id + op (+ sub / id / pub + token)
    kOpResult = 5,  ///< op_id + ids
    kEvent = 6,     ///< event + a + b
  };

  Kind kind = Kind::kHello;

  // kHello
  std::uint32_t version = wire::kCodecVersion;
  std::uint32_t sender = kClientSender;

  // kData / kDone
  std::uint64_t nonce = 0;
  wire::LinkFrame frame;  ///< kData: payload is one encoded Announcement

  // kDone / kOpResult
  std::vector<core::SubscriptionId> ids;  ///< ascending not required; root sorts

  // kClientOp / kOpResult
  std::uint64_t op_id = 0;
  ClientOpKind op = ClientOpKind::kSubscribe;
  core::Subscription sub;             ///< kSubscribe payload
  core::SubscriptionId id = 0;        ///< kUnsubscribe target
  core::Publication pub;              ///< kPublish payload
  std::uint64_t token = 0;            ///< kPublish: driver-assigned token

  // kEvent
  EventKind event = EventKind::kReady;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// Factory helpers for the common shapes (keeps call sites one-liners).
[[nodiscard]] NetMessage make_hello(std::uint32_t sender);
[[nodiscard]] NetMessage make_data(std::uint64_t nonce, wire::LinkFrame frame);
[[nodiscard]] NetMessage make_done(std::uint64_t nonce,
                                   std::vector<core::SubscriptionId> ids);
[[nodiscard]] NetMessage make_event(EventKind event, std::uint32_t a,
                                    std::uint32_t b);

void write_net_message(wire::ByteWriter& out, const NetMessage& msg);

/// Decodes one NetMessage from `in`, validating the kind tag, every enum
/// payload, and — for kData — the embedded LinkFrame's Announcement.
/// Throws wire::DecodeError on anything malformed.
[[nodiscard]] NetMessage read_net_message(wire::ByteReader& in);

/// Encodes `msg` as one length-prefixed frame ready to append to a
/// connection's outbound buffer.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const NetMessage& msg);

/// Decodes a frame payload (from net::FrameReader) as one NetMessage,
/// rejecting trailing bytes.
[[nodiscard]] NetMessage decode_frame(std::span<const std::uint8_t> payload);

/// True iff a handshake hello announcing `version` is acceptable:
/// version == wire::kCodecVersion.
[[nodiscard]] constexpr bool handshake_version_ok(std::uint32_t version) noexcept {
  return version == wire::kCodecVersion;
}

}  // namespace psc::net
