// Frame-boundary torture suite for the TCP transport's byte-stream layer
// (net/frame.hpp) and the NetMessage envelope codec (net/message.hpp).
//
// The FrameReader is socket-agnostic by design so this suite can feed it
// every chunking a real TCP stream can produce: 1-byte reads, many frames
// coalesced into one read, a length prefix split across reads, a stream
// truncated mid-frame by a disconnect. Run under ASan/UBSan in CI like the
// rest of the wire suites — every rejection path must throw DecodeError,
// never touch memory it should not.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/frame.hpp"
#include "net/message.hpp"
#include "wire/byte_buffer.hpp"
#include "wire/codec.hpp"

namespace psc {
namespace {

std::vector<std::uint8_t> frame_of(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  net::append_frame(out, payload);
  return out;
}

TEST(FrameTortureTest, OneByteFeedsReassembleExactly) {
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5, 6, 7};
  const std::vector<std::uint8_t> stream = frame_of(payload);

  net::FrameReader reader;
  std::vector<std::uint8_t> got;
  std::size_t frames = 0;
  for (const std::uint8_t byte : stream) {
    reader.feed(std::span(&byte, 1));
    while (reader.next(got)) {
      ++frames;
      EXPECT_EQ(got, payload);
    }
  }
  EXPECT_EQ(frames, 1u);
  EXPECT_TRUE(reader.at_boundary());
}

TEST(FrameTortureTest, CoalescedFramesSplitCorrectly) {
  // Five frames of different sizes delivered in ONE read, as TCP loves to.
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::uint8_t> stream;
  for (std::size_t n = 1; n <= 5; ++n) {
    std::vector<std::uint8_t> payload(n * 3, static_cast<std::uint8_t>(n));
    net::append_frame(stream, payload);
    payloads.push_back(std::move(payload));
  }
  net::FrameReader reader;
  reader.feed(stream);
  std::vector<std::uint8_t> got;
  for (const auto& expected : payloads) {
    ASSERT_TRUE(reader.next(got));
    EXPECT_EQ(got, expected);
  }
  EXPECT_FALSE(reader.next(got));
  EXPECT_TRUE(reader.at_boundary());
}

TEST(FrameTortureTest, PrefixSplitAcrossFeeds) {
  const std::vector<std::uint8_t> payload{9, 9, 9};
  const std::vector<std::uint8_t> stream = frame_of(payload);
  // Split inside the 4-byte length prefix at every possible point.
  for (std::size_t split = 1; split < 4; ++split) {
    net::FrameReader reader;
    std::vector<std::uint8_t> got;
    reader.feed(std::span(stream.data(), split));
    EXPECT_FALSE(reader.next(got));
    reader.feed(std::span(stream.data() + split, stream.size() - split));
    ASSERT_TRUE(reader.next(got));
    EXPECT_EQ(got, payload);
  }
}

TEST(FrameTortureTest, MidFrameDisconnectLeavesPartialVisible) {
  const std::vector<std::uint8_t> stream = frame_of({1, 2, 3, 4, 5, 6});
  net::FrameReader reader;
  // The connection dies after the prefix + half the payload.
  reader.feed(std::span(stream.data(), 4 + 3));
  std::vector<std::uint8_t> got;
  EXPECT_FALSE(reader.next(got));
  // EOF mid-frame is detectable: buffered bytes remain, not at a boundary.
  EXPECT_FALSE(reader.at_boundary());
  EXPECT_EQ(reader.buffered(), 7u);
}

TEST(FrameTortureTest, ZeroLengthFrameRejected) {
  net::FrameReader reader;
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  EXPECT_THROW(reader.feed(zeros), wire::DecodeError);
}

TEST(FrameTortureTest, OversizedFrameRejectedBeforePayloadArrives) {
  net::FrameReader reader;
  // Header announces kMaxFrameBytes + 1; must throw on the HEADER, not
  // after buffering gigabytes.
  const std::uint32_t len = net::kMaxFrameBytes + 1;
  const std::uint8_t header[4] = {
      static_cast<std::uint8_t>(len & 0xff),
      static_cast<std::uint8_t>((len >> 8) & 0xff),
      static_cast<std::uint8_t>((len >> 16) & 0xff),
      static_cast<std::uint8_t>((len >> 24) & 0xff)};
  EXPECT_THROW(reader.feed(header), wire::DecodeError);
  // The writer side enforces the same bound (and rejects empty payloads).
  std::vector<std::uint8_t> out;
  EXPECT_THROW(net::append_frame(out, std::vector<std::uint8_t>{}),
               std::length_error);
}

// --- NetMessage envelope round trips ------------------------------------

net::NetMessage round_trip(const net::NetMessage& msg) {
  wire::ByteWriter out;
  net::write_net_message(out, msg);
  wire::ByteReader in(out.buffer());
  net::NetMessage got = net::read_net_message(in);
  EXPECT_TRUE(in.at_end());
  return got;
}

TEST(NetMessageTest, HelloRoundTripsAndVersionGateHolds) {
  const net::NetMessage got = round_trip(net::make_hello(3));
  EXPECT_EQ(got.kind, net::NetMessage::Kind::kHello);
  EXPECT_EQ(got.version, wire::kCodecVersion);
  EXPECT_EQ(got.sender, 3u);

  // Only the current codec is spoken: a version-3 hello is rejected.
  EXPECT_TRUE(net::handshake_version_ok(wire::kCodecVersion));
  EXPECT_FALSE(net::handshake_version_ok(3));
  EXPECT_FALSE(net::handshake_version_ok(wire::kCodecVersion + 1));
}

TEST(NetMessageTest, DataCarriesLinkFrameWithAnnouncement) {
  wire::Announcement ann;
  ann.kind = wire::Announcement::Kind::kPublication;
  ann.from = 2;
  ann.pub = core::Publication({1.5, -2.5});
  ann.token = 77;
  wire::ByteWriter encoded;
  wire::write_announcement(encoded, ann);

  wire::LinkFrame frame;
  frame.kind = wire::LinkFrame::Kind::kData;
  frame.seq = 5;
  frame.ack = 3;
  frame.payload = encoded.buffer();

  const net::NetMessage got = round_trip(net::make_data(99, frame));
  EXPECT_EQ(got.kind, net::NetMessage::Kind::kData);
  EXPECT_EQ(got.nonce, 99u);
  EXPECT_EQ(got.frame, frame);

  wire::ByteReader payload(got.frame.payload);
  EXPECT_EQ(wire::read_announcement(payload), ann);
}

TEST(NetMessageTest, DoneAndOpResultCarryIds) {
  const net::NetMessage done = round_trip(net::make_done(4, {10, 20, 30}));
  EXPECT_EQ(done.kind, net::NetMessage::Kind::kDone);
  EXPECT_EQ(done.nonce, 4u);
  EXPECT_EQ(done.ids, (std::vector<core::SubscriptionId>{10, 20, 30}));

  net::NetMessage result;
  result.kind = net::NetMessage::Kind::kOpResult;
  result.op_id = 12;
  result.ids = {7};
  const net::NetMessage got = round_trip(result);
  EXPECT_EQ(got.op_id, 12u);
  EXPECT_EQ(got.ids, (std::vector<core::SubscriptionId>{7}));
}

TEST(NetMessageTest, ClientOpsRoundTrip) {
  net::NetMessage sub_op;
  sub_op.kind = net::NetMessage::Kind::kClientOp;
  sub_op.op_id = 1;
  sub_op.op = net::ClientOpKind::kSubscribe;
  sub_op.sub = core::Subscription({{0.0, 10.0}, {5.0, 6.0}}, 42);
  net::NetMessage got = round_trip(sub_op);
  EXPECT_EQ(got.op, net::ClientOpKind::kSubscribe);
  EXPECT_EQ(got.sub.id(), 42u);
  EXPECT_EQ(got.sub, sub_op.sub);

  net::NetMessage unsub_op;
  unsub_op.kind = net::NetMessage::Kind::kClientOp;
  unsub_op.op_id = 2;
  unsub_op.op = net::ClientOpKind::kUnsubscribe;
  unsub_op.id = 42;
  got = round_trip(unsub_op);
  EXPECT_EQ(got.op, net::ClientOpKind::kUnsubscribe);
  EXPECT_EQ(got.id, 42u);

  net::NetMessage pub_op;
  pub_op.kind = net::NetMessage::Kind::kClientOp;
  pub_op.op_id = 3;
  pub_op.op = net::ClientOpKind::kPublish;
  pub_op.pub = core::Publication({3.25});
  pub_op.token = 1001;
  got = round_trip(pub_op);
  EXPECT_EQ(got.op, net::ClientOpKind::kPublish);
  EXPECT_EQ(got.token, 1001u);
  ASSERT_EQ(got.pub.values().size(), 1u);
  EXPECT_EQ(got.pub.values()[0], 3.25);
}

TEST(NetMessageTest, EventRoundTrips) {
  const net::NetMessage got =
      round_trip(net::make_event(net::EventKind::kPeerDown, 2, 5));
  EXPECT_EQ(got.kind, net::NetMessage::Kind::kEvent);
  EXPECT_EQ(got.event, net::EventKind::kPeerDown);
  EXPECT_EQ(got.a, 2u);
  EXPECT_EQ(got.b, 5u);
}

TEST(NetMessageTest, MalformedInputsThrowNeverUB) {
  // Unknown message kind.
  {
    const std::vector<std::uint8_t> bytes{0x7f};
    wire::ByteReader in(bytes);
    EXPECT_THROW((void)net::read_net_message(in), wire::DecodeError);
  }
  // Unknown client-op tag.
  {
    wire::ByteWriter out;
    out.u8(static_cast<std::uint8_t>(net::NetMessage::Kind::kClientOp));
    out.u64(1);
    out.varint(250);
    wire::ByteReader in(out.buffer());
    EXPECT_THROW((void)net::read_net_message(in), wire::DecodeError);
  }
  // Done whose id count exceeds the buffer.
  {
    wire::ByteWriter out;
    out.u8(static_cast<std::uint8_t>(net::NetMessage::Kind::kDone));
    out.u64(1);
    out.varint(1000000);
    wire::ByteReader in(out.buffer());
    EXPECT_THROW((void)net::read_net_message(in), wire::DecodeError);
  }
  // Truncated hello.
  {
    wire::ByteWriter out;
    out.u8(static_cast<std::uint8_t>(net::NetMessage::Kind::kHello));
    out.u8(1);
    wire::ByteReader in(out.buffer());
    EXPECT_THROW((void)net::read_net_message(in), wire::DecodeError);
  }
  // Trailing bytes after a complete message (decode_frame's guard).
  {
    wire::ByteWriter out;
    net::write_net_message(out, net::make_hello(1));
    out.u8(0xee);
    EXPECT_THROW((void)net::decode_frame(out.buffer()), wire::DecodeError);
  }
}

}  // namespace
}  // namespace psc
