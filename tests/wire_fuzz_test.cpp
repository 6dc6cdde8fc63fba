// Deterministic decode-fuzz harness over every wire decoder (current codec
// version): seeded structural mutations — multi-byte flips, truncations, span
// deletions, insertions, and cross-corpus splices — applied to valid
// encodings. The contract under test: a decoder either returns a
// structurally valid object or throws wire::DecodeError; it never crashes,
// reads out of bounds, or loops. This file runs under the CI ASan/UBSan
// job, which turns any violation into a hard failure. Unlike the targeted
// corruption tests in wire_test.cpp (single-byte flips, prefix
// truncation), the mutations here compound and cross message boundaries.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "routing/broker_network.hpp"
#include "util/rng.hpp"
#include "wire/byte_buffer.hpp"
#include "wire/codec.hpp"
#include "workload/churn_workload.hpp"

namespace psc::wire {
namespace {

using core::Interval;
using core::Publication;
using core::Subscription;

// --- corpus ------------------------------------------------------------

std::vector<std::uint8_t> encode_subscription(std::uint64_t id) {
  std::vector<Interval> ranges{Interval{0.0, 10.0}, Interval::everything(),
                               Interval::point(3.5)};
  ByteWriter out;
  write_subscription(out, Subscription(std::move(ranges), id));
  return out.buffer();
}

std::vector<std::uint8_t> encode_announcement(int variant) {
  Announcement msg;
  msg.from = 4;
  switch (variant % 3) {
    case 0: {
      msg.kind = Announcement::Kind::kSubscribe;
      std::vector<Interval> ranges{Interval{1.0, 2.0}, Interval{-5.0, 5.0}};
      msg.sub = Subscription(std::move(ranges), 91);
      msg.expiry = 42.5;
      break;
    }
    case 1:
      msg.kind = Announcement::Kind::kUnsubscribe;
      msg.id = 1234;
      break;
    default:
      msg.kind = Announcement::Kind::kPublication;
      msg.pub = Publication({1.5, 2.5, 3.5}, 88);
      msg.token = 0xfeedULL;
      break;
  }
  ByteWriter out;
  write_announcement(out, msg);
  return out.buffer();
}

std::vector<std::uint8_t> encode_link_frame(bool data) {
  LinkFrame frame;
  if (data) {
    frame.kind = LinkFrame::Kind::kData;
    frame.seq = 19;
    frame.ack = 6;
    frame.payload = encode_announcement(2);
  } else {
    frame.kind = LinkFrame::Kind::kAck;
    frame.ack = 23;
  }
  ByteWriter out;
  write_link_frame(out, frame);
  return out.buffer();
}

workload::ChurnTrace lossy_membership_trace() {
  workload::ChurnConfig config;
  config.duration = 6.0;
  config.membership.crash_rate = 0.4;
  config.membership.partition_rate = 0.5;
  config.faults.link.drop_probability = 0.15;
  config.faults.link.delay_jitter = 0.5;
  config.faults.burst_count = 2;
  config.faults.burst_length = 0.3;
  config.faults.cascade_hop_bound = 0.01;
  config.slot = 0.5;  // slot/2 must clear (brokers + 1) x hop bound
  config.epoch_length = 1.0;
  routing::MembershipUniverse universe;
  universe.brokers = 6;
  for (routing::BrokerId b = 1; b < 6; ++b) {
    universe.links.emplace_back(b - 1, b);
  }
  universe.standby.emplace_back(0, 5);
  return workload::generate_churn_trace(config, universe, 17);
}

std::vector<std::uint8_t> encode_lossy_trace() {
  ByteWriter out;
  write_churn_trace(out, lossy_membership_trace());
  return out.buffer();
}

/// A fault-free, membership-free trace: the other trace shape, a donor of
/// foreign-but-valid trace bytes for the lossy one and vice versa.
std::vector<std::uint8_t> encode_plain_trace() {
  workload::ChurnConfig config;
  config.duration = 5.0;
  ByteWriter out;
  write_churn_trace(out, workload::generate_churn_trace(config, 5, 63));
  return out.buffer();
}

// --- mutation engine ---------------------------------------------------

/// One seeded structural mutation. `donor` supplies foreign-but-valid wire
/// bytes for splices, so mutants can contain pieces of OTHER message types.
std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& good,
                                 const std::vector<std::uint8_t>& donor,
                                 util::Rng& rng) {
  std::vector<std::uint8_t> bad = good;
  switch (rng() % 5) {
    case 0: {  // 1-4 independent byte flips
      const std::size_t flips = 1 + rng() % 4;
      for (std::size_t f = 0; f < flips && !bad.empty(); ++f) {
        bad[rng() % bad.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
      }
      break;
    }
    case 1: {  // truncate to a random prefix
      bad.resize(rng() % (bad.size() + 1));
      break;
    }
    case 2: {  // delete a random interior span
      if (bad.size() < 2) break;
      const std::size_t at = rng() % bad.size();
      const std::size_t len = 1 + rng() % (bad.size() - at);
      bad.erase(bad.begin() + static_cast<std::ptrdiff_t>(at),
                bad.begin() + static_cast<std::ptrdiff_t>(at + len));
      break;
    }
    case 3: {  // insert random bytes
      const std::size_t at = rng() % (bad.size() + 1);
      const std::size_t len = 1 + rng() % 16;
      std::vector<std::uint8_t> noise(len);
      for (auto& byte : noise) byte = static_cast<std::uint8_t>(rng());
      bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(at),
                 noise.begin(), noise.end());
      break;
    }
    default: {  // splice a chunk of a different valid encoding
      if (donor.empty()) break;
      const std::size_t src = rng() % donor.size();
      const std::size_t len = 1 + rng() % (donor.size() - src);
      const std::size_t at = rng() % (bad.size() + 1);
      bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(at),
                 donor.begin() + static_cast<std::ptrdiff_t>(src),
                 donor.begin() + static_cast<std::ptrdiff_t>(src + len));
      break;
    }
  }
  return bad;
}

/// Runs `trials` seeded mutants of `good` through `decode`. Success and
/// DecodeError are both acceptable outcomes; anything else (crash, UB,
/// unexpected exception type) fails the test. Returns how many mutants
/// were rejected, so callers can sanity-check the corpus actually
/// stressed the decoder.
std::size_t fuzz(const std::vector<std::uint8_t>& good,
                 const std::vector<std::uint8_t>& donor, std::uint64_t seed,
                 int trials,
                 const std::function<void(ByteReader&)>& decode) {
  util::Rng rng(seed);
  std::size_t rejected = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const std::vector<std::uint8_t> bad = mutate(good, donor, rng);
    ByteReader in(bad);
    try {
      decode(in);
    } catch (const DecodeError&) {
      ++rejected;
    }
  }
  // The undamaged encoding must still decode (the harness never consumed
  // the original).
  ByteReader in(good);
  decode(in);
  return rejected;
}

TEST(WireFuzz, ElementDecodersNeverExhibitUB) {
  const auto sub = encode_subscription(501);
  const auto frame = encode_link_frame(true);
  std::size_t rejected = 0;
  rejected += fuzz(sub, frame, 1001, 600,
                   [](ByteReader& in) { (void)read_subscription(in); });
  for (int variant = 0; variant < 3; ++variant) {
    rejected += fuzz(encode_announcement(variant), sub, 2000 + variant, 600,
                     [](ByteReader& in) { (void)read_announcement(in); });
  }
  // Mutants must actually trip validation, not just reshuffle payloads.
  EXPECT_GT(rejected, 500u);
}

TEST(WireFuzz, LinkFrameDecoderNeverExhibitsUB) {
  const auto data = encode_link_frame(true);
  const auto ack = encode_link_frame(false);
  std::size_t rejected = 0;
  rejected += fuzz(data, ack, 3001, 800,
                   [](ByteReader& in) { (void)read_link_frame(in); });
  rejected += fuzz(ack, data, 3002, 800,
                   [](ByteReader& in) { (void)read_link_frame(in); });
  EXPECT_GT(rejected, 400u);
}

TEST(WireFuzz, TraceDecoderNeverExhibitsUB) {
  const auto lossy = encode_lossy_trace();
  const auto plain = encode_plain_trace();
  std::size_t rejected = 0;
  rejected += fuzz(lossy, plain, 4001, 400,
                   [](ByteReader& in) { (void)read_churn_trace(in); });
  rejected += fuzz(plain, lossy, 4002, 400,
                   [](ByteReader& in) { (void)read_churn_trace(in); });
  EXPECT_GT(rejected, 300u);
}

TEST(WireFuzz, ChurnOpDecoderNeverExhibitsUB) {
  const auto trace = lossy_membership_trace();
  ASSERT_FALSE(trace.ops.empty());
  ByteWriter out;
  write_churn_op(out, trace.ops.front());
  std::size_t rejected = fuzz(
      out.buffer(), encode_subscription(77), 5001, 800,
      [](ByteReader& in) { (void)read_churn_op(in); });
  EXPECT_GT(rejected, 200u);
}

}  // namespace
}  // namespace psc::wire
