// Wire codec + snapshot property tests:
//   * primitive and element codecs round-trip bit-exactly (randomized);
//   * truncated and bit-flipped buffers are rejected with wire::DecodeError
//     and never exhibit UB (this file runs under the CI ASan/UBSan job);
//   * store / broker / network snapshots restore DECISION-identical state:
//     the restored replica and the original produce the same outputs on an
//     identical replayed op sequence, for every coverage policy including
//     the RNG-consuming group policy.
#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "routing/broker.hpp"
#include "routing/broker_network.hpp"
#include "store/subscription_store.hpp"
#include "util/rng.hpp"
#include "wire/byte_buffer.hpp"
#include "wire/snapshot.hpp"
#include "workload/churn_workload.hpp"

namespace psc::wire {
namespace {

using core::Interval;
using core::Publication;
using core::Subscription;
using core::SubscriptionId;
using routing::Broker;
using routing::BrokerId;
using routing::BrokerNetwork;
using routing::Origin;

// --- generators --------------------------------------------------------

/// `allow_unbounded` = false keeps every range finite — the group policy's
/// engine requires finite boxes on the checked subscription (RSPC samples
/// uniformly inside it), matching the production workload generators.
Subscription random_subscription(util::Rng& rng, SubscriptionId id,
                                 std::size_t attrs = 3,
                                 bool allow_unbounded = true) {
  std::vector<Interval> ranges;
  ranges.reserve(attrs);
  for (std::size_t a = 0; a < attrs; ++a) {
    const double draw = rng.next_double();
    if (draw < 0.1 && allow_unbounded) {
      ranges.push_back(Interval::everything());
    } else if (draw < 0.2) {
      ranges.push_back(Interval::point(rng.uniform(0.0, 1000.0)));
    } else {
      const double lo = rng.uniform(0.0, 900.0);
      ranges.push_back(Interval{lo, lo + rng.uniform(0.0, 100.0)});
    }
  }
  return Subscription(std::move(ranges), id);
}

Publication random_publication(util::Rng& rng, std::size_t attrs = 3) {
  std::vector<core::Value> values;
  values.reserve(attrs);
  for (std::size_t a = 0; a < attrs; ++a) values.push_back(rng.uniform(0.0, 1000.0));
  return Publication(std::move(values), rng() % 1000);
}

bool subs_identical(const Subscription& a, const Subscription& b) {
  return a.id() == b.id() && a == b;
}

// --- primitives --------------------------------------------------------

TEST(ByteBuffer, FixedAndVarintRoundTrip) {
  ByteWriter out;
  const std::vector<std::uint64_t> values = {
      0,   1,   127, 128,  16383, 16384, 0xffffffffULL,
      std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) out.varint(v);
  out.u8(0xab);
  out.u32(0xdeadbeefU);
  out.u64(0x0123456789abcdefULL);
  out.f64(-std::numeric_limits<double>::infinity());
  out.f64(3.14159);
  out.string("hello wire");

  ByteReader in(out.buffer());
  for (const std::uint64_t v : values) EXPECT_EQ(in.varint(), v);
  EXPECT_EQ(in.u8(), 0xab);
  EXPECT_EQ(in.u32(), 0xdeadbeefU);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(in.f64(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(in.f64(), 3.14159);
  EXPECT_EQ(in.string(), "hello wire");
  EXPECT_TRUE(in.at_end());
}

TEST(ByteBuffer, TruncatedPrimitivesThrow) {
  ByteWriter out;
  out.u64(42);
  for (std::size_t cut = 0; cut < 8; ++cut) {
    ByteReader in(std::span(out.buffer().data(), cut));
    EXPECT_THROW((void)in.u64(), DecodeError) << "cut " << cut;
  }
  // A varint that never terminates (all continuation bits).
  const std::vector<std::uint8_t> runaway(11, 0xff);
  ByteReader in(runaway);
  EXPECT_THROW((void)in.varint(), DecodeError);
  // Over-long 10th byte with bits beyond the 64th.
  std::vector<std::uint8_t> overflow(9, 0x80);
  overflow.push_back(0x02);
  ByteReader in2(overflow);
  EXPECT_THROW((void)in2.varint(), DecodeError);
}

TEST(ByteBuffer, HugeCountIsRejectedBeforeAllocation) {
  ByteWriter out;
  out.varint(std::numeric_limits<std::uint64_t>::max() / 2);
  ByteReader in(out.buffer());
  // count() must reject instead of letting the caller reserve petabytes.
  EXPECT_THROW((void)in.count(8), DecodeError);
}

// --- element codecs ----------------------------------------------------

TEST(Codec, SubscriptionPublicationRoundTrip) {
  util::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const Subscription sub = random_subscription(rng, 1 + rng() % 100000);
    ByteWriter out;
    write_subscription(out, sub);
    ByteReader in(out.buffer());
    const Subscription back = read_subscription(in);
    EXPECT_TRUE(subs_identical(sub, back)) << "iteration " << i;
    EXPECT_TRUE(in.at_end());

    const Publication pub = random_publication(rng);
    ByteWriter pout;
    write_publication(pout, pub);
    ByteReader pin(pout.buffer());
    const Publication pback = read_publication(pin);
    EXPECT_EQ(pub.id(), pback.id());
    ASSERT_EQ(pub.attribute_count(), pback.attribute_count());
    for (std::size_t a = 0; a < pub.attribute_count(); ++a) {
      EXPECT_EQ(pub.value(a), pback.value(a));
    }
  }
}

TEST(Codec, AnnouncementRoundTrip) {
  util::Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    Announcement msg;
    msg.from = static_cast<std::uint32_t>(rng() % 64);
    switch (rng() % 3) {
      case 0:
        msg.kind = Announcement::Kind::kSubscribe;
        msg.sub = random_subscription(rng, 1 + rng() % 1000);
        if (rng.bernoulli(0.5)) msg.expiry = rng.uniform(0.0, 100.0);
        break;
      case 1:
        msg.kind = Announcement::Kind::kUnsubscribe;
        msg.id = 1 + rng() % 1000;
        break;
      default:
        msg.kind = Announcement::Kind::kPublication;
        msg.pub = random_publication(rng);
        msg.token = rng();
        break;
    }
    ByteWriter out;
    write_announcement(out, msg);
    ByteReader in(out.buffer());
    const Announcement back = read_announcement(in);
    EXPECT_TRUE(msg == back) << "iteration " << i;
    EXPECT_TRUE(in.at_end());
  }
}

TEST(Codec, LinkFrameRoundTrip) {
  util::Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    LinkFrame frame;
    if (rng.bernoulli(0.3)) {
      frame.kind = LinkFrame::Kind::kAck;
      frame.ack = rng() % 100000;
    } else {
      frame.kind = LinkFrame::Kind::kData;
      frame.seq = rng() % 100000;
      frame.ack = rng() % 100000;
      Announcement msg;
      msg.kind = Announcement::Kind::kUnsubscribe;
      msg.from = static_cast<std::uint32_t>(rng() % 64);
      msg.id = 1 + rng() % 1000;
      ByteWriter payload;
      write_announcement(payload, msg);
      frame.payload = payload.buffer();
    }
    ByteWriter out;
    write_link_frame(out, frame);
    ByteReader in(out.buffer());
    const LinkFrame back = read_link_frame(in);
    EXPECT_TRUE(frame == back) << "iteration " << i;
    EXPECT_TRUE(in.at_end());
  }
}

TEST(Codec, ChurnTraceRoundTrip) {
  workload::ChurnConfig config;
  config.duration = 20.0;
  const auto trace = workload::generate_churn_trace(config, 9, 2024);
  ByteWriter out;
  write_churn_trace(out, trace);
  ByteReader in(out.buffer());
  const auto back = read_churn_trace(in);
  EXPECT_TRUE(in.at_end());
  EXPECT_EQ(back.broker_count, trace.broker_count);
  EXPECT_EQ(back.seed, trace.seed);
  EXPECT_EQ(back.publish_count, trace.publish_count);
  EXPECT_EQ(back.subscribe_count, trace.subscribe_count);
  EXPECT_EQ(back.config.slot, trace.config.slot);
  EXPECT_EQ(back.config.epoch_length, trace.config.epoch_length);
  ASSERT_EQ(back.ops.size(), trace.ops.size());
  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    const auto& a = trace.ops[i];
    const auto& b = back.ops[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.broker, b.broker);
    EXPECT_EQ(a.ttl, b.ttl);
    EXPECT_EQ(a.id, b.id);
    EXPECT_TRUE(a.sub == b.sub);
    EXPECT_EQ(a.sub.id(), b.sub.id());
  }
}

TEST(Codec, RetiredMembershipAnnouncementKindIsRejected) {
  // Kind 4 carried membership ops up to codec v4; membership travels in
  // churn ops, so from v5 on the byte is an unknown kind like any other.
  Announcement msg;
  msg.kind = Announcement::Kind::kUnsubscribe;
  msg.from = 3;
  msg.id = 5;
  ByteWriter out;
  write_announcement(out, msg);
  std::vector<std::uint8_t> bad = out.buffer();
  bad[0] = 4;  // layout: kind u8, from varint, payload
  ByteReader in(bad);
  EXPECT_THROW((void)read_announcement(in), DecodeError);
}

TEST(Codec, MembershipChurnTraceRoundTrip) {
  workload::ChurnConfig config;
  config.duration = 15.0;
  config.membership.join_rate = 0.3;
  config.membership.leave_rate = 0.2;
  config.membership.crash_rate = 0.3;
  config.membership.partition_rate = 0.5;
  config.membership.max_brokers = 16;

  routing::MembershipUniverse universe;
  universe.brokers = 9;
  for (BrokerId b = 1; b < 9; ++b) universe.links.emplace_back(b - 1, b);
  universe.standby.emplace_back(0, 8);

  const auto trace = workload::generate_churn_trace(config, universe, 404);
  ASSERT_TRUE(trace.has_membership);
  ASSERT_GT(trace.membership_count, 0u);

  ByteWriter out;
  write_churn_trace(out, trace);
  ByteReader in(out.buffer());
  const auto back = read_churn_trace(in);
  EXPECT_TRUE(in.at_end());
  EXPECT_EQ(back.has_membership, trace.has_membership);
  EXPECT_EQ(back.membership_count, trace.membership_count);
  EXPECT_EQ(back.universe.brokers, trace.universe.brokers);
  EXPECT_EQ(back.universe.links, trace.universe.links);
  EXPECT_EQ(back.universe.standby, trace.universe.standby);
  EXPECT_EQ(back.config.membership.join_rate, trace.config.membership.join_rate);
  EXPECT_EQ(back.config.membership.partition_mean,
            trace.config.membership.partition_mean);
  EXPECT_EQ(back.config.membership.max_brokers,
            trace.config.membership.max_brokers);
  ASSERT_EQ(back.ops.size(), trace.ops.size());
  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    EXPECT_EQ(back.ops[i].kind, trace.ops[i].kind);
    EXPECT_EQ(back.ops[i].member, trace.ops[i].member);
    EXPECT_EQ(back.ops[i].peer, trace.ops[i].peer);
    EXPECT_EQ(back.ops[i].broker, trace.ops[i].broker);
  }
}

TEST(Codec, FaultScheduleBlockRoundTrips) {
  workload::ChurnConfig config;
  config.duration = 12.0;
  config.membership.partition_rate = 0.5;
  config.faults.link.drop_probability = 0.2;
  config.faults.link.dup_probability = 0.1;
  config.faults.link.reorder_probability = 0.05;
  config.faults.link.delay_jitter = 0.5;
  config.faults.burst_count = 3;
  config.faults.burst_length = 0.4;
  config.faults.cascade_hop_bound = 0.02;
  config.slot = 2.0;
  config.epoch_length = 4.0;

  routing::MembershipUniverse universe;
  universe.brokers = 8;
  for (BrokerId b = 1; b < 8; ++b) universe.links.emplace_back(b - 1, b);

  const auto trace = workload::generate_churn_trace(config, universe, 55);
  ASSERT_EQ(trace.bursts.size(), 3u);

  ByteWriter out;
  write_churn_trace(out, trace);
  ByteReader in(out.buffer());
  const auto back = read_churn_trace(in);
  EXPECT_TRUE(in.at_end());
  EXPECT_EQ(back.config.faults.link.drop_probability,
            trace.config.faults.link.drop_probability);
  EXPECT_EQ(back.config.faults.link.dup_probability,
            trace.config.faults.link.dup_probability);
  EXPECT_EQ(back.config.faults.link.reorder_probability,
            trace.config.faults.link.reorder_probability);
  EXPECT_EQ(back.config.faults.link.delay_jitter,
            trace.config.faults.link.delay_jitter);
  EXPECT_EQ(back.config.faults.burst_count, trace.config.faults.burst_count);
  EXPECT_EQ(back.config.faults.burst_length, trace.config.faults.burst_length);
  EXPECT_EQ(back.config.faults.cascade_hop_bound,
            trace.config.faults.cascade_hop_bound);
  ASSERT_EQ(back.bursts.size(), trace.bursts.size());
  for (std::size_t i = 0; i < trace.bursts.size(); ++i) {
    EXPECT_EQ(back.bursts[i].start, trace.bursts[i].start);
    EXPECT_EQ(back.bursts[i].end, trace.bursts[i].end);
    EXPECT_EQ(back.bursts[i].a, trace.bursts[i].a);
    EXPECT_EQ(back.bursts[i].b, trace.bursts[i].b);
  }
}

TEST(Codec, TraceOfAnotherVersionIsRejected) {
  // Readers speak only kCodecVersion: older (v1..v4) and newer headers
  // both throw.
  workload::ChurnConfig config;
  config.duration = 10.0;
  const auto trace = workload::generate_churn_trace(config, 6, 321);
  ByteWriter full;
  write_churn_trace(full, trace);
  for (const std::uint8_t version : {1, 2, 3, 4, 9}) {
    std::vector<std::uint8_t> bytes = full.buffer();
    bytes[4] = version;  // version u32 little-endian, after the 4-byte magic
    ByteReader in(bytes);
    EXPECT_THROW((void)read_churn_trace(in), DecodeError) << int{version};
  }
}

// --- corruption robustness ---------------------------------------------
//
// Decoding a damaged buffer must either throw DecodeError or produce a
// structurally valid object — never crash, leak, or read out of bounds
// (the ASan/UBSan job turns any violation into a hard failure).

template <typename Decode>
void expect_graceful_rejection(const std::vector<std::uint8_t>& good,
                               Decode&& decode) {
  // Every strict prefix must throw (no partial object escapes).
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    ByteReader in(std::span(good.data(), cut));
    EXPECT_THROW((void)decode(in), DecodeError) << "prefix " << cut;
  }
  // Single-byte corruption: throws or decodes; both acceptable, UB is not.
  util::Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> bad = good;
    const std::size_t at = rng() % bad.size();
    bad[at] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    ByteReader in(bad);
    try {
      (void)decode(in);
    } catch (const DecodeError&) {
      // expected for most flips
    }
  }
}

TEST(Codec, TruncationAndCorruptionAreRejectedWithoutUB) {
  util::Rng rng(13);
  ByteWriter out;
  write_subscription(out, random_subscription(rng, 77));
  expect_graceful_rejection(out.buffer(),
                            [](ByteReader& in) { return read_subscription(in); });

  ByteWriter aout;
  Announcement msg;
  msg.kind = Announcement::Kind::kSubscribe;
  msg.sub = random_subscription(rng, 42);
  msg.expiry = 12.5;
  write_announcement(aout, msg);
  expect_graceful_rejection(aout.buffer(),
                            [](ByteReader& in) { return read_announcement(in); });
}

TEST(Codec, LinkFrameRejectsCorruptionWithoutUB) {
  Announcement msg;
  msg.kind = Announcement::Kind::kPublication;
  util::Rng rng(41);
  msg.pub = random_publication(rng);
  msg.token = 99;
  ByteWriter payload;
  write_announcement(payload, msg);
  LinkFrame frame;
  frame.kind = LinkFrame::Kind::kData;
  frame.seq = 7;
  frame.ack = 3;
  frame.payload = payload.buffer();
  ByteWriter out;
  write_link_frame(out, frame);
  expect_graceful_rejection(out.buffer(),
                            [](ByteReader& in) { return read_link_frame(in); });
  // A data frame whose payload is a VALID announcement followed by trailing
  // garbage must be rejected: the frame owns its payload end to end.
  LinkFrame padded = frame;
  padded.payload.push_back(0x00);
  ByteWriter bad;
  write_link_frame(bad, padded);
  ByteReader in(bad.buffer());
  EXPECT_THROW((void)read_link_frame(in), DecodeError);
  // An ack frame carrying a nonzero seq or a payload is malformed.
  LinkFrame ack;
  ack.kind = LinkFrame::Kind::kAck;
  ack.ack = 5;
  ByteWriter good_ack;
  write_link_frame(good_ack, ack);
  ByteReader ack_in(good_ack.buffer());
  EXPECT_EQ(read_link_frame(ack_in).ack, 5u);
}

TEST(Codec, CorruptedMembershipTraceIsRejectedWithoutUB) {
  workload::ChurnConfig config;
  config.duration = 4.0;
  config.membership.crash_rate = 0.5;
  config.membership.partition_rate = 0.5;
  routing::MembershipUniverse universe;
  universe.brokers = 6;
  for (BrokerId b = 1; b < 6; ++b) universe.links.emplace_back(b - 1, b);
  universe.standby.emplace_back(0, 5);
  ByteWriter out;
  write_churn_trace(out, workload::generate_churn_trace(config, universe, 7));
  const std::vector<std::uint8_t>& good = out.buffer();

  for (std::size_t cut = 0; cut < good.size();
       cut += std::max<std::size_t>(good.size() / 256, 1)) {
    ByteReader in(std::span(good.data(), cut));
    EXPECT_THROW((void)read_churn_trace(in), DecodeError) << "prefix " << cut;
  }
  util::Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> bad = good;
    bad[rng() % bad.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    ByteReader in(bad);
    try {
      (void)read_churn_trace(in);
    } catch (const DecodeError&) {
      // expected for most flips; a clean decode of garbage is fine, UB is not
    }
  }
}

TEST(Snapshot, CorruptedNetworkSnapshotIsRejectedWithoutUB) {
  BrokerNetwork net = BrokerNetwork::figure1_topology();
  util::Rng rng(17);
  for (int i = 0; i < 30; ++i) {
    net.subscribe(static_cast<BrokerId>(rng() % 9),
                  random_subscription(rng, 1 + i));
  }
  const std::vector<std::uint8_t> good = net.snapshot_all();
  // Prefixes throw; the network object stays destructible either way.
  for (std::size_t cut = 0; cut < good.size();
       cut += std::max<std::size_t>(good.size() / 64, 1)) {
    BrokerNetwork victim;
    EXPECT_THROW(victim.restore_all(std::span(good.data(), cut)), DecodeError);
  }
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> bad = good;
    bad[rng() % bad.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    BrokerNetwork victim;
    try {
      victim.restore_all(bad);
    } catch (const DecodeError&) {
    } catch (const std::invalid_argument&) {
      // A flip can surface as a semantic precondition (duplicate id, empty
      // interval) caught below the wire layer — equally graceful.
    } catch (const std::logic_error&) {
    }
  }
}

// --- snapshot/restore equivalence ---------------------------------------

store::StoreConfig store_config_for(store::CoveragePolicy policy) {
  store::StoreConfig config;
  config.policy = policy;
  config.engine.delta = 0.05;  // keep group-policy RSPC budgets small
  return config;
}

/// Drives `a` and `b` through an identical randomized op sequence and
/// asserts identical decisions (insert verdicts, promotions, match sets in
/// order). Returns ids currently live so callers can keep churning.
void expect_stores_identical(store::SubscriptionStore& a,
                             store::SubscriptionStore& b, util::Rng& rng,
                             int ops, SubscriptionId& next_id) {
  std::vector<SubscriptionId> live;
  for (int i = 0; i < ops; ++i) {
    const double draw = rng.next_double();
    if (draw < 0.55 || live.empty()) {
      const Subscription sub = random_subscription(rng, next_id++, 3, false);
      const auto ra = a.insert(sub);
      const auto rb = b.insert(sub);
      EXPECT_EQ(ra.accepted_active, rb.accepted_active) << "op " << i;
      EXPECT_EQ(ra.covered, rb.covered) << "op " << i;
      EXPECT_EQ(ra.demoted, rb.demoted) << "op " << i;
      live.push_back(sub.id());
    } else if (draw < 0.8) {
      const std::size_t victim = rng() % live.size();
      const auto ea = a.erase_reporting(live[victim]);
      const auto eb = b.erase_reporting(live[victim]);
      EXPECT_EQ(ea.erased, eb.erased) << "op " << i;
      EXPECT_EQ(ea.promoted, eb.promoted) << "op " << i;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const Publication pub = random_publication(rng);
      EXPECT_EQ(a.match(pub), b.match(pub)) << "op " << i;
      EXPECT_EQ(a.match_active(pub), b.match_active(pub)) << "op " << i;
    }
  }
}

class StoreSnapshotTest
    : public ::testing::TestWithParam<store::CoveragePolicy> {};

TEST_P(StoreSnapshotTest, RestoredStoreIsDecisionIdentical) {
  const store::CoveragePolicy policy = GetParam();
  const std::uint64_t seed = 0xabc123;
  store::SubscriptionStore original(store_config_for(policy), seed);

  // Build up a nontrivial active/covered/DAG state.
  util::Rng rng(31);
  SubscriptionId next_id = 1;
  std::vector<SubscriptionId> live;
  for (int i = 0; i < 120; ++i) {
    if (rng.bernoulli(0.25) && !live.empty()) {
      const std::size_t victim = rng() % live.size();
      (void)original.erase_reporting(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const Subscription sub = random_subscription(rng, next_id++, 3, false);
      (void)original.insert(sub);
      live.push_back(sub.id());
    }
  }

  // Export -> wire round trip -> import into a same-(config, seed) twin.
  ByteWriter out;
  write_store_snapshot(out, original.export_snapshot());
  ByteReader in(out.buffer());
  const auto decoded = read_store_snapshot(in);
  EXPECT_TRUE(in.at_end());
  store::SubscriptionStore restored(store_config_for(policy), seed);
  restored.import_snapshot(decoded);

  EXPECT_EQ(restored.active_count(), original.active_count());
  EXPECT_EQ(restored.covered_count(), original.covered_count());

  // Same future => same decisions, including RNG-consuming group checks.
  util::Rng future(57);
  expect_stores_identical(original, restored, future, 150, next_id);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, StoreSnapshotTest,
                         ::testing::Values(store::CoveragePolicy::kNone,
                                           store::CoveragePolicy::kPairwise,
                                           store::CoveragePolicy::kGroup,
                                           store::CoveragePolicy::kExact),
                         [](const auto& info) {
                           return std::string(store::to_string(info.param));
                         });

TEST(Snapshot, StoreImportRejectsAnInconsistentCoverDag) {
  // a = [0,10]^2 active, c = [2,5]^2 covered by it: the one consistent
  // image, then hand-built corruptions of its cover DAG. Each is encoded
  // and decoded first, as a received image would be.
  using Image = store::SubscriptionStore::Snapshot;
  const Subscription a({Interval{0, 10}, Interval{0, 10}}, 1);
  const Subscription c({Interval{2, 5}, Interval{2, 5}}, 2);
  const auto image = [&](std::vector<SubscriptionId> coverers,
                         std::vector<Image::DagRecord> children) {
    Image snapshot;
    snapshot.actives = {a};
    snapshot.covered = {{c, std::move(coverers)}};
    snapshot.children = std::move(children);
    ByteWriter out;
    write_store_snapshot(out, snapshot);
    ByteReader in(out.buffer());
    return read_store_snapshot(in);
  };
  const auto import = [](const Image& snapshot) {
    store::SubscriptionStore store(
        store_config_for(store::CoveragePolicy::kExact));
    store.import_snapshot(snapshot);
    return store;
  };

  store::SubscriptionStore good = import(image({1}, {{1, {2}}}));
  EXPECT_EQ(good.erase_reporting(1).promoted, (std::vector<SubscriptionId>{2}));

  // The DAG names an id that is not covered.
  EXPECT_THROW((void)import(image({1}, {{1, {2, 3}}})), std::invalid_argument);
  // A coverer that is not an active.
  EXPECT_THROW((void)import(image({9}, {{9, {2}}})), std::invalid_argument);
  // A coverer-list entry without its DAG edge.
  EXPECT_THROW((void)import(image({1}, {})), std::invalid_argument);
  // A DAG edge without its coverer-list entry.
  EXPECT_THROW((void)import(image({1}, {{1, {2}}, {2, {2}}})),
               std::invalid_argument);
  // A repeated coverer-list entry, alone and with a repeated edge.
  EXPECT_THROW((void)import(image({1, 1}, {{1, {2}}})), std::invalid_argument);
  EXPECT_THROW((void)import(image({1, 1}, {{1, {2, 2}}})),
               std::invalid_argument);
}

TEST(Snapshot, RestoredBrokerIsDecisionIdentical) {
  const std::uint64_t seed = 0x5eed;
  store::StoreConfig config;  // group policy default: RNG state matters
  config.engine.delta = 0.05;
  Broker original(3, config, seed);
  original.add_neighbor(1);
  original.add_neighbor(2);
  original.add_neighbor(7);

  util::Rng rng(41);
  SubscriptionId next_id = 1;
  const auto random_origin = [&rng]() {
    const auto draw = rng() % 4;
    if (draw == 0) return Origin{true, routing::kInvalidBroker};
    return Origin{false, static_cast<BrokerId>(draw == 1 ? 1 : draw == 2 ? 2 : 7)};
  };
  std::vector<SubscriptionId> live;
  for (int i = 0; i < 150; ++i) {
    if (rng.bernoulli(0.2) && !live.empty()) {
      const std::size_t victim = rng() % live.size();
      (void)original.handle_unsubscription(live[victim],
                                           Origin{true, routing::kInvalidBroker});
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      (void)original.handle_subscription(random_subscription(rng, next_id, 3, false),
                                         random_origin());
      live.push_back(next_id);
      ++next_id;
    }
  }
  // Byte-level snapshot into a fresh same-configured broker.
  ByteWriter out;
  write_broker_snapshot(out, original.export_snapshot());
  Broker restored(3, config, seed);
  restored.add_neighbor(1);
  restored.add_neighbor(2);
  restored.add_neighbor(7);
  ByteReader in(out.buffer());
  restored.import_snapshot(read_broker_snapshot(in));
  EXPECT_TRUE(in.at_end());

  EXPECT_EQ(restored.routing_table_size(), original.routing_table_size());

  // Replay an identical future on both: subscriptions (coverage decisions
  // incl. the per-link engine RNG), unsubscriptions (promotions +
  // reannounce), and publications (routing).
  util::Rng future(67);
  Broker::PublishScratch scratch_a, scratch_b;
  for (int i = 0; i < 200; ++i) {
    const double draw = future.next_double();
    if (draw < 0.4) {
      const Subscription sub = random_subscription(future, next_id++, 3, false);
      const Origin origin = Origin{false, 1};
      EXPECT_EQ(original.handle_subscription(sub, origin),
                restored.handle_subscription(sub, origin))
          << "op " << i;
      live.push_back(sub.id());
    } else if (draw < 0.6 && !live.empty()) {
      const std::size_t victim = future() % live.size();
      const auto oa = original.handle_unsubscription(
          live[victim], Origin{true, routing::kInvalidBroker});
      const auto ob = restored.handle_unsubscription(
          live[victim], Origin{true, routing::kInvalidBroker});
      EXPECT_EQ(oa.forward_to, ob.forward_to) << "op " << i;
      ASSERT_EQ(oa.reannounce.size(), ob.reannounce.size()) << "op " << i;
      for (std::size_t r = 0; r < oa.reannounce.size(); ++r) {
        EXPECT_EQ(oa.reannounce[r].first, ob.reannounce[r].first);
        EXPECT_TRUE(subs_identical(oa.reannounce[r].second,
                                   ob.reannounce[r].second));
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const Publication pub = random_publication(future);
      const Origin origin{true, routing::kInvalidBroker};
      const auto& ra = original.handle_publication(pub, origin, scratch_a);
      const auto& rb = restored.handle_publication(pub, origin, scratch_b);
      EXPECT_EQ(ra.local_matches, rb.local_matches) << "op " << i;
      EXPECT_EQ(ra.destinations, rb.destinations) << "op " << i;
    }
  }
}

TEST(Snapshot, RestoredNetworkContinuesIdentically) {
  routing::NetworkConfig config;
  config.store.policy = store::CoveragePolicy::kExact;

  BrokerNetwork original = BrokerNetwork::figure1_topology(config);
  util::Rng rng(73);
  SubscriptionId next_id = 1;
  std::vector<std::pair<BrokerId, SubscriptionId>> live;
  for (int i = 0; i < 60; ++i) {
    const auto broker = static_cast<BrokerId>(rng() % 9);
    if (rng.bernoulli(0.3)) {
      original.subscribe_with_ttl(broker, random_subscription(rng, next_id),
                                  5.0 + rng.uniform(0.0, 5.0));
    } else {
      original.subscribe(broker, random_subscription(rng, next_id));
      live.emplace_back(broker, next_id);
    }
    ++next_id;
  }
  for (int i = 0; i < 10 && !live.empty(); ++i) {
    const std::size_t victim = rng() % live.size();
    original.unsubscribe(live[victim].first, live[victim].second);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
  }

  const std::vector<std::uint8_t> bytes = original.snapshot_all();
  BrokerNetwork restored;  // arbitrary state; restore_all replaces it
  restored.restore_all(bytes);

  EXPECT_EQ(restored.broker_count(), original.broker_count());
  EXPECT_EQ(restored.local_subscription_count(),
            original.local_subscription_count());
  EXPECT_EQ(restored.now(), original.now());

  // Identical future on both replicas: publishes (delivered sets must be
  // equal op for op), new subscriptions, and TTL expiries firing inside
  // advance_time windows.
  util::Rng future(79);
  for (int i = 0; i < 120; ++i) {
    const auto broker = static_cast<BrokerId>(future() % 9);
    const double draw = future.next_double();
    if (draw < 0.5) {
      const Publication pub = random_publication(future);
      EXPECT_EQ(original.publish(broker, pub), restored.publish(broker, pub))
          << "op " << i;
    } else if (draw < 0.75) {
      const Subscription sub = random_subscription(future, next_id++);
      original.subscribe(broker, sub);
      restored.subscribe(broker, sub);
    } else {
      const double horizon = original.now() + future.uniform(0.5, 2.0);
      original.advance_time(horizon);
      restored.advance_time(horizon);
      EXPECT_EQ(restored.local_subscription_count(),
                original.local_subscription_count())
          << "op " << i;
    }
  }
  // All TTLs eventually fire on both replicas identically.
  const double far = original.now() + 60.0;
  original.advance_time(far);
  restored.advance_time(far);
  EXPECT_EQ(restored.local_subscription_count(),
            original.local_subscription_count());
}

}  // namespace
}  // namespace psc::wire
