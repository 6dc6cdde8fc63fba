// Tests for the Section 4.4 covered hierarchy (the cover DAG) and the TTL
// expiration mechanism of Section 5.
#include <gtest/gtest.h>

#include <algorithm>

#include "routing/broker_network.hpp"
#include "store/subscription_store.hpp"
#include "util/rng.hpp"
#include "workload/publications.hpp"
#include "workload/scenarios.hpp"

namespace psc {
namespace {

using core::Interval;
using core::Publication;
using core::Subscription;
using core::SubscriptionId;

Subscription box2(double lo1, double hi1, double lo2, double hi2,
                  SubscriptionId id) {
  return Subscription({Interval{lo1, hi1}, Interval{lo2, hi2}}, id);
}

store::StoreConfig pairwise() {
  store::StoreConfig config;
  config.policy = store::CoveragePolicy::kPairwise;
  return config;
}

TEST(StoreHierarchy, CoverersRecordedOnDemotion) {
  store::SubscriptionStore store(pairwise());
  store.insert(box2(2, 8, 2, 8, 1));
  store.insert(box2(0, 10, 0, 10, 2));  // demotes #1
  const auto coverers = store.coverers_of(1);
  ASSERT_EQ(coverers.size(), 1u);
  EXPECT_EQ(coverers[0], 2u);
  EXPECT_TRUE(store.coverers_of(2).empty());  // active: no coverers
}

TEST(StoreHierarchy, DemotionRepointsChildrenToTheCoverer) {
  store::SubscriptionStore store(pairwise());
  store.insert(box2(3, 7, 3, 7, 1));
  store.insert(box2(2, 8, 2, 8, 2));    // demotes #1 -> coverer 2
  EXPECT_EQ(store.coverers_of(1), (std::vector<SubscriptionId>{2}));
  store.insert(box2(0, 10, 0, 10, 3));  // demotes #2; #1 moves under 3
  EXPECT_EQ(store.coverers_of(1), (std::vector<SubscriptionId>{3}));
  EXPECT_EQ(store.coverers_of(2), (std::vector<SubscriptionId>{3}));
  EXPECT_TRUE(store.is_active(3));
  auto ids = store.match(Publication({5.0, 5.0}));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<SubscriptionId>{1, 2, 3}));
}

TEST(StoreHierarchy, DescentPrunesNonMatchingBranches) {
  store::SubscriptionStore store(pairwise());
  store.insert(box2(0, 10, 0, 10, 1));
  store.insert(box2(1, 3, 1, 3, 2));  // covered by 1 (left pocket)
  store.insert(box2(7, 9, 7, 9, 3));  // covered by 1 (right pocket)
  const auto before = store.covered_examined();
  // A point in the left pocket: both children of #1 get examined (they are
  // all at level 1), but a point outside #1 examines none.
  (void)store.match(Publication({2.0, 2.0}));
  const auto level1 = store.covered_examined() - before;
  EXPECT_EQ(level1, 2u);
  (void)store.match(Publication({50.0, 50.0}));
  EXPECT_EQ(store.covered_examined() - before, level1);  // no active hit
}

TEST(StoreHierarchy, CoveredEntriesNeverHaveChildren) {
  // A chain of demotions leaves a DAG one level deep: #3 is demoted under
  // #2, then #2 under #1, which adopts #3. A publication inside #1 only
  // examines both covered entries, which are its children.
  store::SubscriptionStore store(pairwise());
  store.insert(box2(4, 6, 4, 6, 3));
  store.insert(box2(2, 8, 2, 8, 2));    // demotes 3
  store.insert(box2(0, 10, 0, 10, 1));  // demotes 2, adopts 3
  EXPECT_EQ(store.coverers_of(3), (std::vector<SubscriptionId>{1}));
  EXPECT_EQ(store.coverers_of(2), (std::vector<SubscriptionId>{1}));
  const auto snapshot = store.export_snapshot();
  ASSERT_EQ(snapshot.children.size(), 1u);
  EXPECT_EQ(snapshot.children[0].coverer, 1u);
  EXPECT_EQ(snapshot.children[0].covered_ids,
            (std::vector<SubscriptionId>{3, 2}));
  const auto before = store.covered_examined();
  const auto ids = store.match(Publication({9.0, 9.0}));  // in 1 only
  EXPECT_EQ(ids, (std::vector<SubscriptionId>{1}));
  EXPECT_EQ(store.covered_examined() - before, 2u);
}

TEST(StoreHierarchy, DescentMatchesBruteForce) {
  // Property: over random nested workloads the DAG descent returns exactly
  // the inserted subscriptions whose box contains the point, and examines
  // no more covered entries than a flat scan of the covered set would
  // (covered_count() per publication with an active match).
  util::Rng rng(515);
  workload::ScenarioConfig config;
  config.attribute_count = 3;
  config.set_size = 1;
  store::SubscriptionStore store(pairwise(), 1);
  std::vector<Subscription> inserted;
  SubscriptionId id = 1;
  for (int i = 0; i < 120; ++i) {
    auto sub = workload::random_box(config, 0.1, 0.6, rng);
    sub.set_id(id++);
    store.insert(sub);
    inserted.push_back(sub);
  }
  ASSERT_GT(store.covered_count(), 0u);
  std::uint64_t active_hits = 0;
  for (int round = 0; round < 300; ++round) {
    const auto pub = workload::uniform_publication(3, 0.0, 1000.0, rng);
    std::vector<SubscriptionId> expected;
    for (const Subscription& sub : inserted) {
      if (sub.contains_point(pub.values())) expected.push_back(sub.id());
    }
    auto got = store.match(pub);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "round " << round;
    if (!store.match_active(pub).empty()) ++active_hits;
  }
  EXPECT_LE(store.covered_examined(), store.covered_count() * active_hits);
}

TEST(StoreHierarchy, EraseCleansDagEdges) {
  store::SubscriptionStore store(pairwise());
  store.insert(box2(0, 10, 0, 10, 1));
  store.insert(box2(2, 8, 2, 8, 2));
  EXPECT_TRUE(store.erase(2));  // covered erase unlinks
  store.insert(box2(2, 8, 2, 8, 3));
  EXPECT_TRUE(store.erase(1));  // active erase promotes 3, no stale edges
  EXPECT_TRUE(store.is_active(3));
  auto ids = store.match(Publication({5.0, 5.0}));
  EXPECT_EQ(ids, (std::vector<SubscriptionId>{3}));
}

TEST(Ttl, ExpiryRemovesRoutesWithoutUnsubTraffic) {
  routing::NetworkConfig config;
  config.store.policy = store::CoveragePolicy::kPairwise;
  auto net = routing::BrokerNetwork::chain_topology(4, config);
  net.subscribe_with_ttl(0, box2(0, 10, 0, 10, 1), /*ttl=*/10.0);
  EXPECT_EQ(net.publish(3, Publication({5.0, 5.0})).size(), 1u);

  net.advance_time(11.0);
  const auto unsubs_before = net.metrics().unsubscription_messages;
  const auto delivered = net.publish(3, Publication({5.0, 5.0}));
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(net.metrics().unsubscription_messages, unsubs_before);  // zero
  EXPECT_EQ(net.metrics().notifications_lost, 0u);  // nothing expected
  for (routing::BrokerId b = 0; b < 4; ++b) {
    EXPECT_EQ(net.broker(b).routing_table_size(), 0u);
  }
}

TEST(Ttl, CoveredSubscriptionReannouncedWhenCovererExpires) {
  routing::NetworkConfig config;
  config.store.policy = store::CoveragePolicy::kPairwise;
  auto net = routing::BrokerNetwork::chain_topology(3, config);
  net.subscribe_with_ttl(0, box2(0, 10, 0, 10, 1), /*ttl=*/5.0);
  net.subscribe(0, box2(2, 8, 2, 8, 2));  // suppressed: covered by #1
  // Before expiry both receive matching publications.
  auto delivered = net.publish(2, Publication({5.0, 5.0}));
  EXPECT_EQ(delivered, (std::vector<SubscriptionId>{1, 2}));
  // After #1 expires, #2 must have been re-announced and keep receiving.
  net.advance_time(6.0);
  delivered = net.publish(2, Publication({5.0, 5.0}));
  EXPECT_EQ(delivered, (std::vector<SubscriptionId>{2}));
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
}

TEST(Ttl, StaggeredExpiriesFireInOrder) {
  routing::NetworkConfig config;
  config.store.policy = store::CoveragePolicy::kPairwise;
  auto net = routing::BrokerNetwork::chain_topology(2, config);
  net.subscribe_with_ttl(0, box2(0, 10, 0, 10, 1), 3.0);
  net.subscribe_with_ttl(0, box2(20, 30, 0, 10, 2), 6.0);
  net.advance_time(4.0);
  EXPECT_TRUE(net.publish(1, Publication({5.0, 5.0})).empty());   // 1 gone
  EXPECT_EQ(net.publish(1, Publication({25.0, 5.0})).size(), 1u); // 2 alive
  net.advance_time(7.0);
  EXPECT_TRUE(net.publish(1, Publication({25.0, 5.0})).empty());
}

TEST(Ttl, InvalidTtlThrows) {
  auto net = routing::BrokerNetwork::chain_topology(2);
  EXPECT_THROW(net.subscribe_with_ttl(0, box2(0, 1, 0, 1, 1), 0.0),
               std::invalid_argument);
  EXPECT_THROW(net.subscribe_with_ttl(0, box2(0, 1, 0, 1, 0), 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace psc
