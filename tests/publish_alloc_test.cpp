// Pins the allocation-free publish pipeline: once warm, a steady-state
// publication performs ZERO heap allocations through every layer —
// IntervalIndex::stab into a reused buffer, the SubscriptionStore
// out-parameter match overloads, and
// Broker::handle_publication with caller-owned PublishScratch (flat-map
// routing-table lookups included).
//
// Counting is done by overriding the global allocation functions for this
// test binary (same harness as tests/workspace_alloc_test.cpp). The
// counters are plain atomics so instrumentation itself does not allocate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "routing/broker.hpp"
#include "store/subscription_store.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<bool> g_counting{false};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace psc {
namespace {

using core::Publication;
using core::Subscription;
using core::SubscriptionId;

class AllocationGuard {
 public:
  AllocationGuard() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationGuard() { g_counting.store(false, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

std::vector<Publication> make_publications(std::size_t n, std::size_t attrs,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Publication> pubs;
  pubs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pubs.push_back(workload::uniform_publication(attrs, 0.0, 1000.0, rng));
  }
  return pubs;
}

TEST(PublishAlloc, StoreMatchOutParamsSteadyStateDoNotAllocate) {
  // Pairwise coverage gives a populated cover DAG, so match() exercises
  // the hierarchical descent as well as the index stab.
  store::StoreConfig config;
  config.policy = store::CoveragePolicy::kPairwise;
  store::SubscriptionStore store(config, 99);

  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 6;
  workload::ComparisonStream stream(stream_config, 5);
  for (int i = 0; i < 400; ++i) (void)store.insert(stream.next());
  ASSERT_GT(store.covered_count(), 0u) << "want a non-trivial cover DAG";

  const auto pubs = make_publications(64, stream_config.attribute_count, 17);
  std::vector<SubscriptionId> actives, all;
  // Warm-up grows every scratch and output buffer to working-set size.
  for (int round = 0; round < 3; ++round) {
    for (const Publication& pub : pubs) {
      actives.clear();
      store.match_active(pub, actives);
      all.clear();
      store.match(pub, all);
    }
  }

  AllocationGuard guard;
  std::size_t matched = 0;
  for (const Publication& pub : pubs) {
    actives.clear();
    store.match_active(pub, actives);
    all.clear();
    store.match(pub, all);
    matched += all.size();
  }
  EXPECT_EQ(guard.count(), 0u)
      << "steady-state out-parameter matches must reuse every buffer";
  ASSERT_GT(matched, 0u) << "the probe set should actually match something";
}

TEST(PublishAlloc, BrokerPublishWithScratchSteadyStateDoesNotAllocate) {
  // A broker with two neighbour links: the full publication path — lane
  // stabs, routing-table flat-map lookups, destination dedup — through
  // caller-owned scratch.
  store::StoreConfig store_config;  // default kGroup + index
  routing::Broker broker(0, store_config, 1234);
  broker.add_neighbor(1);
  broker.add_neighbor(2);

  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 6;
  workload::ComparisonStream stream(stream_config, 21);
  util::Rng origin_rng(3);
  for (int i = 0; i < 300; ++i) {
    const Subscription sub = stream.next();
    // Mix of local subscribers and routes learned from both neighbours,
    // so publications fan out to local matches and link destinations.
    routing::Origin origin;
    switch (origin_rng.next_below(3)) {
      case 0: origin = routing::Origin{true, routing::kInvalidBroker}; break;
      case 1: origin = routing::Origin{false, 1}; break;
      default: origin = routing::Origin{false, 2}; break;
    }
    (void)broker.handle_subscription(sub, origin);
  }
  ASSERT_GT(broker.routing_table_size(), 0u);

  const auto pubs = make_publications(64, stream_config.attribute_count, 23);
  const routing::Origin pub_origin{true, routing::kInvalidBroker};
  routing::Broker::PublishScratch scratch;
  std::size_t warm_destinations = 0;
  for (int round = 0; round < 3; ++round) {
    for (const Publication& pub : pubs) {
      const auto& route = broker.handle_publication(pub, pub_origin, scratch);
      warm_destinations += route.destinations.size();
    }
  }
  ASSERT_GT(warm_destinations, 0u) << "publications should route somewhere";

  AllocationGuard guard;
  std::size_t local = 0, remote = 0;
  for (const Publication& pub : pubs) {
    const auto& route = broker.handle_publication(pub, pub_origin, scratch);
    local += route.local_matches.size();
    remote += route.destinations.size();
  }
  EXPECT_EQ(guard.count(), 0u)
      << "steady-state Broker::handle_publication must be allocation-free";
  EXPECT_GT(local + remote, 0u);
}

}  // namespace
}  // namespace psc
