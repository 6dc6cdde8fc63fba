// Verifies the EngineWorkspace refactor's zero-allocation guarantee: after
// a warm-up query has grown the workspace buffers to the working-set size,
// repeated SubsumptionEngine::check calls perform no heap allocations.
//
// Counting is done by overriding the global allocation functions for this
// test binary. The counters are plain atomics so instrumentation itself
// does not allocate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "workload/scenarios.hpp"

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

// The over-aligned forms back simd::AlignedVector (the engine's packed RSPC
// rows); they are counted like the plain ones.
void* operator new(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* ptr = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
    return ptr;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}

namespace psc::core {
namespace {

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

/// Three warm-up checks, then 50 guarded ones; every check must take
/// `path`. The pointer-span overload is the store's entry point.
void expect_warm_checks_allocation_free(SubsumptionEngine& engine,
                                        const Subscription& s,
                                        const std::vector<Subscription>& set,
                                        DecisionPath path) {
  std::vector<const Subscription*> pointers;
  for (const Subscription& candidate : set) pointers.push_back(&candidate);
  const std::span<const Subscription* const> span(pointers);
  // Warm-up: grows every workspace buffer to the working-set size.
  for (int i = 0; i < 3; ++i) ASSERT_EQ(engine.check(s, span).path, path);

  AllocationGuard guard;
  for (int i = 0; i < 50; ++i) {
    const auto result = engine.check(s, span);
    ASSERT_EQ(result.path, path);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "warm " << to_string(path) << " checks must reuse the workspace (m="
      << s.attribute_count() << ")";
}

/// The MCS -> estimate -> RSPC path: redundant covering, so no pairwise
/// fast path; MCS removes rows (its column lists are seeded, scanned and
/// compacted) and the verdict is a probabilistic YES, with no witness copy.
void expect_steady_state_allocation_free(std::size_t attribute_count) {
  workload::ScenarioConfig config;
  config.attribute_count = attribute_count;
  config.set_size = 120;
  util::Rng rng(2026);
  const auto inst = workload::make_redundant_covering(config, rng);

  EngineConfig engine_config;
  engine_config.max_iterations = 2'000;
  SubsumptionEngine engine(engine_config, 7);
  const auto first = engine.check(inst.tested, inst.existing);
  ASSERT_TRUE(first.mcs_ran);
  ASSERT_GT(first.reduced_set_size, 0u);
  ASSERT_LT(first.reduced_set_size, inst.existing.size());
  expect_warm_checks_allocation_free(engine, inst.tested, inst.existing,
                                     DecisionPath::kRspcProbabilistic);
}

/// Corollary 1: one candidate covers s.
void expect_pairwise_path_allocation_free(std::size_t attribute_count) {
  workload::ScenarioConfig config;
  config.attribute_count = attribute_count;
  config.set_size = 80;
  util::Rng rng(11);
  const auto inst = workload::make_pairwise_covering(config, rng);
  SubsumptionEngine engine(EngineConfig{}, 13);
  expect_warm_checks_allocation_free(engine, inst.tested, inst.existing,
                                     DecisionPath::kPairwiseCover);
}

/// Corollary 3: 2m candidates strictly inside s (every entry defined),
/// behind 100 candidates disjoint from s that the prefilter drops.
void expect_polyhedron_path_allocation_free(std::size_t attribute_count) {
  const Subscription s(std::vector<Interval>(attribute_count, Interval{0, 100}));
  std::vector<Subscription> set;
  for (std::size_t i = 0; i < 100; ++i) {
    set.emplace_back(std::vector<Interval>(attribute_count, Interval{200, 300}), i + 1);
  }
  for (std::size_t i = 0; i < 2 * attribute_count; ++i) {
    const auto lo = static_cast<Value>(1 + i);
    set.emplace_back(std::vector<Interval>(attribute_count, Interval{lo, 99 - lo}),
                     101 + i);
  }
  SubsumptionEngine engine(EngineConfig{}, 17);
  expect_warm_checks_allocation_free(engine, s, set, DecisionPath::kPolyhedronWitness);
}

TEST(EngineWorkspace, SteadyStateChecksDoNotAllocate) {
  expect_steady_state_allocation_free(10);
}

// m = 6 packs two padding lanes per row (M = 8).
TEST(EngineWorkspace, SteadyStateChecksDoNotAllocateAtSixAttributes) {
  expect_steady_state_allocation_free(6);
}

TEST(EngineWorkspace, PairwiseFastPathDoesNotAllocate) {
  expect_pairwise_path_allocation_free(10);
  expect_pairwise_path_allocation_free(6);
}

TEST(EngineWorkspace, PolyhedronWitnessFastPathDoesNotAllocate) {
  expect_polyhedron_path_allocation_free(10);
  expect_polyhedron_path_allocation_free(6);
}

TEST(EngineWorkspace, GrowingSetReusesAfterFirstGrowth) {
  // A larger instance after a smaller one may allocate once (growth), but
  // repeating the larger instance must be allocation-free again.
  workload::ScenarioConfig small_config;
  small_config.attribute_count = 8;
  small_config.set_size = 40;
  workload::ScenarioConfig big_config = small_config;
  big_config.set_size = 200;
  util::Rng rng(5);
  const auto small_inst = workload::make_redundant_covering(small_config, rng);
  const auto big_inst = workload::make_redundant_covering(big_config, rng);

  EngineConfig engine_config;
  engine_config.max_iterations = 1'000;
  SubsumptionEngine engine(engine_config, 3);
  (void)engine.check(small_inst.tested, small_inst.existing);
  (void)engine.check(big_inst.tested, big_inst.existing);  // growth
  (void)engine.check(big_inst.tested, big_inst.existing);  // warm

  AllocationGuard guard;
  for (int i = 0; i < 20; ++i) {
    (void)engine.check(big_inst.tested, big_inst.existing);
    (void)engine.check(small_inst.tested, small_inst.existing);
  }
  EXPECT_EQ(guard.count(), 0u);
}

}  // namespace
}  // namespace psc::core
