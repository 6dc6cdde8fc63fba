// ShardedStore — the scaling seam over SubscriptionStore: subscriptions
// are partitioned across N shards by a stable hash of their id, and each
// shard owns a full private SubscriptionStore — its own IntervalIndex,
// SubsumptionEngine, EngineWorkspace, and RNG stream. No state is shared
// between shards, so batch operations fan out across a ThreadPool with one
// lane per shard and PR 1's zero-allocation / no-locking invariants hold
// per thread by construction.
//
// Decision semantics. Coverage is evaluated WITHIN a shard: a subscription
// can only be covered by (or demote, or promote) subscriptions hashed to
// the same shard. With shard_count == 1 every decision — InsertResult,
// engine diagnostics, promotions on erase, match outputs and their order —
// is identical to a sequential SubscriptionStore constructed with
// (config.store, shard_seed(seed, 0)); tests/batch_determinism_test.cpp
// property-tests this. With shard_count > 1 the active/covered split is a
// refinement (fewer covers are found, never wrong ones), and publication
// MATCHING over a coverage-free store (CoveragePolicy::kNone) returns the
// same id set for every shard count, because matching is exact and
// partition-independent.
//
// Determinism contract (see docs/ARCHITECTURE.md for the full statement):
//   * same shard_count + seed + call sequence => bitwise-identical results
//     and identical per-shard RNG consumption, regardless of the pool's
//     worker count (including none) or OS scheduling;
//   * merged outputs are ordered by shard id, then by the shard's own
//     deterministic order (active slot order / cover-DAG descent), and
//     batch results by input sequence — never by thread completion;
//   * across DIFFERENT shard counts only set-level guarantees hold (and
//     for coverage policies other than kNone, only one-sided ones).
//
// Thread-safety: const queries mutate per-shard scratch, so one
// ShardedStore instance must not serve two concurrent calls; the batch
// entry points own their internal parallelism (one task per shard) and are
// safe with respect to themselves. Different ShardedStore instances are
// fully independent.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/publication.hpp"
#include "core/subscription.hpp"
#include "exec/thread_pool.hpp"
#include "store/subscription_store.hpp"

namespace psc::exec {

struct ShardConfig {
  /// Number of partitions (>= 1; 0 is coerced to 1). Throughput scales
  /// with min(shard_count, pool lanes); shard counts beyond the hardware
  /// only shrink per-shard indexes (see docs/TUNING.md).
  std::size_t shard_count = 1;
  /// Per-shard store configuration (policy, index, engine tuning).
  store::StoreConfig store;
};

/// Seed of shard `shard`'s store, derived from the instance seed. Exposed
/// so tests can build the decision-identical sequential reference:
/// SubscriptionStore(config.store, shard_seed(seed, 0)).
[[nodiscard]] std::uint64_t shard_seed(std::uint64_t base,
                                       std::size_t shard) noexcept;

class ShardedStore {
 public:
  explicit ShardedStore(ShardConfig config = {},
                        std::uint64_t seed = 0xc0ffee11ULL);

  /// Stable hash partition of an id; identical across runs and platforms.
  [[nodiscard]] std::size_t shard_of(core::SubscriptionId id) const noexcept;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const store::SubscriptionStore& shard(std::size_t i) const {
    return shards_.at(i);
  }
  [[nodiscard]] const ShardConfig& config() const noexcept { return config_; }

  // --- sequential API (decision-identical to one store at shard_count 1) --

  /// Inserts into the owning shard; see SubscriptionStore::insert.
  store::InsertResult insert(const core::Subscription& sub);

  /// Erases from the owning shard; promotions are same-shard ids.
  store::SubscriptionStore::EraseResult erase_reporting(core::SubscriptionId id);
  bool erase(core::SubscriptionId id) { return erase_reporting(id).erased; }

  [[nodiscard]] const core::Subscription* find(core::SubscriptionId id) const;
  [[nodiscard]] bool contains(core::SubscriptionId id) const;
  [[nodiscard]] bool is_active(core::SubscriptionId id) const;
  [[nodiscard]] std::vector<core::SubscriptionId> coverers_of(
      core::SubscriptionId id) const;

  /// All matching ids (active + covered), shard-id-major order.
  [[nodiscard]] std::vector<core::SubscriptionId> match(
      const core::Publication& pub) const;
  /// Matching active ids, shard-id-major order.
  [[nodiscard]] std::vector<core::SubscriptionId> match_active(
      const core::Publication& pub) const;

  /// Out-parameter forms: APPEND the same ids to `out`. With a warm
  /// caller-owned buffer a steady-state call performs zero heap
  /// allocations (the broker publish path's contract — see
  /// tests/publish_alloc_test.cpp).
  void match(const core::Publication& pub,
             std::vector<core::SubscriptionId>& out) const;
  void match_active(const core::Publication& pub,
                    std::vector<core::SubscriptionId>& out) const;

  [[nodiscard]] std::size_t active_count() const noexcept;
  [[nodiscard]] std::size_t covered_count() const noexcept;
  [[nodiscard]] std::size_t total_count() const noexcept;
  /// Engine (group) checks executed across all shards — cost metric.
  [[nodiscard]] std::uint64_t group_checks() const noexcept;

  // --- batch API (fans out across shards on `pool`; nullptr = inline) ----

  /// Inserts `subs` in batch order. Each shard processes its subset in
  /// input order, so results (returned in input order) are identical to
  /// calling insert() sequentially — the pool only changes wall-clock.
  std::vector<store::InsertResult> insert_batch(
      std::span<const core::Subscription> subs, ThreadPool* pool = nullptr);

  /// match() for every publication; results in input order.
  [[nodiscard]] std::vector<std::vector<core::SubscriptionId>> match_batch(
      std::span<const core::Publication> pubs, ThreadPool* pool = nullptr) const;

  /// match_active() for every publication; results in input order.
  [[nodiscard]] std::vector<std::vector<core::SubscriptionId>>
  match_active_batch(std::span<const core::Publication> pubs,
                     ThreadPool* pool = nullptr) const;

 private:
  ShardConfig config_;
  std::vector<store::SubscriptionStore> shards_;
  /// Per-shard, per-publication batch intermediates, reused across batch
  /// calls (batch entry points are exclusive per instance, so the mutable
  /// scratch is single-writer by contract).
  mutable std::vector<std::vector<std::vector<core::SubscriptionId>>>
      batch_scratch_;

  store::SubscriptionStore& owning_shard(core::SubscriptionId id) {
    return shards_[shard_of(id)];
  }
  [[nodiscard]] const store::SubscriptionStore* shard_holding(
      core::SubscriptionId id) const;

  void run_match_batch(std::span<const core::Publication> pubs,
                       ThreadPool* pool, bool active_only,
                       std::vector<std::vector<core::SubscriptionId>>& out) const;
};

}  // namespace psc::exec
