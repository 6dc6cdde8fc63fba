#include "exec/sharded_store.hpp"

#include "util/rng.hpp"

namespace psc::exec {

using core::Publication;
using core::Subscription;
using core::SubscriptionId;

std::uint64_t shard_seed(std::uint64_t base, std::size_t shard) noexcept {
  std::uint64_t state =
      base ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(shard) + 1));
  return util::splitmix64(state);
}

ShardedStore::ShardedStore(ShardConfig config, std::uint64_t seed)
    : config_(config) {
  if (config_.shard_count == 0) config_.shard_count = 1;
  shards_.reserve(config_.shard_count);
  for (std::size_t s = 0; s < config_.shard_count; ++s) {
    shards_.emplace_back(config_.store, shard_seed(seed, s));
  }
}

std::size_t ShardedStore::shard_of(SubscriptionId id) const noexcept {
  std::uint64_t state = id;
  return static_cast<std::size_t>(util::splitmix64(state) % shards_.size());
}

const store::SubscriptionStore* ShardedStore::shard_holding(
    SubscriptionId id) const {
  const store::SubscriptionStore& shard = shards_[shard_of(id)];
  return shard.contains(id) ? &shard : nullptr;
}

store::InsertResult ShardedStore::insert(const Subscription& sub) {
  return owning_shard(sub.id()).insert(sub);
}

store::SubscriptionStore::EraseResult ShardedStore::erase_reporting(
    SubscriptionId id) {
  return owning_shard(id).erase_reporting(id);
}

const Subscription* ShardedStore::find(SubscriptionId id) const {
  const auto* shard = shard_holding(id);
  return shard ? shard->find(id) : nullptr;
}

bool ShardedStore::contains(SubscriptionId id) const {
  return shard_holding(id) != nullptr;
}

bool ShardedStore::is_active(SubscriptionId id) const {
  const auto* shard = shard_holding(id);
  return shard != nullptr && shard->is_active(id);
}

std::vector<SubscriptionId> ShardedStore::coverers_of(SubscriptionId id) const {
  const auto* shard = shard_holding(id);
  return shard ? shard->coverers_of(id) : std::vector<SubscriptionId>{};
}

void ShardedStore::match(const Publication& pub,
                         std::vector<SubscriptionId>& out) const {
  // Sequential shard-id-major append: each shard's out-parameter overload
  // writes straight into the shared buffer, so the merged result needs no
  // per-shard intermediates.
  for (const auto& shard : shards_) shard.match(pub, out);
}

std::vector<SubscriptionId> ShardedStore::match(const Publication& pub) const {
  std::vector<SubscriptionId> out;
  match(pub, out);
  return out;
}

void ShardedStore::match_active(const Publication& pub,
                                std::vector<SubscriptionId>& out) const {
  for (const auto& shard : shards_) shard.match_active(pub, out);
}

std::vector<SubscriptionId> ShardedStore::match_active(
    const Publication& pub) const {
  std::vector<SubscriptionId> out;
  match_active(pub, out);
  return out;
}

std::size_t ShardedStore::active_count() const noexcept {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard.active_count();
  return n;
}

std::size_t ShardedStore::covered_count() const noexcept {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard.covered_count();
  return n;
}

std::size_t ShardedStore::total_count() const noexcept {
  return active_count() + covered_count();
}

std::uint64_t ShardedStore::group_checks() const noexcept {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard.group_checks();
  return n;
}

std::vector<store::InsertResult> ShardedStore::insert_batch(
    std::span<const Subscription> subs, ThreadPool* pool) {
  std::vector<store::InsertResult> results(subs.size());
  // Partition input positions by owning shard, preserving batch order, so
  // every shard replays exactly the subsequence a sequential insert() loop
  // would have handed it.
  std::vector<std::vector<std::size_t>> positions(shards_.size());
  for (std::size_t i = 0; i < subs.size(); ++i) {
    positions[shard_of(subs[i].id())].push_back(i);
  }
  ThreadPool::run(pool, shards_.size(), [&](std::size_t s) {
    for (const std::size_t i : positions[s]) {
      results[i] = shards_[s].insert(subs[i]);
    }
  });
  return results;
}

void ShardedStore::run_match_batch(
    std::span<const Publication> pubs, ThreadPool* pool, bool active_only,
    std::vector<std::vector<SubscriptionId>>& out) const {
  // Shard-major fan-out: one lane per shard walks the whole batch, because
  // a shard's store owns mutable query scratch and must stay single-lane.
  // Intermediates live in batch_scratch_ and are cleared (capacity kept)
  // instead of reallocated, so a steady-state batch reuses every buffer.
  batch_scratch_.resize(shards_.size());
  ThreadPool::run(pool, shards_.size(), [&](std::size_t s) {
    auto& mine = batch_scratch_[s];
    if (mine.size() < pubs.size()) mine.resize(pubs.size());
    for (std::size_t p = 0; p < pubs.size(); ++p) {
      mine[p].clear();
      if (active_only) {
        shards_[s].match_active(pubs[p], mine[p]);
      } else {
        shards_[s].match(pubs[p], mine[p]);
      }
    }
  });

  out.resize(pubs.size());
  for (std::size_t p = 0; p < pubs.size(); ++p) {
    auto& merged = out[p];
    merged.clear();
    std::size_t total = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      total += batch_scratch_[s][p].size();
    }
    merged.reserve(total);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      merged.insert(merged.end(), batch_scratch_[s][p].begin(),
                    batch_scratch_[s][p].end());
    }
  }
}

std::vector<std::vector<SubscriptionId>> ShardedStore::match_batch(
    std::span<const Publication> pubs, ThreadPool* pool) const {
  std::vector<std::vector<SubscriptionId>> out;
  run_match_batch(pubs, pool, /*active_only=*/false, out);
  return out;
}

std::vector<std::vector<SubscriptionId>> ShardedStore::match_active_batch(
    std::span<const Publication> pubs, ThreadPool* pool) const {
  std::vector<std::vector<SubscriptionId>> out;
  run_match_batch(pubs, pool, /*active_only=*/true, out);
  return out;
}

}  // namespace psc::exec
