// FlatMap — a reserve-aware open-addressing hash map for the hot lookup
// paths (IntervalIndex::slot_of_, Broker::routing_table_), replacing
// std::unordered_map where node allocation and pointer-chasing dominate:
// every probe is a linear walk over one contiguous bucket array, a lookup
// performs zero allocations, and reserve() pre-sizes the table so a batch
// of insertions triggers no rehash (value pointers stay stable across it).
//
// Design:
//   * keys are unsigned integers; key 0 is RESERVED as the empty-bucket
//     sentinel (both users' id spaces reserve 0 as invalid already) —
//     inserting it throws std::invalid_argument;
//   * linear probing over a power-of-two table, splitmix64-mixed hash, max
//     load factor 7/8 before doubling;
//   * erasure uses backward-shift deletion (no tombstones), so probe
//     sequences never degrade under sustained churn;
//   * values live in-place in the bucket array with manual lifetime
//     management, so V need not be default-constructible and empty buckets
//     cost sizeof(V) storage but no constructed object.
//
// Pointer/iterator stability: pointers returned by find()/try_emplace()
// stay valid until the next rehash (growth past capacity()) or erase().
// After reserve(n), inserting up to n total elements performs no rehash.
//
// Thread-safety: none (externally synchronized, like every container in
// this codebase's single-writer model).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace psc::util {

template <typename Key, typename V>
class FlatMap {
  static_assert(std::is_unsigned_v<Key>, "FlatMap keys must be unsigned");

 public:
  static constexpr Key kEmptyKey = 0;

  FlatMap() = default;

  FlatMap(FlatMap&& other) noexcept
      : buckets_(std::move(other.buckets_)),
        mask_(other.mask_),
        size_(other.size_) {
    other.mask_ = 0;
    other.size_ = 0;
  }

  FlatMap& operator=(FlatMap&& other) noexcept {
    if (this != &other) {
      destroy_all();
      buckets_ = std::move(other.buckets_);
      mask_ = other.mask_;
      size_ = other.size_;
      other.mask_ = 0;
      other.size_ = 0;
    }
    return *this;
  }

  FlatMap(const FlatMap&) = delete;
  FlatMap& operator=(const FlatMap&) = delete;

  ~FlatMap() { destroy_all(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Elements storable before the next growth rehash.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return buckets_.empty() ? 0 : bucket_count() - bucket_count() / 8;
  }

  /// Destroys every element; keeps the bucket storage for reuse.
  void clear() noexcept {
    destroy_all();
    size_ = 0;
    for (auto& bucket : buckets_) bucket.key = kEmptyKey;
  }

  /// Ensures `n` total elements fit without rehashing (and therefore
  /// without invalidating value pointers).
  void reserve(std::size_t n) {
    if (n > capacity()) rehash(buckets_for(n));
  }

  [[nodiscard]] V* find(Key key) noexcept {
    const std::size_t i = locate(key);
    return i == npos ? nullptr : buckets_[i].value_ptr();
  }
  [[nodiscard]] const V* find(Key key) const noexcept {
    const std::size_t i = locate(key);
    return i == npos ? nullptr : buckets_[i].value_ptr();
  }
  [[nodiscard]] bool contains(Key key) const noexcept {
    return locate(key) != npos;
  }

  /// Inserts value_args-constructed V under `key` if absent. Returns the
  /// value pointer and whether an insertion happened (existing value is
  /// left untouched otherwise). Throws std::invalid_argument on key 0.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(Key key, Args&&... args) {
    if (key == kEmptyKey) {
      throw std::invalid_argument("FlatMap: key 0 is reserved");
    }
    // Probe for the key BEFORE considering growth: a duplicate insert is a
    // no-op and must not rehash (it would invalidate every outstanding
    // value pointer without inserting anything).
    if (const std::size_t existing = locate(key); existing != npos) {
      return {buckets_[existing].value_ptr(), false};
    }
    if (size_ + 1 > capacity()) rehash(buckets_for(size_ + 1));
    std::size_t i = home(key);
    while (buckets_[i].key != kEmptyKey) i = (i + 1) & mask_;
    buckets_[i].key = key;
    ::new (static_cast<void*>(buckets_[i].value_ptr()))
        V(std::forward<Args>(args)...);
    ++size_;
    return {buckets_[i].value_ptr(), true};
  }

  /// Removes `key`; false if absent. Backward-shift deletion keeps probe
  /// chains dense (no tombstones to skip on later lookups).
  bool erase(Key key) noexcept {
    std::size_t hole = locate(key);
    if (hole == npos) return false;
    buckets_[hole].value_ptr()->~V();
    std::size_t i = hole;
    while (true) {
      i = (i + 1) & mask_;
      const Key moving = buckets_[i].key;
      if (moving == kEmptyKey) break;
      // The element at i can fill the hole iff its home bucket does not
      // lie strictly between the hole and i (cyclically) — otherwise the
      // move would break its own probe chain.
      const std::size_t distance_from_home = (i - home(moving)) & mask_;
      const std::size_t distance_from_hole = (i - hole) & mask_;
      if (distance_from_home >= distance_from_hole) {
        buckets_[hole].key = moving;
        ::new (static_cast<void*>(buckets_[hole].value_ptr()))
            V(std::move(*buckets_[i].value_ptr()));
        buckets_[i].value_ptr()->~V();
        hole = i;
      }
    }
    buckets_[hole].key = kEmptyKey;
    --size_;
    return true;
  }

  /// Visits every (key, value) pair in unspecified order.
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& bucket : buckets_) {
      if (bucket.key != kEmptyKey) f(bucket.key, *bucket.value_ptr());
    }
  }
  template <typename F>
  void for_each(F&& f) {
    for (auto& bucket : buckets_) {
      if (bucket.key != kEmptyKey) f(bucket.key, *bucket.value_ptr());
    }
  }

 private:
  struct Bucket {
    Key key = kEmptyKey;
    alignas(V) std::byte storage[sizeof(V)];

    [[nodiscard]] V* value_ptr() noexcept {
      return std::launder(reinterpret_cast<V*>(storage));
    }
    [[nodiscard]] const V* value_ptr() const noexcept {
      return std::launder(reinterpret_cast<const V*>(storage));
    }
  };

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinBuckets = 16;

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;  ///< bucket_count - 1 (power of two)
  std::size_t size_ = 0;

  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return buckets_.size();
  }

  [[nodiscard]] static std::size_t mix(Key key) noexcept {
    std::uint64_t z = static_cast<std::uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }

  [[nodiscard]] std::size_t home(Key key) const noexcept {
    return mix(key) & mask_;
  }

  /// Bucket index of `key`, or npos. Safe on an empty table.
  [[nodiscard]] std::size_t locate(Key key) const noexcept {
    if (buckets_.empty() || key == kEmptyKey) return npos;
    std::size_t i = home(key);
    while (true) {
      if (buckets_[i].key == key) return i;
      if (buckets_[i].key == kEmptyKey) return npos;
      i = (i + 1) & mask_;
    }
  }

  /// Smallest power-of-two table keeping `n` elements under max load.
  [[nodiscard]] static std::size_t buckets_for(std::size_t n) {
    std::size_t buckets = kMinBuckets;
    while (buckets - buckets / 8 < n) buckets *= 2;
    return buckets;
  }

  void rehash(std::size_t new_bucket_count) {
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(new_bucket_count, Bucket{});
    mask_ = new_bucket_count - 1;
    for (auto& bucket : old) {
      if (bucket.key == kEmptyKey) continue;
      std::size_t i = home(bucket.key);
      while (buckets_[i].key != kEmptyKey) i = (i + 1) & mask_;
      buckets_[i].key = bucket.key;
      ::new (static_cast<void*>(buckets_[i].value_ptr()))
          V(std::move(*bucket.value_ptr()));
      bucket.value_ptr()->~V();
    }
  }

  void destroy_all() noexcept {
    if constexpr (!std::is_trivially_destructible_v<V>) {
      for (auto& bucket : buckets_) {
        if (bucket.key != kEmptyKey) bucket.value_ptr()->~V();
      }
    }
  }
};

}  // namespace psc::util
