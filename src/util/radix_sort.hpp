// LSD radix sort for subscription-id buffers.
//
// The publish hot path sorts a publication's local matches — thousands of
// ids at 100k routed subscriptions — and a comparison sort there is the
// single biggest line item after the index stab. Ids are dense small
// integers, so an LSD counting sort over only the digits that are actually
// populated beats std::sort by several times at those sizes while
// producing the exact same ascending order.
//
// Digits are 9 bits wide: ids below 2^18 sort in two passes (8-bit digits
// need three from 2^16 on), and one read pass fills every digit's
// histogram up front.
//
// Deterministic: output depends only on the multiset of keys. The caller
// provides the ping-pong scratch buffer so steady-state sorting allocates
// nothing once warm.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace psc::util {

/// Sorts `keys` ascending in place, using `scratch` as the ping-pong
/// buffer (resized as needed; contents clobbered). Small buffers fall
/// back to std::sort — below ~64 elements the counting passes cost more
/// than they save.
inline void radix_sort_u64(std::vector<std::uint64_t>& keys,
                           std::vector<std::uint64_t>& scratch) {
  constexpr unsigned kBits = 9;
  constexpr std::size_t kBuckets = std::size_t{1} << kBits;
  constexpr std::uint64_t kMask = kBuckets - 1;
  constexpr unsigned kMaxDigits = (64 + kBits - 1) / kBits;
  const std::size_t n = keys.size();
  if (n < 64 || n > std::numeric_limits<std::uint32_t>::max()) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  std::uint64_t max_key = 0;
  for (const std::uint64_t key : keys) max_key = std::max(max_key, key);
  unsigned digits = 0;
  while (digits < kMaxDigits && (max_key >> (kBits * digits)) != 0) ++digits;

  std::uint32_t counts[kMaxDigits][kBuckets];
  std::fill_n(&counts[0][0], digits * kBuckets, std::uint32_t{0});
  for (const std::uint64_t key : keys) {
    for (unsigned d = 0; d < digits; ++d) {
      ++counts[d][(key >> (kBits * d)) & kMask];
    }
  }

  scratch.resize(n);
  std::uint64_t* src = keys.data();
  std::uint64_t* dst = scratch.data();
  for (unsigned d = 0; d < digits; ++d) {
    std::uint32_t* count = counts[d];
    const unsigned shift = kBits * d;
    if (count[(src[0] >> shift) & kMask] == n) {
      continue;  // every key shares this digit: the pass is a no-op
    }
    std::uint32_t offset = 0;
    for (std::size_t bucket = 0; bucket < kBuckets; ++bucket) {
      const std::uint32_t bucket_count = count[bucket];
      count[bucket] = offset;
      offset += bucket_count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[count[(src[i] >> shift) & kMask]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != keys.data()) {
    std::copy(src, src + n, keys.data());
  }
}

}  // namespace psc::util
