// IntervalIndex — per-attribute candidate index over a set of box
// subscriptions: fully incremental (insert and erase by subscription id)
// and answering four queries:
//
//   * stab(point): ids of subscriptions whose box CONTAINS the point —
//     publication matching (Algorithm 5's active scan) without touching
//     subscriptions that cannot match;
//   * stab_any(point): whether stab(point) would be non-empty — the
//     paper's forwarding rule (send toward a neighbour if ANY subscription
//     routed from it matches), answered at the first match;
//   * box_intersect(box): ids of subscriptions whose box INTERSECTS the
//     query box — the candidate-pruning step in front of group coverage
//     and demotion: a subscription disjoint from s can neither be part of
//     a group covering s nor be covered by it, so the subsumption engine
//     only ever sees index-pruned candidates;
//   * covering(box): ids of subscriptions whose box CONTAINS the query
//     box — pairwise coverage as one query. A box c contains s iff, on
//     every attribute, c holds both of s's endpoints, so the sweep is two
//     stabs per attribute and its work scales with the few coverers, not
//     with everything s merely intersects.
//
// Per slot and attribute, an interval is either SELECTIVE (it does not
// cover the whole configured domain, IndexConfig) or WIDE
// (Interval::everything() or any interval containing [domain_lo,
// domain_hi]). Wide intervals cannot prune anything inside the domain, so
// they carry all-ones rows in the bitmaps below (realistic workloads encode
// "don't care" as the full domain); the exact verification pass handles
// them.
//
// All queries run one algorithm, a sweep over bucketed candidate-mask
// bitmaps stored as PAIRED LANES: the attribute domain is split into B
// buckets, and each row mask[j][b] is a 32-byte-aligned bitmap over slots
// with TWO interleaved 64-bit words per slot group (even word then odd
// word, always in the same cache line, so mutations pay for one line
// whether they write one lane or both):
//   * POSSIBLE lane (even words): bit 1 iff the slot could match a point
//     in bucket b on attribute j — its selective interval overlaps the
//     bucket, or the attribute is wide for it (liveness is a separate
//     occupancy bitmap, which also hides the bits free slots keep);
//   * CERTAIN lane (odd words): bit 1 iff the slot's interval FULLY COVERS
//     bucket b — every point of the bucket matches attribute j, so a slot
//     whose certain bit survives the sweep on every attribute needs NO
//     verification at all. The lane is computed exactly from bucket
//     monotonicity, never from float boundary arithmetic: with
//     bl = bucket(lo) (-1 when lo = -inf) and bh = bucket(hi) (B when
//     hi = +inf), the certain span is (bl, bh) exclusive — bucket(lo) < b
//     < bucket(hi) forces lo < v < hi for every real v in bucket b.
// A point probe is one fused word-parallel sweep
//     acc[w] &= mask[j][bucket(v_j)][w]
// over both lanes of the attributes somebody constrains — a kernel from
// util/simd.hpp (AVX2, NEON or the scalar bodies, whichever the build
// selected) with block-level early exit on an all-zero accumulator —
// leaving the possible-lane superset partitioned into certain survivors
// (emitted directly; with ~97% of candidates being true matches under
// realistic workloads this removes the dominant verification cost) and an
// uncertain residue (possible & ~certain, verified exactly against the
// packed verify records below). A covering probe runs the same fused
// sweep over two rows per attribute, bucket(lo_j) and bucket(hi_j) (a
// point probe is the case lo_j = hi_j): a slot that contains both
// endpoints survives, and one certain in both rows contains the whole
// probe range. stab_any ANDs the same rows in the other order, one slot
// group word across every attribute before the next word, so it can stop
// at the first word holding a certain or verified match (see stab_any). A
// box_intersect probe ORs
// each attribute's possible lane over the query's bucket span; its
// interior buckets double as the certainty contribution. Values outside
// the configured domain clamp to the edge buckets, and the certain lane of
// an attribute is only TRUSTED when the probe value (for covering, both
// endpoints) is inside [domain_lo, domain_hi] (wide slots carry all-ones
// rows whose certain bits are only valid for in-domain points); untrusted
// attributes zero the certainty lane and degrade to verify-everything.
// Only pruning power degrades, never correctness.
//
// HOT-PATH SLOT DATA (structure-of-arrays, SIMD-friendly). Candidate
// emission is cache-miss-bound, so the per-slot state it touches lives in
// dedicated linear arrays:
//   * verify_blob_ — per slot, ceil(m/4) packed 64-byte records [lo x4 |
//     hi x4] (32-byte aligned; padding lanes hold -inf/+inf so they pass
//     any real value), consumed by the branchless 4-lane verify; it is
//     also the index's only copy of each slot's intervals;
//   * ids32_ — a 32-bit shadow of ids_; while every live id fits in 32
//     bits (big_id_count_ == 0) emission reads this array instead and
//     halves the id-fetch cache-line traffic.
//
// Mutations apply at once, with no pending state: erase clears the
// slot's occupancy bit and returns it to the free list in O(m), leaving
// the slot's rows and verify record as they are. A never-used slot's rows
// are zero, and a slot keeps zeros outside the bucket span of its last
// selective occupant, so insert writes only the rows it must: per
// attribute, the union of the new interval's bucket span and the previous
// occupant's (read back from the verify record) — O(span) — or the whole
// all-ones row of a wide attribute, which is skipped when the previous
// occupant was wide there too.
//
// All queries are exact (closed-interval semantics identical to
// Subscription::contains_point / Subscription::intersects /
// Subscription::covers; a probe with a NaN value or bound matches
// nothing, and so does a covering probe with an empty range, which
// Subscription::covers would call covered by every box). Queries mutate
// only scratch state and are const, but not safe to run concurrently on
// one instance.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/subscription.hpp"
#include "util/flat_map.hpp"
#include "util/simd.hpp"

namespace psc::index {

/// Bucketing parameters. The domain is a performance hint, not a
/// constraint: out-of-domain values clamp to the edge buckets and are
/// resolved by the exact verification pass. Query RESULTS never depend on
/// these knobs — only the work performed does (see docs/TUNING.md for
/// measured effects).
struct IndexConfig {
  core::Value domain_lo = 0.0;
  core::Value domain_hi = 1000.0;
  std::size_t bucket_count = 128;
};

/// Incremental candidate index over one fixed attribute schema (see file
/// comment for the data structures and the query sweep).
///
/// Thread-safety: externally single-threaded. The queries are
/// const but reuse scratch buffers, so two queries must not run
/// concurrently on one instance; one index per thread (or per shard) is
/// the supported model. Query results never depend on IndexConfig — only
/// pruning power does.
class IntervalIndex {
 public:
  /// Index over a fixed schema of `attribute_count` attributes.
  /// `attribute_count` must be >= 1 and every inserted subscription and
  /// probe must carry exactly that many attributes.
  explicit IntervalIndex(std::size_t attribute_count, IndexConfig config = {});

  /// Indexes `sub` under its id. Throws std::invalid_argument on a schema
  /// mismatch, a duplicate id, or the invalid id 0; the index is
  /// unchanged when it throws. O(span) per selective attribute and
  /// O(bucket_count) per wide one (see file comment).
  void insert(const core::Subscription& sub);

  /// Removes the subscription stored under `id`; false if unknown. O(m);
  /// the slot is reusable at once.
  bool erase(core::SubscriptionId id);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t attribute_count() const noexcept { return m_; }
  [[nodiscard]] const IndexConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool contains(core::SubscriptionId id) const {
    return slot_of_.contains(id);
  }

  /// Appends to `out` the ids of all subscriptions whose box contains
  /// `point` (one value per attribute; throws std::invalid_argument on a
  /// size mismatch). Order is unspecified — callers needing determinism
  /// sort, as SubscriptionStore::match_active does. Exact closed-interval
  /// semantics, identical to Subscription::contains_point.
  void stab(std::span<const core::Value> point,
            std::vector<core::SubscriptionId>& out) const;
  [[nodiscard]] std::vector<core::SubscriptionId> stab(
      std::span<const core::Value> point) const;

  /// True iff stab(point) would be non-empty, decided at the first match
  /// in ascending slot order (throws std::invalid_argument on a size
  /// mismatch). A NaN probe and an empty index get false. Its
  /// last_query_cost counts the candidates examined up to that match.
  [[nodiscard]] bool stab_any(std::span<const core::Value> point) const;

  /// Appends to `out` the ids of all subscriptions whose box shares at
  /// least one point with `box` (throws std::invalid_argument on a schema
  /// mismatch). Order is unspecified. Exact, identical to
  /// Subscription::intersects.
  void box_intersect(const core::Subscription& box,
                     std::vector<core::SubscriptionId>& out) const;
  [[nodiscard]] std::vector<core::SubscriptionId> box_intersect(
      const core::Subscription& box) const;

  /// Appends to `out` the ids of all subscriptions whose box contains
  /// `box` (throws std::invalid_argument on a schema mismatch). Order is
  /// unspecified. Exact, identical to Subscription::covers for a box whose
  /// every range is non-empty; a box with an empty range gets nothing.
  void covering(const core::Subscription& box,
                std::vector<core::SubscriptionId>& out) const;
  [[nodiscard]] std::vector<core::SubscriptionId> covering(
      const core::Subscription& box) const;

  /// Candidates the most recent query EXAMINED: slots that reached the
  /// emission stage and were either certainty-emitted or exactly verified
  /// (0 for a probe that short-circuits: an empty index, an all-zero
  /// sweep, or a NaN probe). Deliberately NOT kernel work (bitmap words
  /// swept): ops/sec regressions catch kernel slowdowns, while this number
  /// isolates PRUNING regressions — it is directly comparable against the
  /// k subscriptions a flat scan would examine, on every backend and scale
  /// tier.
  [[nodiscard]] std::uint64_t last_query_cost() const noexcept {
    return last_query_cost_;
  }

  /// Always 0: mutations apply immediately, so nothing is ever pending or
  /// compacted. Kept for the benchmark harness, which records both.
  [[nodiscard]] std::size_t delta_size() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t compactions() const noexcept { return 0; }

 private:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;
  /// Verify records pack attributes in groups of 4 (one 64-byte record:
  /// four lows then four highs).
  static constexpr std::size_t kVerifyGroup = 4;

  std::size_t m_;
  IndexConfig config_;
  std::size_t size_ = 0;

  /// Live slots with a selective interval on attribute j. When it is 0,
  /// every live slot has 1-bits on all of j's rows, so the sweep skips j.
  std::vector<std::uint32_t> selective_count_;

  /// Slot-indexed state. Slots are stable across erasures (free list), so
  /// bitmap bits never need renumbering. A free slot keeps its last verify
  /// record and mask bits until insert reuses it and rewrites the rows
  /// either occupant spans.
  std::vector<core::SubscriptionId> ids_;  ///< kInvalid for free slots
  std::vector<std::uint32_t> free_slots_;
  util::FlatMap<core::SubscriptionId, std::uint32_t> slot_of_;

  /// Hot emission data (see file comment): packed 4-lane verify records,
  /// verify_groups_ * 8 doubles per slot, and the 32-bit id shadow used
  /// while big_id_count_ == 0. Emission starts from the occupancy bitmap,
  /// so it never reads a free slot's rows.
  std::size_t verify_groups_ = 1;
  simd::AlignedVector<double> verify_blob_;
  std::vector<std::uint32_t> ids32_;
  std::size_t big_id_count_ = 0;

  /// Candidate-mask rows, m_ * bucket_count of them, 2 * words_ words
  /// each in the paired possible/certain lane layout (even word =
  /// possible, odd word = certain; see file comment); a live slot carries
  /// 1-bits in BOTH lanes on every attribute it leaves wide, a free slot
  /// keeps its last occupant's bits (occupancy hides them), and a
  /// never-used slot's bits are zero. The occupancy
  /// row is paired the same way (both lanes identical) so the
  /// accumulator initializes with one aligned copy. 32-byte aligned,
  /// words_ always a multiple of simd::kBlockWords.
  std::size_t words_ = 0;          ///< words per bitmap LANE
  std::size_t slot_capacity_ = 0;  ///< slots representable, words_ * 64
  simd::AlignedVector<Word> mask_bits_;
  simd::AlignedVector<Word> occupied_bits_;

  mutable std::uint64_t last_query_cost_ = 0;
  mutable simd::AlignedVector<Word> acc_scratch_;  ///< paired accumulator
  mutable std::vector<Word> or_possible_scratch_;  ///< box OR over span
  mutable std::vector<Word> or_certain_scratch_;   ///< box OR over interior
  mutable std::vector<std::uint32_t> certain_scratch_;  ///< emitted directly
  mutable std::vector<std::uint32_t> verify_scratch_;   ///< exact-verified
  mutable simd::AlignedVector<double> query_pad_;  ///< padded probe values
  mutable std::vector<const Word*> row_scratch_;  ///< stab_any's rows, <= m_

  /// True iff the interval cannot prune inside the configured domain.
  [[nodiscard]] bool is_wide(const core::Interval& iv) const noexcept;
  /// True iff a probe value may trust the certain lane (see file comment).
  [[nodiscard]] bool in_domain(core::Value v) const noexcept;
  [[nodiscard]] std::size_t bucket_of(core::Value v) const noexcept;
  [[nodiscard]] std::size_t words_in_use() const noexcept {
    return (ids_.size() + kWordBits - 1) / kWordBits;
  }
  /// Words per lane actually swept: words_in_use padded to a whole SIMD
  /// block (padding words hold zero occupancy, so sweeping them is inert).
  [[nodiscard]] std::size_t sweep_words() const noexcept {
    return std::min(simd::padded_words(words_in_use()), words_);
  }
  /// A row's paired lanes: word 2w is the possible lane, 2w + 1 the
  /// certain lane of slot group w.
  [[nodiscard]] Word* pair_row(std::size_t attribute, std::size_t bucket) noexcept {
    return mask_bits_.data() +
           (attribute * config_.bucket_count + bucket) * 2 * words_;
  }
  [[nodiscard]] const Word* pair_row(std::size_t attribute,
                                     std::size_t bucket) const noexcept {
    return mask_bits_.data() +
           (attribute * config_.bucket_count + bucket) * 2 * words_;
  }
  [[nodiscard]] std::size_t verify_row_doubles() const noexcept {
    return verify_groups_ * 2 * kVerifyGroup;
  }
  /// Copies `point` into the padded probe row (padding lanes hold 0,
  /// which the -inf/+inf padding lanes of every verify record pass).
  void pad_point(std::span<const core::Value> point) const noexcept;
  /// True iff the slot's box contains the probe pad_point wrote.
  [[nodiscard]] bool contains_padded_point(std::uint32_t slot) const noexcept;
  /// Drains the paired accumulator: certain survivors emit their id
  /// directly, uncertain ones (possible & ~certain) go through `verify`
  /// (a slot -> bool predicate). Returns candidates examined.
  template <typename Verify>
  std::uint64_t emit_candidates(std::vector<core::SubscriptionId>& out,
                                Verify&& verify) const;
  /// The stab/covering sweep: initializes the paired accumulator from
  /// occupancy and ANDs in, per attribute j, the rows of both endpoints of
  /// `endpoints(j)` (an Interval). False when no candidate survives.
  template <typename Endpoints>
  bool sweep_endpoints(Endpoints&& endpoints) const;
  /// emit_candidates for a box probe: pads `box` into the query rows
  /// (padding lanes -inf/+inf) and verifies each uncertain slot with
  /// `verify4(qlo4, qhi4, rec8)` per 4-attribute group.
  template <typename Verify4>
  std::uint64_t emit_box_candidates(const core::Subscription& box,
                                    std::vector<core::SubscriptionId>& out,
                                    Verify4&& verify4) const;
  /// Writes the slot's mask bits for one attribute on the rows of buckets
  /// [from, to]: possible lane 1 in the buckets `iv` overlaps, certain lane
  /// 1 in the buckets it fully covers, 0 elsewhere (Interval::everything()
  /// writes the all-ones row of a wide attribute).
  void write_mask_bits(std::size_t attribute, std::uint32_t slot,
                       const core::Interval& iv, std::size_t from,
                       std::size_t to);
  /// Writes the slot's packed verify records (padding lanes -inf/+inf).
  void write_verify_row(std::uint32_t slot, const core::Subscription& sub);
  /// The slot's interval on `attribute`, read back from its verify record.
  [[nodiscard]] core::Interval stored_range(std::uint32_t slot,
                                            std::size_t attribute) const noexcept;
  void grow_bitmaps();
};

}  // namespace psc::index
