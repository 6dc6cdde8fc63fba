#include "index/interval_index.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace psc::index {

using core::Interval;
using core::Subscription;
using core::SubscriptionId;
using core::Value;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

IntervalIndex::IntervalIndex(std::size_t attribute_count, IndexConfig config)
    : m_(attribute_count), config_(config), selective_count_(attribute_count, 0),
      verify_groups_((attribute_count + kVerifyGroup - 1) / kVerifyGroup),
      row_scratch_(attribute_count) {
  if (!(config_.domain_lo < config_.domain_hi)) {
    throw std::invalid_argument("IndexConfig: domain_lo must be < domain_hi");
  }
  if (config_.bucket_count == 0) {
    throw std::invalid_argument("IndexConfig: bucket_count must be > 0");
  }
  // Two padded probe rows (stab point / box lows+highs), zero-filled so
  // padding lanes always hold comparable reals.
  query_pad_.assign(2 * verify_groups_ * kVerifyGroup, 0.0);
}

bool IntervalIndex::is_wide(const Interval& iv) const noexcept {
  return iv.lo <= config_.domain_lo && iv.hi >= config_.domain_hi;
}

bool IntervalIndex::in_domain(Value v) const noexcept {
  return v >= config_.domain_lo && v <= config_.domain_hi;
}

std::size_t IntervalIndex::bucket_of(Value v) const noexcept {
  // Clamp out-of-domain (and infinite) values to the edge buckets; the
  // exact verification pass absorbs the lost selectivity.
  if (!(v > config_.domain_lo)) return 0;
  if (!(v < config_.domain_hi)) return config_.bucket_count - 1;
  const double fraction =
      (v - config_.domain_lo) / (config_.domain_hi - config_.domain_lo);
  std::size_t bucket =
      static_cast<std::size_t>(fraction * static_cast<double>(config_.bucket_count));
  if (bucket >= config_.bucket_count) bucket = config_.bucket_count - 1;
  return bucket;
}

void IntervalIndex::grow_bitmaps() {
  const std::size_t new_words =
      words_ == 0 ? simd::kBlockWords : words_ * 2;
  // A never-used slot's mask rows and occupancy are zero: insert then
  // writes only the rows the new interval spans.
  simd::AlignedVector<Word> mask_bits(m_ * config_.bucket_count * 2 * new_words,
                                      0);
  simd::AlignedVector<Word> occupied_bits(2 * new_words, 0);
  for (std::size_t row = 0; row < m_ * config_.bucket_count; ++row) {
    std::copy_n(
        mask_bits_.begin() + static_cast<std::ptrdiff_t>(row * 2 * words_),
        2 * words_,
        mask_bits.begin() + static_cast<std::ptrdiff_t>(row * 2 * new_words));
  }
  std::copy_n(occupied_bits_.begin(), 2 * words_, occupied_bits.begin());
  mask_bits_ = std::move(mask_bits);
  occupied_bits_ = std::move(occupied_bits);
  words_ = new_words;
  slot_capacity_ = words_ * kWordBits;
}

void IntervalIndex::write_mask_bits(std::size_t attribute, std::uint32_t slot,
                                    const Interval& iv, std::size_t from,
                                    std::size_t to) {
  const std::size_t word = 2 * (slot / kWordBits);
  const Word mask = Word{1} << (slot % kWordBits);
  const auto buckets = static_cast<std::ptrdiff_t>(config_.bucket_count);
  const auto first = static_cast<std::ptrdiff_t>(bucket_of(iv.lo));
  const auto last = static_cast<std::ptrdiff_t>(bucket_of(iv.hi));
  // Exact certain span via bucket monotonicity (header file comment):
  // strictly between the endpoint buckets, saturating past the edges for
  // infinite endpoints. bucket(lo) < b < bucket(hi) forces lo < v < hi
  // for every real v in bucket b — pure integer compares, no float
  // boundary arithmetic to get subtly wrong. A NaN or empty interval voids
  // every certainty claim (its possible bits already come from the
  // clamped endpoint buckets; verification rejects).
  std::ptrdiff_t cfirst = (iv.lo == -kInf ? -1 : first) + 1;
  std::ptrdiff_t clast = (iv.hi == kInf ? buckets : last) - 1;
  if (!(iv.lo <= iv.hi)) {
    cfirst = 1;
    clast = 0;
  }
  for (auto bucket = static_cast<std::ptrdiff_t>(from);
       bucket <= static_cast<std::ptrdiff_t>(to); ++bucket) {
    Word* row = pair_row(attribute, static_cast<std::size_t>(bucket)) + word;
    if (bucket >= first && bucket <= last) {
      row[0] |= mask;
    } else {
      row[0] &= ~mask;
    }
    if (bucket >= cfirst && bucket <= clast) {
      row[1] |= mask;
    } else {
      row[1] &= ~mask;
    }
  }
}

void IntervalIndex::write_verify_row(std::uint32_t slot,
                                     const Subscription& sub) {
  const std::size_t row_doubles = verify_row_doubles();
  if (verify_blob_.size() < (slot + 1) * row_doubles) {
    verify_blob_.resize((slot + 1) * row_doubles);
  }
  double* rec = verify_blob_.data() + slot * row_doubles;
  for (std::size_t g = 0; g < verify_groups_; ++g) {
    for (std::size_t lane = 0; lane < kVerifyGroup; ++lane) {
      const std::size_t j = g * kVerifyGroup + lane;
      rec[g * 2 * kVerifyGroup + lane] = j < m_ ? sub.range(j).lo : -kInf;
      rec[g * 2 * kVerifyGroup + kVerifyGroup + lane] =
          j < m_ ? sub.range(j).hi : kInf;
    }
  }
}

Interval IntervalIndex::stored_range(std::uint32_t slot,
                                     std::size_t attribute) const noexcept {
  const double* rec = verify_blob_.data() + slot * verify_row_doubles() +
                      (attribute / kVerifyGroup) * 2 * kVerifyGroup +
                      attribute % kVerifyGroup;
  return Interval{rec[0], rec[kVerifyGroup]};
}

void IntervalIndex::insert(const Subscription& sub) {
  if (sub.attribute_count() != m_) {
    throw std::invalid_argument("IntervalIndex::insert: schema mismatch");
  }
  if (sub.id() == core::kInvalidSubscriptionId) {
    throw std::invalid_argument("IntervalIndex::insert: id must be non-zero");
  }
  if (slot_of_.contains(sub.id())) {
    throw std::invalid_argument("IntervalIndex::insert: duplicate id " +
                                std::to_string(sub.id()));
  }

  const bool reused = !free_slots_.empty();
  std::uint32_t slot;
  if (reused) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(ids_.size());
    ids_.push_back(core::kInvalidSubscriptionId);
    ids32_.push_back(0);
    if (slot >= slot_capacity_) grow_bitmaps();
  }

  ids_[slot] = sub.id();
  ids32_[slot] = static_cast<std::uint32_t>(sub.id());
  if ((sub.id() >> 32) != 0) ++big_id_count_;
  (void)slot_of_.try_emplace(sub.id(), slot);
  // Outside a selective interval's bucket span its rows are zero, so only
  // the union of the new span and the previous occupant's needs writing
  // (a wide interval spans every bucket, a never-used slot spans none).
  for (std::size_t j = 0; j < m_; ++j) {
    const bool wide = is_wide(sub.range(j));
    const Interval iv = wide ? Interval::everything() : sub.range(j);
    std::size_t from = bucket_of(iv.lo);
    std::size_t to = bucket_of(iv.hi);
    if (!wide) ++selective_count_[j];
    if (reused) {
      const Interval previous = stored_range(slot, j);
      if (wide && is_wide(previous)) continue;  // already all-ones
      from = std::min(from, bucket_of(previous.lo));
      to = std::max(to, bucket_of(previous.hi));
    }
    write_mask_bits(j, slot, iv, from, to);
  }
  write_verify_row(slot, sub);
  const std::size_t occ_word = 2 * (slot / kWordBits);
  const Word occ_mask = Word{1} << (slot % kWordBits);
  occupied_bits_[occ_word] |= occ_mask;
  occupied_bits_[occ_word + 1] |= occ_mask;
  ++size_;
}

bool IntervalIndex::erase(SubscriptionId id) {
  const std::uint32_t* found = slot_of_.find(id);
  if (found == nullptr) return false;
  const std::uint32_t slot = *found;
  slot_of_.erase(id);
  if ((id >> 32) != 0) --big_id_count_;

  const std::size_t occ_word = 2 * (slot / kWordBits);
  const Word occ_mask = Word{1} << (slot % kWordBits);
  occupied_bits_[occ_word] &= ~occ_mask;
  occupied_bits_[occ_word + 1] &= ~occ_mask;
  // The slot's mask rows and verify record stay as they are (occupancy
  // hides them) until insert reuses the slot and rewrites them.
  for (std::size_t j = 0; j < m_; ++j) {
    if (!is_wide(stored_range(slot, j))) --selective_count_[j];
  }
  ids_[slot] = core::kInvalidSubscriptionId;
  free_slots_.push_back(slot);
  --size_;
  return true;
}

template <typename Verify>
std::uint64_t IntervalIndex::emit_candidates(
    std::vector<SubscriptionId>& out, Verify&& verify) const {
  const std::size_t paired = 2 * sweep_words();
  const Word* acc = acc_scratch_.data();
  if (certain_scratch_.size() < slot_capacity_) {
    certain_scratch_.resize(slot_capacity_);
    verify_scratch_.resize(slot_capacity_);
  }
  // Pass 1: decode the paired accumulator into certain / uncertain slot
  // lists (word-at-a-time bit iteration, whole zero blocks skipped).
  std::uint32_t* certain = certain_scratch_.data();
  std::uint32_t* uncertain = verify_scratch_.data();
  std::size_t n_certain = 0, n_uncertain = 0;
  for (std::size_t w = 0; w < paired; w += 2 * simd::kBlockWords) {
    if (simd::testz(acc + w, 2 * simd::kBlockWords)) continue;
    for (std::size_t k = w; k < w + 2 * simd::kBlockWords; k += 2) {
      const Word possible = acc[k];
      if (possible == 0) continue;
      const Word sure = possible & acc[k + 1];
      const auto base = static_cast<std::uint32_t>((k / 2) * kWordBits);
      Word bits = sure;
      while (bits != 0) {
        certain[n_certain++] =
            base + static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
      }
      bits = possible & ~sure;
      while (bits != 0) {
        uncertain[n_uncertain++] =
            base + static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
      }
    }
  }
  // Pass 2: emit. Certainty-certified slots only touch the id array (the
  // 32-bit shadow while every live id fits); the uncertain residue runs
  // the exact SIMD verify against the packed records. Software prefetch
  // hides the data-dependent line fetches both loops are bound by.
  const bool small_ids = big_id_count_ == 0;
  const double* blob = verify_blob_.data();
  const std::size_t row_doubles = verify_row_doubles();
  for (std::size_t i = 0; i < n_certain; ++i) {
    if (i + 32 < n_certain) {
      simd::prefetch(small_ids
                         ? static_cast<const void*>(ids32_.data() + certain[i + 32])
                         : static_cast<const void*>(ids_.data() + certain[i + 32]));
    }
    const std::uint32_t slot = certain[i];
    out.push_back(small_ids ? ids32_[slot] : ids_[slot]);
  }
  for (std::size_t i = 0; i < n_uncertain; ++i) {
    if (i + 16 < n_uncertain) {
      simd::prefetch(blob + uncertain[i + 16] * row_doubles);
    }
    const std::uint32_t slot = uncertain[i];
    if (verify(slot)) out.push_back(small_ids ? ids32_[slot] : ids_[slot]);
  }
  return n_certain + n_uncertain;
}

template <typename Endpoints>
bool IntervalIndex::sweep_endpoints(Endpoints&& endpoints) const {
  const std::size_t paired = 2 * sweep_words();
  if (acc_scratch_.size() < 2 * words_) acc_scratch_.resize(2 * words_);
  Word* acc = acc_scratch_.data();
  std::copy_n(occupied_bits_.begin(), paired, acc);

  // Fused paired-lane sweep with per-attribute early exit. A slot holds
  // [lo, hi] on attribute j iff it holds both endpoints, so j ANDs the
  // rows of bucket(lo) and bucket(hi), one row when they coincide. A slot
  // certain in both rows has lo' < lo and hi < hi' (a wide slot: only
  // inside the domain), so the certain lane is trusted only when both
  // endpoints are in-domain (see the header); otherwise it is zeroed and
  // that attribute's contribution falls back to verify-everything.
  bool zero_certain = false;
  for (std::size_t j = 0; j < m_; ++j) {
    const Interval q = endpoints(j);
    const bool trusted = in_domain(q.lo) && in_domain(q.hi);
    if (selective_count_[j] == 0) {
      // Nobody live constrains j selectively: every live slot is wide on
      // it, so the possible lane is all-ones and the sweep skips the AND.
      // The implicit all-ones certain lane is only valid in-domain.
      if (!trusted) zero_certain = true;
      continue;
    }
    const std::size_t first = bucket_of(q.lo);
    const std::size_t last = bucket_of(q.hi);
    for (const std::size_t bucket : {first, last}) {
      const Word* row = pair_row(j, bucket);
      const bool alive = trusted ? simd::and_into(acc, row, paired)
                                 : simd::and_into_even(acc, row, paired);
      if (!alive) return false;
      if (last == first) break;
    }
  }
  if (zero_certain) simd::zero_odd_words(acc, paired);
  return true;
}

template <typename Verify4>
std::uint64_t IntervalIndex::emit_box_candidates(
    const Subscription& box, std::vector<SubscriptionId>& out,
    Verify4&& verify4) const {
  const std::size_t lanes = verify_groups_ * kVerifyGroup;
  double* qlo = query_pad_.data();
  double* qhi = query_pad_.data() + lanes;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    qlo[lane] = lane < m_ ? box.range(lane).lo : -kInf;
    qhi[lane] = lane < m_ ? box.range(lane).hi : kInf;
  }
  const double* blob = verify_blob_.data();
  const std::size_t row_doubles = verify_row_doubles();
  return emit_candidates(out, [&](std::uint32_t slot) {
    const double* rec = blob + slot * row_doubles;
    for (std::size_t g = 0; g < verify_groups_; ++g) {
      if (!verify4(qlo + g * kVerifyGroup, qhi + g * kVerifyGroup,
                   rec + g * 2 * kVerifyGroup)) {
        return false;
      }
    }
    return true;
  });
}

void IntervalIndex::pad_point(std::span<const Value> point) const noexcept {
  double* padded = query_pad_.data();
  for (std::size_t lane = 0; lane < verify_groups_ * kVerifyGroup; ++lane) {
    padded[lane] = lane < m_ ? point[lane] : 0.0;
  }
}

bool IntervalIndex::contains_padded_point(std::uint32_t slot) const noexcept {
  const double* padded = query_pad_.data();
  const double* rec = verify_blob_.data() + slot * verify_row_doubles();
  for (std::size_t g = 0; g < verify_groups_; ++g) {
    if (!simd::contains4(padded + g * kVerifyGroup, rec + g * 2 * kVerifyGroup)) {
      return false;
    }
  }
  return true;
}

void IntervalIndex::stab(std::span<const Value> point,
                         std::vector<SubscriptionId>& out) const {
  if (point.size() != m_) {
    throw std::invalid_argument("IntervalIndex::stab: schema mismatch");
  }
  last_query_cost_ = 0;
  // A NaN value lies in no interval (Interval::contains compares false).
  if (size_ == 0 || std::any_of(point.begin(), point.end(),
                                [](Value v) { return std::isnan(v); })) {
    return;
  }
  if (!sweep_endpoints(
          [&](std::size_t j) { return Interval::point(point[j]); })) {
    return;
  }
  pad_point(point);
  last_query_cost_ = emit_candidates(
      out, [&](std::uint32_t slot) { return contains_padded_point(slot); });
}

bool IntervalIndex::stab_any(std::span<const Value> point) const {
  if (point.size() != m_) {
    throw std::invalid_argument("IntervalIndex::stab_any: schema mismatch");
  }
  last_query_cost_ = 0;
  if (size_ == 0 || std::any_of(point.begin(), point.end(),
                                [](Value v) { return std::isnan(v); })) {
    return false;
  }
  // The same rows and trust rules as stab's sweep_endpoints, swept in the
  // other order. sweep_endpoints is attribute-major: it ANDs each row over
  // every slot group before the next attribute, which stab needs because
  // it emits every survivor. An existence query needs only the first
  // survivor, so this loop is word-major: it ANDs one slot group word of
  // every row, answers from that word if it can, and reads the rest of
  // the rows only when it cannot. A match in the first words touches a
  // few cache lines per row instead of whole rows.
  bool trusted = true;
  std::size_t row_count = 0;
  const Word** rows = row_scratch_.data();
  for (std::size_t j = 0; j < m_; ++j) {
    // Only an in-domain probe value may trust the certain lane (see the
    // header); one untrusted attribute voids certainty for the probe.
    if (!in_domain(point[j])) trusted = false;
    // Nobody live constrains j selectively: every row is all-ones.
    if (selective_count_[j] == 0) continue;
    rows[row_count++] = pair_row(j, bucket_of(point[j]));
  }
  pad_point(point);
  const Word trust = trusted ? ~Word{0} : Word{0};
  const std::size_t paired = 2 * words_in_use();
  for (std::size_t w = 0; w < paired; w += 2) {
    Word possible = occupied_bits_[w];
    Word certain = possible & trust;
    for (std::size_t r = 0; r < row_count && possible != 0; ++r) {
      possible &= rows[r][w];
      certain &= rows[r][w + 1];
    }
    if (possible == 0) continue;
    if ((possible & certain) != 0) {
      ++last_query_cost_;
      return true;
    }
    // No certain survivor in this word: verify its candidates in
    // ascending slot order.
    const auto base = static_cast<std::uint32_t>((w / 2) * kWordBits);
    for (Word bits = possible; bits != 0; bits &= bits - 1) {
      ++last_query_cost_;
      if (contains_padded_point(
              base + static_cast<std::uint32_t>(std::countr_zero(bits)))) {
        return true;
      }
    }
  }
  return false;
}

std::vector<SubscriptionId> IntervalIndex::stab(
    std::span<const Value> point) const {
  std::vector<SubscriptionId> out;
  stab(point, out);
  return out;
}

void IntervalIndex::box_intersect(const Subscription& box,
                                  std::vector<SubscriptionId>& out) const {
  if (box.attribute_count() != m_) {
    throw std::invalid_argument("IntervalIndex::box_intersect: schema mismatch");
  }
  last_query_cost_ = 0;
  // A NaN bound intersects nothing (Interval::intersects compares false).
  if (size_ == 0 ||
      std::any_of(box.ranges().begin(), box.ranges().end(), [](const Interval& q) {
        return std::isnan(q.lo) || std::isnan(q.hi);
      })) {
    return;
  }
  const std::size_t wp = sweep_words();
  const std::size_t paired = 2 * wp;
  if (acc_scratch_.size() < 2 * words_) acc_scratch_.resize(2 * words_);
  if (or_possible_scratch_.size() < words_) {
    or_possible_scratch_.resize(words_);
    or_certain_scratch_.resize(words_);
  }
  Word* acc = acc_scratch_.data();
  std::copy_n(occupied_bits_.begin(), paired, acc);
  Word* or_possible = or_possible_scratch_.data();
  Word* or_certain = or_certain_scratch_.data();

  // Per attribute: OR the possible lane over the query's bucket span. A
  // slot overlapping any INTERIOR bucket of the span certainly intersects
  // on this attribute (the span's endpoint buckets only prove bucket-
  // granularity overlap), so the interior OR doubles as the certainty
  // contribution. Bucket-outer/word-inner order keeps each row streaming.
  bool zero_certain = false;
  for (std::size_t j = 0; j < m_; ++j) {
    const Interval& q = box.range(j);
    if (selective_count_[j] == 0) {
      // Every live slot is wide on j (covers the whole domain), which
      // certainly overlaps the query iff the query reaches strictly
      // inside the domain from both sides.
      if (!(bucket_of(q.hi) >= 1 &&
            bucket_of(q.lo) + 2 <= config_.bucket_count)) {
        zero_certain = true;
      }
      continue;
    }
    const std::size_t first = bucket_of(q.lo);
    const std::size_t last = bucket_of(q.hi);
    std::fill_n(or_certain, wp, Word{0});
    for (std::size_t b = first + 1; b + 1 <= last; ++b) {
      const Word* row = pair_row(j, b);
      for (std::size_t w = 0; w < wp; ++w) or_certain[w] |= row[2 * w];
    }
    std::copy_n(or_certain, wp, or_possible);
    {
      const Word* row = pair_row(j, first);
      for (std::size_t w = 0; w < wp; ++w) or_possible[w] |= row[2 * w];
    }
    if (last != first) {
      const Word* row = pair_row(j, last);
      for (std::size_t w = 0; w < wp; ++w) or_possible[w] |= row[2 * w];
    }
    Word any = 0;
    for (std::size_t w = 0; w < wp; ++w) {
      const Word possible = acc[2 * w] & or_possible[w];
      acc[2 * w] = possible;
      acc[2 * w + 1] &= or_certain[w];
      any |= possible;
    }
    if (any == 0) return;
  }
  if (zero_certain) simd::zero_odd_words(acc, paired);

  last_query_cost_ = emit_box_candidates(
      box, out, [](const double* qlo4, const double* qhi4, const double* rec8) {
        return simd::intersects4(qlo4, qhi4, rec8);
      });
}

std::vector<SubscriptionId> IntervalIndex::box_intersect(
    const Subscription& box) const {
  std::vector<SubscriptionId> out;
  box_intersect(box, out);
  return out;
}

void IntervalIndex::covering(const Subscription& box,
                             std::vector<SubscriptionId>& out) const {
  if (box.attribute_count() != m_) {
    throw std::invalid_argument("IntervalIndex::covering: schema mismatch");
  }
  last_query_cost_ = 0;
  // A NaN bound lies in no interval, and an empty range is reported as
  // covered by nothing (see the header).
  if (size_ == 0 ||
      std::any_of(box.ranges().begin(), box.ranges().end(),
                  [](const Interval& q) { return !(q.lo <= q.hi); })) {
    return;
  }
  if (!sweep_endpoints([&](std::size_t j) { return box.range(j); })) return;

  last_query_cost_ = emit_box_candidates(
      box, out, [](const double* qlo4, const double* qhi4, const double* rec8) {
        return simd::covers4(qlo4, qhi4, rec8);
      });
}

std::vector<SubscriptionId> IntervalIndex::covering(
    const Subscription& box) const {
  std::vector<SubscriptionId> out;
  covering(box, out);
  return out;
}

}  // namespace psc::index
