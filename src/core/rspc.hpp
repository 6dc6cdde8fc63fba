// Random Simple Predicates Cover (paper, Algorithm 1): the Monte-Carlo core.
// Draw up to d uniform points inside s; if any point lies outside every
// subscription in S it is a *point witness* (Definition 4) and the answer is
// a definite NO. If all d draws land inside the union, answer a
// probabilistic YES with error at most (1 - rho_w)^d.
//
// The trial loop runs on flat rows (PackedBoxes): each candidate's closed
// bounds are packed once per check into one aligned [lo x M | hi x M]
// block, M = m rounded up to a multiple of 4, and a trial tests a row with
// one branch-free compare over all M lanes (simd::contains_box). The test
// is Subscription::contains_point's, lane for lane: `lo <= x && x <= hi`
// on the candidate's own bounds, so NaN and +-inf behave exactly as in
// Interval::contains. The row that contained the previous point is tried
// first; membership in the union does not depend on row order, so this
// changes no verdict, no draw and no iteration count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/publication.hpp"
#include "core/subscription.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace psc::core {

struct RspcResult {
  /// True = probabilistic YES (covered); false = definite NO.
  bool covered = true;
  /// Trials actually executed (<= budget; early exit on first witness).
  std::uint64_t iterations = 0;
  /// The point witness when covered == false.
  std::optional<std::vector<Value>> witness;
};

/// The flat rows one RSPC run reads: the tested subscription's per-attribute
/// lower bound and width (hoisted out of the trial loop, so a trial draws
/// x_j = lo_j + width_j * u exactly as util::Rng::uniform does) and one
/// packed box per candidate. Buffers keep their capacity across reset(),
/// so packing a same-size instance again allocates nothing.
class PackedBoxes {
 public:
  /// Starts an instance tested against `s` and drops every packed row;
  /// reserves room for `rows` candidates.
  void reset(const Subscription& s, std::size_t rows);

  /// Packs one candidate. Its padding lanes hold [-inf, +inf] and pass the
  /// zero padding of the sample point. A candidate whose arity differs from
  /// s's packs NaN bounds and contains no point, as contains_point.
  void add(const Subscription& candidate);

  /// Packs one candidate of s's arity from its conflict-table row
  /// (ConflictTable::row_bounds): bounds[2j] and bounds[2j + 1] are its
  /// range on attribute j. The lanes are add()'s for that candidate.
  void add_row(std::span<const Value> bounds);

  [[nodiscard]] std::size_t size() const noexcept { return rows_; }
  [[nodiscard]] std::size_t attribute_count() const noexcept { return m_; }
  /// M: the attribute count rounded up to a multiple of 4.
  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }

  /// True iff `point` (lanes() values) lies in row `row`'s closed box.
  [[nodiscard]] bool contains(std::size_t row, const Value* point) const noexcept {
    const Value* lo = boxes_.data() + row * 2 * lanes_;
    return simd::contains_box(point, lo, lo + lanes_, lanes_);
  }

  /// Throws std::invalid_argument unless every range of s is finite.
  void require_sampleable() const;

  /// Draws one uniform point of s into point[0, m), one draw per attribute
  /// in attribute order. Precondition: require_sampleable() passed.
  void draw(util::Rng& rng, Value* point) const noexcept {
    for (std::size_t j = 0; j < m_; ++j) {
      point[j] = lo_[j] + width_[j] * rng.next_double();
    }
  }

 private:
  std::size_t m_ = 0;
  std::size_t lanes_ = 0;
  std::size_t rows_ = 0;
  bool sampleable_ = false;
  std::vector<Value> lo_;     ///< s.lo_j
  std::vector<Value> width_;  ///< s.hi_j - s.lo_j
  simd::AlignedVector<Value> boxes_;

  /// Appends one row's block and returns its lo half.
  Value* append_row();
  /// Fills the padding lanes of the row whose lo half is `lo`.
  void pad_row(Value* lo) noexcept;
};

/// The RSPC trial kernel over packed rows: at most `budget` trials, early
/// exit on the first point witness. O(budget * k * M / 4) vector compares
/// worst case. The sample point lives in `point` (resized to lanes(),
/// capacity reused); the only allocation is the witness copy on a
/// definite NO. s must have finite ranges on every attribute: checked once,
/// before the first draw, and std::invalid_argument otherwise. An empty
/// row set is a definite NO whose witness is one drawn point (0 trials).
[[nodiscard]] RspcResult run_rspc(const PackedBoxes& boxes, std::uint64_t budget,
                                  util::Rng& rng, std::vector<Value>& point);

/// Adapters that pack `set` and run the kernel above (identical draws and
/// verdicts). They pack into a local PackedBoxes, which allocates; the
/// engine packs into its reusable workspace instead.
[[nodiscard]] RspcResult run_rspc(const Subscription& s,
                                  std::span<const Subscription> set,
                                  std::uint64_t budget, util::Rng& rng);
[[nodiscard]] RspcResult run_rspc(const Subscription& s,
                                  std::span<const Subscription* const> set,
                                  std::uint64_t budget, util::Rng& rng,
                                  std::vector<Value>& point_scratch);

}  // namespace psc::core
