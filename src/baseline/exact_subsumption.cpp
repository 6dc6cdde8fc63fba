#include "baseline/exact_subsumption.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

namespace psc::baseline {

namespace {

using core::Interval;
using core::Subscription;
using core::Value;

/// Lightweight box (no id, no invariant checks) for the residue worklist.
/// Every function below works on `axes`, the attributes where the tested
/// subscription has positive width (all of them unless it is zero-measure):
/// a zero-width attribute stays pinned to s's value and carries no
/// measure.
struct Box {
  std::vector<Interval> ranges;
};

using Axes = std::span<const std::size_t>;

bool positive_measure(const Box& box, Axes axes) noexcept {
  for (const std::size_t j : axes) {
    if (!(box.ranges[j].width() > 0.0)) return false;
  }
  return true;
}

Value volume(const Box& box, Axes axes) noexcept {
  Value v = 1.0;
  for (const std::size_t j : axes) v *= box.ranges[j].width();
  return v;
}

/// True iff `cut` (a subscription) fully contains `box`.
bool contains(const Subscription& cut, const Box& box, Axes axes) {
  for (const std::size_t j : axes) {
    if (!cut.range(j).contains(box.ranges[j])) return false;
  }
  return true;
}

/// True iff `cut` and `box` share positive measure.
bool overlaps(const Subscription& cut, const Box& box, Axes axes) {
  for (const std::size_t j : axes) {
    if (!cut.range(j).overlaps_interior(box.ranges[j])) return false;
  }
  return true;
}

/// Splits `box` minus `cut` into disjoint fragments appended to `out`.
/// Classic axis sweep: peel the slab below cut.lo and above cut.hi on each
/// axis, then shrink the box to the overlap and continue with the next axis.
void subtract(const Subscription& cut, Box box, Axes axes,
              std::vector<Box>& out) {
  for (const std::size_t j : axes) {
    const Interval cut_range = cut.range(j);
    const Interval box_range = box.ranges[j];
    if (cut_range.lo > box_range.lo) {
      Box below = box;
      below.ranges[j] = {box_range.lo, std::min(cut_range.lo, box_range.hi)};
      if (positive_measure(below, axes)) out.push_back(std::move(below));
    }
    if (cut_range.hi < box_range.hi) {
      Box above = box;
      above.ranges[j] = {std::max(cut_range.hi, box_range.lo), box_range.hi};
      if (positive_measure(above, axes)) out.push_back(std::move(above));
    }
    // Continue with the part of the box inside cut's span on axis j.
    box.ranges[j] = box_range.intersect(cut_range);
    if (!(box.ranges[j].width() > 0.0)) return;  // nothing left to carve
  }
}

}  // namespace

namespace {

const Subscription& deref(const Subscription& sub) noexcept { return sub; }
const Subscription& deref(const Subscription* sub) noexcept { return *sub; }

/// Shared residue-subtraction core over either a value span or a pointer
/// span (the store layer works with index-pruned pointer sets).
template <typename SetSpan>
ExactResult exact_subsumption_impl(const Subscription& s, SetSpan set,
                                   std::size_t fragment_limit) {
  ExactResult result;
  std::vector<Box> residue;
  residue.push_back(Box{{s.ranges().begin(), s.ranges().end()}});

  // A zero-measure s (an equality predicate on some attribute) is decided
  // in its own dimension: the residue lives on s's positive-width
  // attributes, and only a candidate that contains s on the zero-width
  // ones can cut it — any other misses s entirely.
  std::vector<std::size_t> axes, pinned;
  for (std::size_t j = 0; j < s.attribute_count(); ++j) {
    (s.range(j).width() > 0.0 ? axes : pinned).push_back(j);
  }
  const auto misses_pinned = [&](const Subscription& cut) {
    return std::any_of(pinned.begin(), pinned.end(), [&](std::size_t j) {
      return !cut.range(j).contains(s.range(j));
    });
  };

  for (const auto& element : set) {
    const Subscription& cut = deref(element);
    if (residue.empty()) break;
    if (misses_pinned(cut)) continue;
    std::vector<Box> next;
    next.reserve(residue.size());
    for (Box& box : residue) {
      ++result.fragments_processed;
      if (result.fragments_processed > fragment_limit) {
        throw std::runtime_error("exact_subsumption: fragment limit exceeded");
      }
      if (contains(cut, box, axes)) continue;  // fragment fully eliminated
      if (!overlaps(cut, box, axes)) {
        next.push_back(std::move(box));  // untouched
        continue;
      }
      subtract(cut, std::move(box), axes, next);
    }
    residue = std::move(next);
  }

  if (residue.empty()) {
    result.covered = true;
    return result;
  }

  result.covered = false;
  for (const Box& box : residue) result.uncovered_volume += volume(box, axes);
  // Center of the first residue fragment is strictly inside it: a witness.
  std::vector<Value> witness;
  witness.reserve(residue.front().ranges.size());
  for (const Interval& r : residue.front().ranges) {
    witness.push_back(0.5 * (r.lo + r.hi));
  }
  result.witness = std::move(witness);
  return result;
}

}  // namespace

ExactResult exact_subsumption(const Subscription& s,
                              std::span<const Subscription> set,
                              std::size_t fragment_limit) {
  return exact_subsumption_impl(s, set, fragment_limit);
}

ExactResult exact_subsumption(const Subscription& s,
                              std::span<const Subscription* const> set,
                              std::size_t fragment_limit) {
  return exact_subsumption_impl(s, set, fragment_limit);
}

bool exactly_covered(const Subscription& s,
                     std::span<const Subscription> set) {
  return exact_subsumption(s, set).covered;
}

bool exactly_covered(const Subscription& s,
                     std::span<const Subscription* const> set) {
  return exact_subsumption(s, set).covered;
}

}  // namespace psc::baseline
