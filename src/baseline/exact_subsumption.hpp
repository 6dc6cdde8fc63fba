// Exact group-subsumption oracle via recursive box subtraction.
//
// Decides s ⊑ (s1 ∨ ... ∨ sk) deterministically by maintaining the residue
// of s after subtracting each candidate box: subtracting one box from an
// axis-aligned box yields at most 2m disjoint axis-aligned fragments.
// Worst-case exponential in k (the problem is co-NP complete), but entirely
// practical for the test-suite dimensions (m <= 8, k <= 64) where it serves
// as ground truth for the probabilistic engine, and for the Fig. 12
// false-decision counter.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/subscription.hpp"

namespace psc::baseline {

struct ExactResult {
  bool covered = false;
  /// Total uncovered measure left inside s (0 when covered). Zero-measure
  /// residues (degenerate slivers) count as covered under the continuous
  /// data model. A zero-measure s (an equality predicate) is decided in its
  /// own dimension: the measure is taken over its positive-width
  /// attributes only (a point s counts 1), and only candidates containing
  /// s on its zero-width attributes can cover it.
  core::Value uncovered_volume = 0.0;
  /// A point strictly inside the residue when not covered (a point witness).
  std::optional<std::vector<core::Value>> witness;
  /// Number of residue fragments examined (work metric for benchmarks).
  std::size_t fragments_processed = 0;
};

/// Exact decision with residue diagnostics. `fragment_limit` bounds the
/// explored fragment count to keep adversarial inputs from running away;
/// throws std::runtime_error if exceeded (tests use generous limits).
[[nodiscard]] ExactResult exact_subsumption(
    const core::Subscription& s, std::span<const core::Subscription> set,
    std::size_t fragment_limit = 1'000'000);

/// As above over a pointer set — the zero-copy entry point for callers
/// holding index-pruned candidate pointers. Precondition: no nulls.
[[nodiscard]] ExactResult exact_subsumption(
    const core::Subscription& s, std::span<const core::Subscription* const> set,
    std::size_t fragment_limit = 1'000'000);

/// Convenience: just the boolean verdict.
[[nodiscard]] bool exactly_covered(const core::Subscription& s,
                                   std::span<const core::Subscription> set);
[[nodiscard]] bool exactly_covered(
    const core::Subscription& s, std::span<const core::Subscription* const> set);

}  // namespace psc::baseline
