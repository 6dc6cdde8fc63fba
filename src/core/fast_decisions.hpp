// Deterministic fast paths of the decision pipeline (paper, Section 4.3):
//   1. Pairwise cover  -> definite YES   (Corollary 1: some row all-undefined)
//   2. Sorted-row test -> definite NO    (Corollary 3: t_{i_j} >= j for all j,
//      which proves a polyhedron witness exists)
//
// Both read the defined-count tally every ConflictTable rebuild keeps (the
// first all-undefined row and 2m + 1 count bins), so a decision costs
// O(m): Corollary 3's sorted order is the bins' order, walked once with no
// copy and no sort.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/conflict_table.hpp"

namespace psc::core {

/// Outcome of the deterministic fast checks.
enum class FastDecision : std::uint8_t {
  kCoveredPairwise,    ///< Corollary 1 fired: a single s_i covers s
  kNotCoveredWitness,  ///< Corollary 3 fired: polyhedron witness must exist
  kInconclusive,       ///< neither corollary applies; run MCS + RSPC
};

struct FastDecisionResult {
  FastDecision decision = FastDecision::kInconclusive;
  /// Row index of the covering subscription when kCoveredPairwise.
  std::optional<std::size_t> covering_row;
};

/// Runs Corollary 1 then Corollary 3 on a built conflict table. O(m).
[[nodiscard]] FastDecisionResult run_fast_decisions(const ConflictTable& table);

/// As above. The scratch vector is not read or written; the overload stays
/// for callers written against the earlier sort-based test.
[[nodiscard]] FastDecisionResult run_fast_decisions(
    const ConflictTable& table, std::vector<std::size_t>& counts_scratch);

/// Corollary 1 alone: first row with zero defined entries, if any.
[[nodiscard]] std::optional<std::size_t> find_pairwise_cover(const ConflictTable& table);

/// Corollary 3: true iff sorting rows by ascending defined-count t gives
/// t_{(j)} >= j for every 1-based position j, proving non-coverage.
[[nodiscard]] bool sorted_rows_prove_witness(const ConflictTable& table);

}  // namespace psc::core
