#include "core/fast_decisions.hpp"

#include <algorithm>

namespace psc::core {

std::optional<std::size_t> find_pairwise_cover(const ConflictTable& table) {
  for (std::size_t row = 0; row < table.row_count(); ++row) {
    if (table.row_all_undefined(row)) return row;
  }
  return std::nullopt;
}

namespace {

bool sorted_rows_prove_witness_scratch(const ConflictTable& table,
                                       std::vector<std::size_t>& counts) {
  const std::size_t k = table.row_count();
  if (k == 0) return true;  // empty union covers nothing non-empty
  counts.resize(k);
  for (std::size_t row = 0; row < k; ++row) counts[row] = table.defined_count(row);
  std::sort(counts.begin(), counts.end());
  for (std::size_t j = 0; j < k; ++j) {
    // 1-based position j+1 must not exceed t at that position.
    if (counts[j] < j + 1) return false;
  }
  return true;
}

}  // namespace

bool sorted_rows_prove_witness(const ConflictTable& table) {
  std::vector<std::size_t> counts;
  return sorted_rows_prove_witness_scratch(table, counts);
}

FastDecisionResult run_fast_decisions(const ConflictTable& table,
                                      std::vector<std::size_t>& counts_scratch) {
  FastDecisionResult result;
  if (auto row = find_pairwise_cover(table)) {
    result.decision = FastDecision::kCoveredPairwise;
    result.covering_row = row;
    return result;
  }
  if (sorted_rows_prove_witness_scratch(table, counts_scratch)) {
    result.decision = FastDecision::kNotCoveredWitness;
    return result;
  }
  return result;
}

FastDecisionResult run_fast_decisions(const ConflictTable& table) {
  std::vector<std::size_t> counts;
  return run_fast_decisions(table, counts);
}

}  // namespace psc::core
