#include "core/fast_decisions.hpp"

namespace psc::core {

std::optional<std::size_t> find_pairwise_cover(const ConflictTable& table) {
  return table.first_all_undefined_row();
}

bool sorted_rows_prove_witness(const ConflictTable& table) {
  // In ascending order the rows with count t fill the positions up to
  // `position`, the number of rows with count <= t; the last of them is
  // the tightest, so every position holds iff t >= position for each
  // occupied bin. No rows (an empty union) proves non-coverage too.
  const std::span<const std::size_t> bins = table.defined_count_bins();
  std::size_t position = 0;
  for (std::size_t t = 0; t < bins.size(); ++t) {
    if (bins[t] == 0) continue;
    position += bins[t];
    if (t < position) return false;
  }
  return true;
}

FastDecisionResult run_fast_decisions(const ConflictTable& table) {
  FastDecisionResult result;
  if (auto row = find_pairwise_cover(table)) {
    result.decision = FastDecision::kCoveredPairwise;
    result.covering_row = row;
    return result;
  }
  if (sorted_rows_prove_witness(table)) {
    result.decision = FastDecision::kNotCoveredWitness;
  }
  return result;
}

FastDecisionResult run_fast_decisions(const ConflictTable& table,
                                      std::vector<std::size_t>& /*counts_scratch*/) {
  return run_fast_decisions(table);
}

}  // namespace psc::core
