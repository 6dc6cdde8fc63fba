#include "core/engine.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/fast_decisions.hpp"

namespace psc::core {

std::string_view to_string(DecisionPath path) noexcept {
  switch (path) {
    case DecisionPath::kEmptySet: return "empty-set";
    case DecisionPath::kPairwiseCover: return "pairwise-cover";
    case DecisionPath::kPolyhedronWitness: return "polyhedron-witness";
    case DecisionPath::kMcsEmpty: return "mcs-empty";
    case DecisionPath::kRspcWitness: return "rspc-witness";
    case DecisionPath::kRspcProbabilistic: return "rspc-probabilistic";
  }
  return "unknown";
}

void validate(const EngineConfig& config) {
  if (!(config.delta > 0.0 && config.delta < 1.0)) {
    throw std::invalid_argument("EngineConfig: delta must be in (0, 1)");
  }
  if (config.max_iterations == 0) {
    throw std::invalid_argument("EngineConfig: max_iterations must be > 0");
  }
  if (config.grid_spacing < 0.0) {
    throw std::invalid_argument("EngineConfig: grid_spacing must be >= 0");
  }
}

SubsumptionEngine::SubsumptionEngine(EngineConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  validate(config_);
}

void SubsumptionEngine::set_config(const EngineConfig& config) {
  validate(config);
  config_ = config;
}

SubsumptionResult SubsumptionEngine::check(const Subscription& s,
                                           std::span<const Subscription> set) {
  ws_.input.clear();
  ws_.input.reserve(set.size());
  for (const Subscription& si : set) ws_.input.push_back(&si);
  return check(s, std::span<const Subscription* const>(ws_.input));
}

SubsumptionResult SubsumptionEngine::check(
    const Subscription& s, std::span<const Subscription* const> set) {
  SubsumptionResult result;
  result.original_set_size = set.size();

  // Prefilter: a candidate sharing no positive-measure region with s
  // cannot contribute to covering s (it adds nothing to the union over s);
  // dropping it up front skips its conflict-table row and all MCS work on
  // it. The same pass fills the survivors' rows and tallies their defined
  // counts. Indices are remembered so diagnostics still refer to the
  // caller's set.
  ws_.table.rebuild_relevant(s, set, ws_.original_index);
  const ConflictTable& table = ws_.table;
  result.reduced_set_size = table.row_count();

  if (table.row_count() == 0) {
    result.covered = false;
    result.path = result.original_set_size > 0 ? DecisionPath::kMcsEmpty
                                               : DecisionPath::kEmptySet;
    return result;
  }

  if (config_.use_fast_decisions) {
    const FastDecisionResult fast = run_fast_decisions(table);
    if (fast.decision == FastDecision::kCoveredPairwise) {
      result.covered = true;
      result.path = DecisionPath::kPairwiseCover;
      result.covering_index = ws_.original_index[*fast.covering_row];
      return result;
    }
    if (fast.decision == FastDecision::kNotCoveredWitness) {
      result.covered = false;
      result.path = DecisionPath::kPolyhedronWitness;
      return result;
    }
  }

  // MCS keeps a subset of the table's rows; rho_w, d and RSPC all work on
  // those rows. Without MCS every row is kept. rho_w / d are estimated on
  // the kept rows only: fewer rows can only widen the per-attribute
  // minimum gaps, which is exactly the effect the paper's Figures 7 and 9
  // measure. After MCS the gaps come from its column extremes, which
  // already span exactly the kept rows.
  WitnessEstimate estimate;
  if (config_.use_mcs) {
    run_mcs(table, ws_.mcs, ws_.mcs_scratch);
    result.mcs_ran = true;
    result.reduced_set_size = ws_.mcs.kept.size();
    if (ws_.mcs.empty()) {
      result.covered = false;
      result.path = DecisionPath::kMcsEmpty;
      return result;
    }
    estimate = estimate_witness_probability(s, ws_.mcs_scratch.columns,
                                            config_.grid_spacing);
  } else {
    ws_.mcs.kept.resize(table.row_count());
    std::iota(ws_.mcs.kept.begin(), ws_.mcs.kept.end(), std::size_t{0});
    estimate = estimate_witness_probability(table, ws_.mcs.kept, config_.grid_spacing);
  }
  const std::span<const std::size_t> kept = ws_.mcs.kept;
  result.rho_w = estimate.rho_w;
  result.theoretical_d =
      estimate.rho_w > 0.0
          ? theoretical_trials(estimate.rho_w, config_.delta)
          : std::numeric_limits<double>::infinity();
  result.trial_budget =
      capped_trials(estimate.rho_w, config_.delta, config_.max_iterations);

  ws_.boxes.reset(s, kept.size());
  for (const std::size_t row : kept) ws_.boxes.add_row(table.row_bounds(row));
  RspcResult rspc = run_rspc(ws_.boxes, result.trial_budget, rng_, ws_.point);
  result.iterations = rspc.iterations;
  if (!rspc.covered) {
    result.covered = false;
    result.path = DecisionPath::kRspcWitness;
    result.witness = std::move(rspc.witness);
    return result;
  }
  result.covered = true;
  result.is_definite = false;
  result.path = DecisionPath::kRspcProbabilistic;
  result.achieved_error_bound =
      std::exp(static_cast<double>(result.iterations) * std::log1p(-estimate.rho_w));
  return result;
}

}  // namespace psc::core
