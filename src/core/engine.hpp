// SubsumptionEngine — the full decision pipeline of the paper's Algorithm 4:
//
//   prefilter + conflict table (one pass per candidate: drop zero-measure
//                               intersections with s, fill the kept rows,
//                               tally their defined counts)
//     -> Corollary 1 fast YES   (pairwise cover: the first all-undefined row)
//     -> Corollary 3 fast NO    (sorted-row polyhedron witness: one walk
//                               over the count tally)
//     -> MCS reduction          (empty reduced set => definite NO)
//     -> rho_w / d estimation   (Algorithm 2 + Equation 1, read off MCS's
//                               column extremes in O(m))
//     -> RSPC                   (definite NO or probabilistic YES)
//
// Each stage after the candidate read costs O(m) or O(defined entries) on
// top of what an earlier stage already holds; the verdicts, draws and
// iteration counts are those of running the public stage functions one
// after another.
//
// A definite NO is always correct. A probabilistic YES errs with
// probability at most delta = (1 - rho_w)^d, the paper's only error mode
// (a falsely-withheld subscription).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/conflict_table.hpp"
#include "core/mcs.hpp"
#include "core/rspc.hpp"
#include "core/witness_estimate.hpp"
#include "util/rng.hpp"

namespace psc::core {

/// How the pipeline reached its verdict.
enum class DecisionPath : std::uint8_t {
  kEmptySet,            ///< no candidate subscriptions: definite NO
  kPairwiseCover,       ///< Corollary 1: definite YES
  kPolyhedronWitness,   ///< Corollary 3: definite NO
  kMcsEmpty,            ///< MCS removed every candidate: definite NO
  kRspcWitness,         ///< RSPC found a point witness: definite NO
  kRspcProbabilistic,   ///< RSPC exhausted d trials: probabilistic YES
};

[[nodiscard]] std::string_view to_string(DecisionPath path) noexcept;

/// Full diagnostics for one subsumption query.
struct SubsumptionResult {
  bool covered = false;              ///< the verdict
  bool is_definite = true;           ///< false only for kRspcProbabilistic
  DecisionPath path = DecisionPath::kEmptySet;

  std::size_t original_set_size = 0; ///< k before reduction
  std::size_t reduced_set_size = 0;  ///< |S'| after MCS (when MCS ran)
  bool mcs_ran = false;

  double rho_w = 0.0;                ///< witness-probability estimate
  double theoretical_d = 0.0;        ///< Eq. 1 bound (may be +inf)
  std::uint64_t trial_budget = 0;    ///< capped trials handed to RSPC
  std::uint64_t iterations = 0;      ///< RSPC trials actually executed
  /// The error bound this run achieved: (1 - rho_w)^iterations on a
  /// probabilistic YES, 0 on a definite verdict. Above config().delta when
  /// the max_iterations cap cut the run short of theoretical_d trials.
  double achieved_error_bound = 0.0;

  /// Point witness when the verdict came from RSPC sampling.
  std::optional<std::vector<Value>> witness;
  /// Row index (into the caller's set) of the covering subscription when
  /// the pairwise fast path fired.
  std::optional<std::size_t> covering_index;
};

/// Tuning knobs for the pipeline.
struct EngineConfig {
  double delta = 1e-6;               ///< target error bound (0 < delta < 1)
  std::uint64_t max_iterations = 1'000'000;  ///< hard RSPC budget cap
  bool use_fast_decisions = true;    ///< Corollary 1 / Corollary 3 paths
  bool use_mcs = true;               ///< run the reduction before RSPC
  /// Volume measure for the rho_w estimate: 0 = continuous widths; > 0 =
  /// the paper's integer-point counting on a grid of this spacing (see
  /// estimate_witness_probability).
  double grid_spacing = 0.0;
};

/// Reusable scratch state for SubsumptionEngine::check. Owned by the
/// engine; every buffer is cleared-and-refilled per query so its capacity
/// survives across checks and steady-state queries (same working-set size)
/// perform zero heap allocations. The only remaining allocation paths are
/// capacity growth on a larger-than-ever query and the witness copy
/// returned with a definite NO.
struct EngineWorkspace {
  std::vector<const Subscription*> input;     ///< value-span adapter
  std::vector<std::size_t> original_index;    ///< table row -> caller index
  ConflictTable table;                        ///< prefilter survivors' rows
  McsResult mcs;                              ///< kept rows (all without MCS)
  McsScratch mcs_scratch;                     ///< alive mask, columns, lists
  PackedBoxes boxes;                          ///< RSPC rows: the kept rows
  std::vector<Value> point;                   ///< RSPC sample buffer
};

/// Stateless-except-RNG checker. One instance may serve many queries; the
/// RNG stream advances per query, keeping runs reproducible from the seed.
///
/// Thread-safety: NOT safe for concurrent check() calls on one instance —
/// the engine owns a reusable workspace and an RNG stream, both mutated
/// per query. Use one engine per thread; every SubscriptionStore embeds
/// its own engine.
///
/// Error behavior: the constructor and set_config validate the config and
/// throw std::invalid_argument on violations (delta outside (0,1),
/// zero iteration budget, negative grid spacing); check() itself never
/// throws on well-formed subscriptions and allocates only on capacity
/// growth or when returning a witness (see EngineWorkspace).
class SubsumptionEngine {
 public:
  explicit SubsumptionEngine(EngineConfig config = {},
                             std::uint64_t seed = 0x5eedf00dULL);

  /// Decides s ⊑ (set[0] ∨ ... ∨ set[k-1]) per Algorithm 4.
  /// Preconditions: s has finite ranges on every attribute (RSPC samples
  /// uniformly inside s) and every candidate shares s's attribute schema;
  /// candidate ranges may be unbounded. A definite verdict is always
  /// correct; a probabilistic YES (is_definite == false) errs with
  /// probability at most config().delta.
  [[nodiscard]] SubsumptionResult check(const Subscription& s,
                                        std::span<const Subscription> set);

  /// As above over a pointer set — the zero-copy entry point used by the
  /// store layer after index pruning. Precondition: no null pointers.
  [[nodiscard]] SubsumptionResult check(const Subscription& s,
                                        std::span<const Subscription* const> set);

  /// Convenience overload.
  [[nodiscard]] SubsumptionResult check(const Subscription& s,
                                        const std::vector<Subscription>& set) {
    return check(s, std::span<const Subscription>(set));
  }

  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  void set_config(const EngineConfig& config);

  /// Direct access to the RNG (tests inject known streams; the store
  /// snapshot captures/restores the stream for replay-identical restore).
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] const util::Rng& rng() const noexcept { return rng_; }

 private:
  EngineConfig config_;
  util::Rng rng_;
  EngineWorkspace ws_;
};

/// Validates config invariants; throws std::invalid_argument on violation.
void validate(const EngineConfig& config);

}  // namespace psc::core
