// Differential identity of SubsumptionEngine::check, whose stages share
// work (one prefilter-and-table pass per candidate, fast decisions from the
// table's defined-count tally, MCS recomputes over per-column lists, rho_w
// from MCS's column extremes), against a reference pipeline that runs each
// stage on its own: the candidate-by-candidate prefilter, the 1:1
// ConflictTable, Corollaries 1 and 3 as the paper states them (the first
// all-undefined row; the sorted counts), Algorithm 3 applied literally
// (reference_mcs.hpp), the row-walk rho_w estimate, capped_trials and the
// pointer-span run_rspc. Every SubsumptionResult field and the RNG state
// after every check must match bit for bit, including the throw when s
// cannot be sampled. The public stage functions are checked against the
// same references on the same instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/fast_decisions.hpp"
#include "reference_mcs.hpp"
#include "util/rng.hpp"
#include "workload/scenarios.hpp"

namespace psc::core {
namespace {

constexpr Value kInf = std::numeric_limits<Value>::infinity();
constexpr Value kNaN = std::numeric_limits<Value>::quiet_NaN();

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// --- reference pipeline ---------------------------------------------------

/// Corollary 1 as stated: the first row with no defined entry.
std::optional<std::size_t> reference_pairwise_cover(const ConflictTable& table) {
  for (std::size_t row = 0; row < table.row_count(); ++row) {
    if (table.defined_count(row) == 0) return row;
  }
  return std::nullopt;
}

/// Corollary 3 as stated: sorted ascending, t_(j) >= j for every 1-based j.
bool sorted_counts_prove_witness(const ConflictTable& table) {
  std::vector<std::size_t> counts;
  for (std::size_t row = 0; row < table.row_count(); ++row) {
    counts.push_back(table.defined_count(row));
  }
  std::sort(counts.begin(), counts.end());
  for (std::size_t j = 0; j < counts.size(); ++j) {
    if (counts[j] < j + 1) return false;
  }
  return true;
}

/// The candidates the engine keeps: those that overlap s's interior or
/// cover s, and their positions in `set`.
struct Prefiltered {
  std::vector<const Subscription*> rows;
  std::vector<std::size_t> original_index;
};

Prefiltered prefilter(const Subscription& s, std::span<const Subscription* const> set) {
  Prefiltered out;
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (s.overlaps_interior(*set[i]) || set[i]->covers(s)) {
      out.rows.push_back(set[i]);
      out.original_index.push_back(i);
    }
  }
  return out;
}

SubsumptionResult reference_check(const EngineConfig& config, util::Rng& rng,
                                  const Subscription& s,
                                  std::span<const Subscription* const> set) {
  SubsumptionResult result;
  result.original_set_size = set.size();
  const Prefiltered filtered = prefilter(s, set);
  result.reduced_set_size = filtered.rows.size();
  if (filtered.rows.empty()) {
    result.path = set.empty() ? DecisionPath::kEmptySet : DecisionPath::kMcsEmpty;
    return result;
  }
  const ConflictTable table(s, std::span<const Subscription* const>(filtered.rows));

  if (config.use_fast_decisions) {
    if (const auto row = reference_pairwise_cover(table)) {
      result.covered = true;
      result.path = DecisionPath::kPairwiseCover;
      result.covering_index = filtered.original_index[*row];
      return result;
    }
    if (sorted_counts_prove_witness(table)) {
      result.path = DecisionPath::kPolyhedronWitness;
      return result;
    }
  }

  std::vector<std::size_t> kept;
  if (config.use_mcs) {
    kept = reference::reference_mcs(table).kept;
    result.mcs_ran = true;
    result.reduced_set_size = kept.size();
    if (kept.empty()) {
      result.path = DecisionPath::kMcsEmpty;
      return result;
    }
  } else {
    kept.resize(table.row_count());
    std::iota(kept.begin(), kept.end(), std::size_t{0});
  }

  const WitnessEstimate estimate =
      estimate_witness_probability(table, kept, config.grid_spacing);
  result.rho_w = estimate.rho_w;
  result.theoretical_d = estimate.rho_w > 0.0
                             ? theoretical_trials(estimate.rho_w, config.delta)
                             : kInf;
  result.trial_budget =
      capped_trials(estimate.rho_w, config.delta, config.max_iterations);

  std::vector<const Subscription*> kept_rows;
  for (const std::size_t row : kept) kept_rows.push_back(filtered.rows[row]);
  std::vector<Value> point;
  RspcResult rspc = run_rspc(s, kept_rows, result.trial_budget, rng, point);
  result.iterations = rspc.iterations;
  if (!rspc.covered) {
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

void expect_same_result(const SubsumptionResult& got, const SubsumptionResult& want,
                        const std::string& where) {
  EXPECT_EQ(got.covered, want.covered) << where;
  EXPECT_EQ(got.is_definite, want.is_definite) << where;
  EXPECT_EQ(got.path, want.path) << where;
  EXPECT_EQ(got.original_set_size, want.original_set_size) << where;
  EXPECT_EQ(got.reduced_set_size, want.reduced_set_size) << where;
  EXPECT_EQ(got.mcs_ran, want.mcs_ran) << where;
  EXPECT_TRUE(same_bits(got.rho_w, want.rho_w))
      << where << ": rho_w " << got.rho_w << " vs " << want.rho_w;
  EXPECT_TRUE(same_bits(got.theoretical_d, want.theoretical_d)) << where;
  EXPECT_EQ(got.trial_budget, want.trial_budget) << where;
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_TRUE(same_bits(got.achieved_error_bound, want.achieved_error_bound)) << where;
  ASSERT_EQ(got.witness.has_value(), want.witness.has_value()) << where;
  if (got.witness) {
    ASSERT_EQ(got.witness->size(), want.witness->size()) << where;
    for (std::size_t j = 0; j < got.witness->size(); ++j) {
      EXPECT_TRUE(same_bits((*got.witness)[j], (*want.witness)[j])) << where;
    }
  }
  EXPECT_EQ(got.covering_index, want.covering_index) << where;
}

// --- instances ------------------------------------------------------------

/// A bound on a coarse grid, so candidates tie with each other and with
/// s's bounds; now and then unbounded or NaN.
Value grid_bound(util::Rng& rng) {
  switch (rng.next_below(40)) {
    case 0: return -kInf;
    case 1: return kInf;
    case 2: return kNaN;
    default: return static_cast<Value>(rng.uniform_int(-2, 12));
  }
}

Subscription grid_candidate(util::Rng& rng, std::size_t m, SubscriptionId id) {
  if (rng.bernoulli(0.03)) return Subscription::everything(m, id);
  std::vector<Interval> ranges(m);
  for (Interval& range : ranges) {
    Value lo = grid_bound(rng), hi = grid_bound(rng);
    if (lo > hi) std::swap(lo, hi);
    range = {lo, hi};
  }
  return Subscription(std::move(ranges), id);
}

/// s on the grid: mostly finite boxes, some degenerate attributes, and
/// now and then an unsampleable bound (+-inf, NaN) or an empty range.
Subscription grid_tested(util::Rng& rng, std::size_t m) {
  std::vector<Interval> ranges(m);
  for (Interval& range : ranges) {
    const auto lo = static_cast<Value>(rng.uniform_int(0, 6));
    const auto width = static_cast<Value>(rng.uniform_int(1, 6));
    range = rng.bernoulli(0.1) ? Interval::point(lo) : Interval{lo, lo + width};
  }
  const std::size_t odd = rng.next_below(m);
  switch (rng.next_below(25)) {
    case 0: ranges[odd].lo = -kInf; break;
    case 1: ranges[odd].hi = kInf; break;
    case 2: ranges[odd].hi = kNaN; break;
    case 3: ranges[odd].lo = kNaN; break;
    case 4: case 5: {
      // An empty range: only Subscription::intersect builds one.
      std::vector<Interval> other(m, Interval::everything());
      other[odd] = {ranges[odd].hi + 1, ranges[odd].hi + 2};
      return Subscription(std::move(ranges)).intersect(Subscription(std::move(other)));
    }
    default: break;
  }
  return Subscription(std::move(ranges));
}

/// One instance: s and the candidate set, drawn from the grid mix or from
/// the paper's scenario generators with a few odd candidates appended.
struct Instance {
  Subscription s;
  std::vector<Subscription> set;
};

Instance make_instance(util::Rng& rng, std::size_t m) {
  Instance inst;
  const std::size_t kind = rng.next_below(8);
  if (kind < 4) {
    inst.s = grid_tested(rng, m);
    const std::size_t k = rng.bernoulli(0.05) ? 0 : rng.next_below(m <= 2 ? 12 : 40);
    for (std::size_t i = 0; i < k; ++i) inst.set.push_back(grid_candidate(rng, m, i + 1));
  } else {
    workload::ScenarioConfig config;
    config.attribute_count = m;
    config.set_size = 5 + rng.next_below(40);
    workload::Instance generated;
    switch (kind) {
      case 4: generated = workload::make_pairwise_covering(config, rng); break;
      case 5: generated = workload::make_non_cover(config, rng); break;
      default: generated = workload::make_redundant_covering(config, rng); break;
    }
    inst.s = generated.tested;
    inst.set = std::move(generated.existing);
  }
  // Arity-mismatched candidates, and a candidate with NaN bounds.
  if (rng.bernoulli(0.2)) {
    const std::size_t at = rng.next_below(inst.set.size() + 1);
    inst.set.insert(inst.set.begin() + static_cast<std::ptrdiff_t>(at),
                    Subscription::everything(m + 1, 900));
  }
  if (m > 1 && rng.bernoulli(0.1)) inst.set.push_back(Subscription::everything(m - 1, 901));
  if (rng.bernoulli(0.1)) {
    std::vector<Interval> ranges(m, Interval::everything());
    ranges[rng.next_below(m)] = {kNaN, kNaN};
    inst.set.emplace_back(std::move(ranges), 902);
  }
  return inst;
}

EngineConfig random_config(util::Rng& rng) {
  static constexpr std::array<double, 3> kSpacings{0.5, 1.0, 7.0};
  EngineConfig config;
  config.max_iterations = 300;
  config.use_mcs = rng.bernoulli(0.75);
  config.use_fast_decisions = rng.bernoulli(0.75);
  config.grid_spacing = rng.bernoulli(0.25) ? kSpacings[rng.next_below(3)] : 0.0;
  return config;
}

// --- public stages against the references ----------------------------------

void expect_same_table(const ConflictTable& got, const ConflictTable& want,
                       const std::string& where) {
  ASSERT_EQ(got.row_count(), want.row_count()) << where;
  ASSERT_EQ(got.column_count(), want.column_count()) << where;
  for (std::size_t row = 0; row < want.row_count(); ++row) {
    EXPECT_EQ(got.defined_count(row), want.defined_count(row)) << where;
    for (std::size_t column = 0; column < want.column_count(); ++column) {
      EXPECT_EQ(got.is_defined(row, column), want.is_defined(row, column)) << where;
      EXPECT_TRUE(same_bits(got.row_bounds(row)[column], want.row_bounds(row)[column]))
          << where;
    }
  }
  EXPECT_EQ(got.first_all_undefined_row(), want.first_all_undefined_row()) << where;
  const auto got_bins = got.defined_count_bins();
  const auto want_bins = want.defined_count_bins();
  EXPECT_TRUE(std::equal(got_bins.begin(), got_bins.end(), want_bins.begin(),
                         want_bins.end()))
      << where;
}

/// rho_w from the column extremes run_mcs left in `scratch` against the
/// row walk over the rows it kept.
void expect_same_estimate(const ConflictTable& table, const std::vector<std::size_t>& kept,
                          const McsScratch& scratch, double grid_spacing,
                          const std::string& where) {
  const WitnessEstimate rows = estimate_witness_probability(table, kept, grid_spacing);
  const WitnessEstimate columns =
      estimate_witness_probability(table.tested(), scratch.columns, grid_spacing);
  EXPECT_TRUE(same_bits(columns.witness_volume, rows.witness_volume))
      << where << ": " << columns.witness_volume << " vs " << rows.witness_volume;
  EXPECT_TRUE(same_bits(columns.tested_volume, rows.tested_volume)) << where;
  EXPECT_TRUE(same_bits(columns.rho_w, rows.rho_w)) << where;
}

/// The stage functions on one instance: the fused table against the
/// prefilter loop plus the 1:1 table, fast decisions against the
/// corollaries as stated, every run_mcs form against Algorithm 3, and the
/// column-extreme rho_w against the row walk, on the fused table and on
/// the 1:1 table of the whole set.
void check_stages(const Subscription& s, std::span<const Subscription* const> set,
                  double grid_spacing, ConflictTable& fused,
                  std::vector<std::size_t>& source, McsScratch& scratch,
                  const std::string& where) {
  fused.rebuild_relevant(s, set, source);
  const Prefiltered filtered = prefilter(s, set);
  const ConflictTable table(s, std::span<const Subscription* const>(filtered.rows));
  EXPECT_EQ(source, filtered.original_index) << where;
  expect_same_table(fused, table, where);
  const ConflictTable& t = fused;

  // The tally against a recount of the rows.
  std::vector<std::size_t> bins(t.column_count() + 1, 0);
  for (std::size_t row = 0; row < t.row_count(); ++row) ++bins[t.defined_count(row)];
  const auto tally = t.defined_count_bins();
  EXPECT_TRUE(std::equal(bins.begin(), bins.end(), tally.begin(), tally.end())) << where;

  const auto covering = reference_pairwise_cover(t);
  EXPECT_EQ(find_pairwise_cover(t), covering) << where;
  EXPECT_EQ(sorted_rows_prove_witness(t), sorted_counts_prove_witness(t)) << where;
  const FastDecisionResult fast = run_fast_decisions(t);
  EXPECT_EQ(fast.covering_row, covering) << where;
  EXPECT_EQ(fast.decision, covering                         ? FastDecision::kCoveredPairwise
                           : sorted_counts_prove_witness(t) ? FastDecision::kNotCoveredWitness
                                                            : FastDecision::kInconclusive)
      << where;

  const McsResult want = reference::reference_mcs(t);
  McsResult with_scratch, with_alive;
  std::vector<char> alive;
  run_mcs(t, with_scratch, scratch);
  run_mcs(t, with_alive, alive);
  for (const McsResult& got : {run_mcs(t), with_scratch, with_alive}) {
    EXPECT_EQ(got.kept, want.kept) << where;
    EXPECT_EQ(got.sweeps, want.sweeps) << where;
    EXPECT_EQ(got.removed_conflict_free, want.removed_conflict_free) << where;
    EXPECT_EQ(got.removed_defined_count, want.removed_defined_count) << where;
  }
  std::vector<char> kept_mask(t.row_count(), 0);
  for (const std::size_t row : want.kept) kept_mask[row] = 1;
  EXPECT_EQ(scratch.alive, kept_mask) << where;
  EXPECT_EQ(alive, kept_mask) << where;

  expect_same_estimate(t, want.kept, scratch, grid_spacing, where);

  // The column estimate on a table the prefilter did not thin, where a
  // row may lie wholly beside s on some attribute.
  const bool same_arity = std::all_of(set.begin(), set.end(), [&](const Subscription* c) {
    return c->attribute_count() == s.attribute_count();
  });
  if (!same_arity) return;
  const ConflictTable unfiltered(s, set);
  McsResult unfiltered_mcs;
  run_mcs(unfiltered, unfiltered_mcs, scratch);
  expect_same_estimate(unfiltered, unfiltered_mcs.kept, scratch, grid_spacing,
                       where + " unfiltered");
}

// --- tests ----------------------------------------------------------------

constexpr std::array<std::size_t, 5> kArities{1, 2, 5, 6, 10};

TEST(EngineStageEquivalence, CheckMatchesSeparateStagesAndRngStream) {
  util::Rng rng(2718);
  SubsumptionEngine engine(EngineConfig{}, 99);
  util::Rng reference_rng(99);
  std::array<std::size_t, 6> paths{};
  std::size_t throws = 0, mcs_kept_rows = 0;
  for (int round = 0; round < 6000; ++round) {
    const std::size_t m = kArities[rng.next_below(kArities.size())];
    const Instance inst = make_instance(rng, m);
    const EngineConfig config = random_config(rng);
    engine.set_config(config);
    std::vector<const Subscription*> set;
    for (const Subscription& candidate : inst.set) set.push_back(&candidate);
    const std::string where = "round " + std::to_string(round) + " m=" +
                              std::to_string(m) + " k=" + std::to_string(set.size());

    std::optional<SubsumptionResult> got, want;
    bool got_threw = false, want_threw = false;
    try {
      got = rng.bernoulli(0.5)
                ? engine.check(inst.s, std::span<const Subscription* const>(set))
                : engine.check(inst.s, inst.set);
    } catch (const std::invalid_argument&) {
      got_threw = true;
    }
    try {
      want = reference_check(config, reference_rng, inst.s, set);
    } catch (const std::invalid_argument&) {
      want_threw = true;
    }
    ASSERT_EQ(got_threw, want_threw) << where;
    ASSERT_EQ(engine.rng().state(), reference_rng.state()) << where;
    if (want_threw) {
      ++throws;
      continue;
    }
    expect_same_result(*got, *want, where);
    ++paths[static_cast<std::size_t>(want->path)];
    if (want->mcs_ran) mcs_kept_rows += want->reduced_set_size;
  }
  // The mix reaches every decision path, the unsampleable throw, and MCS
  // runs that keep rows for RSPC.
  for (std::size_t path = 0; path < paths.size(); ++path) {
    EXPECT_GT(paths[path], 40u) << to_string(static_cast<DecisionPath>(path));
  }
  EXPECT_GT(throws, 40u);
  EXPECT_GT(mcs_kept_rows, 1000u);
}

TEST(EngineStageEquivalence, PublicStagesMatchReferences) {
  util::Rng rng(31337);
  // Buffers reused across arities and sizes, as the engine reuses them.
  ConflictTable fused;
  std::vector<std::size_t> source;
  McsScratch scratch;
  for (int round = 0; round < 3000; ++round) {
    const std::size_t m = kArities[rng.next_below(kArities.size())];
    const Instance inst = make_instance(rng, m);
    std::vector<const Subscription*> set;
    for (const Subscription& candidate : inst.set) set.push_back(&candidate);
    const double spacing = rng.bernoulli(0.25) ? 1.0 : 0.0;
    check_stages(inst.s, set, spacing, fused, source, scratch,
                 "round " + std::to_string(round));
  }
}

TEST(EngineStageEquivalence, ArityMismatchIsDroppedByTheFusedPassOnly) {
  const Subscription s({Interval{0, 10}, Interval{0, 10}});
  const Subscription wide({Interval{-1, 11}, Interval{-1, 11}, Interval{0, 1}}, 1);
  const Subscription inner({Interval{2, 8}, Interval{-1, 11}}, 2);
  const std::vector<const Subscription*> set{&wide, &inner};
  ConflictTable table;
  std::vector<std::size_t> source{7, 7, 7};
  table.rebuild_relevant(s, set, source);
  ASSERT_EQ(table.row_count(), 1u);
  EXPECT_EQ(source, std::vector<std::size_t>{1});
  EXPECT_EQ(table.defined_count(0), 2u);
  EXPECT_FALSE(table.first_all_undefined_row().has_value());
  EXPECT_THROW(table.rebuild(s, std::span<const Subscription* const>(set)),
               std::invalid_argument);
}

TEST(EngineStageEquivalence, PrefilterKeepsCoverOfEmptyRangeAndDropsNaN) {
  // s is empty on attribute 1, so nothing overlaps its interior, but every
  // same-arity candidate contains that empty range: one that also contains
  // s's range on attribute 0 covers s and survives. A NaN candidate
  // neither overlaps nor covers s.
  const Subscription s = Subscription({Interval{0, 10}, Interval{0, 10}})
                             .intersect(Subscription({Interval::everything(),
                                                      Interval{20, 30}}));
  ASSERT_TRUE(s.range(1).is_empty());
  const Subscription covering({Interval{-1, 11}, Interval{40, 50}}, 1);
  const Subscription nan({Interval{kNaN, kNaN}, Interval::everything()}, 2);
  const Subscription partial({Interval{5, 11}, Interval::everything()}, 3);
  const std::vector<const Subscription*> set{&nan, &covering, &partial};
  ConflictTable table;
  std::vector<std::size_t> source;
  table.rebuild_relevant(s, set, source);
  EXPECT_EQ(source, (std::vector<std::size_t>{1}));
  const Prefiltered filtered = prefilter(s, set);
  EXPECT_EQ(filtered.original_index, source);
}

TEST(EngineStageEquivalence, TallyWalkMatchesSortOnEveryCountMultiset) {
  // Every set of up to four rows with 0..4 defined entries each, in every
  // order: the tally walk must agree with the sort at each boundary
  // (t_(j) = j passes, t_(j) = j - 1 fails).
  const Subscription s({Interval{0, 10}, Interval{0, 10}});
  const auto row = [](std::size_t defined, SubscriptionId id) {
    // 1 -> x0 > 8; 2 -> also x0 < 2; 3 -> also x1 > 8; 4 -> also x1 < 2.
    const Value lo0 = defined >= 2 ? 2 : -1, hi0 = defined >= 1 ? 8 : 11;
    const Value lo1 = defined >= 4 ? 2 : -1, hi1 = defined >= 3 ? 8 : 11;
    return Subscription({Interval{lo0, hi0}, Interval{lo1, hi1}}, id);
  };
  for (std::size_t code = 0; code < 6 * 6 * 6 * 6; ++code) {
    std::vector<Subscription> set;
    // Base-6 digits: 0 = no row, d = a row with d - 1 defined entries.
    for (std::size_t rest = code, i = 0; i < 4; ++i, rest /= 6) {
      if (rest % 6 != 0) set.push_back(row(rest % 6 - 1, i + 1));
    }
    const ConflictTable table(s, set);
    EXPECT_EQ(sorted_rows_prove_witness(table), sorted_counts_prove_witness(table))
        << "code " << code;
    EXPECT_EQ(find_pairwise_cover(table), reference_pairwise_cover(table))
        << "code " << code;
  }
}

}  // namespace
}  // namespace psc::core
