// SubscriptionStore — a broker's subscription state machine.
//
// Maintains the partition the paper works with:
//   * ACTIVE set S: uncovered subscriptions, the ones forwarded to
//     neighbours and checked first when matching publications;
//   * COVERED set SS: subscriptions subsumed (pairwise or by group) by
//     active ones. The paper's Section 4.4 optimization is implemented:
//     each covered subscription remembers its coverers, always live
//     actives, so matching examines a covered entry only below an active
//     that matched.
//
// Insertion runs the configured coverage policy (none / pairwise / group
// via the probabilistic engine / exact) once. Pairwise cover (the kPairwise
// policy and kExact's fast path) asks one question, "which active first in
// slot order contains the new subscription?"; group and exact cover run
// over the actives that intersect it. The interval index only changes how
// either set is gathered, never the answer: a standalone store indexes its
// own actives, while a broker's link store keeps no index and asks the
// broker's publish lanes, which hold a superset of its actives with the
// same boxes, keeping only the ids active here. A new active subscription
// additionally demotes existing actives it pairwise-covers (the classical
// maintenance step, StoreConfig::demote_covered_actives); a demoted active
// hands its own covered dependents to the subscription that demoted it.
//
// Unsubscription of an active a re-checks the covered subscriptions that
// listed it (paper, Section 5). A dependent c was inside the union of its
// coverers S, so c∖a is still inside ∪(S∖a): only the box c ∩ a is
// re-checked against the current actives. YES keeps c covered under
// (S∖a) plus the new coverers; NO promotes c to active.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "core/publication.hpp"
#include "core/subscription.hpp"
#include "index/interval_index.hpp"

namespace psc::store {

/// Coverage detection policy for insertions.
enum class CoveragePolicy : std::uint8_t {
  kNone,      ///< flooding-style: every subscription stays active
  kPairwise,  ///< classical baseline: single-subscription cover only
  kGroup,     ///< paper: probabilistic group cover via SubsumptionEngine
  kExact,     ///< exact group cover via box subtraction (baseline oracle).
              ///< Every decision is definite, so a network routed under it
              ///< never loses a notification — the differential-test and
              ///< churn-soak reference configuration. Worst-case exponential
              ///< in the candidate count; meant for tests/benches, not the
              ///< high-rate production path.
};

/// Canonical lowercase name ("none" / "pairwise" / "group" / "exact").
[[nodiscard]] std::string_view to_string(CoveragePolicy policy) noexcept;

/// Inverse of to_string; throws std::invalid_argument on unknown names.
[[nodiscard]] CoveragePolicy parse_coverage_policy(std::string_view name);

/// Result of inserting a subscription.
struct InsertResult {
  bool accepted_active = false;  ///< entered the active set
  bool covered = false;          ///< entered the covered set instead
  /// Actives demoted to covered because the new subscription covers them.
  std::vector<core::SubscriptionId> demoted;
  /// Diagnostics from the engine when the group policy ran it.
  std::optional<core::SubsumptionResult> engine_result;
};

struct StoreConfig {
  CoveragePolicy policy = CoveragePolicy::kGroup;
  core::EngineConfig engine;
  /// Also demote existing actives that the incoming subscription covers
  /// pairwise (standard routing-table maintenance; on by default). Only
  /// a covering policy demotes: under kNone every subscription stays
  /// active whatever this says.
  bool demote_covered_actives = true;
  /// Answer publication matching (point-stab), pairwise cover (covering)
  /// and coverage-candidate gathering (box-intersect) from an
  /// IntervalIndex instead of flat O(k) scans. A standalone store
  /// (IndexSource::kOwn) maintains the index over its own actives; a link
  /// store (IndexSource::kLanes) builds none and runs the two coverage
  /// queries on the indexes of the lanes passed to insert/erase_reporting,
  /// or scans its own actives when they are few against the lanes.
  /// Off = flat scans, kept for ablation (bench/index_scaling) and as the
  /// reference in the equivalence property tests. Results are identical
  /// either way; only the work differs. An index requires all
  /// subscriptions in it to share one attribute schema (coverage policies
  /// already require this); on the first insert with a different arity a
  /// store drops its own index and continues on the flat scans for its
  /// remaining lifetime, so mixed-arity kNone streams stay supported.
  bool use_index = true;
  /// Bucketing domain for the index (results never depend on it, but
  /// pruning power does: values outside the domain clamp to the edge
  /// buckets). Match it to the deployment's attribute value range.
  index::IndexConfig index;
};

/// Where a store's index-path queries find its actives.
enum class IndexSource : std::uint8_t {
  kOwn,    ///< an IntervalIndex the store maintains over its actives
  kLanes,  ///< no index of its own: the lane stores passed to each
           ///< insert/erase_reporting answer the coverage queries, or a
           ///< flat scan of the store's actives does when that reads less
           ///< (a few actives against large lanes); matching runs the flat
           ///< scan. Every active must be an active of one of those lanes,
           ///< with the same box.
};

class SubscriptionStore;

/// The lanes a kLanes store's coverage queries run on (see IndexSource):
/// stores whose actives together hold every active of the kLanes store.
using Lanes = std::span<const SubscriptionStore* const>;

/// A broker's subscription state machine (see file comment).
///
/// Thread-safety: externally single-threaded. Mutations must be
/// serialized, and the const query methods (match, match_active) mutate
/// internal scratch/epoch state, so two queries must not run concurrently
/// on one instance either. For parallelism, partition ids across
/// instances; that is the only supported concurrency model for this type.
///
/// Determinism: all decisions are a pure function of (config, seed,
/// call sequence); the engine's RNG stream advances only on group checks,
/// identically for the index and flat paths.
class SubscriptionStore {
 public:
  explicit SubscriptionStore(StoreConfig config = {},
                             std::uint64_t seed = 0xc0ffee11ULL,
                             IndexSource source = IndexSource::kOwn);

  /// Inserts a subscription and runs the configured coverage policy.
  /// Preconditions: a non-zero id not already in the store — violations
  /// throw std::invalid_argument and leave the store unchanged. The
  /// subscription itself is validated at construction (no empty ranges),
  /// so every stored subscription is satisfiable. `lanes` serves a kLanes
  /// store's coverage queries (ignored by kOwn stores); a kLanes store
  /// given none falls back to the flat scans, with the same decisions.
  InsertResult insert(const core::Subscription& sub, Lanes lanes = {});

  /// Outcome of erasing a subscription.
  struct EraseResult {
    bool erased = false;
    /// The erased subscription was an active (false when covered or absent).
    bool was_active = false;
    /// Ids of previously-covered subscriptions that became ACTIVE because
    /// the erased subscription was among their coverers. The routing layer
    /// must re-announce these to neighbours (paper, Section 5).
    std::vector<core::SubscriptionId> promoted;
  };

  /// Removes a subscription wherever it lives. Removing an active `a`
  /// re-checks each covered dependent c, in cover-DAG order, on the box
  /// c ∩ a only (c∖a stays inside the union of c's other coverers): if the
  /// current actives cover c ∩ a, c stays covered and its coverers become
  /// its old ones minus `a` followed by the new ones, without duplicates;
  /// otherwise c is promoted to active (demoting actives it covers, when
  /// configured) and reported in `promoted`. `lanes` as for insert().
  EraseResult erase_reporting(core::SubscriptionId id, Lanes lanes = {});

  /// Convenience wrapper; returns false if the id is unknown.
  bool erase(core::SubscriptionId id) { return erase_reporting(id).erased; }

  /// Subscription stored under `id` (active or covered); nullptr if absent.
  [[nodiscard]] const core::Subscription* find(core::SubscriptionId id) const;

  /// Algorithm 5: ids of ALL matching subscriptions (active + covered),
  /// checking actives first and examining covered entries only below
  /// actives that matched. Output order: matching actives sorted by id,
  /// then covered matches in cover-DAG order under those actives. A
  /// publication whose arity differs from a subscription's never matches
  /// it (never throws).
  /// Const but not concurrently callable (mutates reused scratch).
  [[nodiscard]] std::vector<core::SubscriptionId> match(
      const core::Publication& pub) const;

  /// Out-parameter form: APPENDS the same ids to `out` (existing contents
  /// are kept, so shard merges can share one buffer). With a warm
  /// caller-owned buffer a steady-state call performs zero heap
  /// allocations — the publish path's contract, pinned by
  /// tests/publish_alloc_test.cpp.
  void match(const core::Publication& pub,
             std::vector<core::SubscriptionId>& out) const;

  /// Matching ids among actives only (what a broker forwards on), sorted
  /// ascending. Same arity and concurrency contract as match().
  [[nodiscard]] std::vector<core::SubscriptionId> match_active(
      const core::Publication& pub) const;

  /// Out-parameter form: appends, sorted ascending within the appended
  /// range; zero allocations once `out` is warm.
  void match_active(const core::Publication& pub,
                    std::vector<core::SubscriptionId>& out) const;

  /// Raw form for callers that order downstream (Broker's publish lanes
  /// radix-sort the union of several stores' matches once):
  /// appends the same id SET as match_active but in an UNSPECIFIED order
  /// (index emission order, or flat slot order). Same arity and
  /// concurrency contract as match().
  void match_active_unsorted(const core::Publication& pub,
                             std::vector<core::SubscriptionId>& out) const;

  [[nodiscard]] std::size_t active_count() const noexcept { return active_.size(); }
  [[nodiscard]] std::size_t covered_count() const noexcept { return covered_.size(); }
  [[nodiscard]] std::size_t total_count() const noexcept {
    return active_.size() + covered_.size();
  }

  [[nodiscard]] std::vector<core::Subscription> active_snapshot() const;
  [[nodiscard]] bool contains(core::SubscriptionId id) const;
  [[nodiscard]] bool is_active(core::SubscriptionId id) const;

  /// Complete serializable state of a store: everything a fresh store of
  /// the same (config, seed) needs to continue DECISION-FOR-DECISION
  /// identically to the original — active slot order (coverage policies
  /// iterate candidates in slot order), the covered set with its coverer
  /// lists, the cover-DAG adjacency in its original per-coverer order
  /// (promotion on erase walks it in order), the engine RNG state (group
  /// checks consume the stream), and the live use_index flag (mixed-arity
  /// streams may have dropped the index at runtime). Derived structures
  /// (slot map, interval index) are rebuilt on import, not serialized.
  /// The binary codec for this struct lives in wire/snapshot.hpp.
  struct Snapshot {
    /// Actives in slot order (ids ride inside the subscriptions).
    std::vector<core::Subscription> actives;
    struct CoveredRecord {
      core::Subscription sub;  ///< id rides inside
      std::vector<core::SubscriptionId> coverers;  ///< original order
    };
    /// Covered set, sorted by id (map order is not meaningful).
    std::vector<CoveredRecord> covered;
    struct DagRecord {
      core::SubscriptionId coverer = 0;
      std::vector<core::SubscriptionId> covered_ids;  ///< original order
    };
    /// Cover-DAG adjacency, sorted by coverer id; each list keeps its
    /// original order because erase-time promotion replays it in order.
    std::vector<DagRecord> children;
    std::uint64_t group_checks = 0;
    std::array<std::uint64_t, 4> engine_rng_state{};
    bool use_index = true;
  };

  /// Captures the current state (const; does not disturb decisions).
  [[nodiscard]] Snapshot export_snapshot() const;

  /// Rebuilds this store from `snapshot`. Precondition: the store is empty
  /// and was constructed with the same (config, seed) as the exporting
  /// store — violations throw std::logic_error / std::invalid_argument.
  /// The image must be consistent: ids unique and non-zero, every coverer
  /// an active, and `children` exactly the inverse of the coverer lists;
  /// otherwise std::invalid_argument, and the store must be discarded.
  /// Afterwards every future decision (insert coverage verdicts, erase
  /// promotions, match outputs and their order) is identical to the
  /// original store's.
  void import_snapshot(const Snapshot& snapshot);

  [[nodiscard]] const StoreConfig& config() const noexcept { return config_; }

  /// Number of engine (group) checks executed so far — cost metric.
  [[nodiscard]] std::uint64_t group_checks() const noexcept { return group_checks_; }

  /// Covered subscriptions examined during match() calls so far — the cost
  /// the Section 4.4 hierarchy saves (a flat scan of the covered set would
  /// examine covered_count() per publication with an active match).
  [[nodiscard]] std::uint64_t covered_examined() const noexcept {
    return covered_examined_;
  }

  /// Direct coverer ids of a covered subscription (empty for actives or
  /// unknown ids). Exposes the cover DAG for tests and diagnostics.
  [[nodiscard]] std::vector<core::SubscriptionId> coverers_of(
      core::SubscriptionId id) const;

 private:
  struct CoveredEntry {
    core::Subscription sub;
    /// Live active ids whose union covers this subscription.
    std::vector<core::SubscriptionId> coverers;
    /// Epoch stamp for the match() descent (visited-set without a map).
    mutable std::uint64_t seen_epoch = 0;
  };

  StoreConfig config_;
  IndexSource source_;
  core::SubsumptionEngine engine_;
  std::vector<core::Subscription> active_;
  std::unordered_map<core::SubscriptionId, std::size_t> active_index_;
  /// Candidate-pruning index over the actives (when config_.use_index and
  /// the source is kOwn). Created lazily on the first insert because the
  /// schema width is not known at construction time.
  std::optional<index::IntervalIndex> interval_index_;
  std::unordered_map<core::SubscriptionId, CoveredEntry> covered_;
  /// Cover DAG edges: coverer id -> covered ids listing it (Section 4.4).
  std::unordered_map<core::SubscriptionId, std::vector<core::SubscriptionId>>
      children_;
  std::uint64_t group_checks_ = 0;
  mutable std::uint64_t covered_examined_ = 0;
  /// Visited epoch for the match() descent, so the hot path performs no
  /// allocations and no hashing beyond the children lookup.
  mutable std::uint64_t match_epoch_ = 0;
  /// Scratch for first_coverer and intersecting_candidates (reused across
  /// calls).
  std::vector<core::SubscriptionId> id_scratch_;
  std::vector<std::size_t> slot_scratch_;
  std::vector<const core::Subscription*> candidate_scratch_;

  void link_coverers(core::SubscriptionId covered_id,
                     const std::vector<core::SubscriptionId>& coverers);
  void unlink_coverers(core::SubscriptionId covered_id,
                       const std::vector<core::SubscriptionId>& coverers);

  /// Runs the configured policy on `sub`. Returns the coverer ids when
  /// covered.
  [[nodiscard]] std::optional<std::vector<core::SubscriptionId>> check_covered(
      const core::Subscription& sub, std::optional<core::SubsumptionResult>* diag,
      Lanes lanes);

  /// Active-insert tail shared by insert() and promotion: demotes the
  /// actives `sub` covers (when configured), then adds it to the slots and
  /// the index.
  void add_active(core::Subscription sub,
                  std::vector<core::SubscriptionId>& demoted, Lanes lanes);
  void demote_actives_covered_by(const core::Subscription& sub,
                                 std::vector<core::SubscriptionId>& demoted,
                                 Lanes lanes);
  /// Moves the demoted active's children under its coverer.
  void repoint_children(core::SubscriptionId demoted,
                        core::SubscriptionId coverer);
  /// Removes the active in `slot` and returns it.
  core::Subscription erase_active_slot(std::size_t slot);

  [[nodiscard]] bool index_enabled() const noexcept {
    return config_.use_index && interval_index_.has_value();
  }
  /// True when a kLanes store answers its coverage queries from `lanes`
  /// rather than a flat scan of its own actives (same answers; see the
  /// definition for the work estimate that picks).
  [[nodiscard]] bool lanes_serve(Lanes lanes) const noexcept;
  void index_insert_active(const core::Subscription& sub);
  /// The active in the lowest slot whose box contains `sub`, or nullptr
  /// (always for a `sub` with an empty range): one containment query on
  /// the own index or on each lane, keeping the ids active here, or a flat
  /// slot-order scan, with the same result on every path. Pairwise cover
  /// asks only this.
  [[nodiscard]] const core::Subscription* first_coverer(
      const core::Subscription& sub, Lanes lanes);
  /// Actives whose box intersects `box`, as pointers into active_, in
  /// active-slot order: index-pruned (own index, or the lanes' answers
  /// kept to the ids active here) or a flat scan, with the same result on
  /// every path. Group cover, exact cover and demotion gather their
  /// candidates here; pairwise cover does not (first_coverer). Returns the
  /// reused scratch vector.
  [[nodiscard]] std::span<const core::Subscription* const>
  intersecting_candidates(const core::Subscription& box, Lanes lanes);
  /// Lane side of a kLanes store's queries: appends the ids of this
  /// store's actives whose box contains (covering) or intersects `box`,
  /// from the own index when it is live and a flat scan otherwise.
  /// Unordered.
  void append_covering(const core::Subscription& box,
                       std::vector<core::SubscriptionId>& out) const;
  void append_intersecting(const core::Subscription& box,
                           std::vector<core::SubscriptionId>& out) const;
};

}  // namespace psc::store
