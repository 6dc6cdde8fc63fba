#include "store/subscription_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "baseline/exact_subsumption.hpp"

namespace psc::store {

std::string_view to_string(CoveragePolicy policy) noexcept {
  switch (policy) {
    case CoveragePolicy::kNone: return "none";
    case CoveragePolicy::kPairwise: return "pairwise";
    case CoveragePolicy::kGroup: return "group";
    case CoveragePolicy::kExact: return "exact";
  }
  return "?";
}

CoveragePolicy parse_coverage_policy(std::string_view name) {
  if (name == "none") return CoveragePolicy::kNone;
  if (name == "pairwise") return CoveragePolicy::kPairwise;
  if (name == "group") return CoveragePolicy::kGroup;
  if (name == "exact") return CoveragePolicy::kExact;
  throw std::invalid_argument("unknown coverage policy (none|pairwise|group|exact): " +
                              std::string(name));
}

using core::Publication;
using core::Subscription;
using core::SubscriptionId;

SubscriptionStore::SubscriptionStore(StoreConfig config, std::uint64_t seed,
                                     IndexSource source)
    : config_(config), source_(source), engine_(config.engine, seed) {}

bool SubscriptionStore::lanes_serve(Lanes lanes) const noexcept {
  if (!config_.use_index || source_ != IndexSource::kLanes || lanes.empty()) {
    return false;
  }
  // Work estimate. A flat scan reads the 2m bounds of each active here; a
  // lane sweep reads two paired mask rows per attribute, about m/16 words
  // per lane subscription, and then emits every lane subscription that
  // qualifies, covered-here ones included. So the lanes pay off only while
  // they hold fewer than 32 subscriptions per active here. Under heavy
  // cover a link's actives are a small part of what the lanes hold, and
  // its own flat scan is the cheaper exact answer.
  constexpr std::size_t kLaneEntriesPerActive = 32;
  std::size_t lane_entries = 0;
  for (const SubscriptionStore* lane : lanes) lane_entries += lane->active_count();
  return lane_entries < kLaneEntriesPerActive * active_.size();
}

void SubscriptionStore::append_covering(const Subscription& box,
                                        std::vector<SubscriptionId>& out) const {
  if (!index_enabled()) {
    for (const auto& active : active_) {
      if (active.covers(box)) out.push_back(active.id());
    }
  } else if (box.attribute_count() == interval_index_->attribute_count()) {
    interval_index_->covering(box, out);
  }
  // A box of another arity is contained in (and intersects) no active,
  // which the flat scan's covers/intersects size checks also say.
}

void SubscriptionStore::append_intersecting(
    const Subscription& box, std::vector<SubscriptionId>& out) const {
  if (!index_enabled()) {
    for (const auto& active : active_) {
      if (active.intersects(box)) out.push_back(active.id());
    }
  } else if (box.attribute_count() == interval_index_->attribute_count()) {
    interval_index_->box_intersect(box, out);
  }
}

void SubscriptionStore::index_insert_active(const Subscription& sub) {
  if (!config_.use_index || source_ == IndexSource::kLanes) return;
  if (!interval_index_) {
    interval_index_.emplace(sub.attribute_count(), config_.index);
  }
  interval_index_->insert(sub);
}

std::span<const Subscription* const> SubscriptionStore::intersecting_candidates(
    const Subscription& box, Lanes lanes) {
  // One of the store's two candidate gatherers on the coverage side (the
  // other is first_coverer). Whichever source answers (own index, lanes,
  // flat scan), the result is in active-slot order, so every consumer
  // (engine diagnostics, group coverer lists, exact cover, demotion) sees
  // the same sequence and decisions stay identical.
  candidate_scratch_.clear();
  id_scratch_.clear();
  if (index_enabled()) {
    interval_index_->box_intersect(box, id_scratch_);
  } else if (lanes_serve(lanes)) {
    for (const SubscriptionStore* lane : lanes) {
      lane->append_intersecting(box, id_scratch_);
    }
  } else {
    for (const auto& active : active_) {
      if (active.intersects(box)) candidate_scratch_.push_back(&active);
    }
    return candidate_scratch_;
  }
  // Lanes also hold subscriptions that are covered here or never entered
  // this store; only the ids active here are candidates.
  slot_scratch_.clear();
  for (const SubscriptionId id : id_scratch_) {
    if (const auto it = active_index_.find(id); it != active_index_.end()) {
      slot_scratch_.push_back(it->second);
    }
  }
  std::sort(slot_scratch_.begin(), slot_scratch_.end());
  for (const std::size_t slot : slot_scratch_) {
    candidate_scratch_.push_back(&active_[slot]);
  }
  return candidate_scratch_;
}

const Subscription* SubscriptionStore::first_coverer(const Subscription& sub,
                                                     Lanes lanes) {
  // An empty box intersects no active, so nothing covers it (covers()
  // alone would call it covered by every active).
  if (!sub.is_satisfiable()) return nullptr;
  id_scratch_.clear();
  if (index_enabled()) {
    interval_index_->covering(sub, id_scratch_);
  } else if (lanes_serve(lanes)) {
    for (const SubscriptionStore* lane : lanes) {
      lane->append_covering(sub, id_scratch_);
    }
  } else {
    for (const auto& active : active_) {
      if (active.covers(sub)) return &active;
    }
    return nullptr;
  }
  // The lowest active slot among the containing actives is the one the
  // flat slot-order scan finds first. Lane ids that are not active here
  // (covered here, or never inserted) are skipped.
  std::size_t first = active_.size();
  for (const SubscriptionId id : id_scratch_) {
    if (const auto it = active_index_.find(id); it != active_index_.end()) {
      first = std::min(first, it->second);
    }
  }
  return first < active_.size() ? &active_[first] : nullptr;
}

std::optional<std::vector<SubscriptionId>> SubscriptionStore::check_covered(
    const Subscription& sub, std::optional<core::SubsumptionResult>* diag,
    Lanes lanes) {
  switch (config_.policy) {
    case CoveragePolicy::kNone:
      return std::nullopt;
    case CoveragePolicy::kPairwise: {
      if (const Subscription* coverer = first_coverer(sub, lanes)) {
        return std::vector<SubscriptionId>{coverer->id()};
      }
      return std::nullopt;
    }
    case CoveragePolicy::kGroup: {
      // Only actives whose box intersects sub can take part in a group
      // covering it, so the engine runs over that set alone.
      const std::span<const Subscription* const> candidates =
          intersecting_candidates(sub, lanes);
      ++group_checks_;
      core::SubsumptionResult result;
      if (candidates.empty() && !active_.empty()) {
        // No active intersects sub: report what the engine's own prefilter
        // reports on the full active set.
        result.covered = false;
        result.path = core::DecisionPath::kMcsEmpty;
      } else {
        result = engine_.check(sub, candidates);
      }
      // Diagnostics describe the whole active set, not the candidates.
      result.original_set_size = active_.size();
      if (diag) *diag = result;
      if (!result.covered) return std::nullopt;
      if (result.covering_index) {
        return std::vector<SubscriptionId>{candidates[*result.covering_index]->id()};
      }
      // Group cover: conservatively record every active that overlaps sub
      // as a coverer — any of them disappearing may expose sub again.
      std::vector<SubscriptionId> coverers;
      coverers.reserve(candidates.size());
      for (const Subscription* candidate : candidates) {
        coverers.push_back(candidate->id());
      }
      return coverers;
    }
    case CoveragePolicy::kExact: {
      // Pairwise fast path first.
      if (const Subscription* coverer = first_coverer(sub, lanes)) {
        return std::vector<SubscriptionId>{coverer->id()};
      }
      // Exact group cover via recursive box subtraction over the
      // intersecting actives, none of which covers sub alone.
      const std::span<const Subscription* const> group =
          intersecting_candidates(sub, lanes);
      if (group.empty()) return std::nullopt;
      std::vector<SubscriptionId> coverers;
      coverers.reserve(group.size());
      for (const Subscription* candidate : group) {
        coverers.push_back(candidate->id());
      }
      bool covered = false;
      try {
        covered = baseline::exactly_covered(sub, group);
      } catch (const std::runtime_error&) {
        // Fragment-limit blowup on an adversarial set: treating the
        // subscription as uncovered is sound (it floods instead of being
        // suppressed, which can never lose a notification).
        covered = false;
      }
      if (!covered) return std::nullopt;
      return coverers;
    }
  }
  return std::nullopt;
}

void SubscriptionStore::link_coverers(
    SubscriptionId covered_id, const std::vector<SubscriptionId>& coverers) {
  for (const SubscriptionId coverer : coverers) {
    children_[coverer].push_back(covered_id);
  }
}

void SubscriptionStore::unlink_coverers(
    SubscriptionId covered_id, const std::vector<SubscriptionId>& coverers) {
  for (const SubscriptionId coverer : coverers) {
    const auto it = children_.find(coverer);
    if (it == children_.end()) continue;
    auto& kids = it->second;
    kids.erase(std::remove(kids.begin(), kids.end(), covered_id), kids.end());
    if (kids.empty()) children_.erase(it);
  }
}

std::vector<SubscriptionId> SubscriptionStore::coverers_of(
    SubscriptionId id) const {
  const auto it = covered_.find(id);
  if (it == covered_.end()) return {};
  return it->second.coverers;
}

void SubscriptionStore::demote_actives_covered_by(
    const Subscription& sub, std::vector<SubscriptionId>& demoted, Lanes lanes) {
  // Collect first (indices shift under erase), then demote by id. An
  // active covered by sub necessarily intersects it.
  std::vector<SubscriptionId> to_demote;
  for (const Subscription* candidate : intersecting_candidates(sub, lanes)) {
    if (sub.covers(*candidate)) to_demote.push_back(candidate->id());
  }
  for (const SubscriptionId id : to_demote) {
    const auto it = active_index_.find(id);
    if (it == active_index_.end()) continue;
    CoveredEntry entry{erase_active_slot(it->second), {sub.id()}};
    repoint_children(id, sub.id());
    link_coverers(id, entry.coverers);
    covered_.emplace(id, std::move(entry));
    demoted.push_back(id);
  }
}

void SubscriptionStore::repoint_children(SubscriptionId demoted,
                                         SubscriptionId coverer) {
  // demoted ⊆ coverer, so a child c ⊆ ∪S with demoted ∈ S also lies in
  // ∪(S∖demoted ∪ {coverer}): swap the one for the other in each child's
  // list and move the edges. A covered entry thus never has children, and
  // every listed coverer stays a live active. A child that listed several
  // actives the coverer demotes lists the coverer after the first swap.
  auto kids = children_.extract(demoted);
  if (kids.empty()) return;
  auto& adopted = children_[coverer];
  for (const SubscriptionId child : kids.mapped()) {
    auto& coverers = covered_.at(child).coverers;
    if (std::find(coverers.begin(), coverers.end(), coverer) != coverers.end()) {
      std::erase(coverers, demoted);
      continue;
    }
    std::replace(coverers.begin(), coverers.end(), demoted, coverer);
    adopted.push_back(child);
  }
}

Subscription SubscriptionStore::erase_active_slot(std::size_t slot) {
  const std::size_t last = active_.size() - 1;
  Subscription removed = std::move(active_[slot]);
  if (index_enabled()) interval_index_->erase(removed.id());
  active_index_.erase(removed.id());
  if (slot != last) {
    active_[slot] = std::move(active_[last]);
    active_index_[active_[slot].id()] = slot;
  }
  active_.pop_back();
  return removed;
}

InsertResult SubscriptionStore::insert(const Subscription& sub, Lanes lanes) {
  if (sub.id() == core::kInvalidSubscriptionId) {
    throw std::invalid_argument("SubscriptionStore::insert: id must be non-zero");
  }
  if (contains(sub.id())) {
    throw std::invalid_argument("SubscriptionStore::insert: duplicate id " +
                                std::to_string(sub.id()));
  }
  // Mixed-arity stream: the index requires one attribute schema, so fall
  // back to the flat scans for good (decision-for-decision identical per
  // the equivalence property tests) instead of rejecting the insert.
  if (config_.use_index && interval_index_ &&
      sub.attribute_count() != interval_index_->attribute_count()) {
    interval_index_.reset();
    config_.use_index = false;
  }
  InsertResult result;
  std::optional<core::SubsumptionResult> diag;
  auto coverers = check_covered(sub, &diag, lanes);
  result.engine_result = std::move(diag);
  if (coverers) {
    result.covered = true;
    link_coverers(sub.id(), *coverers);
    covered_.emplace(sub.id(), CoveredEntry{sub, std::move(*coverers)});
    return result;
  }
  result.accepted_active = true;
  add_active(sub, result.demoted, lanes);
  return result;
}

void SubscriptionStore::add_active(Subscription sub,
                                   std::vector<SubscriptionId>& demoted,
                                   Lanes lanes) {
  // kNone keeps every subscription active, so only a covering policy
  // demotes.
  if (config_.demote_covered_actives &&
      config_.policy != CoveragePolicy::kNone) {
    demote_actives_covered_by(sub, demoted, lanes);
  }
  index_insert_active(sub);
  active_index_[sub.id()] = active_.size();
  active_.push_back(std::move(sub));
}

SubscriptionStore::EraseResult SubscriptionStore::erase_reporting(
    SubscriptionId id, Lanes lanes) {
  EraseResult result;
  if (const auto covered_it = covered_.find(id); covered_it != covered_.end()) {
    unlink_coverers(id, covered_it->second.coverers);
    covered_.erase(covered_it);
    result.erased = true;
    return result;
  }
  const auto it = active_index_.find(id);
  if (it == active_index_.end()) return result;
  result.erased = true;
  result.was_active = true;
  const Subscription erased = erase_active_slot(it->second);
  auto kids = children_.extract(id);
  if (kids.empty()) return result;

  // Promotion pass (paper, Section 5) over the dependents the cover DAG
  // lists, in order. Each dependent c was inside the union of its coverers
  // S, so c∖a already lies inside ∪(S∖a) for the erased active a: c stays
  // covered iff c ∩ a is covered by the current actives, and only that
  // part is re-checked. YES keeps c covered under (S∖a) plus the new
  // coverers; NO promotes c to active, where it may demote actives in
  // turn (those demotions are not reported).
  std::vector<SubscriptionId> demoted;
  for (const SubscriptionId cid : kids.mapped()) {
    const auto node = covered_.find(cid);
    CoveredEntry& entry = node->second;
    std::erase(entry.coverers, id);
    if (auto more = check_covered(entry.sub.intersect(erased), nullptr, lanes)) {
      for (const SubscriptionId coverer : *more) {
        if (std::find(entry.coverers.begin(), entry.coverers.end(), coverer) ==
            entry.coverers.end()) {
          entry.coverers.push_back(coverer);
          children_[coverer].push_back(cid);
        }
      }
      continue;
    }
    unlink_coverers(cid, entry.coverers);
    Subscription sub = std::move(entry.sub);
    covered_.erase(node);
    add_active(std::move(sub), demoted, lanes);
    result.promoted.push_back(cid);
  }
  return result;
}

const Subscription* SubscriptionStore::find(SubscriptionId id) const {
  if (const auto it = active_index_.find(id); it != active_index_.end()) {
    return &active_[it->second];
  }
  if (const auto it = covered_.find(id); it != covered_.end()) {
    return &it->second.sub;
  }
  return nullptr;
}

void SubscriptionStore::match_active(const Publication& pub,
                                     std::vector<SubscriptionId>& out) const {
  // Both paths append ids in ascending order: deterministic for callers
  // and bit-identical between the index and flat implementations (the
  // equivalence property tests rely on this).
  const auto start = static_cast<std::ptrdiff_t>(out.size());
  match_active_unsorted(pub, out);
  std::sort(out.begin() + start, out.end());
}

void SubscriptionStore::match_active_unsorted(
    const Publication& pub, std::vector<SubscriptionId>& out) const {
  if (!index_enabled()) {
    for (const auto& sub : active_) {
      if (pub.matches(sub)) out.push_back(sub.id());
    }
  } else if (pub.attribute_count() == interval_index_->attribute_count()) {
    interval_index_->stab(pub.values(), out);
  }
  // A wrong-arity publication matches nothing on the index path, as
  // contains_point's size check makes it on the flat scan.
}

std::vector<SubscriptionId> SubscriptionStore::match_active(
    const Publication& pub) const {
  std::vector<SubscriptionId> ids;
  match_active(pub, ids);
  return ids;
}

void SubscriptionStore::match(const Publication& pub,
                              std::vector<SubscriptionId>& out) const {
  // Algorithm 5: actives first; covered subscriptions are only examined
  // when at least one active matched (no active match => no covered match
  // is possible, because every covered subscription lies inside the union
  // of actives that covered it).
  const std::size_t start = out.size();
  match_active(pub, out);
  if (out.size() == start) return;

  // Section 4.4 descent: a covered subscription lies inside the union of
  // its coverers, so it can match only below a matching coverer. Every
  // coverer is an active (demotion re-points a demoted active's children
  // to its coverer), so the descent is one level deep: the children of
  // the matched actives. A child listed under several of them is examined
  // once, tracked by an epoch stamp on the covered entries — no
  // allocations or extra hashing on the hot path.
  const std::uint64_t epoch = ++match_epoch_;
  const std::size_t matched_actives = out.size();
  for (std::size_t i = start; i < matched_actives; ++i) {
    const auto kids = children_.find(out[i]);
    if (kids == children_.end()) continue;
    for (const SubscriptionId child : kids->second) {
      const auto entry = covered_.find(child);
      if (entry == covered_.end()) continue;
      if (entry->second.seen_epoch == epoch) continue;
      entry->second.seen_epoch = epoch;
      ++covered_examined_;
      if (pub.matches(entry->second.sub)) out.push_back(child);
    }
  }
}

std::vector<SubscriptionId> SubscriptionStore::match(const Publication& pub) const {
  std::vector<SubscriptionId> ids;
  match(pub, ids);
  return ids;
}

std::vector<Subscription> SubscriptionStore::active_snapshot() const {
  return active_;
}

SubscriptionStore::Snapshot SubscriptionStore::export_snapshot() const {
  Snapshot snapshot;
  snapshot.actives = active_;  // slot order preserved by construction
  snapshot.covered.reserve(covered_.size());
  for (const auto& [id, entry] : covered_) {
    snapshot.covered.push_back({entry.sub, entry.coverers});
  }
  std::sort(snapshot.covered.begin(), snapshot.covered.end(),
            [](const auto& a, const auto& b) {
              return a.sub.id() < b.sub.id();
            });
  snapshot.children.reserve(children_.size());
  for (const auto& [coverer, kids] : children_) {
    snapshot.children.push_back({coverer, kids});
  }
  std::sort(snapshot.children.begin(), snapshot.children.end(),
            [](const auto& a, const auto& b) { return a.coverer < b.coverer; });
  snapshot.group_checks = group_checks_;
  snapshot.engine_rng_state = engine_.rng().state();
  snapshot.use_index = config_.use_index;
  return snapshot;
}

void SubscriptionStore::import_snapshot(const Snapshot& snapshot) {
  if (!active_.empty() || !covered_.empty()) {
    throw std::logic_error(
        "SubscriptionStore::import_snapshot: store is not empty");
  }
  // The runtime use_index flag travels with the state: a store that
  // dropped its index on a mixed-arity stream must stay on the flat scans.
  config_.use_index = snapshot.use_index;
  interval_index_.reset();

  active_ = snapshot.actives;
  active_index_.reserve(active_.size());
  for (std::size_t slot = 0; slot < active_.size(); ++slot) {
    const SubscriptionId id = active_[slot].id();
    if (id == core::kInvalidSubscriptionId || !active_index_.emplace(id, slot).second) {
      throw std::invalid_argument(
          "SubscriptionStore::import_snapshot: invalid or duplicate active id");
    }
    // Rebuild the index in slot order; the store normalizes candidate
    // emission to slot order anyway, so the index's internal slot layout
    // never influences decisions.
    index_insert_active(active_[slot]);
  }
  const auto reject = [](const char* what) {
    throw std::invalid_argument(
        std::string("SubscriptionStore::import_snapshot: ") + what);
  };
  // Every covered entry's coverers are actives, and the cover DAG lists
  // exactly those (coverer, covered) edges: erase and promotion walk it
  // and look each end up, so a stray edge would reach a missing entry.
  std::size_t coverer_edges = 0;
  for (const Snapshot::CoveredRecord& record : snapshot.covered) {
    const SubscriptionId id = record.sub.id();
    if (id == core::kInvalidSubscriptionId || active_index_.count(id) > 0) {
      reject("invalid covered id");
    }
    for (const SubscriptionId coverer : record.coverers) {
      if (active_index_.count(coverer) == 0) reject("coverer is not an active");
    }
    coverer_edges += record.coverers.size();
    if (!covered_.emplace(id, CoveredEntry{record.sub, record.coverers})
             .second) {
      reject("duplicate covered id");
    }
  }
  // Each DAG edge is distinct and appears in a coverer list, and there are
  // as many as coverer-list entries: the two relations are inverses.
  std::size_t dag_edges = 0;
  std::vector<SubscriptionId> sorted_kids;
  children_.reserve(snapshot.children.size());
  for (const Snapshot::DagRecord& record : snapshot.children) {
    for (const SubscriptionId kid : record.covered_ids) {
      const auto entry = covered_.find(kid);
      if (entry == covered_.end() ||
          std::find(entry->second.coverers.begin(),
                    entry->second.coverers.end(),
                    record.coverer) == entry->second.coverers.end()) {
        reject("cover DAG edge without a matching coverer");
      }
    }
    sorted_kids = record.covered_ids;
    std::sort(sorted_kids.begin(), sorted_kids.end());
    if (std::adjacent_find(sorted_kids.begin(), sorted_kids.end()) !=
        sorted_kids.end()) {
      reject("duplicate cover DAG edge");
    }
    dag_edges += record.covered_ids.size();
    if (!children_.emplace(record.coverer, record.covered_ids).second) {
      reject("duplicate DAG coverer");
    }
  }
  if (dag_edges != coverer_edges) reject("coverer without a cover DAG edge");
  group_checks_ = snapshot.group_checks;
  engine_.rng().set_state(snapshot.engine_rng_state);
  // Scratch/epoch state restarts from zero: covered entries were rebuilt
  // with seen_epoch = 0 and match_epoch_ is already 0 relative to them.
  match_epoch_ = 0;
  covered_examined_ = 0;
}

bool SubscriptionStore::contains(SubscriptionId id) const {
  return active_index_.count(id) > 0 || covered_.count(id) > 0;
}

bool SubscriptionStore::is_active(SubscriptionId id) const {
  return active_index_.count(id) > 0;
}

}  // namespace psc::store
