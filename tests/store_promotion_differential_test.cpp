// Differential test of the store's cover DAG under random insert/erase
// streams. Promotion re-checks only c ∩ a when active a is erased, which
// is sound only while every listed coverer is a live active whose union
// covers its dependent. After every op this suite checks:
//   * every coverer of every covered entry is a live active, and only
//     actives have covered children (all policies);
//   * the coverers' union exactly covers the entry (kPairwise, kExact;
//     kGroup's YES is probabilistic, so only liveness is checked there);
//   * the active and covered id sets equal a reference that re-checks
//     covered subscriptions on their full box (kPairwise, kExact).
// Boxes sit on a small integer grid, so coverers often touch a dependent
// only on its boundary and c ∩ a is a degenerate face; the suite counts
// those re-checks and requires that they happened.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "baseline/exact_subsumption.hpp"
#include "store/subscription_store.hpp"
#include "util/rng.hpp"

namespace psc::store {
namespace {

using core::Interval;
using core::Subscription;
using core::SubscriptionId;

/// A box on the integer grid [0, 20]^m with sides 1..10, at times wide
/// enough to cover (and demote) several others.
Subscription grid_box(std::size_t m, SubscriptionId id, util::Rng& rng) {
  const bool wide = rng.bernoulli(0.15);
  std::vector<Interval> ranges(m);
  for (auto& range : ranges) {
    const auto width = wide ? rng.uniform_int(6, 14) : rng.uniform_int(1, 6);
    const auto lo = rng.uniform_int(0, 20 - width);
    range = {static_cast<double>(lo), static_cast<double>(lo + width)};
  }
  return Subscription(std::move(ranges), id);
}

bool zero_measure(const Subscription& box) {
  for (const Interval& range : box.ranges()) {
    if (!(range.width() > 0.0)) return true;
  }
  return false;
}

/// Decision the reference makes for a full box against `actives`.
bool reference_covers(CoveragePolicy policy, const Subscription& sub,
                      const std::vector<Subscription>& actives) {
  if (policy == CoveragePolicy::kPairwise) {
    return std::any_of(actives.begin(), actives.end(),
                       [&](const Subscription& a) { return a.covers(sub); });
  }
  std::vector<const Subscription*> group;
  for (const Subscription& active : actives) {
    if (active.intersects(sub)) group.push_back(&active);
  }
  return !group.empty() && baseline::exactly_covered(sub, group);
}

/// The promotion behaviour that re-checks whole boxes: on erasing an
/// active, every covered subscription is re-checked on its full box
/// against the current actives and promoted on NO. It keeps no coverer
/// lists. Which of two dependents that cover each other ends up active
/// depends on the order they are re-checked in, so the caller passes the
/// tested store's cover-DAG order for the erased active; the remaining
/// covered entries follow by id, and a correct DAG makes them all YES.
class ReferenceStore {
 public:
  ReferenceStore(CoveragePolicy policy, bool demote)
      : policy_(policy), demote_(demote) {}

  void insert(const Subscription& sub) {
    if (reference_covers(policy_, sub, actives_)) {
      covered_.emplace(sub.id(), sub);
    } else {
      add_active(sub);
    }
  }

  void erase(SubscriptionId id, const std::vector<SubscriptionId>& order) {
    if (covered_.erase(id) > 0) return;
    std::erase_if(actives_,
                  [&](const Subscription& a) { return a.id() == id; });
    std::vector<SubscriptionId> recheck = order;
    for (const auto& [cid, sub] : covered_) {
      if (std::find(order.begin(), order.end(), cid) == order.end()) {
        recheck.push_back(cid);
      }
    }
    for (const SubscriptionId cid : recheck) {
      const auto it = covered_.find(cid);
      if (it == covered_.end()) continue;
      if (reference_covers(policy_, it->second, actives_)) continue;
      const Subscription sub = it->second;
      covered_.erase(it);
      add_active(sub);
    }
  }

  [[nodiscard]] std::vector<SubscriptionId> active_ids() const {
    std::vector<SubscriptionId> ids;
    for (const Subscription& active : actives_) ids.push_back(active.id());
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  [[nodiscard]] std::vector<SubscriptionId> covered_ids() const {
    std::vector<SubscriptionId> ids;
    for (const auto& [id, sub] : covered_) ids.push_back(id);
    return ids;
  }

 private:
  void add_active(const Subscription& sub) {
    if (demote_) {
      for (auto it = actives_.begin(); it != actives_.end();) {
        if (sub.covers(*it)) {
          covered_.emplace(it->id(), *it);
          it = actives_.erase(it);
        } else {
          ++it;
        }
      }
    }
    actives_.push_back(sub);
  }

  CoveragePolicy policy_;
  bool demote_;
  std::vector<Subscription> actives_;
  std::map<SubscriptionId, Subscription> covered_;
};

struct StreamCase {
  CoveragePolicy policy;
  std::size_t m;
  bool demote;
  std::uint64_t seed;
};

std::string describe(const StreamCase& c) {
  return std::string(to_string(c.policy)) + " m=" + std::to_string(c.m) +
         " demote=" + (c.demote ? "on" : "off") +
         " seed=" + std::to_string(c.seed);
}

/// Re-check counts a stream exercised, summed over streams per policy.
struct Exercised {
  std::size_t rechecks = 0;
  std::size_t degenerate_faces = 0;
  std::size_t promotions = 0;
  std::size_t stayed_covered = 0;
};

void run_stream(const StreamCase& c, Exercised& seen) {
  SCOPED_TRACE(describe(c));
  StoreConfig config;
  config.policy = c.policy;
  config.demote_covered_actives = c.demote;
  config.engine.max_iterations = 3'000;
  SubscriptionStore store(config, c.seed);
  ReferenceStore reference(c.policy, c.demote);
  const bool exact_verdicts = c.policy != CoveragePolicy::kGroup;
  util::Rng rng(c.seed * 7919 + c.m);
  std::vector<SubscriptionId> live;
  SubscriptionId next_id = 1;

  for (int op = 0; op < 400; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    if (live.size() < 6 || (live.size() < 40 && rng.bernoulli(0.55))) {
      const Subscription sub = grid_box(c.m, next_id++, rng);
      store.insert(sub);
      reference.insert(sub);
      live.push_back(sub.id());
    } else {
      const std::size_t victim = rng.next_below(live.size());
      const SubscriptionId id = live[victim];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      std::vector<SubscriptionId> order;
      if (store.is_active(id)) {
        const Subscription erased = *store.find(id);
        for (const auto& record : store.export_snapshot().children) {
          if (record.coverer == id) order = record.covered_ids;
        }
        seen.rechecks += order.size();
        for (const SubscriptionId cid : order) {
          if (zero_measure(store.find(cid)->intersect(erased))) {
            ++seen.degenerate_faces;
          }
        }
      }
      const auto result = store.erase_reporting(id);
      ASSERT_TRUE(result.erased);
      seen.promotions += result.promoted.size();
      seen.stayed_covered += order.size() - result.promoted.size();
      reference.erase(id, order);
    }

    const auto snapshot = store.export_snapshot();
    for (const auto& record : snapshot.covered) {
      ASSERT_FALSE(record.coverers.empty()) << "covered " << record.sub.id();
      std::vector<const Subscription*> union_of;
      for (const SubscriptionId coverer : record.coverers) {
        ASSERT_TRUE(store.is_active(coverer))
            << "covered " << record.sub.id() << " lists dead coverer "
            << coverer;
        union_of.push_back(store.find(coverer));
      }
      if (exact_verdicts) {
        ASSERT_TRUE(baseline::exactly_covered(record.sub, union_of))
            << "coverers of " << record.sub.id() << " do not cover it";
      }
    }
    for (const auto& record : snapshot.children) {
      ASSERT_TRUE(store.is_active(record.coverer))
          << "covered " << record.coverer << " has children";
    }
    if (exact_verdicts) {
      std::vector<SubscriptionId> active_ids;
      for (const Subscription& active : snapshot.actives) {
        active_ids.push_back(active.id());
      }
      std::sort(active_ids.begin(), active_ids.end());
      std::vector<SubscriptionId> covered_ids;
      for (const auto& record : snapshot.covered) {
        covered_ids.push_back(record.sub.id());
      }
      ASSERT_EQ(active_ids, reference.active_ids());
      ASSERT_EQ(covered_ids, reference.covered_ids());
    }
  }
}

void run_policy(CoveragePolicy policy) {
  Exercised seen;
  for (const std::size_t m : {2u, 3u}) {
    for (const bool demote : {true, false}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        run_stream({policy, m, demote, seed}, seen);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // The streams must reach every branch the invariants guard.
  EXPECT_GT(seen.promotions, 0u);
  EXPECT_GT(seen.stayed_covered, 0u);
  if (policy != CoveragePolicy::kPairwise) {
    // Pairwise coverers contain their dependents, so c ∩ a = c there.
    EXPECT_GT(seen.degenerate_faces, 0u);
  }
}

TEST(StorePromotionDifferential, PairwiseMatchesFullBoxReference) {
  run_policy(CoveragePolicy::kPairwise);
}

TEST(StorePromotionDifferential, ExactMatchesFullBoxReference) {
  run_policy(CoveragePolicy::kExact);
}

TEST(StorePromotionDifferential, GroupCoverersStayLive) {
  run_policy(CoveragePolicy::kGroup);
}

}  // namespace
}  // namespace psc::store
