// Ground-truth accounting differential: BrokerNetwork answers
// expected_recipients with a flat scan of its client registry. Seeded
// random op sequences (subscribe, TTL subscribe, unsubscribe, expiry,
// crash/replace, link fail/heal, snapshot/restore, publish) on a small
// tree and a small grid must keep both overloads equal to the flat
// oracle's sets after every op, for points inside and outside the default
// index domain, with the registry size in lockstep. Ids come back: a
// subscribe sometimes reuses a retired (unsubscribed or expired) id, and
// an unsubscribe is sometimes followed at once by a subscribe of the same
// id, each with a fresh box, so nothing left behind by an earlier
// subscription may affect the current one.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "routing/broker_network.hpp"
#include "routing/flat_oracle.hpp"
#include "util/rng.hpp"

namespace psc::routing {
namespace {

using core::Interval;
using core::Publication;
using core::Subscription;
using core::SubscriptionId;

constexpr std::size_t kAttrs = 3;
constexpr double kDomainLo = 0.0;
constexpr double kDomainHi = 100.0;

NetworkConfig accounting_config() {
  NetworkConfig config;
  config.store.policy = store::CoveragePolicy::kPairwise;
  config.store.index.domain_lo = kDomainLo;
  config.store.index.domain_hi = kDomainHi;
  config.store.index.bucket_count = 16;
  return config;
}

/// A box that may reach past the index domain, occasionally unbounded on
/// an attribute.
Subscription random_box(util::Rng& rng, SubscriptionId id) {
  std::vector<Interval> ranges;
  for (std::size_t a = 0; a < kAttrs; ++a) {
    if (rng.next_double() < 0.1) {
      ranges.push_back(Interval::everything());
      continue;
    }
    const double lo = rng.uniform(kDomainLo - 30.0, kDomainHi + 10.0);
    ranges.push_back(Interval(lo, lo + rng.uniform(5.0, 80.0)));
  }
  return Subscription(std::move(ranges), id);
}

/// A point inside the domain, or (when `outside`) one whose first
/// attribute lies beyond it, where the index clamps to its edge buckets.
Publication random_point(util::Rng& rng, bool outside) {
  std::vector<core::Value> values;
  for (std::size_t a = 0; a < kAttrs; ++a) {
    values.push_back(rng.uniform(kDomainLo, kDomainHi));
  }
  if (outside) {
    values[0] = rng.next_double() < 0.5 ? rng.uniform(kDomainLo - 40.0, kDomainLo)
                                        : rng.uniform(kDomainHi, kDomainHi + 40.0);
  }
  return Publication(std::move(values));
}

/// Drives one network and its oracle through the same op sequence.
class AccountingRun {
 public:
  AccountingRun(BrokerNetwork net, std::uint64_t seed, std::string label)
      : net_(std::move(net)), rng_(seed), label_(std::move(label)) {
    oracle_.enable_membership(net_.universe());
  }

  void run(int ops) {
    pin_pairwise_cover();
    for (int i = 0; i < ops; ++i) {
      step();
      check();
    }
  }

 private:
  BrokerNetwork net_;
  FlatOracle oracle_;
  util::Rng rng_;
  std::string label_;
  double now_ = 0.0;
  SubscriptionId next_id_ = 1;
  /// Registered ids -> (home, expiry), mirroring both registries.
  std::map<SubscriptionId, std::pair<BrokerId, std::optional<double>>> live_;
  /// Ids unsubscribed or expired, free to be subscribed again.
  std::vector<SubscriptionId> retired_;

  [[nodiscard]] bool alive(BrokerId b) const { return net_.is_alive(b); }

  std::vector<BrokerId> alive_brokers() const {
    std::vector<BrokerId> out;
    for (std::size_t b = 0; b < net_.broker_count(); ++b) {
      if (alive(static_cast<BrokerId>(b))) out.push_back(static_cast<BrokerId>(b));
    }
    return out;
  }

  template <typename T>
  T pick(const std::vector<T>& from) {
    return from[rng_.next_below(from.size())];
  }

  /// Ops start on whole seconds and TTL expiries land on half seconds, so
  /// the few link latencies a cascade adds to the network's clock never
  /// cross an expiry the oracle's clock has not.
  void tick(double seconds) {
    now_ += seconds;
    net_.advance_time(now_);
    oracle_.advance_time(now_);
    std::erase_if(live_, [&](const auto& entry) {
      const bool expired = entry.second.second && *entry.second.second <= now_;
      if (expired) retired_.push_back(entry.first);
      return expired;
    });
  }

  /// A new id, or now and then the most recently retired one, so an id
  /// often returns while timers armed for its last incarnation would
  /// still be pending.
  SubscriptionId next_id() {
    if (retired_.empty() || rng_.next_double() >= 0.3) return next_id_++;
    const SubscriptionId id = retired_.back();
    retired_.pop_back();
    return id;
  }

  void subscribe(BrokerId home, const Subscription& sub) {
    net_.subscribe(home, sub);
    oracle_.subscribe(home, sub);
    live_[sub.id()] = {home, std::nullopt};
  }

  void subscribe_with_ttl(BrokerId home, const Subscription& sub) {
    const double ttl = static_cast<double>(1 + rng_.next_below(6)) + 0.5;
    net_.subscribe_with_ttl(home, sub, ttl);
    oracle_.subscribe_with_ttl(home, sub, ttl);
    live_[sub.id()] = {home, now_ + ttl};
  }

  /// A later subscription pairwise-covers an earlier one. Under the
  /// store's default demotion the earlier one would leave match_active and
  /// vanish from ground truth; both must stay expected.
  void pin_pairwise_cover() {
    const Subscription inner({Interval(10, 20), Interval(10, 20), Interval(10, 20)},
                             next_id_++);
    const Subscription outer({Interval(0, 50), Interval(0, 50), Interval(0, 50)},
                             next_id_++);
    subscribe(0, inner);
    subscribe(1, outer);
    const Publication inside({15.0, 15.0, 15.0});
    const std::vector<SubscriptionId> both{inner.id(), outer.id()};
    EXPECT_EQ(net_.expected_recipients(inside), both) << label_;
    EXPECT_EQ(net_.expected_recipients(0, inside), both) << label_;
    EXPECT_EQ(net_.publish(0, inside), both) << label_;
  }

  void step() {
    tick(1.0);
    const std::vector<BrokerId> up = alive_brokers();
    switch (rng_.next_below(11)) {
      case 0:
      case 1:
      case 2:
        subscribe(pick(up), random_box(rng_, next_id()));
        break;
      case 3:
        subscribe_with_ttl(pick(up), random_box(rng_, next_id()));
        break;
      case 4: {
        // Half the time a TTL subscription is dropped before it expires.
        const bool mortal = rng_.next_double() < 0.5;
        std::vector<SubscriptionId> ids;
        for (const auto& [id, entry] : live_) {
          if (alive(entry.first) && (!mortal || entry.second)) ids.push_back(id);
        }
        if (ids.empty()) break;
        const SubscriptionId id = pick(ids);
        net_.unsubscribe(live_.at(id).first, id);
        oracle_.unsubscribe(live_.at(id).first, id);
        live_.erase(id);
        // Half the time the client changes its filter: the id comes back
        // at once with a fresh box, with or without a TTL.
        const double draw = rng_.next_double();
        if (draw < 0.25) {
          subscribe(pick(up), random_box(rng_, id));
        } else if (draw < 0.5) {
          subscribe_with_ttl(pick(up), random_box(rng_, id));
        } else {
          retired_.push_back(id);
        }
        break;
      }
      case 5:
        tick(4.0);  // past every expiry armed within the last few ops
        break;
      case 6: {
        if (up.size() <= 2) break;
        const BrokerId victim = pick(up);
        net_.crash_peer(victim);
        oracle_.crash_peer(victim);
        break;
      }
      case 7: {
        std::vector<BrokerId> down;
        for (std::size_t b = 0; b < net_.broker_count(); ++b) {
          if (!alive(static_cast<BrokerId>(b))) down.push_back(static_cast<BrokerId>(b));
        }
        if (down.empty()) break;
        const BrokerId back = pick(down);
        (void)net_.replace_peer(back);
        oracle_.replace_peer(back);
        break;
      }
      case 8: {
        const MembershipUniverse universe = net_.universe();
        if (universe.links.empty()) break;
        const auto [a, b] = pick(universe.links);
        net_.fail_link(a, b);
        oracle_.fail_link(a, b);
        break;
      }
      case 9: {
        const LinkState& state = net_.link_state();
        std::vector<std::pair<BrokerId, BrokerId>> healable;
        for (const auto& [a, b] : state.failed_links()) {
          if (alive(a) && alive(b) && !state.same_component(a, b)) {
            healable.emplace_back(a, b);
          }
        }
        if (healable.empty()) break;
        const auto [a, b] = pick(healable);
        net_.heal_link(a, b);
        oracle_.heal_link(a, b);
        break;
      }
      case 10: {
        if (rng_.next_double() < 0.5) {
          const std::vector<std::uint8_t> bytes = net_.snapshot_all();
          net_.restore_all(bytes);
          break;
        }
        const BrokerId from = pick(up);
        const Publication pub = random_point(rng_, rng_.next_double() < 0.5);
        std::vector<SubscriptionId> expected;
        oracle_.publish(from, pub, expected);
        EXPECT_EQ(net_.publish(from, pub), expected) << label_;
        break;
      }
    }
  }

  void check() {
    ASSERT_EQ(net_.local_subscription_count(), oracle_.live_count()) << label_;
    ASSERT_EQ(net_.local_subscription_count(), live_.size()) << label_;
    std::vector<SubscriptionId> expected;
    for (int k = 0; k < 4; ++k) {
      const Publication pub = random_point(rng_, k % 2 == 1);
      ASSERT_EQ(net_.expected_recipients(pub), oracle_.publish(pub)) << label_;
      for (const BrokerId from : alive_brokers()) {
        oracle_.publish(from, pub, expected);
        ASSERT_EQ(net_.expected_recipients(from, pub), expected)
            << label_ << " from " << from;
      }
    }
  }
};

TEST(AccountingDifferential, TreeAndGridMatchTheFlatOracleAfterEveryOp) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    AccountingRun(BrokerNetwork::random_tree_topology(7, seed, accounting_config()),
                  seed, "tree/seed" + std::to_string(seed))
        .run(300);
    BrokerNetwork grid = BrokerNetwork::grid_topology(2, 3, accounting_config());
    // Standby rungs, so a failed spine link can be bridged around.
    grid.add_standby_link(3, 4);
    grid.add_standby_link(4, 5);
    AccountingRun(std::move(grid), seed, "grid/seed" + std::to_string(seed))
        .run(300);
  }
}

TEST(AccountingDifferential, MixedArityRegistryStillMatchesByArity) {
  BrokerNetwork net = BrokerNetwork::chain_topology(3, accounting_config());
  net.subscribe(0, Subscription({Interval(0, 10), Interval(0, 10)}, 1));
  net.subscribe(1, Subscription({Interval(0, 10), Interval(0, 10), Interval(0, 10)}, 2));
  net.subscribe(2, Subscription({Interval(5, 200), Interval(-50, 10)}, 3));
  EXPECT_EQ(net.expected_recipients(Publication({5.0, 5.0})),
            (std::vector<SubscriptionId>{1, 3}));
  EXPECT_EQ(net.expected_recipients(Publication({5.0, 5.0, 5.0})),
            (std::vector<SubscriptionId>{2}));
  EXPECT_EQ(net.expected_recipients(1, Publication({150.0, -20.0})),
            (std::vector<SubscriptionId>{3}));
}

}  // namespace
}  // namespace psc::routing
