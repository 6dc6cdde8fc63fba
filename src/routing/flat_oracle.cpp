#include "routing/flat_oracle.hpp"

#include <stdexcept>
#include <string>

namespace psc::routing {

using core::Publication;
using core::Subscription;
using core::SubscriptionId;

namespace {

store::StoreConfig oracle_store_config() {
  // Ground-truth configuration: no coverage (every subscription stays
  // individually matchable) and no interval index — matching must stay a
  // direct flat box scan, independent of the structures under test.
  store::StoreConfig config;
  config.policy = store::CoveragePolicy::kNone;
  config.use_index = false;
  return config;
}

}  // namespace

FlatOracle::FlatOracle() : store_(oracle_store_config(), /*seed=*/0) {}

void FlatOracle::require_alive(BrokerId broker, const char* what) const {
  if (link_state_ && !link_state_->is_alive(broker)) {
    throw std::invalid_argument(std::string("FlatOracle::") + what +
                                ": broker is not alive");
  }
}

void FlatOracle::subscribe(BrokerId broker, const Subscription& sub) {
  if (sub.id() == core::kInvalidSubscriptionId) {
    throw std::invalid_argument("FlatOracle::subscribe: id must be non-zero");
  }
  if (meta_.count(sub.id()) > 0) {
    throw std::invalid_argument("FlatOracle::subscribe: duplicate id");
  }
  require_alive(broker, "subscribe");
  meta_.emplace(sub.id(), Meta{broker, std::nullopt});
  (void)store_.insert(sub);
}

void FlatOracle::subscribe_with_ttl(BrokerId broker, const Subscription& sub,
                                    sim::SimTime ttl) {
  if (sub.id() == core::kInvalidSubscriptionId) {
    throw std::invalid_argument("FlatOracle::subscribe_with_ttl: bad id");
  }
  if (meta_.count(sub.id()) > 0) {
    throw std::invalid_argument("FlatOracle::subscribe_with_ttl: duplicate id");
  }
  if (!(ttl > 0)) {
    throw std::invalid_argument("FlatOracle::subscribe_with_ttl: ttl <= 0");
  }
  require_alive(broker, "subscribe_with_ttl");
  meta_.emplace(sub.id(), Meta{broker, now_ + ttl});
  (void)store_.insert(sub);
}

void FlatOracle::unsubscribe(BrokerId broker, SubscriptionId id) {
  const auto it = meta_.find(id);
  if (it == meta_.end() || it->second.home != broker) {
    throw std::invalid_argument("FlatOracle::unsubscribe: unknown id");
  }
  meta_.erase(it);
  (void)store_.erase(id);
}

void FlatOracle::expire_due() {
  for (auto it = meta_.begin(); it != meta_.end();) {
    if (it->second.expiry && *it->second.expiry <= now_) {
      (void)store_.erase(it->first);
      it = meta_.erase(it);
    } else {
      ++it;
    }
  }
}

void FlatOracle::advance_time(sim::SimTime horizon) {
  if (horizon > now_) now_ = horizon;
  expire_due();
}

void FlatOracle::publish(const Publication& pub,
                         std::vector<SubscriptionId>& out) {
  out.clear();
  // kNone keeps every subscription active, so match_active is the full
  // delivered set; the store appends sorted ascending.
  store_.match_active(pub, out);
}

std::vector<SubscriptionId> FlatOracle::publish(const Publication& pub) {
  std::vector<SubscriptionId> delivered;
  publish(pub, delivered);
  return delivered;
}

// --- membership mirroring ------------------------------------------------

void FlatOracle::enable_membership(const MembershipUniverse& universe) {
  if (link_state_) {
    throw std::logic_error("FlatOracle::enable_membership: already engaged");
  }
  link_state_.emplace(universe);
}

const LinkState& FlatOracle::link_state() const {
  if (!link_state_) {
    throw std::logic_error("FlatOracle::link_state: membership not engaged");
  }
  return *link_state_;
}

BrokerId FlatOracle::add_peer(BrokerId attach_to) {
  if (!link_state_) {
    throw std::logic_error("FlatOracle::add_peer: membership not engaged");
  }
  const BrokerId id = link_state_->add_broker();
  link_state_->add_link(attach_to, id);
  return id;
}

void FlatOracle::remove_peer(BrokerId broker) {
  if (!link_state_) {
    throw std::logic_error("FlatOracle::remove_peer: membership not engaged");
  }
  require_alive(broker, "remove_peer");
  // Graceful departure takes its clients with it, same as the network.
  for (auto it = meta_.begin(); it != meta_.end();) {
    if (it->second.home == broker) {
      (void)store_.erase(it->first);
      it = meta_.erase(it);
    } else {
      ++it;
    }
  }
  (void)link_state_->remove_peer(broker);
}

void FlatOracle::crash_peer(BrokerId broker) {
  if (!link_state_) {
    throw std::logic_error("FlatOracle::crash_peer: membership not engaged");
  }
  require_alive(broker, "crash_peer");
  // Crash keeps the registry entries: the clients are unaware, and the
  // component filter makes their subscriptions unreachable until a
  // replacement arrives (or TTL takes them).
  (void)link_state_->crash_peer(broker);
}

void FlatOracle::replace_peer(BrokerId broker) {
  if (!link_state_) {
    throw std::logic_error("FlatOracle::replace_peer: membership not engaged");
  }
  (void)link_state_->replace_peer(broker);
}

void FlatOracle::fail_link(BrokerId a, BrokerId b) {
  if (!link_state_) {
    throw std::logic_error("FlatOracle::fail_link: membership not engaged");
  }
  link_state_->fail_link(a, b);
}

void FlatOracle::heal_link(BrokerId a, BrokerId b) {
  if (!link_state_) {
    throw std::logic_error("FlatOracle::heal_link: membership not engaged");
  }
  link_state_->heal_link(a, b);
}

void FlatOracle::publish(BrokerId from, const Publication& pub,
                         std::vector<SubscriptionId>& out) {
  if (!link_state_) {
    publish(pub, out);
    return;
  }
  require_alive(from, "publish");
  scratch_.clear();
  store_.match_active(pub, scratch_);
  out.clear();
  for (const SubscriptionId sid : scratch_) {
    const Meta& meta = meta_.at(sid);
    if (!link_state_->is_alive(meta.home)) continue;
    if (!link_state_->same_component(from, meta.home)) continue;
    out.push_back(sid);
  }
}

}  // namespace psc::routing
