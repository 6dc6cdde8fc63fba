#include "routing/membership.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace psc::routing {

namespace {

constexpr std::uint32_t kNoComponent = 0xffffffffU;

std::pair<BrokerId, BrokerId> norm(BrokerId a, BrokerId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

}  // namespace

LinkState::LinkState(const MembershipUniverse& universe) {
  alive_.assign(universe.brokers, 1);
  for (const auto& [a, b] : universe.links) add_link(a, b);
  for (const auto& [a, b] : universe.standby) add_standby(a, b);
}

void LinkState::check_id(BrokerId b, const char* what) const {
  if (b >= alive_.size()) {
    throw std::invalid_argument(std::string("LinkState::") + what +
                                ": unknown broker id");
  }
}

BrokerId LinkState::add_broker() {
  alive_.push_back(1);
  components_dirty_ = true;
  return static_cast<BrokerId>(alive_.size() - 1);
}

void LinkState::add_link(BrokerId a, BrokerId b) {
  check_id(a, "add_link");
  check_id(b, "add_link");
  if (a == b) throw std::invalid_argument("LinkState::add_link: self-link");
  if (!alive_[a] || !alive_[b]) {
    throw std::logic_error("LinkState::add_link: dead endpoint");
  }
  if (same_component(a, b)) {
    throw std::logic_error(
        "LinkState::add_link: endpoints already connected (forest invariant)");
  }
  const auto key = norm(a, b);
  if (failed_.count(key) > 0) {
    throw std::logic_error("LinkState::add_link: link exists (failed)");
  }
  links_.insert(key);
  components_dirty_ = true;
}

void LinkState::add_standby(BrokerId a, BrokerId b) {
  check_id(a, "add_standby");
  check_id(b, "add_standby");
  if (a == b) throw std::invalid_argument("LinkState::add_standby: self-link");
  const auto key = norm(a, b);
  if (links_.count(key) > 0) {
    throw std::logic_error("LinkState::add_standby: link is live");
  }
  failed_.insert(key);
}

void LinkState::fail_link(BrokerId a, BrokerId b) {
  check_id(a, "fail_link");
  check_id(b, "fail_link");
  const auto key = norm(a, b);
  if (links_.erase(key) == 0) {
    throw std::invalid_argument("LinkState::fail_link: link is not live");
  }
  failed_.insert(key);
  components_dirty_ = true;
}

void LinkState::heal_link(BrokerId a, BrokerId b) {
  check_id(a, "heal_link");
  check_id(b, "heal_link");
  const auto key = norm(a, b);
  if (failed_.count(key) == 0) {
    throw std::invalid_argument("LinkState::heal_link: link is not failed");
  }
  if (!alive_[a] || !alive_[b]) {
    throw std::logic_error("LinkState::heal_link: dead endpoint");
  }
  if (same_component(a, b)) {
    throw std::logic_error(
        "LinkState::heal_link: endpoints already connected (forest invariant)");
  }
  failed_.erase(key);
  links_.insert(key);
  components_dirty_ = true;
}

std::vector<std::pair<BrokerId, BrokerId>> LinkState::remove_peer(BrokerId b) {
  check_id(b, "remove_peer");
  if (!alive_[b]) throw std::logic_error("LinkState::remove_peer: dead broker");
  const std::vector<BrokerId> former = neighbors(b);
  // A leaving broker takes every incident link — live and provisioned —
  // with it; there is nothing left to heal to.
  for (auto it = links_.begin(); it != links_.end();) {
    it = (it->first == b || it->second == b) ? links_.erase(it) : std::next(it);
  }
  for (auto it = failed_.begin(); it != failed_.end();) {
    it = (it->first == b || it->second == b) ? failed_.erase(it) : std::next(it);
  }
  alive_[b] = 0;
  components_dirty_ = true;

  // Star repair over the former neighbours: the lowest-id one becomes the
  // hub. On a tree the neighbours land in deg(b) distinct components, so
  // every spoke bridges; the same_component guard keeps the plan correct
  // even if standby heals elsewhere already reconnected a pair.
  std::vector<std::pair<BrokerId, BrokerId>> repairs;
  if (former.size() > 1) {
    const BrokerId hub = former.front();
    for (std::size_t i = 1; i < former.size(); ++i) {
      if (same_component(hub, former[i])) continue;
      // If the spoke coincides with a failed/standby link, this repair IS
      // bringing that provisioned link up; otherwise provision a new one.
      if (failed_.count(norm(hub, former[i])) > 0) {
        heal_link(hub, former[i]);
      } else {
        add_link(hub, former[i]);
      }
      repairs.emplace_back(hub, former[i]);
    }
  }
  return repairs;
}

std::vector<std::pair<BrokerId, BrokerId>> LinkState::crash_peer(BrokerId b) {
  check_id(b, "crash_peer");
  if (!alive_[b]) throw std::logic_error("LinkState::crash_peer: dead broker");
  std::vector<std::pair<BrokerId, BrokerId>> downed;
  for (auto it = links_.begin(); it != links_.end();) {
    if (it->first == b || it->second == b) {
      downed.push_back(*it);
      failed_.insert(*it);
      it = links_.erase(it);
    } else {
      ++it;
    }
  }
  alive_[b] = 0;
  components_dirty_ = true;
  return downed;
}

void LinkState::set_dead(BrokerId b) {
  check_id(b, "set_dead");
  for (const auto& [x, y] : links_) {
    if (x == b || y == b) {
      throw std::logic_error("LinkState::set_dead: live link incident");
    }
  }
  alive_[b] = 0;
  components_dirty_ = true;
}

std::vector<std::pair<BrokerId, BrokerId>> LinkState::replace_peer(BrokerId b) {
  check_id(b, "replace_peer");
  if (alive_[b]) {
    throw std::logic_error("LinkState::replace_peer: broker is alive");
  }
  alive_[b] = 1;
  components_dirty_ = true;
  // Heal former links in ascending-peer order while they still bridge
  // distinct components: the replacement rejoins every partition its crash
  // created, but never closes a cycle a standby heal formed meanwhile.
  std::vector<std::pair<BrokerId, BrokerId>> healed;
  std::vector<std::pair<BrokerId, BrokerId>> candidates;
  for (const auto& link : failed_) {
    if (link.first == b || link.second == b) candidates.push_back(link);
  }
  for (const auto& [x, y] : candidates) {
    const BrokerId other = (x == b) ? y : x;
    if (!alive_[other] || same_component(b, other)) continue;
    heal_link(x, y);
    healed.emplace_back(x, y);
  }
  return healed;
}

std::size_t LinkState::alive_count() const noexcept {
  return static_cast<std::size_t>(
      std::count(alive_.begin(), alive_.end(), char{1}));
}

bool LinkState::is_alive(BrokerId b) const {
  check_id(b, "is_alive");
  return alive_[b] != 0;
}

bool LinkState::has_link(BrokerId a, BrokerId b) const {
  check_id(a, "has_link");
  check_id(b, "has_link");
  return links_.count(norm(a, b)) > 0;
}

bool LinkState::has_failed_link(BrokerId a, BrokerId b) const {
  check_id(a, "has_failed_link");
  check_id(b, "has_failed_link");
  return failed_.count(norm(a, b)) > 0;
}

std::vector<BrokerId> LinkState::neighbors(BrokerId b) const {
  check_id(b, "neighbors");
  std::vector<BrokerId> out;
  for (const auto& [x, y] : links_) {
    if (x == b) out.push_back(y);
    if (y == b) out.push_back(x);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void LinkState::refresh_components() const {
  component_.assign(alive_.size(), kNoComponent);
  // Adjacency from the live link set; BFS labels each alive component.
  std::vector<std::vector<BrokerId>> adjacency(alive_.size());
  for (const auto& [a, b] : links_) {
    adjacency[a].push_back(b);
    adjacency[b].push_back(a);
  }
  component_count_ = 0;
  std::vector<BrokerId> frontier;
  for (BrokerId start = 0; start < alive_.size(); ++start) {
    if (!alive_[start] || component_[start] != kNoComponent) continue;
    const std::uint32_t label = component_count_++;
    component_[start] = label;
    frontier.assign(1, start);
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      for (const BrokerId peer : adjacency[frontier[head]]) {
        if (component_[peer] != kNoComponent) continue;
        component_[peer] = label;
        frontier.push_back(peer);
      }
    }
  }
  components_dirty_ = false;
}

bool LinkState::same_component(BrokerId a, BrokerId b) const {
  check_id(a, "same_component");
  check_id(b, "same_component");
  if (!alive_[a] || !alive_[b]) return false;
  if (components_dirty_) refresh_components();
  return component_[a] == component_[b];
}

std::size_t LinkState::component_count() const {
  if (components_dirty_) refresh_components();
  return component_count_;
}

}  // namespace psc::routing
