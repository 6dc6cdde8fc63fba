#include "routing/broker_network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "wire/snapshot.hpp"

namespace psc::routing {

using core::Publication;
using core::Subscription;
using core::SubscriptionId;

BrokerNetwork::BrokerNetwork(NetworkConfig config) : config_(config) {}

bool BrokerNetwork::register_local(BrokerId home, const Subscription& sub,
                                   std::optional<sim::SimTime> expiry) {
  return local_subs_.try_emplace(sub.id(), LocalSub{sub, home, expiry}).second;
}

void BrokerNetwork::forget_local(SubscriptionId id) {
  const auto it = local_subs_.find(id);
  if (it == local_subs_.end()) return;
  if (transport_) transport_->cancel_timer(it->second.timer);
  local_subs_.erase(it);
}

Broker BrokerNetwork::make_broker(BrokerId id) const {
  return Broker(id, config_.store, broker_seed(config_.seed, id));
}

SimTransport& BrokerNetwork::ensure_transport() {
  if (!transport_) {
    transport_ = std::make_unique<SimTransport>(
        queue_, metrics_, config_.link, config_.link_latency, config_.seed,
        [this](BrokerId a, BrokerId b) {
          pending_escalations_.emplace_back(a, b);
        });
    transport_->set_frame_handler(
        [this](BrokerId from, BrokerId to, const wire::Announcement& msg) {
          runtimes_.at(to)->on_frame(from, msg);
        });
  }
  return *transport_;
}

BrokerRuntime& BrokerNetwork::runtime(BrokerId id) {
  SimTransport& transport = ensure_transport();
  while (runtimes_.size() < brokers_.size()) {
    runtimes_.push_back(std::make_unique<BrokerRuntime>(
        *brokers_[runtimes_.size()], transport, metrics_, publish_scratch_,
        [this](std::uint64_t token, std::span<const SubscriptionId> ids) {
          if (sink_ && token == publication_token_) {
            sink_->insert(sink_->end(), ids.begin(), ids.end());
          }
        },
        [this](SubscriptionId sid) {
          const auto live = local_subs_.find(sid);
          return live == local_subs_.end()
                     ? BrokerRuntime::Registration{false, std::nullopt}
                     : BrokerRuntime::Registration{true, live->second.expiry};
        }));
  }
  return *runtimes_.at(id);
}

void BrokerNetwork::drain_escalations() {
  if (draining_escalations_ || pending_escalations_.empty()) return;
  draining_escalations_ = true;
  // fail_link purges can themselves escalate more links (their cascades
  // run over the same faulty wire), so loop until the queue drains.
  while (!pending_escalations_.empty()) {
    const auto [a, b] = pending_escalations_.front();
    pending_escalations_.erase(pending_escalations_.begin());
    if (!link_state_.has_link(a, b)) continue;  // already down or removed
    escalated_links_.push_back(std::minmax(a, b));
    fail_link(a, b);
  }
  draining_escalations_ = false;
}

std::vector<std::pair<BrokerId, BrokerId>> BrokerNetwork::take_escalated_links() {
  return std::exchange(escalated_links_, {});
}

void BrokerNetwork::set_link_bursts(std::vector<LinkChannels::BurstWindow> bursts) {
  if (!config_.link.enabled) return;
  ensure_transport().set_bursts(std::move(bursts));
}

BrokerId BrokerNetwork::add_broker() {
  const auto id = static_cast<BrokerId>(brokers_.size());
  brokers_.push_back(std::make_unique<Broker>(make_broker(id)));
  (void)link_state_.add_broker();
  return id;
}

void BrokerNetwork::connect(BrokerId a, BrokerId b) {
  // LinkState validates first (ids, self-link, liveness, forest
  // invariant), so a rejected link leaves the neighbour lists untouched.
  link_state_.add_link(a, b);
  brokers_[a]->add_neighbor(b);
  brokers_[b]->add_neighbor(a);
}

BrokerNetwork BrokerNetwork::figure1_topology(NetworkConfig config) {
  // Paper Figure 1: nine brokers; B3 and B4 form the backbone.
  // Links: B1-B3, B2-B3, B3-B4, B4-B5, B4-B6, B4-B7, B7-B8, B7-B9.
  BrokerNetwork net(config);
  for (int i = 0; i < 9; ++i) net.add_broker();
  auto id = [](int broker_number) { return static_cast<BrokerId>(broker_number - 1); };
  net.connect(id(1), id(3));
  net.connect(id(2), id(3));
  net.connect(id(3), id(4));
  net.connect(id(4), id(5));
  net.connect(id(4), id(6));
  net.connect(id(4), id(7));
  net.connect(id(7), id(8));
  net.connect(id(7), id(9));
  return net;
}

BrokerNetwork BrokerNetwork::chain_topology(std::size_t n, NetworkConfig config) {
  if (n == 0) throw std::invalid_argument("chain_topology: n must be > 0");
  BrokerNetwork net(config);
  for (std::size_t i = 0; i < n; ++i) net.add_broker();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    net.connect(static_cast<BrokerId>(i), static_cast<BrokerId>(i + 1));
  }
  return net;
}

BrokerNetwork BrokerNetwork::random_tree_topology(std::size_t n,
                                                  std::uint64_t seed,
                                                  NetworkConfig config) {
  if (n == 0) throw std::invalid_argument("random_tree_topology: n must be > 0");
  BrokerNetwork net(config);
  for (std::size_t i = 0; i < n; ++i) net.add_broker();
  util::Rng rng(seed);
  for (std::size_t i = 1; i < n; ++i) {
    const auto parent = static_cast<BrokerId>(rng.next_below(i));
    net.connect(static_cast<BrokerId>(i), parent);
  }
  return net;
}

BrokerNetwork BrokerNetwork::grid_topology(std::size_t rows, std::size_t cols,
                                           NetworkConfig config) {
  if (rows == 0 || cols == 0 || rows * cols < 2) {
    throw std::invalid_argument("grid_topology: need rows, cols > 0 and > 1 broker");
  }
  BrokerNetwork net(config);
  for (std::size_t i = 0; i < rows * cols; ++i) net.add_broker();
  const auto at = [cols](std::size_t r, std::size_t c) {
    return static_cast<BrokerId>(r * cols + c);
  };
  // Comb spanning tree of the grid: the first row is the spine, every
  // column hangs off it. Acyclic by construction, diameter rows + cols - 2.
  for (std::size_t c = 0; c + 1 < cols; ++c) net.connect(at(0, c), at(0, c + 1));
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r + 1 < rows; ++r) {
      net.connect(at(r, c), at(r + 1, c));
    }
  }
  return net;
}

BrokerNetwork BrokerNetwork::random_regular_topology(std::size_t n,
                                                     std::size_t degree,
                                                     std::uint64_t seed,
                                                     NetworkConfig config) {
  if (degree < 2 || degree >= n || (n * degree) % 2 != 0) {
    throw std::invalid_argument(
        "random_regular_topology: need 2 <= degree < n and n * degree even");
  }
  util::Rng rng(seed);
  // Pairing model: shuffle n * degree stubs, pair them consecutively, and
  // reject draws with self-loops, parallel edges, or a disconnected graph.
  // Acceptance probability is bounded away from zero for fixed degree, so
  // a few hundred attempts is overkill; the throw is a config-error guard.
  std::vector<std::vector<std::size_t>> adjacency;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::vector<std::size_t> stubs;
    stubs.reserve(n * degree);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t k = 0; k < degree; ++k) stubs.push_back(v);
    }
    for (std::size_t i = stubs.size() - 1; i > 0; --i) {
      std::swap(stubs[i], stubs[rng.next_below(i + 1)]);
    }
    adjacency.assign(n, {});
    bool ok = true;
    for (std::size_t i = 0; ok && i < stubs.size(); i += 2) {
      const std::size_t a = stubs[i], b = stubs[i + 1];
      if (a == b) ok = false;
      for (const std::size_t peer : adjacency[a]) {
        if (peer == b) ok = false;
      }
      if (ok) {
        adjacency[a].push_back(b);
        adjacency[b].push_back(a);
      }
    }
    if (!ok) continue;
    // BFS from 0: connectivity check and spanning tree in one pass. The
    // overlay routes over the tree (tree edges only), keeping it acyclic;
    // node degrees are bounded by the graph degree.
    std::vector<BrokerId> parent(n, kInvalidBroker);
    std::vector<char> seen(n, 0);
    std::vector<std::size_t> frontier{0};
    seen[0] = 1;
    std::size_t reached = 1;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const std::size_t v = frontier[head];
      // Deterministic visit order within a node's adjacency list.
      for (const std::size_t peer : adjacency[v]) {
        if (seen[peer]) continue;
        seen[peer] = 1;
        parent[peer] = static_cast<BrokerId>(v);
        frontier.push_back(peer);
        ++reached;
      }
    }
    if (reached != n) continue;
    BrokerNetwork net(config);
    for (std::size_t i = 0; i < n; ++i) net.add_broker();
    for (std::size_t v = 1; v < n; ++v) {
      net.connect(static_cast<BrokerId>(v), parent[v]);
    }
    return net;
  }
  throw std::runtime_error(
      "random_regular_topology: no connected simple draw in 1000 attempts");
}

// --- runtime membership -------------------------------------------------

void BrokerNetwork::require_alive(BrokerId broker, const char* what) const {
  if (broker >= brokers_.size()) {
    throw std::invalid_argument(std::string("BrokerNetwork::") + what +
                                ": unknown broker");
  }
  if (!link_state_.is_alive(broker)) {
    throw std::invalid_argument(std::string("BrokerNetwork::") + what +
                                ": broker is not alive");
  }
}

MembershipUniverse BrokerNetwork::universe() const {
  MembershipUniverse universe;
  universe.brokers = brokers_.size();
  universe.links.assign(link_state_.live_links().begin(),
                        link_state_.live_links().end());
  universe.standby.assign(link_state_.failed_links().begin(),
                          link_state_.failed_links().end());
  return universe;
}

std::size_t BrokerNetwork::ghost_route_count() const {
  std::size_t ghosts = 0;
  for (std::size_t b = 0; b < brokers_.size(); ++b) {
    if (!link_state_.is_alive(static_cast<BrokerId>(b))) {
      continue;  // dead brokers are wiped; their tables are vacuously clean
    }
    for (const SubscriptionId sid : brokers_[b]->routed_ids()) {
      if (local_subs_.count(sid) == 0) ++ghosts;
    }
  }
  return ghosts;
}

void BrokerNetwork::detach_and_purge(BrokerId at, BrokerId dead) {
  // Kill the channel state with the link: in-flight frames on a detached
  // link must never arrive, and a future heal restarts both streams at
  // sequence zero. (Idempotent — both endpoints' detaches may call this.)
  if (transport_) transport_->reset_link(at, dead);
  runtime(at).purge_peer(dead);
}

void BrokerNetwork::attach_link(BrokerId a, BrokerId b) {
  // Fresh link incarnation: both directed streams restart at sequence zero
  // and anything in flight from a previous incarnation goes stale.
  if (transport_) transport_->reset_link(a, b);
  brokers_.at(a)->add_neighbor(b);
  brokers_.at(b)->add_neighbor(a);
  runtime(a).announce_over(b);
  runtime(b).announce_over(a);
  run_cascade();
}

BrokerId BrokerNetwork::add_peer(BrokerId attach_to) {
  require_alive(attach_to, "add_peer");
  ++metrics_.membership_events;
  const BrokerId id = add_broker();  // syncs link_state_'s broker count
  link_state_.add_link(attach_to, id);
  attach_link(attach_to, id);
  drain_escalations();
  return id;
}

void BrokerNetwork::remove_peer(BrokerId broker) {
  require_alive(broker, "remove_peer");
  ++metrics_.membership_events;
  // 1. Graceful departure takes its clients with it: unsubscribe every
  //    registry entry homed here (ascending id), full cascade each.
  std::vector<SubscriptionId> homed;
  for (const auto& [sid, local] : local_subs_) {
    if (local.home == broker) homed.push_back(sid);
  }
  std::sort(homed.begin(), homed.end());
  for (const SubscriptionId sid : homed) unsubscribe(broker, sid);
  // 2. Link-state repair plan (flips the broker dead, removes its links,
  //    returns the star-repair links over its former neighbours).
  const std::vector<BrokerId> former = link_state_.neighbors(broker);
  const auto repairs = link_state_.remove_peer(broker);
  // 3. Every former neighbour purges what it learned from the leaver; the
  //    leaver's own state dies with it.
  for (const BrokerId neighbor : former) detach_and_purge(neighbor, broker);
  run_cascade();
  *brokers_[broker] = make_broker(broker);
  // 4. Bring the repair links up with mutual re-announcement.
  for (const auto& [a, b] : repairs) attach_link(a, b);
  drain_escalations();
}

void BrokerNetwork::fail_link(BrokerId a, BrokerId b) {
  ++metrics_.membership_events;
  link_state_.fail_link(a, b);
  detach_and_purge(a, b);
  detach_and_purge(b, a);
  run_cascade();
  drain_escalations();
}

void BrokerNetwork::heal_link(BrokerId a, BrokerId b) {
  ++metrics_.membership_events;
  link_state_.heal_link(a, b);
  attach_link(a, b);
  drain_escalations();
}

void BrokerNetwork::add_standby_link(BrokerId a, BrokerId b) {
  link_state_.add_standby(a, b);
}

void BrokerNetwork::crash_peer(BrokerId broker) {
  require_alive(broker, "crash_peer");
  ++metrics_.membership_events;
  const auto downed = link_state_.crash_peer(broker);
  // Crash-stop: state is lost wholesale. Registry entries homed here stay
  // (their clients are unaware); TTL timers in the queue keep firing and
  // resolve against the fresh broker (wiped in place) as no-ops.
  *brokers_[broker] = make_broker(broker);
  for (const auto& [a, b] : downed) {
    detach_and_purge(a == broker ? b : a, broker);
  }
  run_cascade();
  drain_escalations();
}

BrokerNetwork::ReplaceOutcome BrokerNetwork::replace_peer(BrokerId broker) {
  if (broker >= brokers_.size()) {
    throw std::invalid_argument("BrokerNetwork::replace_peer: unknown broker");
  }
  if (link_state_.is_alive(broker)) {
    throw std::logic_error("BrokerNetwork::replace_peer: broker is alive");
  }
  ++metrics_.membership_events;
  ReplaceOutcome outcome;
  outcome.healed_links = link_state_.replace_peer(broker);

  // The client registry is the one source: every subscription homed here
  // comes back as a local route, in ascending id order. Importing arms no
  // timer; the homed TTL timers armed before the crash are still pending.
  // The broker is still link-less, so the heals below flood the routes out.
  Broker::Snapshot homed;
  homed.id = broker;
  for (const auto& [sid, local] : local_subs_) {
    if (local.home != broker) continue;
    homed.routes.push_back({local.sub, Origin{true, kInvalidBroker}});
  }
  std::sort(homed.routes.begin(), homed.routes.end(),
            [](const auto& a, const auto& b) { return a.sub.id() < b.sub.id(); });
  *brokers_[broker] = make_broker(broker);
  brokers_[broker]->import_snapshot(homed);
  outcome.restored_routes = homed.routes.size();

  // Rejoin every partition the crash created that is still open.
  for (const auto& [a, b] : outcome.healed_links) attach_link(a, b);
  drain_escalations();
  return outcome;
}

void BrokerNetwork::subscribe(BrokerId broker, const Subscription& sub) {
  if (sub.id() == core::kInvalidSubscriptionId) {
    throw std::invalid_argument("BrokerNetwork::subscribe: id must be non-zero");
  }
  if (local_subs_.count(sub.id()) > 0) {
    throw std::invalid_argument("BrokerNetwork::subscribe: duplicate id");
  }
  require_alive(broker, "subscribe");
  register_local(broker, sub, std::nullopt);
  runtime(broker).subscribe(sub, Origin{true, kInvalidBroker}, std::nullopt);
  run_cascade();
  drain_escalations();
}

void BrokerNetwork::subscribe_with_ttl(BrokerId broker, const Subscription& sub,
                                       sim::SimTime ttl) {
  if (sub.id() == core::kInvalidSubscriptionId) {
    throw std::invalid_argument("BrokerNetwork::subscribe_with_ttl: bad id");
  }
  if (local_subs_.count(sub.id()) > 0) {
    throw std::invalid_argument("BrokerNetwork::subscribe_with_ttl: duplicate id");
  }
  if (!(ttl > 0)) {
    throw std::invalid_argument("BrokerNetwork::subscribe_with_ttl: ttl <= 0");
  }
  require_alive(broker, "subscribe_with_ttl");
  const sim::SimTime expiry = queue_.now() + ttl;
  register_local(broker, sub, expiry);
  runtime(broker).subscribe(sub, Origin{true, kInvalidBroker}, expiry);
  // The subscriber side forgets the subscription at expiry too.
  local_subs_.at(sub.id()).timer = ensure_transport().schedule_timer_at(
      expiry, [this, id = sub.id()]() { forget_local(id); });
  run_cascade();
  drain_escalations();
}

void BrokerNetwork::run_cascade() {
  if (!config_.link.enabled) {
    const sim::SimTime horizon =
        queue_.now() +
        static_cast<sim::SimTime>(brokers_.size() + 1) * config_.link_latency;
    queue_.run_until(horizon);
    return;
  }
  // Lossy wire: a hop can stretch to a whole retransmit-backoff chain, so
  // the quiescence horizon scales with worst_hop_delay. Drain by peeking
  // rather than run_until so the clock stops at the LAST REAL event — a
  // run_until here would fast-forward past mid-slot TTL expiry instants,
  // breaking the workload time contract.
  const sim::SimTime deadline =
      queue_.now() + static_cast<sim::SimTime>(brokers_.size() + 1) *
                         config_.link.worst_hop_delay(config_.link_latency);
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    queue_.run_step();
  }
}

void BrokerNetwork::advance_time(sim::SimTime horizon) {
  queue_.run_until(horizon);
  drain_escalations();
}

void BrokerNetwork::unsubscribe(BrokerId broker, SubscriptionId id) {
  const auto it = local_subs_.find(id);
  if (it == local_subs_.end() || it->second.home != broker) {
    throw std::invalid_argument("BrokerNetwork::unsubscribe: unknown id");
  }
  forget_local(id);
  runtime(broker).unsubscribe(id, Origin{true, kInvalidBroker});
  run_cascade();
  drain_escalations();
}

std::vector<SubscriptionId> BrokerNetwork::publish(BrokerId broker,
                                                   const Publication& pub) {
  require_alive(broker, "publish");
  std::vector<SubscriptionId> delivered;
  sink_ = &delivered;
  runtime(broker).publish(pub, Origin{true, kInvalidBroker},
                          ++publication_token_);
  run_cascade();
  // Escalations fire before returning: a link the protocol gave up on is
  // already effectively down for this publication, so a driver that
  // mirrors take_escalated_links() into its oracle judges the delivered
  // set against the post-fail_link components.
  drain_escalations();
  sink_ = nullptr;

  const std::size_t raw = delivered.size();
  std::sort(delivered.begin(), delivered.end());
  delivered.erase(std::unique(delivered.begin(), delivered.end()),
                  delivered.end());
  metrics_.notifications_duplicated += raw - delivered.size();
  return delivered;
}

PublishRequest PublishRequest::single(BrokerId broker, core::Publication pub) {
  PublishRequest request;
  request.broker_ = broker;
  request.pub_ = std::move(pub);
  return request;
}

std::vector<std::vector<SubscriptionId>> BrokerNetwork::publish(
    const PublishRequest& request) {
  std::vector<std::vector<SubscriptionId>> delivered(1);
  delivered[0] = publish(request.broker_, request.pub_);
  return delivered;
}

std::vector<std::uint8_t> BrokerNetwork::snapshot_all() const {
  wire::ByteWriter out;
  wire::write_frame_header(out, wire::kNetworkSnapshotMagic);
  wire::write_network_config(out, config_);

  // Topology: per-broker neighbour lists in their live order. Neighbour
  // ORDER is semantic — forwarding fans out in list order, which fixes
  // event-queue tie-breaks — so it is restored verbatim, not re-derived.
  out.varint(brokers_.size());
  for (const auto& broker : brokers_) {
    out.varint(broker->neighbors().size());
    for (const BrokerId neighbor : broker->neighbors()) out.varint(neighbor);
  }

  // Membership block: the alive bitmap and the failed/standby link set.
  // Live links are implied by the neighbour lists above, so only the down
  // links need serializing.
  for (std::size_t b = 0; b < brokers_.size(); ++b) {
    out.u8(link_state_.is_alive(static_cast<BrokerId>(b)) ? 1 : 0);
  }
  out.varint(link_state_.failed_links().size());
  for (const auto& [a, b] : link_state_.failed_links()) {
    out.varint(a);
    out.varint(b);
  }

  out.f64(queue_.now());
  out.varint(publication_token_);

  // Client subscription registry (canonical id order), with TTL expiries:
  // the only state the armed timers carry that is not derivable from the
  // brokers themselves.
  std::vector<SubscriptionId> ids;
  ids.reserve(local_subs_.size());
  for (const auto& [sid, local] : local_subs_) ids.push_back(sid);
  std::sort(ids.begin(), ids.end());
  out.varint(ids.size());
  for (const SubscriptionId sid : ids) {
    const LocalSub& local = local_subs_.at(sid);
    out.varint(local.home);
    wire::write_subscription(out, local.sub);
    out.u8(local.expiry.has_value() ? 1 : 0);
    if (local.expiry) out.f64(*local.expiry);
  }

  for (const auto& broker : brokers_) {
    wire::write_broker_snapshot(out, broker->export_snapshot());
  }
  return out.take();
}

void BrokerNetwork::restore_all(std::span<const std::uint8_t> bytes) {
  wire::ByteReader in(bytes);
  wire::read_frame_header(in, wire::kNetworkSnapshotMagic, "network");
  config_ = wire::read_network_config(in);

  // Wipe this incarnation. Pending events (TTL timers of the old state)
  // die with the old queue; metrics restart at zero.
  runtimes_.clear();
  brokers_.clear();
  local_subs_.clear();
  queue_ = sim::EventQueue{};
  metrics_.reset();
  publication_token_ = 0;
  publish_scratch_ = Broker::PublishScratch{};
  link_state_ = LinkState{};
  // Transport state is runtime-only (snapshots are taken at quiescence,
  // when every stream is fully acked): discard and rebuild lazily, so both
  // ends of every link restart at sequence zero together under the
  // restored config. Fault-model streams restart too — delivery is
  // fault-invariant, so replayed ops still produce the original delivered
  // sets.
  transport_.reset();
  pending_escalations_.clear();
  escalated_links_.clear();
  sink_ = nullptr;

  // Brokers are rebuilt through add_broker so per-broker seeds re-derive
  // from the serialized config exactly as original construction did.
  const std::size_t broker_count = in.count();
  std::vector<std::vector<BrokerId>> neighbor_lists(broker_count);
  for (std::size_t b = 0; b < broker_count; ++b) {
    const std::size_t degree = in.count();
    neighbor_lists[b].reserve(degree);
    for (std::size_t k = 0; k < degree; ++k) {
      const auto neighbor = static_cast<BrokerId>(in.varint());
      if (neighbor >= broker_count) {
        throw wire::DecodeError("wire: neighbour id out of range");
      }
      neighbor_lists[b].push_back(neighbor);
    }
  }
  // Rebuild brokers and link-state together: all brokers up, live links
  // from the neighbour lists (each list verbatim, in order), then the
  // alive bitmap and the down links of the membership block. LinkState's
  // own checks reject inconsistent (corrupted) combinations.
  for (std::size_t b = 0; b < broker_count; ++b) (void)add_broker();
  try {
    for (std::size_t b = 0; b < broker_count; ++b) {
      const auto id = static_cast<BrokerId>(b);
      for (const BrokerId neighbor : neighbor_lists[b]) {
        if (!link_state_.has_link(id, neighbor)) {
          link_state_.add_link(id, neighbor);
        }
        brokers_[b]->add_neighbor(neighbor);
      }
    }
    for (std::size_t b = 0; b < broker_count; ++b) {
      const std::uint8_t bit = in.u8();
      if (bit > 1) throw wire::DecodeError("wire: bad alive bit");
      if (bit == 0) link_state_.set_dead(static_cast<BrokerId>(b));
    }
    const std::size_t failed_count = in.count();
    for (std::size_t i = 0; i < failed_count; ++i) {
      const auto a = static_cast<BrokerId>(in.varint());
      const auto b = static_cast<BrokerId>(in.varint());
      link_state_.add_standby(a, b);
    }
  } catch (const std::logic_error&) {
    throw wire::DecodeError("wire: inconsistent membership block");
  }

  const sim::SimTime now = in.f64();
  publication_token_ = in.varint();

  const std::size_t sub_count = in.count();
  std::vector<SubscriptionId> restored_ids;
  restored_ids.reserve(sub_count);
  for (std::size_t i = 0; i < sub_count; ++i) {
    const auto home = static_cast<BrokerId>(in.varint());
    if (home >= broker_count) {
      throw wire::DecodeError("wire: subscription home out of range");
    }
    const Subscription sub = wire::read_subscription(in);
    if (sub.id() == core::kInvalidSubscriptionId) {
      throw wire::DecodeError("wire: client subscription id is zero");
    }
    const std::uint8_t has_expiry = in.u8();
    if (has_expiry > 1) throw wire::DecodeError("wire: bad expiry flag");
    std::optional<sim::SimTime> expiry;
    if (has_expiry) expiry = in.f64();
    if (!register_local(home, sub, expiry)) {
      throw wire::DecodeError("wire: duplicate client subscription id");
    }
    restored_ids.push_back(sub.id());
  }

  for (std::size_t b = 0; b < broker_count; ++b) {
    brokers_[b]->import_snapshot(wire::read_broker_snapshot(in));
  }
  if (!in.at_end()) {
    throw wire::DecodeError("wire: trailing bytes after network snapshot");
  }

  // Clock: an empty-queue run_until is a pure time set.
  queue_.run_until(now);

  // Re-arm TTL expiry timers — derived state, not serialized. Per
  // subscription (canonical id order): the home broker's timer, the
  // registry-erase timer, then the other routing brokers ascending — the
  // same relative order subscribe_with_ttl + the flood produced for a
  // single subscription. Cross-subscription interleaving at an identical
  // expiry instant may differ from the original arm order; on the
  // spanning-tree overlays this is delivery-invariant (each broker's
  // expiry handling is local, and a re-announcement of a promoted
  // subscription has exactly one possible source link).
  for (const SubscriptionId sid : restored_ids) {
    LocalSub& local = local_subs_.at(sid);
    if (!local.expiry) continue;
    const sim::SimTime expiry = *local.expiry;
    runtime(local.home).arm_expiry(sid, expiry);
    local.timer = ensure_transport().schedule_timer_at(
        expiry, [this, sid]() { forget_local(sid); });
    for (std::size_t b = 0; b < broker_count; ++b) {
      const auto id = static_cast<BrokerId>(b);
      if (id == local.home) continue;
      if (brokers_[b]->routes(sid)) runtime(id).arm_expiry(sid, expiry);
    }
  }
}

std::vector<SubscriptionId> BrokerNetwork::expected_recipients(
    const Publication& pub) const {
  std::vector<SubscriptionId> ids;
  for (const auto& [sid, local] : local_subs_) {
    if (pub.matches(local.sub)) ids.push_back(sid);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<SubscriptionId> BrokerNetwork::expected_recipients(
    BrokerId from, const Publication& pub) const {
  std::vector<SubscriptionId> ids = expected_recipients(pub);
  // Every broker alive on one tree: everything registered is reachable.
  if (link_state_.alive_count() == brokers_.size() &&
      link_state_.component_count() == 1) {
    return ids;
  }
  // A subscription is reachable iff its home broker is alive and in the
  // publisher's component. Registry entries homed at a crashed broker stay
  // registered (the client is unaware), but nothing can deliver to them.
  std::erase_if(ids, [&](SubscriptionId sid) {
    const BrokerId home = local_subs_.at(sid).home;
    return !link_state_.is_alive(home) ||
           !link_state_.same_component(from, home);
  });
  return ids;
}

}  // namespace psc::routing
