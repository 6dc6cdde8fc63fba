// perfbench — the repository benchmark. One closed-loop client drives a
// named workload (inputs.cpp) against the in-process BrokerNetwork or a
// psc_brokerd cluster, checks every delivered set against FlatOracle, and
// prints the end-to-end metrics (--trace=0) or the per-layer metrics of a
// traced run (--trace=1) as the last stdout line, one JSON object.
//
// Every client op is a quiescence barrier, so the load is one client with
// one op outstanding. Only time spent inside the system's calls is
// measured; oracle checks and bookkeeping run between ops.
//
// Usage: perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  [--brokerd=PATH] [--spans-out=FILE] [--size=full|tiny]
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baseline/exact_subsumption.hpp"
#include "core/conflict_table.hpp"
#include "core/engine.hpp"
#include "core/fast_decisions.hpp"
#include "core/mcs.hpp"
#include "core/rspc.hpp"
#include "core/witness_estimate.hpp"
#include "index/interval_index.hpp"
#include "inputs.hpp"
#include "net/cluster.hpp"
#include "net/message.hpp"
#include "routing/broker_network.hpp"
#include "routing/flat_oracle.hpp"
#include "store/subscription_store.hpp"
#include "trace.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "wire/byte_buffer.hpp"

namespace perfbench {
namespace {

using psc::core::Publication;
using psc::core::Subscription;
using psc::core::SubscriptionId;
using psc::routing::BrokerId;
using psc::routing::BrokerNetwork;
using psc::store::CoveragePolicy;

/// Exact subsumption is worst-case exponential; instances that explode
/// past this many residue fragments are counted as given up and left out
/// of core.check_vs_exact_ratio.
constexpr std::size_t kExactFragmentLimit = 50'000;

/// The exact baseline replays every this-many-th engine instance, to keep
/// a traced run of the engine-heavy workload well inside its time limit.
constexpr std::uint64_t kExactEvery = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string brokerd;
  std::string spans_out;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// ------------------------------------------------------------- systems ---

/// Kept below 2^63: psc_brokerd parses --seed as a signed integer.
std::uint64_t network_seed(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x6e6574776f726b21ULL;
  return psc::util::splitmix64(state) >> 1;
}

psc::routing::NetworkConfig network_config(const WorkloadSpec& spec,
                                           std::uint64_t seed) {
  // Default NetworkConfig otherwise: one match shard, no publish pipeline,
  // perfect links.
  psc::routing::NetworkConfig config;
  config.store.policy = spec.policy;
  if (spec.rspc_cap != 0) config.store.engine.max_iterations = spec.rspc_cap;
  config.seed = network_seed(seed);
  return config;
}

std::vector<std::pair<BrokerId, BrokerId>> star_links(std::size_t brokers) {
  std::vector<std::pair<BrokerId, BrokerId>> links;
  for (BrokerId b = 1; b < brokers; ++b) links.emplace_back(0, b);
  return links;
}

std::unique_ptr<BrokerNetwork> build_overlay(const WorkloadSpec& spec,
                                             std::uint64_t seed) {
  const auto config = network_config(spec, seed);
  if (!spec.star) {
    return std::make_unique<BrokerNetwork>(
        BrokerNetwork::random_tree_topology(spec.brokers, kLayoutSeed, config));
  }
  auto net = std::make_unique<BrokerNetwork>(config);
  for (std::size_t b = 0; b < spec.brokers; ++b) (void)net->add_broker();
  for (const auto& [a, b] : star_links(spec.brokers)) net->connect(a, b);
  return net;
}

std::unique_ptr<psc::net::Cluster> make_cluster(
    const WorkloadSpec& spec, const Args& args,
    std::vector<std::pair<BrokerId, BrokerId>> links) {
  psc::net::ClusterOptions options;
  options.brokerd_path = args.brokerd;
  options.brokers = spec.brokers;
  options.links = std::move(links);
  options.seed = network_config(spec, args.seed).seed;
  options.match_shards = 1;
  options.policy = std::string(psc::store::to_string(spec.policy));
  return std::make_unique<psc::net::Cluster>(options);
}

double cpu_seconds(const rusage& usage) {
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

rusage usage_of(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return usage;
}

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) * 1e-3;
}

// ------------------------------------------------------- traced mirrors ---

/// A benchmark-side copy of one broker's subscription state, kept in
/// lockstep with the system through public APIs only, so the traced run
/// can time direct layer calls on the same data the broker holds.
struct Mirror {
  Mirror(const psc::store::StoreConfig& config, std::size_t attributes,
         std::uint64_t seed)
      : store(config, seed), routed(attributes), actives(attributes) {}

  /// The workload's coverage policy over every subscription the broker
  /// routes (what its link stores check against).
  psc::store::SubscriptionStore store;
  /// Every routed subscription (what publication matching stabs).
  psc::index::IntervalIndex routed;
  /// The store's active set (what coverage candidate gathering intersects).
  psc::index::IntervalIndex actives;

  psc::store::InsertResult insert(const Subscription& sub) {
    auto result = store.insert(sub);
    routed.insert(sub);
    if (result.accepted_active) actives.insert(sub);
    for (const SubscriptionId id : result.demoted) actives.erase(id);
    return result;
  }

  psc::store::SubscriptionStore::EraseResult erase(SubscriptionId id) {
    auto result = store.erase_reporting(id);
    routed.erase(id);
    actives.erase(id);
    // A promoted subscription re-enters the active set through the store's
    // insert path, which may demote actives it covers; those intersect it.
    std::vector<SubscriptionId> near;
    for (const SubscriptionId promoted : result.promoted) {
      const Subscription& sub = *store.find(promoted);
      actives.insert(sub);
      near.clear();
      actives.box_intersect(sub, near);
      for (const SubscriptionId other : near) {
        if (!store.is_active(other)) actives.erase(other);
      }
    }
    return result;
  }
};

/// Per-layer counts gathered at the same boundaries as the spans.
struct LayerCounts {
  std::uint64_t path[6] = {};
  std::vector<double> candidates;
  double mcs_kept = 0, mcs_input = 0;
  std::vector<double> rspc_iterations;
  std::uint64_t rspc_runs = 0, rspc_capped = 0;
  std::vector<double> iterations_over_d;
  double check_us_on_exact = 0, exact_us = 0;
  std::uint64_t exact_gave_up = 0;
  std::vector<double> stab_cost, box_cost, delta_size;
  double stab_matches = 0, stab_cost_total = 0;
  std::uint64_t compactions = 0;
  std::uint64_t inserts = 0, covered_inserts = 0, group_checks = 0;
  std::uint64_t erases = 0, promotions = 0;
  std::uint64_t matches = 0, covered_examined = 0;
  std::vector<double> fanout;
  double bytes = 0;
  std::uint64_t suppressed = 0, sub_messages = 0;
  std::uint64_t publish_hops = 0, publishes = 0;
  double client_cpu_us = 0;  ///< supervisor CPU inside Cluster calls
  double broker_cpu_s = 0;
  std::uint64_t broker_ops = 0;  ///< client ops brokerd served, set-up included
  std::uint64_t ops = 0;
};

// ------------------------------------------------------------ one pass ---

struct PassResult {
  std::vector<double> setup_s;     ///< one per episode
  std::vector<double> latency_us[kOpKinds];
  std::vector<double> twin_us[kOpKinds];
  std::vector<double> root_us;  ///< every op, trace order
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t divergent = 0;       ///< publishes the oracle disagrees with
  std::uint64_t twin_divergent = 0;  ///< twin publishes vs the oracle
  std::uint64_t twin_mismatch = 0;   ///< system vs twin delivered sets
  std::uint64_t lost = 0;            ///< sim::Metrics::notifications_lost
  std::uint64_t coverage_checks = 0;
  std::uint64_t sub_messages = 0;  ///< forwarded during subscribe ops
  std::uint64_t pub_messages = 0;  ///< forwarded during publish ops
  double routing_entries_per_broker = 0;  ///< mean over episodes
  double peak_rss_mb = 0;
  std::string first_error;
  LayerCounts layers;

  /// Pools the next episode's result into this one (untraced runs only:
  /// per-layer counts are not pooled).
  void append(PassResult&& next) {
    const auto episodes = static_cast<double>(setup_s.size());
    routing_entries_per_broker = (routing_entries_per_broker * episodes +
                                  next.routing_entries_per_broker) / (episodes + 1);
    setup_s.insert(setup_s.end(), next.setup_s.begin(), next.setup_s.end());
    for (std::size_t k = 0; k < kOpKinds; ++k) {
      latency_us[k].insert(latency_us[k].end(), next.latency_us[k].begin(),
                           next.latency_us[k].end());
    }
    root_us.insert(root_us.end(), next.root_us.begin(), next.root_us.end());
    attempted += next.attempted;
    failed += next.failed;
    divergent += next.divergent;
    twin_divergent += next.twin_divergent;
    twin_mismatch += next.twin_mismatch;
    lost += next.lost;
    coverage_checks += next.coverage_checks;
    sub_messages += next.sub_messages;
    pub_messages += next.pub_messages;
    peak_rss_mb = std::max(peak_rss_mb, next.peak_rss_mb);
    if (first_error.empty()) first_error = std::move(next.first_error);
  }
};

class Pass {
 public:
  Pass(const WorkloadSpec& spec, const Args& args, const Inputs& inputs, bool traced)
      : spec_(spec),
        args_(args),
        inputs_(inputs),
        traced_(traced),
        tcp_(spec.transport == Transport::kTcp),
        cluster_twin_(!tcp_ && traced && spec.tcp_twin),
        tracer_(tcp_ ? "net" : "routing", tcp_ ? "routing" : "net"),
        engine_(network_config(spec, args.seed).store.engine, args.seed),
        rspc_rng_(args.seed ^ 0x72737063ULL) {}

  PassResult run() {
    set_up();
    if (traced_) build_mirrors();
    const auto start = view().metrics();
    const std::uint64_t compactions = total_compactions();
    for (std::size_t i = 0; i < inputs_.ops.size(); ++i) step(i, inputs_.ops[i]);
    const auto end = view().metrics();
    result_.lost = end.notifications_lost - start.notifications_lost;
    result_.coverage_checks =
        (end.subscription_messages - start.subscription_messages) +
        (end.subscriptions_suppressed - start.subscriptions_suppressed);
    if (traced_) {
      auto& layers = result_.layers;
      layers.compactions = total_compactions() - compactions;
      layers.suppressed = end.subscriptions_suppressed - start.subscriptions_suppressed;
      layers.sub_messages = end.subscription_messages - start.subscription_messages;
      for (auto& mirror : mirrors_) {
        if (mirror.actives.size() != mirror.store.active_count()) {
          throw std::logic_error("mirror active index out of sync");
        }
      }
    }
    std::size_t entries = 0;
    for (BrokerId b = 0; b < view().broker_count(); ++b) {
      entries += view().broker(b).routing_table_size();
    }
    result_.routing_entries_per_broker =
        static_cast<double>(entries) / static_cast<double>(view().broker_count());
    tear_down();
    return std::move(result_);
  }

  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

 private:
  const WorkloadSpec& spec_;
  const Args& args_;
  const Inputs& inputs_;
  const bool traced_;
  const bool tcp_;           ///< the system is a psc_brokerd cluster
  const bool cluster_twin_;  ///< a sim system with a psc_brokerd twin
  Tracer tracer_;
  PassResult result_;

  /// The system on sim workloads; the twin when the system is TCP.
  std::unique_ptr<BrokerNetwork> net_;
  /// The system on TCP workloads; the twin of a sim system with tcp_twin.
  std::unique_ptr<psc::net::Cluster> cluster_;
  psc::routing::FlatOracle oracle_;
  std::vector<SubscriptionId> expected_;

  std::vector<Mirror> mirrors_;
  psc::core::SubsumptionEngine engine_;
  psc::util::Rng rspc_rng_;
  psc::core::ConflictTable table_, reduced_table_;
  psc::core::McsResult mcs_;
  std::vector<char> alive_;
  std::vector<std::size_t> counts_scratch_;
  std::vector<double> point_;
  std::vector<SubscriptionId> ids_;
  std::vector<const Subscription*> candidates_, reduced_;
  double broker_cpu_before_ = 0;

  BrokerNetwork& view() { return *net_; }

  void set_up() {
    // setup_s times only the system: the overlay plus the standing load
    // (for TCP, spawning brokerd and waiting for every kReady included).
    broker_cpu_before_ = cpu_seconds(usage_of(RUSAGE_CHILDREN));
    const auto t0 = Clock::now();
    if (tcp_) {
      start_cluster(star_links(spec_.brokers));
    } else {
      net_ = build_overlay(spec_, args_.seed);
      for (const auto& [home, sub] : inputs_.standing) net_->subscribe(home, sub);
    }
    result_.setup_s.push_back(micros(t0, Clock::now()) * 1e-6);
    if (tcp_) {
      net_ = build_overlay(spec_, args_.seed);
      for (const auto& [home, sub] : inputs_.standing) net_->subscribe(home, sub);
    }
    if (cluster_twin_) start_cluster(net_->universe().links);
    for (const auto& [home, sub] : inputs_.standing) oracle_.subscribe(home, sub);
  }

  void start_cluster(std::vector<std::pair<BrokerId, BrokerId>> links) {
    cluster_ = make_cluster(spec_, args_, std::move(links));
    cluster_->start();
    for (const auto& [home, sub] : inputs_.standing) cluster_->subscribe(home, sub);
  }

  void tear_down() {
    if (cluster_) {
      cluster_->shutdown();
      cluster_.reset();
      const rusage children = usage_of(RUSAGE_CHILDREN);
      result_.layers.broker_cpu_s = cpu_seconds(children) - broker_cpu_before_;
      result_.layers.broker_ops = result_.attempted + inputs_.standing.size();
    }
    if (tcp_) {
      result_.peak_rss_mb =
          static_cast<double>(usage_of(RUSAGE_CHILDREN).ru_maxrss) / 1024.0;
    } else {
      result_.peak_rss_mb =
          static_cast<double>(usage_of(RUSAGE_SELF).ru_maxrss) / 1024.0;
    }
  }

  void fail(const std::exception& e) {
    result_.failed += 1;
    if (result_.first_error.empty()) result_.first_error = e.what();
  }

  /// Runs one op against the system (TCP cluster or sim network) and
  /// returns the delivered set for publishes.
  std::vector<SubscriptionId> call_system(const Op& op) {
    return tcp_ ? call_cluster(op) : call_network(*net_, op);
  }

  /// Runs one op against the twin, if there is one.
  std::vector<SubscriptionId> call_twin(const Op& op) {
    return tcp_ ? call_network(*net_, op) : call_cluster(op);
  }

  std::vector<SubscriptionId> call_cluster(const Op& op) {
    switch (op.kind) {
      case OpKind::kPublish: return cluster_->publish(op.broker, op.pub);
      case OpKind::kSubscribe: cluster_->subscribe(op.broker, op.sub); break;
      case OpKind::kUnsubscribe: cluster_->unsubscribe(op.broker, op.id); break;
    }
    return {};
  }

  static std::vector<SubscriptionId> call_network(BrokerNetwork& net, const Op& op) {
    switch (op.kind) {
      case OpKind::kPublish: {
        auto sets = net.publish(psc::routing::PublishRequest::single(op.broker, op.pub));
        return std::move(sets.front());
      }
      case OpKind::kSubscribe: net.subscribe(op.broker, op.sub); break;
      case OpKind::kUnsubscribe: net.unsubscribe(op.broker, op.id); break;
    }
    return {};
  }

  void step(std::size_t index, const Op& op) {
    const auto kind = static_cast<std::size_t>(op.kind);
    const auto op_id = static_cast<std::uint32_t>(index);
    const auto before = view().metrics();
    result_.attempted += 1;

    std::vector<SubscriptionId> delivered;
    bool threw = false;
    const double cpu0 = tcp_ && traced_ ? thread_cpu_us() : 0.0;
    const auto t0 = Clock::now();
    try {
      delivered = call_system(op);
    } catch (const std::exception& e) {
      threw = true;
      fail(e);
    }
    const auto t1 = Clock::now();
    const double cpu1 = tcp_ && traced_ ? thread_cpu_us() : 0.0;
    const double us = micros(t0, t1);
    result_.latency_us[kind].push_back(us);
    result_.root_us.push_back(us);
    if (traced_) {
      tracer_.record_root(op_id, static_cast<SpanName>(kind), t0, t1);
      result_.layers.client_cpu_us += cpu1 - cpu0;
      result_.layers.ops += 1;
    }

    // The twin replays the op on the same tree, policy and seed over the
    // other transport. A TCP system's in-process twin supplies the message
    // counts and routing-table sizes brokerd does not expose; either way
    // the pair gives net.overhead_ratio.
    std::vector<SubscriptionId> twin_delivered;
    if (tcp_ || cluster_twin_) {
      const double c0 = cluster_twin_ ? thread_cpu_us() : 0.0;
      const auto w0 = Clock::now();
      twin_delivered = call_twin(op);
      const auto w1 = Clock::now();
      const double c1 = cluster_twin_ ? thread_cpu_us() : 0.0;
      result_.layers.client_cpu_us += c1 - c0;
      if (traced_) {
        result_.twin_us[kind].push_back(micros(w0, w1));
        tracer_.record(op_id, static_cast<SpanName>(kind + 3),
                       static_cast<SpanName>(kind), w0, w1);
      }
    }

    switch (op.kind) {
      case OpKind::kSubscribe: oracle_.subscribe(op.broker, op.sub); break;
      case OpKind::kUnsubscribe: oracle_.unsubscribe(op.broker, op.id); break;
      case OpKind::kPublish:
        oracle_.publish(op.pub, expected_);
        if (!threw && delivered != expected_) {
          result_.divergent += 1;
          result_.failed += 1;
        }
        if (tcp_ || cluster_twin_) {
          if (twin_delivered != expected_) result_.twin_divergent += 1;
          if (!threw && twin_delivered != delivered) result_.twin_mismatch += 1;
        }
        break;
    }

    const auto after = view().metrics();
    const std::uint64_t hops = after.total_messages() - before.total_messages();
    if (op.kind == OpKind::kSubscribe) {
      result_.sub_messages += after.subscription_messages - before.subscription_messages;
    } else if (op.kind == OpKind::kPublish) {
      result_.pub_messages += after.publication_messages - before.publication_messages;
    }
    if (traced_) replay(op_id, op, delivered, hops);
  }

  // --- traced replays ----------------------------------------------------

  void build_mirrors() {
    const auto config = network_config(spec_, args_.seed).store;
    mirrors_.reserve(spec_.brokers);
    for (std::size_t b = 0; b < spec_.brokers; ++b) {
      mirrors_.emplace_back(config, spec_.attributes, args_.seed + b);
    }
    for (const auto& [home, sub] : inputs_.standing) {
      for (BrokerId b = 0; b < spec_.brokers; ++b) {
        if (view().broker(b).routes(sub.id())) (void)mirrors_[b].insert(sub);
      }
    }
  }

  std::uint64_t total_compactions() const {
    std::uint64_t total = 0;
    for (const auto& mirror : mirrors_) {
      total += mirror.routed.compactions() + mirror.actives.compactions();
    }
    return total;
  }

  template <typename F>
  auto timed(std::uint32_t op_id, SpanName name, SpanName parent, F&& call) {
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(call())>) {
      call();
      tracer_.record(op_id, name, parent, t0, Clock::now());
    } else {
      auto value = call();
      tracer_.record(op_id, name, parent, t0, Clock::now());
      return value;
    }
  }

  void replay(std::uint32_t op_id, const Op& op,
              const std::vector<SubscriptionId>& delivered, std::uint64_t hops) {
    const auto root = static_cast<SpanName>(op.kind);
    Mirror& mirror = mirrors_[op.broker];
    LayerCounts& layers = result_.layers;
    switch (op.kind) {
      case OpKind::kPublish: {
        ids_.clear();
        timed(op_id, SpanName::kIndexStab, root,
              [&] { mirror.routed.stab(op.pub.values(), ids_); });
        layers.stab_cost.push_back(static_cast<double>(mirror.routed.last_query_cost()));
        layers.stab_cost_total += static_cast<double>(mirror.routed.last_query_cost());
        layers.stab_matches += static_cast<double>(ids_.size());
        layers.delta_size.push_back(static_cast<double>(mirror.routed.delta_size()));
        ids_.clear();
        const std::uint64_t examined = mirror.store.covered_examined();
        timed(op_id, SpanName::kStoreMatch, root,
              [&] { mirror.store.match(op.pub, ids_); });
        layers.matches += 1;
        layers.covered_examined += mirror.store.covered_examined() - examined;
        (void)timed(op_id, SpanName::kRoutingExpectedRecipients, root,
                    [&] { return view().expected_recipients(op.broker, op.pub); });
        layers.fanout.push_back(static_cast<double>(delivered.size()));
        layers.publish_hops += hops;
        layers.publishes += 1;
        break;
      }
      case OpKind::kSubscribe: {
        ids_.clear();
        timed(op_id, SpanName::kIndexBoxIntersect, root,
              [&] { mirror.actives.box_intersect(op.sub, ids_); });
        layers.box_cost.push_back(static_cast<double>(mirror.actives.last_query_cost()));
        if (spec_.policy == CoveragePolicy::kGroup) replay_engine(op_id, op.sub, mirror);
        const std::uint64_t checks = mirror.store.group_checks();
        const auto inserted = timed(op_id, SpanName::kStoreInsert, root,
                                    [&] { return mirror.insert(op.sub); });
        layers.inserts += 1;
        layers.covered_inserts += inserted.covered ? 1 : 0;
        layers.group_checks += mirror.store.group_checks() - checks;
        for (BrokerId b = 0; b < spec_.brokers; ++b) {
          if (b != op.broker && view().broker(b).routes(op.sub.id())) {
            (void)mirrors_[b].insert(op.sub);
          }
        }
        break;
      }
      case OpKind::kUnsubscribe: {
        const auto erased = timed(op_id, SpanName::kStoreErase, root,
                                  [&] { return mirror.erase(op.id); });
        layers.erases += 1;
        layers.promotions += erased.promoted.size();
        for (BrokerId b = 0; b < spec_.brokers; ++b) {
          if (b != op.broker && mirrors_[b].store.contains(op.id)) {
            (void)mirrors_[b].erase(op.id);
          }
        }
        break;
      }
    }
    replay_wire(op_id, op, hops);
  }

  /// SubsumptionEngine::check on the candidates the store would gather,
  /// then each stage function on the same candidate set, then the exact
  /// baseline on the same instance.
  void replay_engine(std::uint32_t op_id, const Subscription& sub, const Mirror& mirror) {
    const auto root = SpanName::kRootSubscribe;
    LayerCounts& layers = result_.layers;
    candidates_.clear();
    for (const SubscriptionId id : ids_) candidates_.push_back(mirror.store.find(id));
    const std::span<const Subscription* const> set(candidates_);

    const auto c0 = Clock::now();
    const auto verdict = engine_.check(sub, set);
    const auto c1 = Clock::now();
    tracer_.record(op_id, SpanName::kCoreCheck, root, c0, c1);
    layers.path[static_cast<std::size_t>(verdict.path)] += 1;
    layers.candidates.push_back(static_cast<double>(verdict.original_set_size));
    if (verdict.mcs_ran) {
      layers.mcs_kept += static_cast<double>(verdict.reduced_set_size);
      layers.mcs_input += static_cast<double>(verdict.original_set_size);
    }
    if (verdict.path == psc::core::DecisionPath::kRspcWitness ||
        verdict.path == psc::core::DecisionPath::kRspcProbabilistic) {
      layers.rspc_runs += 1;
      layers.rspc_iterations.push_back(static_cast<double>(verdict.iterations));
      if (verdict.iterations >= engine_.config().max_iterations) layers.rspc_capped += 1;
      if (std::isfinite(verdict.theoretical_d) && verdict.theoretical_d > 0) {
        layers.iterations_over_d.push_back(static_cast<double>(verdict.iterations) /
                                           verdict.theoretical_d);
      }
    }

    timed(op_id, SpanName::kCoreConflictTable, root, [&] { table_.rebuild(sub, set); });
    const auto fast = timed(op_id, SpanName::kCoreFastDecisions, root, [&] {
      return psc::core::run_fast_decisions(table_, counts_scratch_);
    });
    if (fast.decision == psc::core::FastDecision::kInconclusive) {
      timed(op_id, SpanName::kCoreMcs, root,
            [&] { psc::core::run_mcs(table_, mcs_, alive_); });
      if (!mcs_.empty()) {
        reduced_.clear();
        for (const std::size_t k : mcs_.kept) reduced_.push_back(candidates_[k]);
        const std::span<const Subscription* const> kept(reduced_);
        const auto estimate = timed(op_id, SpanName::kCoreWitnessEstimate, root, [&] {
          reduced_table_.rebuild(sub, kept);
          return psc::core::estimate_witness_probability(reduced_table_,
                                                         engine_.config().grid_spacing);
        });
        const std::uint64_t budget = psc::core::capped_trials(
            estimate.rho_w, engine_.config().delta, engine_.config().max_iterations);
        timed(op_id, SpanName::kCoreRspc, root, [&] {
          return psc::core::run_rspc(sub, kept, budget, rspc_rng_, point_);
        });
      }
    }

    if (layers.candidates.size() % kExactEvery != 0) return;
    const auto e0 = Clock::now();
    try {
      (void)psc::baseline::exact_subsumption(sub, set, kExactFragmentLimit);
      const auto e1 = Clock::now();
      tracer_.record(op_id, SpanName::kBaselineExact, root, e0, e1);
      layers.check_us_on_exact += micros(c0, c1);
      layers.exact_us += micros(e0, e1);
    } catch (const std::runtime_error&) {
      layers.exact_gave_up += 1;
    }
  }

  /// The op's client frame through the NetMessage codec, and its per-hop
  /// data frame sized by the same codec.
  void replay_wire(std::uint32_t op_id, const Op& op, std::uint64_t hops) {
    const auto root = static_cast<SpanName>(op.kind);
    psc::net::NetMessage msg;
    msg.kind = psc::net::NetMessage::Kind::kClientOp;
    msg.op_id = op_id + 1;
    psc::wire::Announcement hop;
    hop.from = op.broker;
    switch (op.kind) {
      case OpKind::kPublish:
        msg.op = psc::net::ClientOpKind::kPublish;
        msg.pub = op.pub;
        msg.token = op_id + 1;
        hop.kind = psc::wire::Announcement::Kind::kPublication;
        hop.pub = op.pub;
        hop.token = op_id + 1;
        break;
      case OpKind::kSubscribe:
        msg.op = psc::net::ClientOpKind::kSubscribe;
        msg.sub = op.sub;
        hop.kind = psc::wire::Announcement::Kind::kSubscribe;
        hop.sub = op.sub;
        break;
      case OpKind::kUnsubscribe:
        msg.op = psc::net::ClientOpKind::kUnsubscribe;
        msg.id = op.id;
        hop.kind = psc::wire::Announcement::Kind::kUnsubscribe;
        hop.id = op.id;
        break;
    }
    const auto frame = timed(op_id, SpanName::kWireEncode, root,
                             [&] { return psc::net::encode_frame(msg); });
    const auto decoded = timed(op_id, SpanName::kWireDecode, root, [&] {
      return psc::net::decode_frame(std::span(frame).subspan(4));
    });
    if (decoded.op != msg.op) throw std::logic_error("NetMessage round trip changed the op");
    double bytes = static_cast<double>(frame.size());
    if (hops > 0) {
      psc::wire::ByteWriter writer;
      psc::wire::write_announcement(writer, hop);
      psc::wire::LinkFrame link;
      link.payload = writer.take();
      const auto data = psc::net::encode_frame(psc::net::make_data(op_id + 1, std::move(link)));
      bytes += static_cast<double>(hops) * static_cast<double>(data.size());
    }
    result_.layers.bytes += bytes;
  }
};

// -------------------------------------------------------------- output ---

double median(const std::vector<double>& values) { return percentile(values, 50); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string json_number(double value) {
  if (!std::isfinite(value)) throw std::logic_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

std::vector<Metric> end_to_end(const PassResult& r) {
  // Percentiles over every sample of the run, pooled across its episodes.
  const auto p = [&](OpKind kind, double pct) {
    return percentile(r.latency_us[static_cast<std::size_t>(kind)], pct);
  };
  // The median over 250-op blocks: a block's rate is its mean cost, which a
  // few heavy ops (promotion cascades, capped RSPC runs) dominate, so one
  // such op or one burst of interference from the host moves one block.
  constexpr std::size_t kBlock = 250;
  std::vector<double> block_rates;
  const std::size_t blocks = std::max<std::size_t>(1, r.root_us.size() / kBlock);
  for (std::size_t b = 0; b < blocks; ++b) {
    double busy_us = 0;
    std::size_t ops = 0;
    for (std::size_t i = b * r.root_us.size() / blocks;
         i < (b + 1) * r.root_us.size() / blocks; ++i, ++ops) {
      busy_us += r.root_us[i];
    }
    block_rates.push_back(static_cast<double>(ops) / (busy_us * 1e-6));
  }
  const double ops_per_s = median(block_rates);
  const auto per = [&](std::uint64_t total, OpKind kind) {
    return ratio(static_cast<double>(total),
                 static_cast<double>(r.latency_us[static_cast<std::size_t>(kind)].size()));
  };
  return {
      {"setup_s", "s", median(r.setup_s)},
      {"ops_per_s", "1/s", ops_per_s},
      {"publish_p50_us", "us", p(OpKind::kPublish, 50)},
      {"publish_p99_us", "us", p(OpKind::kPublish, 99)},
      {"subscribe_p50_us", "us", p(OpKind::kSubscribe, 50)},
      {"subscribe_p99_us", "us", p(OpKind::kSubscribe, 99)},
      {"unsubscribe_p50_us", "us", p(OpKind::kUnsubscribe, 50)},
      {"unsubscribe_p99_us", "us", p(OpKind::kUnsubscribe, 99)},
      {"sub_messages_per_subscribe", "count", per(r.sub_messages, OpKind::kSubscribe)},
      {"pub_messages_per_publish", "count", per(r.pub_messages, OpKind::kPublish)},
      {"routing_entries_per_broker", "count", r.routing_entries_per_broker},
      {"peak_rss_mb", "MB", r.peak_rss_mb},
  };
}

std::vector<Metric> per_layer(const WorkloadSpec& spec, const PassResult& untraced,
                              const PassResult& r, const Tracer& tracer) {
  const LayerCounts& l = r.layers;
  const auto span_p = [&](SpanName name, double pct) {
    return percentile(tracer.durations_us(name), pct);
  };
  const auto share = [&](std::uint64_t part, std::uint64_t whole) {
    return ratio(static_cast<double>(part), static_cast<double>(whole));
  };
  std::uint64_t checks = 0;
  for (const auto count : l.path) checks += count;
  const auto path = [&](psc::core::DecisionPath which) {
    return share(l.path[static_cast<std::size_t>(which)], checks);
  };
  using psc::core::DecisionPath;
  const bool tcp = spec.transport == Transport::kTcp;
  const auto publish = static_cast<std::size_t>(OpKind::kPublish);
  const auto subscribe = static_cast<std::size_t>(OpKind::kSubscribe);
  // TCP latency over in-process latency of the same op kind; 0 without a
  // cluster on this workload.
  const auto overhead = [&](std::size_t kind) {
    const double system = median(r.latency_us[kind]);
    const double twin = median(r.twin_us[kind]);
    if (r.twin_us[kind].empty()) return 0.0;
    return tcp ? ratio(system, twin) : ratio(twin, system);
  };
  return {
      {"core.check_us.p50", "us", span_p(SpanName::kCoreCheck, 50)},
      {"core.check_us.p99", "us", span_p(SpanName::kCoreCheck, 99)},
      {"core.conflict_table_us.p50", "us", span_p(SpanName::kCoreConflictTable, 50)},
      {"core.fast_decisions_us.p50", "us", span_p(SpanName::kCoreFastDecisions, 50)},
      {"core.mcs_us.p50", "us", span_p(SpanName::kCoreMcs, 50)},
      {"core.witness_estimate_us.p50", "us", span_p(SpanName::kCoreWitnessEstimate, 50)},
      {"core.rspc_us.p50", "us", span_p(SpanName::kCoreRspc, 50)},
      {"core.rspc_us.p99", "us", span_p(SpanName::kCoreRspc, 99)},
      {"core.path_share.empty_set", "ratio", path(DecisionPath::kEmptySet)},
      {"core.path_share.pairwise_cover", "ratio", path(DecisionPath::kPairwiseCover)},
      {"core.path_share.polyhedron_witness", "ratio", path(DecisionPath::kPolyhedronWitness)},
      {"core.path_share.mcs_empty", "ratio", path(DecisionPath::kMcsEmpty)},
      {"core.path_share.rspc_witness", "ratio", path(DecisionPath::kRspcWitness)},
      {"core.path_share.rspc_probabilistic", "ratio", path(DecisionPath::kRspcProbabilistic)},
      {"core.candidates.p50", "count", percentile(l.candidates, 50)},
      {"core.mcs_kept_ratio", "ratio", ratio(l.mcs_kept, l.mcs_input)},
      {"core.rspc_iterations.p50", "count", percentile(l.rspc_iterations, 50)},
      {"core.rspc_iterations.p99", "count", percentile(l.rspc_iterations, 99)},
      {"core.iteration_cap_share", "ratio", share(l.rspc_capped, l.rspc_runs)},
      {"core.iterations_over_d", "ratio", percentile(l.iterations_over_d, 50)},
      {"core.check_vs_exact_ratio", "ratio", ratio(l.check_us_on_exact, l.exact_us)},
      {"index.stab_us.p50", "us", span_p(SpanName::kIndexStab, 50)},
      {"index.stab_us.p99", "us", span_p(SpanName::kIndexStab, 99)},
      {"index.box_intersect_us.p50", "us", span_p(SpanName::kIndexBoxIntersect, 50)},
      {"index.box_intersect_us.p99", "us", span_p(SpanName::kIndexBoxIntersect, 99)},
      {"index.stab_cost.p50", "count", percentile(l.stab_cost, 50)},
      {"index.box_intersect_cost.p50", "count", percentile(l.box_cost, 50)},
      {"index.matches_per_cost", "ratio", ratio(l.stab_matches, l.stab_cost_total)},
      {"index.compactions", "count", static_cast<double>(l.compactions)},
      {"index.delta_size", "count", percentile(l.delta_size, 50)},
      {"store.insert_us.p50", "us", span_p(SpanName::kStoreInsert, 50)},
      {"store.insert_us.p99", "us", span_p(SpanName::kStoreInsert, 99)},
      {"store.erase_us.p50", "us", span_p(SpanName::kStoreErase, 50)},
      {"store.erase_us.p99", "us", span_p(SpanName::kStoreErase, 99)},
      {"store.match_us.p50", "us", span_p(SpanName::kStoreMatch, 50)},
      {"store.match_us.p99", "us", span_p(SpanName::kStoreMatch, 99)},
      {"store.group_checks_per_insert", "count", share(l.group_checks, l.inserts)},
      {"store.promotions_per_erase", "count", share(l.promotions, l.erases)},
      {"store.covered_share", "ratio", share(l.covered_inserts, l.inserts)},
      {"store.covered_examined_per_match", "count", share(l.covered_examined, l.matches)},
      {"routing.expected_recipients_us.p50", "us",
       span_p(SpanName::kRoutingExpectedRecipients, 50)},
      {"routing.expected_recipients_us.p99", "us",
       span_p(SpanName::kRoutingExpectedRecipients, 99)},
      {"routing.accounting_share", "ratio",
       ratio(span_p(SpanName::kRoutingExpectedRecipients, 50),
             percentile(r.latency_us[publish], 50))},
      {"routing.hops_per_publish", "count", share(l.publish_hops, l.publishes)},
      {"routing.fanout.p50", "count", percentile(l.fanout, 50)},
      {"routing.suppressed_share", "ratio", share(l.suppressed, l.suppressed + l.sub_messages)},
      {"wire.encode_us.p50", "us", span_p(SpanName::kWireEncode, 50)},
      {"wire.decode_us.p50", "us", span_p(SpanName::kWireDecode, 50)},
      {"net.bytes_per_op", "bytes", ratio(l.bytes, static_cast<double>(l.ops))},
      {"net.overhead_ratio.publish", "ratio", overhead(publish)},
      {"net.overhead_ratio.subscribe", "ratio", overhead(subscribe)},
      {"net.broker_cpu_us_per_op", "us",
       ratio(l.broker_cpu_s * 1e6, static_cast<double>(l.broker_ops))},
      {"net.client_cpu_us_per_op", "us", ratio(l.client_cpu_us, static_cast<double>(l.ops))},
      {"trace.overhead_ratio", "ratio", ratio(median(r.root_us), median(untraced.root_us))},
  };
}

void print_summary(const WorkloadSpec& spec, const PassResult& r) {
  std::cout << "# workload=" << spec.name << " setup_s=[";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
    std::cout << (i ? " " : "") << r.setup_s[i];
  }
  std::cout << "]\n";
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    const auto& samples = r.latency_us[k];
    std::cout << "# " << to_string(static_cast<OpKind>(k)) << " n=" << samples.size()
              << " p50_us=" << percentile(samples, 50)
              << " p99_us=" << percentile(samples, 99) << "\n";
  }
  std::cout << "# attempted=" << r.attempted << " failed=" << r.failed
            << " error_rate=" << ratio(static_cast<double>(r.failed),
                                       static_cast<double>(r.attempted))
            << " divergent_publishes=" << r.divergent
            << " notifications_lost=" << r.lost;
  if (!r.twin_us[0].empty() || spec.transport == Transport::kTcp) {
    std::cout << " twin_divergent=" << r.twin_divergent
              << " twin_mismatch=" << r.twin_mismatch;
  }
  std::cout << "\n";
  if (!r.first_error.empty()) std::cout << "# first error: " << r.first_error << "\n";
}

void print_layer_summary(const Tracer& tracer, const LayerCounts& l) {
  std::cout << "# span samples:";
  for (std::size_t n = 0; n < static_cast<std::size_t>(SpanName::kCount); ++n) {
    const auto name = static_cast<SpanName>(n);
    std::cout << " " << tracer.name_of(name) << "=" << tracer.durations_us(name).size();
  }
  std::cout << "\n# exact_gave_up=" << l.exact_gave_up << "\n";
}

/// Correctness verdict for one pass. Definite policies allow no
/// divergence. Under the probabilistic group policy a false suppression
/// is the engine's documented error mode: at most delta per probabilistic
/// YES, bounded here by delta times every coverage check the run made.
bool pass_correct(const WorkloadSpec& spec, const PassResult& r) {
  const double delta = psc::core::EngineConfig{}.delta;
  const auto allowed = spec.policy == CoveragePolicy::kGroup
                           ? static_cast<std::uint64_t>(
                                 std::floor(delta * static_cast<double>(r.coverage_checks)))
                           : 0;
  const std::uint64_t sim_divergent =
      spec.transport == Transport::kTcp ? r.twin_divergent : r.divergent;
  // The network's own loss accounting must agree with the oracle on
  // whether anything was lost.
  const bool lost_agrees = (sim_divergent == 0) == (r.lost == 0);
  return r.divergent <= allowed && r.failed == r.divergent && lost_agrees &&
         r.twin_mismatch <= allowed;
}

Args parse_args(int argc, char** argv) {
  const psc::util::Flags flags(argc, argv);
  Args args;
  args.workload = flags.get_string("workload", "");
  args.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  args.seconds = flags.get_double("seconds", 10);
  args.trace = flags.get_int("trace", 0) != 0;
  const std::string size = flags.get_string("size", "full");
  if (size != "full" && size != "tiny") throw std::invalid_argument("--size must be full|tiny");
  args.size = size == "tiny" ? Size::kTiny : Size::kFull;
  args.brokerd = flags.get_string("brokerd", "");
  args.spans_out = flags.get_string("spans-out", "");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec& spec = find_workload(args.workload);
  if (spec.transport == Transport::kTcp && args.brokerd.empty()) {
    throw std::invalid_argument("--brokerd is required for " + spec.name);
  }
  const std::vector<Inputs> episodes =
      make_inputs(spec, args.size, args.seconds, args.seed, args.trace);

  // The untraced pass runs every episode; the traced run uses the first
  // episode for both its untraced baseline and its traced pass.
  PassResult untraced = Pass(spec, args, episodes.front(), false).run();
  if (!args.trace) {
    for (std::size_t e = 1; e < episodes.size(); ++e) {
      untraced.append(Pass(spec, args, episodes[e], false).run());
    }
  }
  print_summary(spec, untraced);
  bool correct = pass_correct(spec, untraced);
  std::uint64_t attempted = untraced.attempted;
  std::uint64_t failed = untraced.failed;
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = end_to_end(untraced);
  } else {
    // Same workload and seed again with tracing on; the untraced pass
    // above is the baseline for trace.overhead_ratio.
    Pass traced_pass(spec, args, episodes.front(), true);
    const PassResult traced = traced_pass.run();
    print_summary(spec, traced);
    print_layer_summary(traced_pass.tracer(), traced.layers);
    correct = correct && pass_correct(spec, traced);
    attempted += traced.attempted;
    failed += traced.failed;
    metrics = per_layer(spec, untraced, traced, traced_pass.tracer());
    if (!args.spans_out.empty()) traced_pass.tracer().write_tsv(args.spans_out);
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
