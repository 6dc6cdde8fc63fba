// Soak harness: every end-to-end differential soak behind one binary. Each
// scenario (README "Soaks") replays seeded churn traces across a topology
// family and gates the delivered sets against the flat oracle: zero
// mismatched publishes, lost notifications, duplicates and ghost routes
// (tcp: divergent publishes), a non-empty run set, and proof that the
// scenario's injection fired (recovery: a crash; membership: a crash, a
// replacement and a link heal; lossy: drops, retransmits, acks and,
// somewhere in the run matrix, a burst escalation; tcp: publishes).
//
//   ./soak --scenario=NAME [flags]   a scenario takes only the flags with a
//                                    default in its column ('-': rejected):
//                             churn recovery membership lossy   tcp
//     --duration=S              60      60         40     -      -
//     --brokers=N                -       -         20    24      8
//     --ops=N  (work per run)    -       -          -   400    300
//     --seeds=N                  -       -          -     3      2
//     --latency=S                -       -      0.001 0.0001     -
//     --sub-rate=R               2       2          2     2      -
//     --pub-rate=R               5       5          4     4      -
//     --ttl-fraction=F         0.5     0.5          -     -      -
//     --drop --dup --reorder --jitter   churn, recovery: 0 (nonzero runs
//                                       over lossy wires); lossy: .2 .1 .1 .5
//     --differential=true               churn, membership, lossy
//     --join-rate --leave-rate --crash-rate --partition-rate
//                                       membership: 0.15 0.1 0.15 0.3
//     --bursts=N --burst-slots=K        lossy: 4, 2.5
//     --rto --rto-max --retries --window   lossy: 4x, 8x latency, 12, 128
//     --membership=true                 lossy: membership churn on the wires
//     --snapshot-every=S --kill-fraction=F   recovery: 0 (= epoch), 0.5
//     --kill=true --brokerd=PATH             tcp
//   every scenario: --seed=2006 --policy=exact --topology=SUBSTRING
//     --json=PATH --dump-dir=. --replay=FILE
// In place of a rejected flag: link latency 0.001, TTL share 0.5, one seed;
// recovery and tcp always gate; tcp turns TTLs into unsubscribes.
//
// Runs are deterministic: equal flags give equal counters, and wall-clock
// time is the only nondeterministic field in the JSON. A tripped gate dumps
// the run's trace as a PSCT file and prints the one-liner that replays it:
// the original flags (less --json) plus --replay=FILE --topology=NAME
// --seed=SEED. --seed stays the seed of the topology family; a replay takes
// the run's own seed from the trace. Membership traces embed their overlay,
// so membership/lossy replays rebuild it from the file; the other scenarios
// pick it with --topology. Malformed or rejected flags print the error and
// exit 2; a gate failure or any other error exits 1.
#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "net/cluster.hpp"
#include "net/cluster_driver.hpp"
#include "routing/link_channel.hpp"
#include "routing/topology.hpp"
#include "sim/churn_driver.hpp"
#include "util/json_writer.hpp"
#include "workload/churn_workload.hpp"

#ifndef PSC_BROKERD_BIN
#define PSC_BROKERD_BIN ""
#endif

namespace {

using namespace psc;

enum class Scenario { kChurn, kRecovery, kMembership, kLossy, kTcp };
constexpr std::array<std::string_view, 5> kScenarioNames = {
    "churn", "recovery", "membership", "lossy", "tcp"};

Scenario parse_scenario(const std::string& name) {
  for (std::size_t i = 0; i < kScenarioNames.size(); ++i) {
    if (kScenarioNames[i] == name) return static_cast<Scenario>(i);
  }
  throw std::invalid_argument("--scenario must be churn|recovery|membership|"
                              "lossy|tcp, got '" + name + "'");
}

/// The scenarios (by initial: c r m l t) that take each flag; the header's
/// "every scenario" flags are not listed.
constexpr std::pair<std::string_view, std::string_view> kScopedFlags[] = {
    {"duration", "crm"}, {"brokers", "mlt"}, {"ops", "lt"}, {"seeds", "lt"},
    {"latency", "ml"}, {"sub-rate", "crml"}, {"pub-rate", "crml"},
    {"ttl-fraction", "cr"}, {"drop", "crl"}, {"dup", "crl"},
    {"reorder", "crl"}, {"jitter", "crl"}, {"differential", "cml"},
    {"join-rate", "m"}, {"leave-rate", "m"}, {"crash-rate", "m"},
    {"partition-rate", "m"}, {"bursts", "l"}, {"burst-slots", "l"},
    {"rto", "l"}, {"rto-max", "l"}, {"retries", "l"}, {"window", "l"},
    {"membership", "l"}, {"snapshot-every", "r"}, {"kill-fraction", "r"},
    {"kill", "t"}, {"brokerd", "t"}};

/// Every flag, parsed once with the scenario's defaults.
struct Options {
  Scenario scenario = Scenario::kChurn;
  std::string name;
  std::uint64_t seed = 0;
  store::CoveragePolicy policy = store::CoveragePolicy::kExact;
  bool differential = true;
  std::size_t brokers = 0, ops = 0, seeds = 1;
  workload::ChurnConfig config;  ///< before per-overlay slot shaping
  routing::LinkConfig link;      ///< enabled: lossy scenario or fault flags
  double burst_slots = 0.0, snapshot_every = 0.0, kill_time = 0.0;
  bool with_membership = true, kill = true;
  std::string brokerd, json_path, topology_filter, dump_dir, replay_path;
  std::vector<std::string> args;  ///< argv, for the replay one-liner
};

Options parse(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  Options o;
  o.scenario = parse_scenario(flags.get_string("scenario", ""));
  o.name = std::string(kScenarioNames[static_cast<std::size_t>(o.scenario)]);
  const bool membership = o.scenario == Scenario::kMembership;
  const bool lossy = o.scenario == Scenario::kLossy;
  const bool tcp = o.scenario == Scenario::kTcp;
  // A rejected flag is never set, so every read below that the scenario
  // does not take falls back to its fixed value.
  const char letter = "crmlt"[static_cast<std::size_t>(o.scenario)];
  for (const auto& [flag, scenarios] : kScopedFlags) {
    if (scenarios.find(letter) == std::string_view::npos &&
        flags.has(std::string(flag))) {
      throw std::invalid_argument("--" + std::string(flag) +
                                  " has no effect in --scenario=" + o.name);
    }
  }
  const auto size = [&](const char* flag, std::int64_t fallback) {
    return static_cast<std::size_t>(flags.get_int(flag, fallback));
  };
  const auto num = [&](const char* flag, double fallback) {
    return flags.get_double(flag, fallback);
  };

  o.seed = flags.get_uint64("seed", 2006);
  o.policy = store::parse_coverage_policy(flags.get_string("policy", "exact"));
  o.differential = flags.get_bool("differential", true);
  // Membership: about 16 subscriptions are live at a time, so the brokers
  // must be few for crashed ones to home some and their replacements to
  // restore routes (ctest membership_soak_default requires it).
  o.brokers = size("brokers", membership ? 20 : lossy ? 24 : 8);
  o.ops = size("ops", lossy ? 400 : 300);
  o.seeds = size("seeds", lossy ? 3 : tcp ? 2 : 1);
  o.with_membership = flags.get_bool("membership", true);
  o.kill = flags.get_bool("kill", true);
  o.brokerd = flags.get_string("brokerd", PSC_BROKERD_BIN);
  o.json_path = flags.get_string("json", "");
  o.topology_filter = flags.get_string("topology", "");
  o.dump_dir = flags.get_string("dump-dir", ".");
  o.replay_path = flags.get_string("replay", "");

  workload::ChurnConfig& c = o.config;
  c.duration = num("duration", membership ? 40.0 : 60.0);
  c.link_latency = num("latency", lossy ? 0.0001 : 0.001);
  c.subscription_rate = num("sub-rate", 2.0);
  c.publication_rate = num("pub-rate", membership || lossy ? 4.0 : 5.0);
  c.ttl_fraction = num("ttl-fraction", 0.5);
  c.faults.link.drop_probability = num("drop", lossy ? 0.2 : 0.0);
  c.faults.link.dup_probability = num("dup", lossy ? 0.1 : 0.0);
  c.faults.link.reorder_probability = num("reorder", lossy ? 0.1 : 0.0);
  c.faults.link.delay_jitter = num("jitter", lossy ? 0.5 : 0.0);
  c.faults.burst_count = size("bursts", lossy ? 4 : 0);
  o.burst_slots = num("burst-slots", 2.5);
  c.membership.join_rate = num("join-rate", membership ? 0.15 : 0);
  c.membership.leave_rate = num("leave-rate", membership ? 0.1 : 0);
  c.membership.crash_rate = num("crash-rate", membership ? 0.15 : 0);
  c.membership.partition_rate = num("partition-rate", membership ? 0.3 : 0);

  o.link.enabled = lossy || c.faults.any();
  o.link.faults = c.faults.link;
  if (lossy) {
    // A short explicit chain (4x/8x latency, not the 4x/32x derivation)
    // keeps the slot dense; 4x is the floor below which an ack round trip
    // (~3 latencies) fires spurious retransmits.
    o.link.rto = num("rto", 4.0 * c.link_latency);
    o.link.rto_max = num("rto-max", 8.0 * c.link_latency);
    o.link.max_retries = size("retries", 12);
    o.link.window = size("window", 128);
  }
  // Land the kill half a snapshot interval past the fraction point so the
  // recovery always replays a non-trivial WAL gap.
  o.snapshot_every = num("snapshot-every", 0.0);
  const double cadence = o.snapshot_every > 0 ? o.snapshot_every
                                              : c.epoch_length;
  o.kill_time = c.duration * num("kill-fraction", 0.5) + cadence / 2;

  if (tcp && o.brokerd.empty()) {
    throw std::invalid_argument("no psc_brokerd path (pass --brokerd=PATH)");
  }
  if (!o.replay_path.empty() && o.topology_filter.empty() && !membership &&
      !lossy) {
    throw std::invalid_argument(
        "--replay needs --topology=NAME to pick the overlay the trace was "
        "recorded against");
  }
  // The replay one-liner repeats every flag but the ones it sets itself.
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--replay=") && !arg.starts_with("--topology=") &&
        !arg.starts_with("--seed=") && !arg.starts_with("--json=")) {
      o.args.emplace_back(arg);
    }
  }
  return o;
}

/// The trace config for one run on an overlay of `brokers`: op slots wide
/// enough that every cascade (2.2 x the overlay depth in hops, retransmit
/// chains included) quiesces inside half a slot.
workload::ChurnConfig shape(const Options& o, std::size_t brokers) {
  workload::ChurnConfig c = o.config;
  if (o.scenario == Scenario::kTcp) {
    // One op per slot; TTLs off route every mortal subscription through an
    // explicit unsubscribe (wall clock is not sim time).
    c.ttl_fraction = 0.0;
    c.duration = c.slot * static_cast<double>(o.ops);
    return c;
  }
  if (o.scenario == Scenario::kMembership || o.scenario == Scenario::kLossy) {
    // Bound join growth so the slot contract stays tight at scale.
    brokers += std::max<std::size_t>(8, brokers / 16);
    c.membership.max_brokers = brokers;
  }
  const double depth = 2.2 * static_cast<double>(brokers + 1);
  if (o.link.enabled) {
    // One hop can cost the whole retransmit-backoff chain plus jitter.
    c.faults.cascade_hop_bound = o.link.worst_hop_delay(c.link_latency);
    c.slot = depth * c.faults.cascade_hop_bound;
    c.epoch_length = c.slot * 50.0;
  } else if (const double need = depth * c.link_latency; c.slot < need) {
    // Widen to the next exact divisor of the epoch length.
    const auto per_epoch = std::max<std::size_t>(
        1, static_cast<std::size_t>(c.epoch_length / need));
    c.slot = c.epoch_length / static_cast<double>(per_epoch);
  }
  if (o.scenario == Scenario::kLossy) {
    c.duration = c.slot * static_cast<double>(o.ops);
    if (o.with_membership) {
      // Per-slot event budgets: the same churn density at any scale.
      c.membership.join_rate = 0.2 / c.slot;
      c.membership.leave_rate = 0.15 / c.slot;
      c.membership.crash_rate = 0.2 / c.slot;
      c.membership.partition_rate = 0.4 / c.slot;
    }
  }
  // Bursts span several slots, so a frame sent into one exhausts a full
  // retransmit chain deterministically.
  if (c.faults.burst_count > 0) c.faults.burst_length = c.slot * o.burst_slots;
  if (c.slot > c.duration) {
    throw std::invalid_argument(
        "--duration=" + std::to_string(c.duration) +
        " is shorter than the settle slot (" + std::to_string(c.slot) +
        "s) a worst-case cascade needs on " + std::to_string(brokers) +
        " brokers");
  }
  return c;
}

routing::NetworkConfig network_config(const Options& o, std::uint64_t seed) {
  routing::NetworkConfig config;
  config.store.policy = o.policy;
  config.link_latency = o.config.link_latency;
  if (o.link.enabled) {
    config.link = o.link;
    config.seed = seed;  // per-seed fault substreams
  }
  return config;
}

using LinkList = std::vector<std::pair<routing::BrokerId, routing::BrokerId>>;

struct TcpTopology {
  std::string name;
  LinkList links;
};

/// psc_brokerd overlays are trees: chain, star, and a random tree whose
/// node i attaches to a uniformly drawn earlier node.
std::vector<TcpTopology> tcp_topologies(std::size_t brokers,
                                        std::uint64_t seed) {
  LinkList chain, star, tree;
  util::Rng rng(seed ^ 0x7c957ee5u);
  for (routing::BrokerId b = 1; b < brokers; ++b) {
    chain.emplace_back(b - 1, b);
    star.emplace_back(0, b);
    tree.emplace_back(static_cast<routing::BrokerId>(rng.next_below(b)), b);
  }
  return {{"chain", std::move(chain)},
          {"star", std::move(star)},
          {"random-tree", std::move(tree)}};
}

/// The kill victim: an internal broker when one exists, so the SIGKILL
/// splits the overlay instead of trimming a leaf.
routing::BrokerId pick_victim(const TcpTopology& topology,
                              std::size_t brokers) {
  std::vector<std::size_t> degree(brokers, 0);
  for (const auto& [a, b] : topology.links) {
    ++degree[a];
    ++degree[b];
  }
  for (routing::BrokerId b = 1; b < brokers; ++b) {
    if (degree[b] > 1) return b;
  }
  return brokers > 1 ? 1 : 0;
}

/// Rebuilds the overlay a membership trace embeds; ChurnDriver registers
/// the standby bridges itself.
routing::BrokerNetwork build_from_universe(
    const routing::MembershipUniverse& universe,
    const routing::NetworkConfig& config) {
  routing::BrokerNetwork net(config);
  for (std::size_t i = 0; i < universe.brokers; ++i) (void)net.add_broker();
  for (const auto& [a, b] : universe.links) net.connect(a, b);
  return net;
}

struct Run {
  std::string topology;  ///< what --topology selects
  std::string leg;       ///< tcp: "clean" or "kill"
  std::uint64_t seed = 0;
  std::size_t brokers = 0;
  workload::ChurnTrace trace;
  sim::ChurnReport sim;    ///< every scenario but tcp
  net::ReplayReport tcp;   ///< tcp
  double elapsed_seconds = 0.0;
  std::vector<std::string> failures;  ///< gates this run tripped

  Run() = default;
  Run(std::string topology, std::uint64_t seed, std::size_t brokers,
      workload::ChurnTrace trace)
      : topology(std::move(topology)), seed(seed), brokers(brokers),
        trace(std::move(trace)) {}

  [[nodiscard]] std::string name() const {
    return leg.empty() ? topology : topology + "/" + leg;
  }
};

Run run_sim(const Options& o, std::string topology, std::uint64_t seed,
            std::size_t brokers, routing::BrokerNetwork net,
            workload::ChurnTrace trace) {
  Run run(std::move(topology), seed, brokers, std::move(trace));
  sim::ChurnDriver::Options options;
  options.differential = o.differential;
  if (o.scenario == Scenario::kRecovery) {
    options.failure.enabled = true;
    options.failure.snapshot_every = o.snapshot_every;
    options.failure.kill_time = o.kill_time;
  }
  const util::Timer timer;
  run.sim = sim::ChurnDriver::run(net, run.trace, options);
  run.elapsed_seconds = timer.elapsed_seconds();
  return run;
}

Run run_tcp(const Options& o, const TcpTopology& topology, std::uint64_t seed,
            const workload::ChurnTrace& trace, net::ReplayOptions replay) {
  Run run(topology.name, seed, o.brokers, trace);
  run.leg = replay.victim != routing::kInvalidBroker ? "kill" : "clean";
  net::ClusterOptions options;
  options.brokerd_path = o.brokerd;
  options.brokers = o.brokers;
  options.links = topology.links;
  options.seed = seed;
  options.policy = std::string(store::to_string(o.policy));
  const util::Timer timer;
  net::Cluster cluster(std::move(options));
  cluster.start();
  run.tcp = net::replay_trace_vs_oracle(cluster, run.trace, replay);
  cluster.shutdown();
  run.elapsed_seconds = timer.elapsed_seconds();
  return run;
}

std::vector<Run> run_all(const Options& o) {
  // A replay runs the dumped trace once, on the seed it was recorded with;
  // --seed keeps picking the topology family (and the tcp kill victim).
  std::optional<workload::ChurnTrace> replayed;
  std::vector<std::uint64_t> seeds;
  if (!o.replay_path.empty()) {
    replayed = bench::read_trace_file(o.replay_path);
    seeds.push_back(replayed->seed);
  } else {
    for (std::size_t s = 0; s < o.seeds; ++s) seeds.push_back(o.seed + s);
  }
  const auto selected = [&](const std::string& name) {
    return name.find(o.topology_filter) != std::string::npos;
  };
  std::vector<Run> runs;
  switch (o.scenario) {
    case Scenario::kChurn:
    case Scenario::kRecovery:
      for (routing::Topology& topology : routing::standard_topologies(o.seed)) {
        if (!selected(topology.name)) continue;
        for (const std::uint64_t seed : seeds) {
          const std::size_t n = topology.brokers;
          runs.push_back(run_sim(o, topology.name, seed, n,
                                 topology.build(network_config(o, seed)),
                                 replayed ? *replayed
                                          : workload::generate_churn_trace(
                                                shape(o, n), n, seed)));
        }
      }
      break;
    case Scenario::kMembership:
    case Scenario::kLossy:
      if (replayed) {
        if (!replayed->has_membership) {
          throw std::invalid_argument(
              "replay file has no membership universe: " + o.replay_path);
        }
        // The dump carries latency, fault rates and bursts verbatim; the
        // link-protocol knobs ride the command line.
        routing::NetworkConfig config = network_config(o, replayed->seed);
        config.link_latency = replayed->config.link_latency;
        config.link.faults = replayed->config.faults.link;
        const std::size_t brokers = replayed->universe.brokers;
        auto net = build_from_universe(replayed->universe, config);
        runs.push_back(run_sim(o, "replay", replayed->seed, brokers,
                               std::move(net), std::move(*replayed)));
        break;
      }
      for (const routing::MembershipTopology& topology :
           routing::membership_topologies(o.brokers, o.seed)) {
        if (!selected(topology.name)) continue;
        for (const std::uint64_t seed : seeds) {
          routing::BrokerNetwork net =
              topology.build(network_config(o, seed));
          workload::ChurnTrace trace = workload::generate_churn_trace(
              shape(o, topology.brokers), topology.universe(net), seed);
          runs.push_back(run_sim(o, topology.name, seed, topology.brokers,
                                 std::move(net), std::move(trace)));
        }
      }
      break;
    case Scenario::kTcp:
      for (const TcpTopology& topology : tcp_topologies(o.brokers, o.seed)) {
        if (!selected(topology.name)) continue;
        for (const std::uint64_t seed : seeds) {
          const workload::ChurnTrace trace =
              replayed ? *replayed
                       : workload::generate_churn_trace(shape(o, o.brokers),
                                                        o.brokers, seed);
          runs.push_back(run_tcp(o, topology, seed, trace, {}));
          if (o.kill && o.brokers >= 3) {
            net::ReplayOptions kill;
            kill.kill_at_op = o.ops / 2;
            kill.victim = pick_victim(topology, o.brokers);
            runs.push_back(run_tcp(o, topology, seed, trace, kill));
          }
        }
      }
      break;
  }
  return runs;
}

/// The gate: oracle exactness for every scenario, plus proof that the
/// scenario's injection actually fired.
std::vector<std::string> gate(Scenario scenario, const Run& run) {
  std::vector<std::string> failures;
  const auto require = [&](bool ok, const char* what, std::uint64_t value) {
    if (!ok) failures.push_back(what + std::string("=") + std::to_string(value));
  };
  if (scenario == Scenario::kTcp) {
    require(run.tcp.divergences == 0, "divergences", run.tcp.divergences);
    require(run.tcp.publishes > 0, "publishes", run.tcp.publishes);
    return failures;
  }
  const sim::ChurnReport& r = run.sim;
  const sim::Metrics& m = r.totals;
  require(r.mismatched_publishes == 0, "mismatched", r.mismatched_publishes);
  require(m.notifications_lost == 0, "lost", m.notifications_lost);
  require(m.notifications_duplicated == 0, "duplicated",
          m.notifications_duplicated);
  require(r.membership.ghost_routes == 0, "ghost_routes",
          r.membership.ghost_routes);
  if (scenario == Scenario::kRecovery) {
    require(r.recovery.crashes > 0, "crashes", r.recovery.crashes);
    require(r.recovery.replay_mismatches == 0, "replay_mismatches",
            r.recovery.replay_mismatches);
  }
  if (scenario == Scenario::kMembership) {
    require(r.membership.crashes > 0, "crashes", r.membership.crashes);
    require(r.membership.replaces > 0, "replaces", r.membership.replaces);
    require(r.membership.link_heals > 0, "link_heals", r.membership.link_heals);
  }
  if (scenario == Scenario::kLossy) {
    require(m.frames_dropped > 0, "frames_dropped", m.frames_dropped);
    require(m.retransmits > 0, "retransmits", m.retransmits);
    require(m.acks_sent > 0, "acks_sent", m.acks_sent);
  }
  return failures;
}

using Column = std::pair<std::string, std::uint64_t>;

/// Table columns: the oracle counters plus what shows the scenario fired.
std::vector<Column> counters(Scenario scenario, const Run& run) {
  if (scenario == Scenario::kTcp) {
    return {{"ops", run.tcp.ops}, {"publishes", run.tcp.publishes},
            {"skipped", run.tcp.skipped}, {"divergences", run.tcp.divergences}};
  }
  const sim::ChurnReport& r = run.sim;
  const sim::Metrics& m = r.totals;
  std::vector<Column> columns = {{"ops", r.ops},
                                 {"publishes", r.publishes},
                                 {"delivered", m.notifications_delivered},
                                 {"lost", m.notifications_lost},
                                 {"dup", m.notifications_duplicated},
                                 {"mismatch", r.mismatched_publishes},
                                 {"ghosts", r.membership.ghost_routes}};
  const auto add = [&](std::initializer_list<Column> more) {
    columns.insert(columns.end(), more);
  };
  switch (scenario) {
    case Scenario::kChurn:
      add({{"messages", m.total_messages()},
           {"suppressed", m.subscriptions_suppressed},
           {"promoted", m.subscriptions_promoted},
           {"peak_routing", r.peak_routing_entries}});
      break;
    case Scenario::kRecovery:
      add({{"snapshots", r.recovery.snapshots},
           {"snap_bytes", r.recovery.snapshot_bytes},
           {"gap_ops", r.recovery.gap_ops_replayed},
           {"replay_mismatch", r.recovery.replay_mismatches}});
      break;
    case Scenario::kMembership:
      add({{"members", r.membership.events}, {"crashes", r.membership.crashes},
           {"heals", r.membership.link_heals},
           {"alive_end", r.membership.final_alive_brokers}});
      break;
    case Scenario::kLossy:
      add({{"dropped", m.frames_dropped}, {"retx", m.retransmits},
           {"dupsup", m.dups_suppressed},
           {"escal", r.membership.link_escalations}});
      break;
    case Scenario::kTcp:
      break;
  }
  return columns;
}

void write_run(util::JsonWriter& json, Scenario scenario, const Run& run) {
  json.begin_object();
  json.member("name", run.name());
  json.member("topology", run.topology);
  json.member("seed", run.seed);
  json.member("brokers", run.brokers);
  if (scenario == Scenario::kTcp) {
    const net::ReplayReport& r = run.tcp;
    json.member("leg", run.leg);
    json.member("ops", r.ops);
    json.member("subscribes", r.subscribes);
    json.member("unsubscribes", r.unsubscribes);
    json.member("publishes", r.publishes);
    json.member("skipped", r.skipped);
    json.member("divergences", r.divergences);
    json.member("killed", r.killed);
  } else {
    const sim::ChurnReport& r = run.sim;
    const sim::Metrics& m = r.totals;
    json.member("slot", run.trace.config.slot);
    json.member("ops", r.ops);
    json.member("publishes", r.publishes);
    json.member("delivered", m.notifications_delivered);
    json.member("lost", m.notifications_lost);
    json.member("duplicated", m.notifications_duplicated);
    json.member("mismatched_publishes", r.mismatched_publishes);
    json.member("ghost_routes", r.membership.ghost_routes);
    json.member("messages", m.total_messages());
    json.member("suppressed", m.subscriptions_suppressed);
    json.member("reannounced_subscriptions", m.reannounced_subscriptions);
    json.member("subscriptions_promoted", m.subscriptions_promoted);
    json.member("peak_routing_entries", r.peak_routing_entries);
    if (scenario == Scenario::kRecovery) {
      json.begin_object("recovery");
      json.member("snapshots", r.recovery.snapshots);
      json.member("snapshot_bytes", r.recovery.snapshot_bytes);
      json.member("crashes", r.recovery.crashes);
      json.member("gap_ops_replayed", r.recovery.gap_ops_replayed);
      json.member("gap_publishes_replayed", r.recovery.gap_publishes_replayed);
      json.member("replay_mismatches", r.recovery.replay_mismatches);
      json.member("recovery_sim_gap", r.recovery.recovery_sim_gap);
      json.end_object();
    }
    if (run.trace.has_membership) {
      json.begin_object("membership");
      json.member("events", r.membership.events);
      json.member("joins", r.membership.joins);
      json.member("leaves", r.membership.leaves);
      json.member("crashes", r.membership.crashes);
      json.member("replaces", r.membership.replaces);
      json.member("link_failures", r.membership.link_failures);
      json.member("link_heals", r.membership.link_heals);
      json.member("replace_restored_routes",
                  r.membership.replace_restored_routes);
      json.member("final_alive_brokers", r.membership.final_alive_brokers);
      json.end_object();
    }
    if (run.trace.config.faults.any()) {
      json.begin_object("link_protocol");
      json.member("cascade_hop_bound",
                  run.trace.config.faults.cascade_hop_bound);
      json.member("frames_dropped", m.frames_dropped);
      json.member("frames_duplicated", m.frames_duplicated);
      json.member("retransmits", m.retransmits);
      json.member("dups_suppressed", m.dups_suppressed);
      json.member("reorders_healed", m.reorders_healed);
      json.member("acks_sent", m.acks_sent);
      json.member("backpressure_stalls", m.backpressure_stalls);
      json.member("link_escalations", r.membership.link_escalations);
      json.member("skipped_link_failures", r.membership.skipped_link_failures);
      json.member("skipped_link_heals", r.membership.skipped_link_heals);
      json.end_object();
    }
    if (scenario == Scenario::kChurn) {
      json.begin_array("epochs");
      for (const sim::ChurnEpoch& epoch : r.epochs) {
        json.begin_object();
        json.member("end_time", epoch.end_time);
        json.member("ops", epoch.ops);
        json.member("publishes", epoch.publishes);
        json.member("delivered", epoch.delivered);
        json.member("lost", epoch.lost);
        json.member("live_subscriptions", epoch.live_subscriptions);
        json.member("routing_entries", epoch.routing_entries);
        json.member("forwarded_entries", epoch.forwarded_entries);
        json.member("forwarded_active", epoch.forwarded_active);
        json.member("subscription_messages", epoch.subscription_messages);
        json.member("unsubscription_messages", epoch.unsubscription_messages);
        json.member("publication_messages", epoch.publication_messages);
        json.member("suppressed", epoch.suppressed);
        json.member("hops_per_publication", epoch.hops_per_publication());
        json.member("mismatched_publishes", epoch.mismatched_publishes);
        json.end_object();
      }
      json.end_array();
    }
  }
  json.member("gates_pass", run.failures.empty());
  json.begin_array("failures");
  for (const std::string& failure : run.failures) json.value(failure);
  json.end_array();
  json.member("elapsed_seconds", run.elapsed_seconds);
  json.end_object();
}

void write_json(const Options& o, const std::vector<Run>& runs,
                const std::vector<std::string>& matrix_failures) {
  std::ofstream out(o.json_path);
  if (!out) throw std::runtime_error("cannot open --json path: " + o.json_path);
  const workload::ChurnConfig& c = o.config;
  util::JsonWriter json(out);
  json.begin_object();
  json.member("bench", "soak");
  json.member("scenario", o.name);
  json.member("seed", o.seed);
  json.member("policy", store::to_string(o.policy));
  json.member("differential", o.differential);
  json.begin_object("config");
  json.member("brokers", o.brokers);
  json.member("ops", o.ops);
  json.member("seeds", o.seeds);
  json.member("duration", c.duration);
  json.member("epoch_length", c.epoch_length);
  json.member("link_latency", c.link_latency);
  json.member("subscription_rate", c.subscription_rate);
  json.member("publication_rate", c.publication_rate);
  json.member("ttl_fraction", c.ttl_fraction);
  json.member("join_rate", c.membership.join_rate);
  json.member("leave_rate", c.membership.leave_rate);
  json.member("crash_rate", c.membership.crash_rate);
  json.member("partition_rate", c.membership.partition_rate);
  json.member("drop", c.faults.link.drop_probability);
  json.member("dup", c.faults.link.dup_probability);
  json.member("reorder", c.faults.link.reorder_probability);
  json.member("jitter", c.faults.link.delay_jitter);
  json.member("bursts", c.faults.burst_count);
  if (o.link.enabled) {
    json.member("rto", o.link.effective_rto(c.link_latency));
    json.member("rto_max", o.link.effective_rto_max(c.link_latency));
    json.member("max_retries", o.link.max_retries);
    json.member("window", o.link.window);
  }
  if (o.scenario == Scenario::kRecovery) {
    json.member("snapshot_every", o.snapshot_every);
    json.member("kill_time", o.kill_time);
  }
  json.end_object();
  json.begin_array("runs");
  for (const Run& run : runs) write_run(json, o.scenario, run);
  json.end_array();
  // The aggregate gate scripts/check_bench.py validates for this artifact.
  std::uint64_t divergences = 0, publishes = 0, failed_runs = 0;
  for (const Run& run : runs) {
    divergences += run.tcp.divergences + run.sim.mismatched_publishes +
                   run.sim.recovery.replay_mismatches;
    publishes += run.tcp.publishes + run.sim.publishes;
    failed_runs += run.failures.empty() ? 0 : 1;
  }
  json.begin_object("gates");
  json.member("runs", runs.size());
  json.member("failed_runs", failed_runs);
  json.member("oracle_divergences", divergences);
  json.member("publishes", publishes);
  json.begin_array("matrix_failures");
  for (const std::string& failure : matrix_failures) json.value(failure);
  json.end_array();
  json.member("pass", failed_runs == 0 && matrix_failures.empty());
  json.end_object();
  json.end_object();
  out << '\n';
}

int soak(const Options& o) {
  util::print_banner(std::cout, "soak --scenario=" + o.name,
                     "differential soak, gated against the flat oracle");
  std::vector<Run> runs = run_all(o);

  std::vector<std::string> headers = {"topology", "seed", "brokers"};
  for (const auto& column : counters(o.scenario, Run{})) {
    headers.push_back(column.first);
  }
  headers.emplace_back("seconds");
  util::TableWriter table(std::move(headers));
  std::size_t escalations = 0;
  bool bursts_scripted = false;
  for (Run& run : runs) {
    if (o.differential) run.failures = gate(o.scenario, run);
    escalations += run.sim.membership.link_escalations;
    bursts_scripted |= !run.trace.bursts.empty();
    std::vector<util::Cell> row = {run.name(), static_cast<long long>(run.seed),
                                   static_cast<long long>(run.brokers)};
    for (const auto& column : counters(o.scenario, run)) {
      row.emplace_back(static_cast<long long>(column.second));
    }
    row.emplace_back(run.elapsed_seconds);
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  if (o.scenario != Scenario::kTcp) {
    std::uint64_t promoted = 0;
    for (const Run& run : runs) {
      promoted += run.sim.totals.subscriptions_promoted;
    }
    std::cout << "\nsubscriptions promoted: " << promoted << "\n";
  }
  if (o.scenario == Scenario::kMembership || o.scenario == Scenario::kLossy) {
    std::size_t restored = 0;
    for (const Run& run : runs) {
      restored += run.sim.membership.replace_restored_routes;
    }
    std::cout << "routes restored by replacement: " << restored << "\n";
  }

  std::vector<std::string> matrix_failures;
  if (runs.empty()) {
    matrix_failures.push_back("no runs: --topology=" + o.topology_filter +
                              " matched nothing");
  }
  // Each scripted burst forces an escalation only if traffic crosses its
  // link inside the window, but across the run matrix the degradation path
  // must fire.
  if (o.differential && bursts_scripted && escalations == 0) {
    matrix_failures.push_back("scripted bursts never escalated into fail_link");
  }
  if (!o.json_path.empty()) {
    write_json(o, runs, matrix_failures);
    std::cout << "\njson written to " << o.json_path << "\n";
  }

  std::size_t failed_runs = 0;
  for (const Run& run : runs) {
    if (run.failures.empty()) continue;
    ++failed_runs;
    const std::string dump = o.dump_dir + "/soak_" + o.name + "_fail_" +
                             run.topology + "_" + std::to_string(run.seed) +
                             ".psct";
    bench::write_trace_file(dump, run.trace);
    std::cerr << "\nGATE FAILURE on " << run.name() << " (seed " << run.seed
              << ", policy " << store::to_string(o.policy) << "):";
    for (const std::string& failure : run.failures) std::cerr << " " << failure;
    std::cerr << "\n  trace dumped; replay with:\n    ./soak";
    for (const std::string& arg : o.args) std::cerr << " " << arg;
    std::cerr << " --replay=" << dump << " --topology=" << run.topology
              << " --seed=" << o.seed << "\n";
  }
  for (const std::string& failure : matrix_failures) {
    std::cerr << "\nFAIL: " << failure << "\n";
  }
  if (failed_runs > 0 || !matrix_failures.empty()) {
    std::cerr << "\nFAIL: gates tripped on " << failed_runs << " of "
              << runs.size() << " run(s)\n";
    return 1;
  }
  std::cout << "\nall " << o.name << " gates passed (" << runs.size()
            << " runs)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return soak(parse(argc, argv));
  } catch (const std::invalid_argument& error) {
    std::cerr << "soak: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    // An unreadable file or a cluster that died mid-run.
    std::cerr << "soak: " << error.what() << "\n";
    return 1;
  }
}
