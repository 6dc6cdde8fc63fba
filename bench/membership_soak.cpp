// Membership soak — live broker churn (join / graceful leave / crash /
// replacement, link failure and heal with rotating standby bridges)
// interleaved with subscription/publication churn, across the membership
// topology family, differentially gated against the flat oracle. The gates
// demand exact reconvergence after every partition repair: zero divergent
// publishes, zero lost deliveries, zero duplicates, zero ghost routes.
//
//   ./membership_soak [--brokers=60] [--duration=40] [--seed=2006]
//       [--policy=exact] [--latency=0.001] [--sub-rate=2.0] [--pub-rate=4.0]
//       [--join-rate=0.15] [--leave-rate=0.1] [--crash-rate=0.15]
//       [--partition-rate=0.3] [--differential=true] [--json=PATH]
//       [--topology=NAME] [--dump-dir=.] [--replay=FILE]
//
// Scale runs (the nightly leg uses --brokers=500) shrink --latency so the
// slot/cascade time contract holds without stretching op slots: the slot
// must exceed twice the worst-case cascade depth in link latencies.
//
// Failure reproducibility: when a gate trips, the run dumps the offending
// trace (a self-contained PSCT file embedding the overlay universe) and
// prints the exact --replay one-liner that reproduces the failure.
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "routing/topology.hpp"
#include "sim/churn_driver.hpp"
#include "util/json_writer.hpp"
#include "workload/churn_workload.hpp"

namespace {

using namespace psc;

struct SoakResult {
  std::string name;
  std::size_t brokers = 0;
  workload::ChurnTrace trace;
  sim::ChurnReport report;
  double elapsed_seconds = 0.0;

  [[nodiscard]] bool gates_pass() const {
    return report.mismatched_publishes == 0 &&
           report.totals.notifications_lost == 0 &&
           report.totals.notifications_duplicated == 0 &&
           report.membership.ghost_routes == 0;
  }
};

/// Rebuilds the overlay a (possibly replayed) trace was generated against:
/// brokers and live links from the embedded universe; the driver registers
/// the standby bridges itself.
routing::BrokerNetwork build_from_universe(
    const routing::MembershipUniverse& universe,
    routing::NetworkConfig config) {
  routing::BrokerNetwork net(config);
  for (std::size_t i = 0; i < universe.brokers; ++i) (void)net.add_broker();
  for (const auto& [a, b] : universe.links) net.connect(a, b);
  return net;
}

/// Keeps the generator's slot contract (slot/2 must exceed the worst-case
/// cascade depth in link latencies) valid at any scale by widening the slot
/// to the next exact divisor of the epoch length when needed.
workload::ChurnConfig tune_slot(workload::ChurnConfig config,
                                std::size_t max_brokers) {
  const double need = 2.2 * static_cast<double>(max_brokers + 1) *
                      config.link_latency;
  if (config.slot < need) {
    const auto per_epoch = std::max<std::size_t>(
        1, static_cast<std::size_t>(config.epoch_length / need));
    config.slot = config.epoch_length / static_cast<double>(per_epoch);
  }
  return config;
}

void write_json(const std::string& path, const workload::ChurnConfig& config,
                store::CoveragePolicy policy, std::uint64_t seed,
                const std::vector<SoakResult>& results) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open --json path: " + path);
  util::JsonWriter json(out);
  json.begin_object();
  json.member("bench", "membership_soak");
  json.member("seed", seed);
  json.member("policy", store::to_string(policy));
  json.begin_object("config");
  json.member("duration", config.duration);
  json.member("epoch_length", config.epoch_length);
  json.member("link_latency", config.link_latency);
  json.member("subscription_rate", config.subscription_rate);
  json.member("publication_rate", config.publication_rate);
  json.member("join_rate", config.membership.join_rate);
  json.member("leave_rate", config.membership.leave_rate);
  json.member("crash_rate", config.membership.crash_rate);
  json.member("partition_rate", config.membership.partition_rate);
  json.member("partition_mean", config.membership.partition_mean);
  json.member("replace_mean", config.membership.replace_mean);
  json.end_object();
  json.begin_array("topologies");
  for (const SoakResult& result : results) {
    const sim::ChurnReport& report = result.report;
    json.begin_object();
    json.member("name", result.name);
    json.member("brokers", std::uint64_t{result.brokers});
    json.member("ops", std::uint64_t{report.ops});
    json.member("publishes", std::uint64_t{report.publishes});
    json.member("delivered", report.totals.notifications_delivered);
    json.member("lost", report.totals.notifications_lost);
    json.member("duplicated", report.totals.notifications_duplicated);
    json.member("mismatched_publishes", report.mismatched_publishes);
    json.member("reannounced_subscriptions",
                report.totals.reannounced_subscriptions);
    json.member("gates_pass", result.gates_pass());
    json.begin_object("membership");
    json.member("events", std::uint64_t{report.membership.events});
    json.member("joins", std::uint64_t{report.membership.joins});
    json.member("leaves", std::uint64_t{report.membership.leaves});
    json.member("crashes", std::uint64_t{report.membership.crashes});
    json.member("replaces", std::uint64_t{report.membership.replaces});
    json.member("link_failures", std::uint64_t{report.membership.link_failures});
    json.member("link_heals", std::uint64_t{report.membership.link_heals});
    json.member("replace_restored_routes",
                std::uint64_t{report.membership.replace_restored_routes});
    json.member("replace_gap_subs",
                std::uint64_t{report.membership.replace_gap_subs});
    json.member("ghost_routes", std::uint64_t{report.membership.ghost_routes});
    json.member("final_alive_brokers",
                std::uint64_t{report.membership.final_alive_brokers});
    json.end_object();
    json.member("elapsed_seconds", result.elapsed_seconds);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psc;
  const util::Flags flags(argc, argv);

  const auto brokers = static_cast<std::size_t>(flags.get_int("brokers", 60));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2006));
  const auto policy =
      store::parse_coverage_policy(flags.get_string("policy", "exact"));
  const bool differential = flags.get_bool("differential", true);
  const std::string json_path = flags.get_string("json", "");
  const std::string topology_filter = flags.get_string("topology", "");
  const std::string dump_dir = flags.get_string("dump-dir", ".");
  const std::string replay_path = flags.get_string("replay", "");

  workload::ChurnConfig config;
  config.duration = flags.get_double("duration", 40.0);
  config.link_latency = flags.get_double("latency", 0.001);
  config.subscription_rate = flags.get_double("sub-rate", 2.0);
  config.publication_rate = flags.get_double("pub-rate", 4.0);
  config.membership.join_rate = flags.get_double("join-rate", 0.15);
  config.membership.leave_rate = flags.get_double("leave-rate", 0.1);
  config.membership.crash_rate = flags.get_double("crash-rate", 0.15);
  config.membership.partition_rate = flags.get_double("partition-rate", 0.3);

  store::StoreConfig store_config;
  store_config.policy = policy;
  routing::NetworkConfig net_config = routing::NetworkConfig::Builder()
                                          .store(store_config)
                                          .link_latency(config.link_latency)
                                          .build();

  util::print_banner(std::cout, "membership_soak",
                     "broker churn + partition repair, oracle-gated");

  util::TableWriter table({"topology", "brokers", "ops", "publishes",
                           "delivered", "mismatch", "dup", "ghosts", "members",
                           "joins", "crashes", "heals", "alive_end",
                           "seconds"});
  std::vector<SoakResult> results;
  std::vector<std::string> failures;

  const auto run_one = [&](const std::string& name, std::size_t broker_count,
                           routing::BrokerNetwork net,
                           workload::ChurnTrace trace) {
    SoakResult result;
    result.name = name;
    result.brokers = broker_count;
    result.trace = std::move(trace);
    const util::Timer timer;
    sim::ChurnDriver::Options driver_options;
    driver_options.differential = differential;
    result.report = sim::ChurnDriver::run(net, result.trace, driver_options);
    result.elapsed_seconds = timer.elapsed_seconds();

    const sim::ChurnReport& report = result.report;
    table.add_row({result.name, static_cast<long long>(result.brokers),
                   static_cast<long long>(report.ops),
                   static_cast<long long>(report.publishes),
                   static_cast<long long>(report.totals.notifications_delivered),
                   static_cast<long long>(report.mismatched_publishes),
                   static_cast<long long>(report.totals.notifications_duplicated),
                   static_cast<long long>(report.membership.ghost_routes),
                   static_cast<long long>(report.membership.events),
                   static_cast<long long>(report.membership.joins),
                   static_cast<long long>(report.membership.crashes),
                   static_cast<long long>(report.membership.link_heals),
                   static_cast<long long>(report.membership.final_alive_brokers),
                   result.elapsed_seconds});

    if (differential && !result.gates_pass()) {
      const std::string dump = dump_dir + "/membership_soak_fail_" +
                               result.name + "_" + std::to_string(seed) +
                               ".psct";
      bench::write_trace_file(dump, result.trace);
      std::cerr << "\nGATE FAILURE on " << result.name << " (seed " << seed
                << ", policy " << store::to_string(policy) << ", latency "
                << config.link_latency << "):\n"
                << "  mismatched=" << report.mismatched_publishes
                << " lost=" << report.totals.notifications_lost
                << " duplicated=" << report.totals.notifications_duplicated
                << " ghosts=" << report.membership.ghost_routes << "\n"
                << "  trace dumped; replay with:\n"
                << "    ./membership_soak --replay=" << dump
                << " --seed=" << seed
                << " --policy=" << store::to_string(policy)
                << " --latency=" << config.link_latency << "\n";
      failures.push_back(result.name);
    }
    results.push_back(std::move(result));
  };

  if (!replay_path.empty()) {
    workload::ChurnTrace trace = bench::read_trace_file(replay_path);
    if (!trace.has_membership) {
      std::cerr << "replay file has no membership universe: " << replay_path
                << "\n";
      return 2;
    }
    net_config.link_latency = trace.config.link_latency;
    const std::size_t replay_brokers = trace.universe.brokers;
    routing::BrokerNetwork net = build_from_universe(trace.universe, net_config);
    run_one("replay", replay_brokers, std::move(net), std::move(trace));
  } else {
    for (const routing::MembershipTopology& topology :
         routing::membership_topologies(brokers, seed)) {
      if (!topology_filter.empty() &&
          topology.name.find(topology_filter) == std::string::npos) {
        continue;
      }
      workload::ChurnConfig shaped = config;
      // Bound join growth so the slot contract stays tight at scale.
      shaped.membership.max_brokers =
          topology.brokers + std::max<std::size_t>(8, topology.brokers / 16);
      shaped = tune_slot(shaped, shaped.membership.max_brokers);
      routing::BrokerNetwork net = topology.build(net_config);
      const routing::MembershipUniverse universe = topology.universe(net);
      run_one(topology.name, topology.brokers, std::move(net),
              workload::generate_churn_trace(shaped, universe, seed));
    }
  }
  table.print(std::cout);

  if (!json_path.empty()) {
    write_json(json_path, config, policy, seed, results);
    std::cout << "\njson written to " << json_path << "\n";
  }

  if (!failures.empty()) {
    std::cerr << "\nFAIL: gates tripped on " << failures.size()
              << " topology(ies)\n";
    return 1;
  }
  std::cout << "\nall membership gates passed\n";
  return 0;
}
