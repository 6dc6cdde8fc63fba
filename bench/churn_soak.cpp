// Churn soak — sustained open-workload churn over the standard topology
// family, with a per-epoch metrics time series and machine-readable JSON
// output so successive PRs can track the trajectory.
//
//   ./churn_soak [--duration=60] [--seed=2006] [--policy=exact]
//                [--sub-rate=2.0] [--pub-rate=5.0] [--ttl-fraction=0.5]
//                [--shards=1] [--differential=true]
//                [--drop=0] [--dup=0] [--reorder=0] [--jitter=0]
//                [--json=PATH]
//                [--topology=NAME]   (substring filter, e.g. "grid")
//                [--dump-dir=.] [--replay=FILE]
//
// Nonzero --drop/--dup/--reorder/--jitter run the soak over lossy wires
// behind the reliable link protocol (routing/link_channel.hpp): the slot
// is re-derived per topology from the protocol's worst-case hop delay so
// retransmit chains quiesce between ops, and the differential gate then
// additionally demands the wire was actually hostile. bench/lossy_soak is
// the dedicated fault matrix; these flags exist so the plain churn soak
// can be spot-checked under loss without switching harnesses.
//
// Every run replays the same seeded trace per topology, so two runs with
// equal flags produce identical counters; wall-clock timing is the only
// nondeterministic field in the JSON.
//
// Failure reproducibility: a tripped gate dumps the offending trace as a
// PSCT file and prints the `--replay=FILE --topology=NAME ...` one-liner
// that reruns exactly that trace on exactly that overlay.
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "routing/topology.hpp"
#include "sim/churn_driver.hpp"
#include "util/json_writer.hpp"
#include "workload/churn_workload.hpp"

namespace {

using namespace psc;

struct SoakResult {
  routing::Topology topology;
  workload::ChurnTrace trace;
  sim::ChurnReport report;
  double elapsed_seconds = 0.0;
};

void write_json(const std::string& path, const workload::ChurnConfig& config,
                store::CoveragePolicy policy, std::uint64_t seed,
                const std::vector<SoakResult>& results) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open --json path: " + path);
  util::JsonWriter json(out);
  json.begin_object();
  json.member("bench", "churn_soak");
  json.member("seed", seed);
  json.member("policy", store::to_string(policy));
  json.begin_object("config");
  json.member("duration", config.duration);
  json.member("epoch_length", config.epoch_length);
  json.member("subscription_rate", config.subscription_rate);
  json.member("publication_rate", config.publication_rate);
  json.member("ttl_fraction", config.ttl_fraction);
  json.member("immortal_fraction", config.immortal_fraction);
  json.member("mean_lifetime", config.mean_lifetime);
  json.member("attribute_count", std::uint64_t{config.attribute_count});
  json.member("hotspot_count", std::uint64_t{config.hotspot_count});
  json.member("zipf_skew", config.zipf_skew);
  json.member("drop", config.faults.link.drop_probability);
  json.member("dup", config.faults.link.dup_probability);
  json.member("reorder", config.faults.link.reorder_probability);
  json.member("jitter", config.faults.link.delay_jitter);
  json.end_object();
  json.begin_array("topologies");
  for (const SoakResult& result : results) {
    const sim::ChurnReport& report = result.report;
    json.begin_object();
    json.member("name", result.topology.name);
    json.member("brokers", std::uint64_t{result.topology.brokers});
    json.member("ops", std::uint64_t{report.ops});
    json.member("publishes", std::uint64_t{report.publishes});
    json.member("delivered", report.totals.notifications_delivered);
    json.member("lost", report.totals.notifications_lost);
    json.member("mismatched_publishes", report.mismatched_publishes);
    json.member("messages", report.totals.total_messages());
    json.member("suppressed", report.totals.subscriptions_suppressed);
    json.member("peak_routing_entries", std::uint64_t{report.peak_routing_entries});
    json.member("frames_dropped", report.totals.frames_dropped);
    json.member("retransmits", report.totals.retransmits);
    json.member("dups_suppressed", report.totals.dups_suppressed);
    json.member("link_escalations",
                std::uint64_t{report.membership.link_escalations});
    json.member("elapsed_seconds", result.elapsed_seconds);
    json.begin_array("epochs");
    for (const sim::ChurnEpoch& epoch : report.epochs) {
      json.begin_object();
      json.member("end_time", epoch.end_time);
      json.member("ops", std::uint64_t{epoch.ops});
      json.member("publishes", std::uint64_t{epoch.publishes});
      json.member("delivered", epoch.delivered);
      json.member("lost", epoch.lost);
      json.member("live_subscriptions", std::uint64_t{epoch.live_subscriptions});
      json.member("routing_entries", std::uint64_t{epoch.routing_entries});
      json.member("forwarded_entries", std::uint64_t{epoch.forwarded_entries});
      json.member("forwarded_active", std::uint64_t{epoch.forwarded_active});
      json.member("subscription_messages", epoch.subscription_messages);
      json.member("unsubscription_messages", epoch.unsubscription_messages);
      json.member("publication_messages", epoch.publication_messages);
      json.member("suppressed", epoch.suppressed);
      json.member("hops_per_publication", epoch.hops_per_publication());
      json.member("mismatched_publishes", epoch.mismatched_publishes);
      json.end_object();
    }
    json.end_array();
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

  workload::ChurnConfig config;
  config.duration = flags.get_double("duration", 60.0);
  config.subscription_rate = flags.get_double("sub-rate", 2.0);
  config.publication_rate = flags.get_double("pub-rate", 5.0);
  config.ttl_fraction = flags.get_double("ttl-fraction", 0.5);
  config.faults.link.drop_probability = flags.get_double("drop", 0.0);
  config.faults.link.dup_probability = flags.get_double("dup", 0.0);
  config.faults.link.reorder_probability = flags.get_double("reorder", 0.0);
  config.faults.link.delay_jitter = flags.get_double("jitter", 0.0);
  const bool lossy = config.faults.any();
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2006));
  const auto policy =
      store::parse_coverage_policy(flags.get_string("policy", "exact"));
  const auto shards =
      static_cast<std::size_t>(flags.get_int("shards", 1));
  const bool differential = flags.get_bool("differential", true);
  const std::string json_path = flags.get_string("json", "");
  const std::string topology_filter = flags.get_string("topology", "");
  const std::string dump_dir = flags.get_string("dump-dir", ".");
  const std::string replay_path = flags.get_string("replay", "");
  if (!replay_path.empty() && topology_filter.empty()) {
    std::cerr << "--replay needs --topology=NAME to pick the overlay the "
                 "trace was recorded against\n";
    return 2;
  }

  util::print_banner(std::cout, "churn_soak",
                     "open-workload churn across the standard topologies");

  util::TableWriter table({"topology", "brokers", "ops", "publishes",
                           "delivered", "lost", "mismatch", "messages",
                           "suppressed", "peak_routing", "live_end",
                           "seconds"});
  std::vector<SoakResult> results;
  for (routing::Topology& topology : routing::standard_topologies(seed)) {
    if (!topology_filter.empty() &&
        topology.name.find(topology_filter) == std::string::npos) {
      continue;
    }
    store::StoreConfig store_config;
    store_config.policy = policy;
    routing::NetworkConfig net_config = routing::NetworkConfig::Builder()
                                            .store(store_config)
                                            .match_shards(shards)
                                            .build();
    config.link_latency = net_config.link_latency;

    workload::ChurnConfig topo_config = config;
    if (lossy) {
      routing::LinkConfig link;
      link.enabled = true;
      link.faults = config.faults.link;
      net_config.link = link;
      net_config.seed = seed;
      // The slot must outlast a worst-case retransmit chain across the
      // overlay diameter, or cascades bleed into the next op's settle
      // point and the trace validator rejects the schedule.
      topo_config.faults.cascade_hop_bound =
          link.worst_hop_delay(net_config.link_latency);
      topo_config.slot = 2.2 * static_cast<double>(topology.brokers + 1) *
                         topo_config.faults.cascade_hop_bound;
      topo_config.epoch_length = topo_config.slot * 50;
      if (topo_config.slot > topo_config.duration) {
        std::cerr << "FAIL: --duration=" << topo_config.duration
                  << " is shorter than the lossy settle slot ("
                  << topo_config.slot << "s) that " << topology.name
                  << " needs for a worst-case retransmit cascade; rerun "
                     "with --duration >= "
                  << topo_config.slot << "\n";
        return 1;
      }
    }

    SoakResult result;
    result.topology = topology;
    result.trace =
        replay_path.empty()
            ? workload::generate_churn_trace(topo_config, topology.brokers,
                                             seed)
            : bench::read_trace_file(replay_path);
    auto net = topology.build(net_config);
    const util::Timer timer;
    sim::ChurnDriver::Options driver_options;
    driver_options.differential = differential;
    result.report = sim::ChurnDriver::run(net, result.trace, driver_options);
    result.elapsed_seconds = timer.elapsed_seconds();

    const sim::ChurnReport& report = result.report;
    table.add_row({topology.name, static_cast<long long>(topology.brokers),
                   static_cast<long long>(report.ops),
                   static_cast<long long>(report.publishes),
                   static_cast<long long>(report.totals.notifications_delivered),
                   static_cast<long long>(report.totals.notifications_lost),
                   static_cast<long long>(report.mismatched_publishes),
                   static_cast<long long>(report.totals.total_messages()),
                   static_cast<long long>(report.totals.subscriptions_suppressed),
                   static_cast<long long>(report.peak_routing_entries),
                   static_cast<long long>(report.final_live_subscriptions),
                   result.elapsed_seconds});
    results.push_back(std::move(result));
  }
  table.print(std::cout);

  if (!json_path.empty()) {
    write_json(json_path, config, policy, seed, results);
    std::cout << "\njson written to " << json_path << "\n";
  }

  // With the differential oracle on, the soak doubles as a gate: any
  // divergence or lost notification fails the run (CI smoke relies on
  // this). Under --policy=group losses bounded by delta are legal — run
  // with --differential=false to soak group without gating.
  if (differential) {
    std::uint64_t mismatches = 0, lost = 0;
    for (const SoakResult& result : results) {
      mismatches += result.report.mismatched_publishes;
      lost += result.report.totals.notifications_lost;
      if (result.report.mismatched_publishes == 0 &&
          result.report.totals.notifications_lost == 0) {
        continue;
      }
      // Reproducibility: dump the offending trace and print the one-liner
      // that replays it on exactly this overlay.
      const std::string dump = dump_dir + "/churn_soak_fail_" +
                               result.topology.name + "_" +
                               std::to_string(seed) + ".psct";
      bench::write_trace_file(dump, result.trace);
      std::cerr << "\nGATE FAILURE on " << result.topology.name << " (seed "
                << seed << ", policy " << store::to_string(policy)
                << "): mismatched=" << result.report.mismatched_publishes
                << " lost=" << result.report.totals.notifications_lost << "\n"
                << "  trace dumped; replay with:\n"
                << "    ./churn_soak --replay=" << dump
                << " --topology=" << result.topology.name
                << " --seed=" << seed
                << " --policy=" << store::to_string(policy)
                << " --shards=" << shards;
      if (lossy) {
        // Fault rates ride the trace, but the wire config (and its seed)
        // rides the command line — repeat it for a faithful replay.
        std::cerr << " --drop=" << config.faults.link.drop_probability
                  << " --dup=" << config.faults.link.dup_probability
                  << " --reorder=" << config.faults.link.reorder_probability
                  << " --jitter=" << config.faults.link.delay_jitter;
      }
      std::cerr << "\n";
    }
    if (mismatches > 0 || lost > 0) {
      std::cerr << "\nFAIL: " << mismatches << " mismatched publishes, "
                << lost << " lost notifications\n";
      return 1;
    }
  }
  return 0;
}
