// Recovery soak — the crash-recovery scenario class over the standard
// topology family: every topology runs a churn trace with the differential
// oracle ON and failure injection enabled, so mid-churn the whole broker
// state is killed and recovered from its last snapshot plus a WAL replay
// of the gap ops. The run GATES on full recovery fidelity:
//   * zero differential mismatches (pre- and post-crash publishes),
//   * zero replay mismatches (every replayed publish re-delivers exactly
//     the oracle set recorded in its first life),
//   * zero lost notifications, and
//   * the crash actually fired on every topology.
//
//   ./recovery_soak [--duration=60] [--seed=2006] [--policy=exact]
//                   [--snapshot-every=0]     (sim-seconds; 0 = epoch length)
//                   [--kill-fraction=0.5]    (kill at fraction of duration)
//                   [--drop=0] [--dup=0] [--reorder=0] [--jitter=0]
//                   [--shards=1] [--json=PATH] [--topology=NAME]
//
// Nonzero fault flags run the crash/recovery discipline over lossy wires
// behind the reliable link protocol; the slot is re-derived per topology
// from the protocol's worst-case hop delay (see bench/churn_soak.cpp).
// No burst windows are scripted here, so the retry cap is never exhausted
// and recovery fidelity is tested orthogonally to link escalation.
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

struct RecoveryResult {
  routing::Topology topology;
  sim::ChurnReport report;
  double elapsed_seconds = 0.0;
};

void write_json(const std::string& path, const workload::ChurnConfig& config,
                store::CoveragePolicy policy, std::uint64_t seed,
                double snapshot_every, double kill_time,
                const std::vector<RecoveryResult>& results) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open --json path: " + path);
  util::JsonWriter json(out);
  json.begin_object();
  json.member("bench", "recovery_soak");
  json.member("seed", seed);
  json.member("policy", store::to_string(policy));
  json.begin_object("config");
  json.member("duration", config.duration);
  json.member("epoch_length", config.epoch_length);
  json.member("subscription_rate", config.subscription_rate);
  json.member("publication_rate", config.publication_rate);
  json.member("snapshot_every", snapshot_every);
  json.member("kill_time", kill_time);
  json.member("drop", config.faults.link.drop_probability);
  json.member("dup", config.faults.link.dup_probability);
  json.member("reorder", config.faults.link.reorder_probability);
  json.member("jitter", config.faults.link.delay_jitter);
  json.end_object();
  json.begin_array("topologies");
  for (const RecoveryResult& result : results) {
    const sim::ChurnReport& report = result.report;
    json.begin_object();
    json.member("name", result.topology.name);
    json.member("brokers", std::uint64_t{result.topology.brokers});
    json.member("ops", std::uint64_t{report.ops});
    json.member("publishes", std::uint64_t{report.publishes});
    json.member("delivered", report.totals.notifications_delivered);
    json.member("lost", report.totals.notifications_lost);
    json.member("mismatched_publishes", report.mismatched_publishes);
    json.begin_object("recovery");
    json.member("snapshots", std::uint64_t{report.recovery.snapshots});
    json.member("snapshot_bytes", std::uint64_t{report.recovery.snapshot_bytes});
    json.member("crashes", std::uint64_t{report.recovery.crashes});
    json.member("gap_ops_replayed",
                std::uint64_t{report.recovery.gap_ops_replayed});
    json.member("gap_publishes_replayed",
                std::uint64_t{report.recovery.gap_publishes_replayed});
    json.member("replay_mismatches", report.recovery.replay_mismatches);
    json.member("recovery_sim_gap", report.recovery.recovery_sim_gap);
    json.end_object();
    json.member("frames_dropped", report.totals.frames_dropped);
    json.member("retransmits", report.totals.retransmits);
    json.member("dups_suppressed", report.totals.dups_suppressed);
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
  const auto shards = static_cast<std::size_t>(flags.get_int("shards", 1));
  const double snapshot_every = flags.get_double("snapshot-every", 0.0);
  const double kill_fraction = flags.get_double("kill-fraction", 0.5);
  const std::string json_path = flags.get_string("json", "");
  const std::string topology_filter = flags.get_string("topology", "");
  // Land the kill mid-cadence (half a snapshot interval past the fraction
  // point) so the recovery always replays a non-trivial WAL gap instead of
  // restoring a snapshot taken at the kill instant itself.
  const double cadence =
      snapshot_every > 0 ? snapshot_every : config.epoch_length;
  const double kill_time = config.duration * kill_fraction + cadence / 2;

  util::print_banner(std::cout, "recovery_soak",
                     "mid-churn crash + snapshot/WAL recovery, differential-gated");

  util::TableWriter table({"topology", "brokers", "ops", "publishes",
                           "mismatch", "lost", "snapshots", "snap_bytes",
                           "gap_ops", "replay_mismatch", "seconds"});
  std::vector<RecoveryResult> results;
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
      // Same slot discipline as churn_soak: the slot must outlast a
      // worst-case retransmit chain across the overlay diameter so every
      // op (and the snapshot taken at each epoch close) observes a
      // quiescent wire.
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

    RecoveryResult result;
    result.topology = topology;
    const auto trace =
        workload::generate_churn_trace(topo_config, topology.brokers, seed);
    auto net = topology.build(net_config);
    sim::ChurnDriver::Options options;
    options.differential = true;
    options.failure.enabled = true;
    options.failure.snapshot_every = snapshot_every;
    options.failure.kill_time = kill_time;
    const util::Timer timer;
    result.report = sim::ChurnDriver::run(net, trace, options);
    result.elapsed_seconds = timer.elapsed_seconds();

    const sim::ChurnReport& report = result.report;
    table.add_row({topology.name, static_cast<long long>(topology.brokers),
                   static_cast<long long>(report.ops),
                   static_cast<long long>(report.publishes),
                   static_cast<long long>(report.mismatched_publishes),
                   static_cast<long long>(report.totals.notifications_lost),
                   static_cast<long long>(report.recovery.snapshots),
                   static_cast<long long>(report.recovery.snapshot_bytes),
                   static_cast<long long>(report.recovery.gap_ops_replayed),
                   static_cast<long long>(report.recovery.replay_mismatches),
                   result.elapsed_seconds});
    results.push_back(std::move(result));
  }
  table.print(std::cout);

  if (!json_path.empty()) {
    write_json(json_path, config, policy, seed, snapshot_every, kill_time,
               results);
    std::cout << "\njson written to " << json_path << "\n";
  }

  // Gate: recovery must be invisible to subscribers on every topology.
  // An empty run (filter matched nothing) must fail, not pass vacuously.
  if (results.empty()) {
    std::cerr << "\nFAIL: no topology matched --topology=" << topology_filter
              << "\n";
    return 1;
  }
  std::uint64_t mismatches = 0, lost = 0, replay_mismatches = 0;
  std::size_t without_crash = 0;
  for (const RecoveryResult& result : results) {
    mismatches += result.report.mismatched_publishes;
    lost += result.report.totals.notifications_lost;
    replay_mismatches += result.report.recovery.replay_mismatches;
    if (result.report.recovery.crashes == 0) ++without_crash;
  }
  if (mismatches > 0 || lost > 0 || replay_mismatches > 0 || without_crash > 0) {
    std::cerr << "\nFAIL: " << mismatches << " mismatched publishes, " << lost
              << " lost notifications, " << replay_mismatches
              << " replay mismatches, " << without_crash
              << " topologies where the kill never fired\n";
    return 1;
  }
  std::cout << "\nrecovery gate: all topologies recovered with zero loss and "
               "zero ghosts\n";
  return 0;
}
