// Lossy soak — subscription/publication/membership churn replayed over
// UNRELIABLE wires: every directed link injects seeded iid drop / dup /
// reorder / jitter faults plus scripted burst-loss windows, and the
// reliable link protocol (per-link sequencing, cumulative acks,
// retransmit with exponential backoff, receiver dedup/reorder windows)
// must make all of it invisible to the application. The run is
// differentially gated against the flat oracle across the membership
// topology family and multiple seeds: zero divergent publishes, zero
// lost deliveries, zero duplicates, zero ghost routes — with the fault
// counters proving the wire was actually hostile, and the scripted
// bursts forcing retry-cap escalations into the fail_link degradation
// path (which the driver mirrors into the oracle).
//
//   ./lossy_soak [--brokers=24] [--ops=400] [--seeds=3] [--seed=2006]
//       [--policy=exact] [--latency=0.0001] [--drop=0.2] [--dup=0.1]
//       [--reorder=0.1] [--jitter=0.5] [--bursts=4] [--burst-slots=2.5]
//       [--rto=0] [--rto-max=0] [--retries=12] [--window=128]
//       [--sub-rate=2.0] [--pub-rate=4.0] [--membership=true]
//       [--differential=true] [--json=PATH] [--topology=NAME]
//       [--dump-dir=.] [--replay=FILE]
//
// The op slot is derived from the protocol's worst-case hop time
// (LinkConfig::worst_hop_delay: the full retransmit-backoff chain plus
// jitter/reorder delays), so cascades — including retransmit storms —
// always quiesce inside half a slot. Sim-seconds are free; --ops fixes
// the amount of work per run.
//
// Failure reproducibility: a tripped gate dumps the trace (PSCT, with
// embedded universe, fault rates, and burst schedule) and prints the
// exact --replay one-liner. The link-protocol knobs ride the command
// line, not the trace, so pass the same --rto/--retries/... on replay.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "routing/link_channel.hpp"
#include "routing/topology.hpp"
#include "sim/churn_driver.hpp"
#include "util/json_writer.hpp"
#include "workload/churn_workload.hpp"

namespace {

using namespace psc;

struct SoakResult {
  std::string name;
  std::uint64_t seed = 0;
  std::size_t brokers = 0;
  workload::ChurnTrace trace;
  sim::ChurnReport report;
  double elapsed_seconds = 0.0;
  bool bursts_scripted = false;

  [[nodiscard]] bool gates_pass() const {
    const sim::Metrics& m = report.totals;
    // Oracle exactness through every fault and escalation…
    if (report.mismatched_publishes != 0 || m.notifications_lost != 0 ||
        m.notifications_duplicated != 0 ||
        report.membership.ghost_routes != 0) {
      return false;
    }
    // …and proof the protocol actually fought a hostile wire.
    return m.frames_dropped > 0 && m.retransmits > 0 && m.acks_sent > 0;
  }
};

routing::BrokerNetwork build_from_universe(
    const routing::MembershipUniverse& universe,
    routing::NetworkConfig config) {
  routing::BrokerNetwork net(config);
  for (std::size_t i = 0; i < universe.brokers; ++i) (void)net.add_broker();
  for (const auto& [a, b] : universe.links) net.connect(a, b);
  return net;
}

/// Slot sizing under faults: half a slot must clear the worst-case
/// cascade, where one hop can cost the whole retransmit-backoff chain.
workload::ChurnConfig shape_time(workload::ChurnConfig config,
                                 const routing::LinkConfig& link,
                                 std::size_t max_brokers, std::size_t ops) {
  config.faults.cascade_hop_bound = link.worst_hop_delay(config.link_latency);
  config.slot = 2.2 * static_cast<double>(max_brokers + 1) *
                config.faults.cascade_hop_bound;
  config.epoch_length = config.slot * 50.0;
  config.duration = config.slot * static_cast<double>(ops);
  return config;
}

void write_json(const std::string& path, const workload::ChurnConfig& config,
                const routing::LinkConfig& link, store::CoveragePolicy policy,
                const std::vector<SoakResult>& results) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open --json path: " + path);
  util::JsonWriter json(out);
  json.begin_object();
  json.member("bench", "lossy_soak");
  json.member("policy", store::to_string(policy));
  json.begin_object("config");
  json.member("link_latency", config.link_latency);
  json.member("drop", link.faults.drop_probability);
  json.member("dup", link.faults.dup_probability);
  json.member("reorder", link.faults.reorder_probability);
  json.member("jitter", link.faults.delay_jitter);
  json.member("burst_count", std::uint64_t{config.faults.burst_count});
  json.member("burst_length", config.faults.burst_length);
  json.member("rto", link.effective_rto(config.link_latency));
  json.member("rto_max", link.effective_rto_max(config.link_latency));
  json.member("max_retries", std::uint64_t{link.max_retries});
  json.member("window", std::uint64_t{link.window});
  json.end_object();
  json.begin_array("runs");
  for (const SoakResult& result : results) {
    const sim::ChurnReport& report = result.report;
    const sim::Metrics& m = report.totals;
    json.begin_object();
    json.member("name", result.name);
    json.member("seed", result.seed);
    // Shaped per run: the slot scales with this overlay's broker cap and
    // the protocol's worst-case hop delay (rto chain + jitter).
    json.member("slot", result.trace.config.slot);
    json.member("cascade_hop_bound",
                result.trace.config.faults.cascade_hop_bound);
    json.member("brokers", std::uint64_t{result.brokers});
    json.member("ops", std::uint64_t{report.ops});
    json.member("publishes", std::uint64_t{report.publishes});
    json.member("delivered", m.notifications_delivered);
    json.member("lost", m.notifications_lost);
    json.member("duplicated", m.notifications_duplicated);
    json.member("mismatched_publishes", report.mismatched_publishes);
    json.member("ghost_routes", std::uint64_t{report.membership.ghost_routes});
    json.begin_object("link_protocol");
    json.member("frames_dropped", m.frames_dropped);
    json.member("frames_duplicated", m.frames_duplicated);
    json.member("retransmits", m.retransmits);
    json.member("dups_suppressed", m.dups_suppressed);
    json.member("reorders_healed", m.reorders_healed);
    json.member("acks_sent", m.acks_sent);
    json.member("backpressure_stalls", m.backpressure_stalls);
    json.member("link_escalations",
                std::uint64_t{report.membership.link_escalations});
    json.member("skipped_link_failures",
                std::uint64_t{report.membership.skipped_link_failures});
    json.member("skipped_link_heals",
                std::uint64_t{report.membership.skipped_link_heals});
    json.end_object();
    json.member("gates_pass", result.gates_pass());
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

  const auto brokers = static_cast<std::size_t>(flags.get_int("brokers", 24));
  const auto ops = static_cast<std::size_t>(flags.get_int("ops", 400));
  const auto seed_count = static_cast<std::size_t>(flags.get_int("seeds", 3));
  const auto base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 2006));
  const auto policy =
      store::parse_coverage_policy(flags.get_string("policy", "exact"));
  const bool differential = flags.get_bool("differential", true);
  const bool with_membership = flags.get_bool("membership", true);
  const std::string json_path = flags.get_string("json", "");
  const std::string topology_filter = flags.get_string("topology", "");
  const std::string dump_dir = flags.get_string("dump-dir", ".");
  const std::string replay_path = flags.get_string("replay", "");

  workload::ChurnConfig config;
  config.link_latency = flags.get_double("latency", 0.0001);
  config.subscription_rate = flags.get_double("sub-rate", 2.0);
  config.publication_rate = flags.get_double("pub-rate", 4.0);
  config.faults.link.drop_probability = flags.get_double("drop", 0.2);
  config.faults.link.dup_probability = flags.get_double("dup", 0.1);
  config.faults.link.reorder_probability = flags.get_double("reorder", 0.1);
  config.faults.link.delay_jitter = flags.get_double("jitter", 0.5);
  config.faults.burst_count =
      static_cast<std::size_t>(flags.get_int("bursts", 4));

  routing::LinkConfig link;
  link.enabled = true;
  // Default to a short explicit chain (4x/8x latency instead of the
  // 4x/32x auto-derivation) so the slot — which scales with the whole
  // chain — stays dense. 4x is the floor that avoids systematic spurious
  // retransmits: an ack round trip is ~3 latencies (data flight +
  // delayed-ack timer + ack flight), so rto=2x fires one useless
  // retransmit per frame. The retry cap stays at 12: an escalation from
  // iid loss alone needs 13 consecutive silent rounds (~0.2^13).
  link.rto = flags.get_double("rto", 4.0 * config.link_latency);
  link.rto_max = flags.get_double("rto-max", 8.0 * config.link_latency);
  link.max_retries = static_cast<std::size_t>(flags.get_int("retries", 12));
  link.window = static_cast<std::size_t>(flags.get_int("window", 128));
  link.faults = config.faults.link;

  store::StoreConfig store_config;
  store_config.policy = policy;
  routing::NetworkConfig net_config = routing::NetworkConfig::Builder()
                                          .store(store_config)
                                          .link_latency(config.link_latency)
                                          .link(link)
                                          .build();

  util::print_banner(std::cout, "lossy_soak",
                     "drop/dup/reorder/burst wire faults, oracle-gated");

  util::TableWriter table({"topology", "seed", "brokers", "ops", "publishes",
                           "delivered", "mismatch", "dup", "ghosts", "dropped",
                           "retx", "dupsup", "escal", "seconds"});
  std::vector<SoakResult> results;
  std::vector<std::string> failures;
  bool any_bursts_scripted = false;

  const auto run_one = [&](const std::string& name, std::uint64_t seed,
                           std::size_t broker_count, routing::BrokerNetwork net,
                           workload::ChurnTrace trace) {
    SoakResult result;
    result.name = name;
    result.seed = seed;
    result.brokers = broker_count;
    result.bursts_scripted = !trace.bursts.empty();
    result.trace = std::move(trace);
    any_bursts_scripted |= result.bursts_scripted;
    const util::Timer timer;
    sim::ChurnDriver::Options driver_options;
    driver_options.differential = differential;
    result.report = sim::ChurnDriver::run(net, result.trace, driver_options);
    result.elapsed_seconds = timer.elapsed_seconds();

    const sim::ChurnReport& report = result.report;
    table.add_row({result.name, static_cast<long long>(seed),
                   static_cast<long long>(result.brokers),
                   static_cast<long long>(report.ops),
                   static_cast<long long>(report.publishes),
                   static_cast<long long>(report.totals.notifications_delivered),
                   static_cast<long long>(report.mismatched_publishes),
                   static_cast<long long>(report.totals.notifications_duplicated),
                   static_cast<long long>(report.membership.ghost_routes),
                   static_cast<long long>(report.totals.frames_dropped),
                   static_cast<long long>(report.totals.retransmits),
                   static_cast<long long>(report.totals.dups_suppressed),
                   static_cast<long long>(report.membership.link_escalations),
                   result.elapsed_seconds});

    if (differential && !result.gates_pass()) {
      const std::string dump = dump_dir + "/lossy_soak_fail_" + result.name +
                               "_" + std::to_string(seed) + ".psct";
      bench::write_trace_file(dump, result.trace);
      std::cerr << "\nGATE FAILURE on " << result.name << " (seed " << seed
                << ", policy " << store::to_string(policy) << "):\n"
                << "  mismatched=" << report.mismatched_publishes
                << " lost=" << report.totals.notifications_lost
                << " duplicated=" << report.totals.notifications_duplicated
                << " ghosts=" << report.membership.ghost_routes
                << " dropped=" << report.totals.frames_dropped
                << " retransmits=" << report.totals.retransmits << "\n"
                << "  trace dumped; replay with:\n"
                << "    ./lossy_soak --replay=" << dump << " --seed=" << seed
                << " --policy=" << store::to_string(policy)
                << " --rto=" << link.rto << " --rto-max=" << link.rto_max
                << " --retries=" << link.max_retries
                << " --window=" << link.window << "\n";
      failures.push_back(result.name + "/" + std::to_string(seed));
    }
    results.push_back(std::move(result));
  };

  if (!replay_path.empty()) {
    workload::ChurnTrace trace = bench::read_trace_file(replay_path);
    config = trace.config;  // the dump carries slot/faults/rates verbatim
    net_config.link_latency = trace.config.link_latency;
    net_config.link.faults = trace.config.faults.link;
    net_config.seed = trace.seed;
    if (trace.has_membership) {
      const std::size_t replay_brokers = trace.universe.brokers;
      auto net = build_from_universe(trace.universe, net_config);
      run_one("replay", trace.seed, replay_brokers, std::move(net),
              std::move(trace));
    } else {
      std::cerr << "replay file has no membership universe: " << replay_path
                << "\n";
      return 2;
    }
  } else {
    for (const routing::MembershipTopology& topology :
         routing::membership_topologies(brokers, base_seed)) {
      if (!topology_filter.empty() &&
          topology.name.find(topology_filter) == std::string::npos) {
        continue;
      }
      for (std::size_t s = 0; s < seed_count; ++s) {
        const std::uint64_t seed = base_seed + s;
        workload::ChurnConfig shaped = config;
        shaped.membership.max_brokers =
            topology.brokers + std::max<std::size_t>(8, topology.brokers / 16);
        shaped = shape_time(shaped, link, shaped.membership.max_brokers, ops);
        if (with_membership) {
          // Per-slot event budgets, expressed against the derived slot
          // width so the trace sees the same churn density at any scale.
          shaped.membership.join_rate = 0.2 / shaped.slot;
          shaped.membership.leave_rate = 0.15 / shaped.slot;
          shaped.membership.crash_rate = 0.2 / shaped.slot;
          shaped.membership.partition_rate = 0.4 / shaped.slot;
        }
        // Bursts span multiple slots so any frame sent into one exhausts
        // a full retransmit chain deterministically.
        shaped.faults.burst_length =
            shaped.slot * flags.get_double("burst-slots", 2.5);
        routing::NetworkConfig run_config = net_config;
        run_config.seed = seed;  // per-seed fault substreams
        routing::BrokerNetwork net = topology.build(run_config);
        const routing::MembershipUniverse universe = topology.universe(net);
        run_one(topology.name, seed, topology.brokers, std::move(net),
                workload::generate_churn_trace(shaped, universe, seed));
      }
    }
  }
  table.print(std::cout);

  // Escalation coverage is a matrix-level gate: each scripted burst only
  // forces an escalation if traffic crosses its link inside the window,
  // but across topologies x seeds the degradation path must fire.
  std::size_t total_escalations = 0;
  for (const SoakResult& result : results) {
    total_escalations += result.report.membership.link_escalations;
  }
  if (differential && any_bursts_scripted && total_escalations == 0) {
    std::cerr << "\nFAIL: scripted bursts never escalated into fail_link\n";
    failures.push_back("escalation-coverage");
  }

  if (!json_path.empty()) {
    write_json(json_path, config, link, policy, results);
    std::cout << "\njson written to " << json_path << "\n";
  }

  if (!failures.empty()) {
    std::cerr << "\nFAIL: gates tripped on " << failures.size() << " run(s)\n";
    return 1;
  }
  std::cout << "\nall lossy-link gates passed (" << results.size() << " runs, "
            << total_escalations << " escalations mirrored)\n";
  return 0;
}
