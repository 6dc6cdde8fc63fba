// perf_gate — the repo's persistent performance trajectory, in one binary.
//
// Measures ops/sec and p50/p99 latency for the hot paths every PR is
// judged against, emits machine-readable BENCH_core.json, and GATES on
// correctness while doing so: every timed section cross-checks its results
// against a flat-scan oracle, and the index and flat-scan result checksums
// over the sampled queries must agree. Any divergence exits non-zero (the
// CI perf-smoke job relies on this). The end-to-end churn differential is
// the soak binary's (`soak --scenario=churn`).
//
//   ./perf_gate [--small] [--json=BENCH_core.json]
//               [--actives=100000,1000000] [--attrs=4] [--queries=N]
//               [--churn-ops=N] [--seed=2006]
//
// --actives is a comma-separated list of SCALE TIERS. The first tier is
// the primary one and runs every section below; later tiers (the 1M-active
// tier in the default full run) re-measure the index-bound sections only —
// stab, box_intersect, covering, stab_any, insert_erase_churn_amortized —
// and are recorded (covering and stab_any aside, see below) as separate
// "scales" blocks in the JSON so scripts/check_bench.py can gate each tier
// independently.
//
// Sections (see docs/PERFORMANCE.md for the methodology):
//   * stab           — point-stab on the interval index at tier size
//   * box_intersect  — box-intersect on the same index
//   * covering       — the containment query (pairwise cover) on the same
//     index, probed with fresh subscriptions from the fixture's stream;
//     timed on every tier, written to the JSON's primary block only
//   * stab_any       — the existence query (does stab find anything?) on
//     the stab probes, each answer gated equal to stab's; timed and
//     written like covering
//   * insert_erase_churn_amortized — mutation-heavy steady state
//     (erase+insert per op) on the index at tier size; its absolute floor
//     at 100k actives lives in scripts/check_bench.py
//   * broker_publish — Broker::handle_publication through PublishScratch
//     (the zero-allocation publish path: a stab of the local publish lane
//     and an existence query per neighbour lane) against a routed table, one publication per latency
//     sample; routes are gated equal to a brute-force scan of the routed
//     set in-run, from a local and a neighbour origin
//   * broker_subscribe — Broker::handle_subscription followed by
//     Broker::handle_unsubscription of a random live route, one pair per
//     latency sample, on a kPairwise broker with three neighbours held at
//     `actives` routes from mixed origins: the link stores' coverage
//     decisions, whose containment queries run on the publish lanes. Every
//     8th subscription's decision on each link is gated equal to a
//     brute-force containment scan of that link's active set, taken
//     between samples; throughput counts the timed calls only. Written to
//     the JSON's top-level sections only (ungated, like covering)
//
// --small shrinks every size for the CI smoke / ctest registration; small
// runs gate on correctness (oracles + checksums) exactly like full ones.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "index/interval_index.hpp"
#include "routing/broker.hpp"
#include "util/json_writer.hpp"
#include "util/simd.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace psc;
using bench::SectionResult;
using bench::time_section;
using bench::write_section;
using core::Publication;
using core::Subscription;
using core::SubscriptionId;

std::vector<SubscriptionId> sorted(std::vector<SubscriptionId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

struct GateState {
  std::uint64_t divergences = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      ++divergences;
      std::cerr << "ORACLE DIVERGENCE: " << what << "\n";
    }
  }
};

/// One scale tier's measurements: the index-bound sections plus the
/// order-independent result checksums of the index and of the flat-scan
/// oracle over the same sampled queries (gated equal; the fold also keeps
/// the compiler from dead-code-eliminating the sweeps).
struct ScaleResult {
  std::size_t actives = 0;
  std::uint64_t queries = 0;
  std::uint64_t churn_ops = 0;
  SectionResult stab;
  SectionResult box;
  SectionResult covering;
  SectionResult stab_any;
  SectionResult churn_amortized;
  std::uint64_t checksum_index = 0;
  std::uint64_t checksum_flat = 0;
};

std::vector<std::size_t> parse_actives_list(const std::string& csv) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', pos), csv.size());
    const std::string item = csv.substr(pos, comma - pos);
    if (!item.empty()) out.push_back(static_cast<std::size_t>(std::stoull(item)));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Flags flags(argc, argv);
  const bool small = flags.get_bool("small", false);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2006));
  const std::vector<std::size_t> actives_tiers = parse_actives_list(
      flags.get_string("actives", small ? "2000,6000" : "100000,1000000"));
  const auto attrs =
      static_cast<std::size_t>(flags.get_int("attrs", 4));
  const auto queries = static_cast<std::uint64_t>(
      flags.get_int("queries", small ? 2'000 : 20'000));
  const auto churn_ops = static_cast<std::uint64_t>(
      flags.get_int("churn-ops", small ? 2'000 : 20'000));
  const std::string json_path = flags.get_string("json", "BENCH_core.json");
  if (actives_tiers.empty()) {
    std::cerr << "--actives needs at least one tier\n";
    return 1;
  }
  const std::size_t actives = actives_tiers.front();  // primary tier

  util::print_banner(std::cout, "perf_gate",
                     "hot-path throughput/latency trajectory + oracle gates");
  std::cout << "simd backend: " << simd::backend_name() << "\n\n";

  GateState gate;
  std::uint64_t sink = 0;
  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = attrs;
  stream_config.max_constrained = std::min<std::size_t>(attrs, 3);

  // ---------------------------------------------------------------------
  // Churn section runner (own fixture: the mutation mix must not disturb
  // the query fixtures). Oracle: exact stab equality against a flat scan
  // over the mirrored live set after the full run — catches both ghost ids
  // and silently dropped matches.
  const std::string churn_label = "insert_erase_churn_amortized";
  const auto run_churn = [&](std::size_t fixture, std::uint64_t ops,
                             const std::vector<Publication>& oracle_probes) {
    workload::ComparisonStream churn_stream(stream_config, seed);
    index::IntervalIndex index(attrs);
    std::vector<Subscription> live_subs;
    live_subs.reserve(fixture);
    for (std::size_t i = 0; i < fixture; ++i) {
      Subscription sub = churn_stream.next();
      index.insert(sub);
      live_subs.push_back(std::move(sub));
    }
    std::vector<Subscription> incoming;
    incoming.reserve(ops);
    for (std::uint64_t i = 0; i < ops; ++i) incoming.push_back(churn_stream.next());
    util::Rng churn_rng(seed ^ 0x5eedULL);
    SectionResult result = time_section(churn_label, ops, [&](std::uint64_t i) {
      const std::size_t victim = churn_rng.next_below(live_subs.size());
      index.erase(live_subs[victim].id());
      index.insert(incoming[i]);
      live_subs[victim] = incoming[i];
    });
    gate.check(index.size() == live_subs.size(), churn_label + ": size drift");
    const std::uint64_t probe_count = oracle_probes.size();
    for (std::uint64_t p = 0; p < probe_count;
         p += std::max<std::uint64_t>(probe_count / 8, 1)) {
      std::vector<SubscriptionId> expected;
      for (const Subscription& sub : live_subs) {
        if (oracle_probes[p].matches(sub)) expected.push_back(sub.id());
      }
      gate.check(sorted(index.stab(oracle_probes[p].values())) == sorted(expected),
                 churn_label + ": post-churn stab drift at probe " +
                     std::to_string(p));
    }
    return result;
  };

  // ---------------------------------------------------------------------
  // One scale tier: query fixture at `tier_actives` mirrored in a flat
  // vector (the oracle) and the index.
  const auto run_scale = [&](std::size_t tier_actives) {
    ScaleResult scale;
    scale.actives = tier_actives;
    scale.queries = queries;
    scale.churn_ops = churn_ops;
    const std::string suffix = " @" + std::to_string(tier_actives);

    workload::ComparisonStream stream(stream_config, seed);
    std::vector<Subscription> live;
    live.reserve(tier_actives);
    index::IntervalIndex index(attrs);
    for (std::size_t i = 0; i < tier_actives; ++i) {
      Subscription sub = stream.next();
      index.insert(sub);
      live.push_back(std::move(sub));
    }

    std::uint64_t probe_seed = seed;
    util::Rng probe_rng(util::splitmix64(probe_seed));
    std::vector<Publication> probes;
    probes.reserve(queries);
    for (std::uint64_t i = 0; i < queries; ++i) {
      probes.push_back(workload::uniform_publication(attrs, 0.0, 1000.0, probe_rng));
    }
    workload::ScenarioConfig box_config;
    box_config.attribute_count = attrs;
    std::vector<Subscription> box_probes;
    box_probes.reserve(queries);
    for (std::uint64_t i = 0; i < queries; ++i) {
      box_probes.push_back(workload::random_box(box_config, 0.02, 0.2, probe_rng));
    }
    // Covering probes are what a store asks on subscribe: fresh
    // subscriptions from the fixture's own distribution.
    workload::ComparisonStream cover_stream(stream_config, seed + 1);
    std::vector<Subscription> cover_probes;
    cover_probes.reserve(queries);
    for (std::uint64_t i = 0; i < queries; ++i) {
      cover_probes.push_back(cover_stream.next());
    }

    // Oracle: every 64th query is re-run against a flat scan of `live`.
    // The id-sum folds are order-independent, so equal checksums pin
    // identical RESULT SETS without sorting.
    const std::uint64_t oracle_stride = std::max<std::uint64_t>(queries / 64, 1);
    const auto fold = [](const std::vector<SubscriptionId>& ids,
                          std::uint64_t& checksum) {
      for (const SubscriptionId id : ids) checksum += id;
    };

    // --- stab ----------------------------------------------------------
    std::vector<SubscriptionId> out;
    scale.stab = time_section("stab", queries, [&](std::uint64_t i) {
      out.clear();
      index.stab(probes[i].values(), out);
      sink += out.size();
    });
    for (std::uint64_t i = 0; i < queries; i += oracle_stride) {
      std::vector<SubscriptionId> expected;
      for (const Subscription& sub : live) {
        if (probes[i].matches(sub)) expected.push_back(sub.id());
      }
      const auto got = index.stab(probes[i].values());
      fold(got, scale.checksum_index);
      fold(expected, scale.checksum_flat);
      gate.check(sorted(got) == sorted(expected),
                 "stab probe " + std::to_string(i) + suffix);
    }

    // --- box_intersect -------------------------------------------------
    scale.box = time_section("box_intersect", queries, [&](std::uint64_t i) {
      out.clear();
      index.box_intersect(box_probes[i], out);
      sink += out.size();
    });
    for (std::uint64_t i = 0; i < queries; i += oracle_stride) {
      std::vector<SubscriptionId> expected;
      for (const Subscription& sub : live) {
        if (sub.intersects(box_probes[i])) expected.push_back(sub.id());
      }
      const auto got = index.box_intersect(box_probes[i]);
      fold(got, scale.checksum_index);
      fold(expected, scale.checksum_flat);
      gate.check(sorted(got) == sorted(expected),
                 "box_intersect probe " + std::to_string(i) + suffix);
    }

    // --- covering ------------------------------------------------------
    scale.covering = time_section("covering", queries, [&](std::uint64_t i) {
      out.clear();
      index.covering(cover_probes[i], out);
      sink += out.size();
    });
    for (std::uint64_t i = 0; i < queries; i += oracle_stride) {
      std::vector<SubscriptionId> expected;
      for (const Subscription& sub : live) {
        if (sub.covers(cover_probes[i])) expected.push_back(sub.id());
      }
      const auto got = index.covering(cover_probes[i]);
      fold(got, scale.checksum_index);
      fold(expected, scale.checksum_flat);
      gate.check(sorted(got) == sorted(expected),
                 "covering probe " + std::to_string(i) + suffix);
    }

    // --- stab_any ------------------------------------------------------
    // The stab probes again, as the existence query the broker asks of a
    // neighbour lane. Hits are counted outside checksum_sink (the
    // cross-check below keeps them live), and every answer must equal
    // whether stab finds anything.
    std::vector<char> any_answers(queries);
    scale.stab_any = time_section("stab_any", queries, [&](std::uint64_t i) {
      any_answers[i] = index.stab_any(probes[i].values()) ? 1 : 0;
    });
    for (std::uint64_t i = 0; i < queries; ++i) {
      out.clear();
      index.stab(probes[i].values(), out);
      gate.check((any_answers[i] != 0) == !out.empty(),
                 "stab_any probe " + std::to_string(i) + suffix);
    }
    gate.check(scale.checksum_index == scale.checksum_flat,
               "index/flat checksum mismatch" + suffix);
    sink += scale.checksum_index;

    // --- churn ---------------------------------------------------------
    scale.churn_amortized = run_churn(tier_actives, churn_ops, probes);
    return scale;
  };

  std::vector<ScaleResult> scales;
  scales.reserve(actives_tiers.size());
  for (const std::size_t tier : actives_tiers) {
    scales.push_back(run_scale(tier));
  }
  const ScaleResult& primary = scales.front();

  // The primary tier's publication probes, replayed by broker_publish.
  std::vector<Publication> primary_probes;
  {
    std::uint64_t probe_seed = seed;
    util::Rng probe_rng(util::splitmix64(probe_seed));
    primary_probes.reserve(queries);
    for (std::uint64_t i = 0; i < queries; ++i) {
      primary_probes.push_back(
          workload::uniform_publication(attrs, 0.0, 1000.0, probe_rng));
    }
  }

  // --- Section: broker_publish ------------------------------------------
  // One broker, two links, `actives` routed subscriptions from a mix of
  // local and neighbour origins; the zero-allocation scratch publish path.
  store::StoreConfig broker_store;
  routing::Broker broker(0, broker_store, seed);
  broker.add_neighbor(1);
  broker.add_neighbor(2);
  std::vector<std::pair<Subscription, routing::Origin>> routes;
  routes.reserve(actives);
  {
    workload::ComparisonStream route_stream(stream_config, seed + 3);
    util::Rng origin_rng(seed + 4);
    for (std::size_t i = 0; i < actives; ++i) {
      routing::Origin origin{true, routing::kInvalidBroker};
      const auto draw = origin_rng.next_below(3);
      if (draw == 1) origin = routing::Origin{false, 1};
      if (draw == 2) origin = routing::Origin{false, 2};
      Subscription sub = route_stream.next();
      (void)broker.handle_subscription(sub, origin);
      routes.emplace_back(std::move(sub), origin);
    }
  }
  routing::Broker::PublishScratch scratch;
  const routing::Origin publish_origin{true, routing::kInvalidBroker};
  const SectionResult broker_publish =
      time_section("broker_publish", queries, [&](std::uint64_t i) {
        const auto& route =
            broker.handle_publication(primary_probes[i], publish_origin, scratch);
        sink += route.local_matches.size() + route.destinations.size();
      });
  // Oracle: a brute-force scan of every route — box containment, local
  // deliveries ascending, destinations every neighbour with a matching
  // route in ascending id, never back to the publication's origin.
  for (std::uint64_t i = 0; i < queries; i += std::max<std::uint64_t>(queries / 8, 1)) {
    for (const routing::Origin& origin :
         {publish_origin, routing::Origin{false, 1}}) {
      std::vector<SubscriptionId> expected_local;
      std::vector<routing::BrokerId> expected_destinations;
      for (const auto& [sub, route_origin] : routes) {
        if (!primary_probes[i].matches(sub)) continue;
        if (route_origin.local) {
          expected_local.push_back(sub.id());
          continue;
        }
        if (!origin.local && route_origin.neighbor == origin.neighbor) continue;
        expected_destinations.push_back(route_origin.neighbor);
      }
      std::sort(expected_local.begin(), expected_local.end());
      std::sort(expected_destinations.begin(), expected_destinations.end());
      expected_destinations.erase(std::unique(expected_destinations.begin(),
                                              expected_destinations.end()),
                                  expected_destinations.end());
      const auto& route =
          broker.handle_publication(primary_probes[i], origin, scratch);
      gate.check(route.local_matches == expected_local &&
                     route.destinations == expected_destinations,
                 "broker_publish route drift at probe " + std::to_string(i) +
                     (origin.local ? " (local)" : " (neighbour)"));
    }
  }

  // --- Section: broker_subscribe ----------------------------------------
  // Three links, so a route is checked against every link but its
  // origin's; a pair keeps the population steady at `actives` routes.
  store::StoreConfig pairwise_store;
  pairwise_store.policy = store::CoveragePolicy::kPairwise;
  routing::Broker sub_broker(0, pairwise_store, seed);
  const std::vector<routing::BrokerId> links = {1, 2, 3};
  for (const routing::BrokerId n : links) sub_broker.add_neighbor(n);
  workload::ComparisonStream sub_stream(stream_config, seed + 5);
  util::Rng sub_rng(seed + 6);
  const auto random_origin = [&] {
    const auto draw = sub_rng.next_below(links.size() + 1);
    return draw == links.size() ? routing::Origin{true, routing::kInvalidBroker}
                                : routing::Origin{false, links[draw]};
  };
  std::vector<std::pair<Subscription, routing::Origin>> live_routes;
  live_routes.reserve(actives);
  for (std::size_t i = 0; i < actives; ++i) {
    Subscription sub = sub_stream.next();
    const routing::Origin origin = random_origin();
    (void)sub_broker.handle_subscription(sub, origin);
    live_routes.emplace_back(std::move(sub), origin);
  }
  bench::LatencyRecorder sub_latencies;
  sub_latencies.reserve(queries);
  double sub_timed_seconds = 0.0;
  std::vector<routing::BrokerId> expected_forward;
  for (std::uint64_t i = 0; i < queries; ++i) {
    Subscription sub = sub_stream.next();
    const routing::Origin origin = random_origin();
    const std::size_t victim = sub_rng.next_below(live_routes.size());
    // Oracle: a link forwards sub iff none of its actives contains it.
    const bool checked = i % 8 == 0;
    if (checked) {
      expected_forward.clear();
      for (const routing::BrokerId n : links) {
        if (!origin.local && origin.neighbor == n) continue;
        const store::SubscriptionStore* link = sub_broker.forwarded_store(n);
        const auto actives_now =
            link == nullptr ? std::vector<Subscription>{} : link->active_snapshot();
        const auto covers_sub = [&](const Subscription& active) {
          return active.covers(sub);
        };
        if (std::none_of(actives_now.begin(), actives_now.end(), covers_sub)) {
          expected_forward.push_back(n);
        }
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<routing::BrokerId> forward =
        sub_broker.handle_subscription(sub, origin);
    const auto outcome = sub_broker.handle_unsubscription(
        live_routes[victim].first.id(), live_routes[victim].second);
    const auto t1 = std::chrono::steady_clock::now();
    sub_latencies.record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
    sub_timed_seconds += std::chrono::duration<double>(t1 - t0).count();
    sink += forward.size() + outcome.forward_to.size() + outcome.reannounce.size();
    if (checked) {
      gate.check(forward == expected_forward,
                 "broker_subscribe decision drift at op " + std::to_string(i));
    }
    live_routes[victim] = {std::move(sub), origin};
  }
  gate.check(sub_broker.routing_table_size() == actives,
             "broker_subscribe: routing table drifted from the steady population");
  const SectionResult broker_subscribe =
      sub_latencies.section("broker_subscribe", queries, sub_timed_seconds);

  // ---------------------------------------------------------------- table
  util::TableWriter table(
      {"section", "actives", "ops", "ops_per_sec", "p50_ns", "p99_ns"});
  for (const ScaleResult& scale : scales) {
    for (const SectionResult* r :
         {&scale.stab, &scale.box, &scale.covering, &scale.stab_any,
          &scale.churn_amortized}) {
      table.add_row({r->name, static_cast<long long>(scale.actives),
                     static_cast<long long>(r->ops), r->ops_per_sec, r->p50_ns,
                     r->p99_ns});
    }
  }
  table.add_row({broker_publish.name, static_cast<long long>(actives),
                 static_cast<long long>(broker_publish.ops),
                 broker_publish.ops_per_sec, broker_publish.p50_ns,
                 broker_publish.p99_ns});
  table.add_row({broker_subscribe.name, static_cast<long long>(actives),
                 static_cast<long long>(broker_subscribe.ops),
                 broker_subscribe.ops_per_sec, broker_subscribe.p50_ns,
                 broker_subscribe.p99_ns});
  table.print(std::cout);

  // ----------------------------------------------------------------- json
  // Top-level config/sections describe the PRIMARY tier (schema-compatible
  // with pre-multi-scale consumers); "scales" carries every tier.
  if (!json_path.empty()) {
    std::ofstream out_file(json_path);
    if (!out_file) {
      std::cerr << "cannot open --json path: " << json_path << "\n";
      return 1;
    }
    util::JsonWriter json(out_file);
    json.begin_object();
    json.member("bench", "perf_gate");
    json.member("seed", seed);
    json.member("small", small);
    json.begin_object("simd");
    json.member("backend", simd::backend_name());
    json.member("vectorized", simd::vectorized());
    json.end_object();
    json.begin_object("config");
    json.member("actives", std::uint64_t{actives});
    json.member("attributes", std::uint64_t{attrs});
    json.member("queries", queries);
    json.member("churn_ops", churn_ops);
    json.end_object();
    json.begin_object("sections");
    write_section(json, primary.stab);
    write_section(json, primary.box);
    // Primary block only: check_bench gates every section a scale tier
    // shares with BENCH_core.json, which has no covering or stab_any
    // figures yet.
    write_section(json, primary.covering);
    write_section(json, primary.stab_any);
    write_section(json, primary.churn_amortized);
    write_section(json, broker_publish);
    // Not in BENCH_core.json yet, so check_bench leaves it ungated.
    write_section(json, broker_subscribe);
    json.end_object();
    json.begin_array("scales");
    for (const ScaleResult& scale : scales) {
      json.begin_object();
      json.begin_object("config");
      json.member("actives", std::uint64_t{scale.actives});
      json.member("attributes", std::uint64_t{attrs});
      json.member("queries", scale.queries);
      json.member("churn_ops", scale.churn_ops);
      json.end_object();
      json.begin_object("sections");
      write_section(json, scale.stab);
      write_section(json, scale.box);
      write_section(json, scale.churn_amortized);
      json.end_object();
      json.member("checksum_index", scale.checksum_index);
      json.member("checksum_flat", scale.checksum_flat);
      json.end_object();
    }
    json.end_array();
    json.begin_object("gates");
    json.member("oracle_divergences", gate.divergences);
    json.end_object();
    json.member("checksum_sink", sink);  // defeats dead-code elimination
    json.end_object();
    out_file << '\n';
    std::cout << "\njson written to " << json_path << "\n";
  }

  // ---------------------------------------------------------------- gates
  if (gate.divergences > 0) {
    std::cerr << "\nFAIL: " << gate.divergences << " oracle divergences\n";
    return 1;
  }
  return 0;
} catch (const std::invalid_argument& error) {
  std::cerr << "perf_gate: " << error.what() << "\n";
  return 2;
}
