// Index-scaling harness: quantifies what the IntervalIndex buys over the
// seed's flat scans as the active set grows.
//
//   part 1 — publication matching: match_active() throughput, flat scan
//            (use_index=false) vs index point-stab, k = 1k .. 10k actives;
//   part 2 — subscription insertion under the group coverage policy: the
//            index prunes the candidate set handed to the subsumption
//            engine, so insert cost tracks the local neighbourhood size
//            instead of k.
//
// Usage: index_scaling [--runs=N] [--seed=S] [--csv=PATH] [--json=PATH]
//   --runs scales the publication count per cell (default 2000).
//   --json dumps part 1 in the same multi-scale section schema perf_gate
//   emits (one "scales" block per k, sections match_active_flat /
//   match_active_index), so scripts/check_bench.py can gate this harness
//   exactly like BENCH_core.json instead of parsing free-form text.
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/publication.hpp"
#include "store/subscription_store.hpp"
#include "util/json_writer.hpp"
#include "util/simd.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"

namespace {

using namespace psc;

store::StoreConfig store_config(bool use_index, store::CoveragePolicy policy) {
  store::StoreConfig config;
  config.policy = policy;
  config.use_index = use_index;
  config.engine.max_iterations = 5'000;
  return config;
}

/// Fills a store with `k` subscriptions from a fresh stream (same seed for
/// both paths so the resulting states are identical).
store::SubscriptionStore populate(std::size_t k, bool use_index,
                                  store::CoveragePolicy policy,
                                  const workload::ComparisonConfig& config,
                                  std::uint64_t seed) {
  store::SubscriptionStore store(store_config(use_index, policy), 1);
  workload::ComparisonStream stream(config, seed);
  for (std::size_t i = 0; i < k; ++i) (void)store.insert(stream.next());
  return store;
}

/// One part-1 cell: both timed sections at a fixed active count.
struct MatchScale {
  std::size_t actives = 0;
  bench::SectionResult flat;
  bench::SectionResult index;
};

}  // namespace

int main(int argc, char** argv) try {
  const bench::HarnessArgs args(argc, argv, {"runs", "max-actives", "json"});
  const std::size_t publications =
      static_cast<std::size_t>(args.runs_or(2'000));
  // Caps both sweeps' set sizes (--max-actives=1000 is the ctest smoke:
  // population cost, not the timed loops, dominates at full size).
  const auto max_actives = static_cast<std::size_t>(
      args.flags.get_int("max-actives", 10'000));
  const std::string json_path = args.flags.get_string("json", "");
  const util::Timer timer;

  // Wide schema, sparse selective predicates: the standard pub/sub
  // assumption (each subscriber constrains a handful of many attributes,
  // and "don't care" attributes span the whole domain). The flat scan must
  // walk every subscription past its wide attributes; the index sweeps
  // word-parallel candidate masks over the selective predicates only.
  workload::ComparisonConfig workload_config;
  workload_config.attribute_count = 20;
  workload_config.min_constrained = 2;
  workload_config.max_constrained = 6;
  workload_config.width_mean_fraction = 0.15;
  workload_config.width_stddev_fraction = 0.10;
  workload_config.zipf_skew = 0.3;           // spread popularity
  workload_config.center_cluster_scale = 0.35;  // spread interest centers

  util::print_banner(std::cout, "index_scaling",
                     "flat scan vs IntervalIndex on the store hot paths");
  std::cout << "simd backend: " << simd::backend_name() << "\n";

  // ---- part 1: publication matching over k actives -----------------------
  util::TableWriter match_table(
      {"actives", "pubs", "flat_us/pub", "index_us/pub", "speedup",
       "matches"},
      3);
  std::vector<MatchScale> match_scales;
  std::uint64_t checksum_sink = 0;
  for (const std::size_t k : {1'000UL, 2'500UL, 5'000UL, 10'000UL}) {
    if (k > max_actives) continue;
    // kNone keeps every subscription active so both stores hold exactly k.
    auto flat = populate(k, false, store::CoveragePolicy::kNone,
                         workload_config, args.seed);
    auto indexed = populate(k, true, store::CoveragePolicy::kNone,
                            workload_config, args.seed);

    util::Rng pub_rng(args.seed + 1);
    std::vector<core::Publication> pubs;
    pubs.reserve(publications);
    for (std::size_t i = 0; i < publications; ++i) {
      pubs.push_back(workload::uniform_publication(
          workload_config.attribute_count, workload_config.domain_lo,
          workload_config.domain_hi, pub_rng));
    }

    MatchScale scale;
    scale.actives = k;
    std::size_t flat_matches = 0;
    scale.flat = bench::time_section(
        "match_active_flat", publications, [&](std::uint64_t i) {
          flat_matches += flat.match_active(pubs[i]).size();
        });
    std::size_t index_matches = 0;
    scale.index = bench::time_section(
        "match_active_index", publications, [&](std::uint64_t i) {
          index_matches += indexed.match_active(pubs[i]).size();
        });

    if (flat_matches != index_matches) {
      std::cerr << "MISMATCH at k=" << k << ": flat " << flat_matches
                << " vs index " << index_matches << "\n";
      return 1;
    }
    checksum_sink += flat_matches;
    const double flat_us = 1e6 / scale.flat.ops_per_sec;
    const double index_us = 1e6 / scale.index.ops_per_sec;
    match_table.add_row({static_cast<long long>(k),
                         static_cast<long long>(publications), flat_us,
                         index_us, flat_us / index_us,
                         static_cast<long long>(flat_matches)});
    match_scales.push_back(std::move(scale));
  }
  std::cout << "\npublication matching (match_active):\n";
  match_table.print(std::cout);

  // ---- part 2: group-policy insertion with candidate pruning -------------
  util::TableWriter insert_table(
      {"inserts", "flat_ms", "index_ms", "speedup", "active_flat",
       "active_index"},
      3);
  for (const std::size_t k : {500UL, 1'000UL, 2'000UL}) {
    if (k > max_actives) continue;
    util::Timer flat_timer;
    auto flat = populate(k, false, store::CoveragePolicy::kGroup,
                         workload_config, args.seed);
    const double flat_ms = flat_timer.elapsed_millis();

    util::Timer index_timer;
    auto indexed = populate(k, true, store::CoveragePolicy::kGroup,
                            workload_config, args.seed);
    const double index_ms = index_timer.elapsed_millis();

    insert_table.add_row({static_cast<long long>(k), flat_ms, index_ms,
                          flat_ms / index_ms,
                          static_cast<long long>(flat.active_count()),
                          static_cast<long long>(indexed.active_count())});
  }
  std::cout << "\ngroup-policy insertion (coverage candidate pruning):\n";
  insert_table.print(std::cout);

  if (!args.csv_path.empty()) {
    match_table.write_csv(args.csv_path);
    std::cout << "\ncsv written to " << args.csv_path << "\n";
  }
  if (!json_path.empty()) {
    std::ofstream out_file(json_path);
    if (!out_file) {
      std::cerr << "cannot open --json path: " << json_path << "\n";
      return 1;
    }
    util::JsonWriter json(out_file);
    json.begin_object();
    json.member("bench", "index_scaling");
    json.member("seed", args.seed);
    json.begin_object("simd");
    json.member("backend", simd::backend_name());
    json.member("vectorized", simd::vectorized());
    json.end_object();
    json.begin_array("scales");
    for (const MatchScale& scale : match_scales) {
      json.begin_object();
      json.begin_object("config");
      json.member("actives", std::uint64_t{scale.actives});
      json.member("attributes",
                  std::uint64_t{workload_config.attribute_count});
      json.member("queries", std::uint64_t{publications});
      json.end_object();
      json.begin_object("sections");
      bench::write_section(json, scale.flat);
      bench::write_section(json, scale.index);
      json.end_object();
      json.end_object();
    }
    json.end_array();
    json.begin_object("gates");
    // The flat-vs-index equality above already exited non-zero on any
    // mismatch; reaching this point means zero divergences.
    json.member("oracle_divergences", std::uint64_t{0});
    json.end_object();
    json.member("checksum_sink", checksum_sink);
    json.end_object();
    out_file << '\n';
    std::cout << "\njson written to " << json_path << "\n";
  }
  std::cout << "\nelapsed: " << timer.elapsed_seconds() << " s\n";
  return 0;
} catch (const std::invalid_argument& error) {
  std::cerr << "index_scaling: " << error.what() << "\n";
  return 2;
}
