// Ablation — stacking subscription MERGING on top of group coverage.
//
// Covering removes subscriptions that are exactly redundant; merging
// additionally collapses near-redundant ones at the price of false
// positives (publications delivered to nobody who asked). This bench feeds
// the Fig. 13 comparison stream into a group-coverage store, then merges
// the surviving active set at several waste thresholds, and measures:
//   * residual active-set size,
//   * measured false-positive rate on uniform publications
//     (matched by the merged set but by no original subscription).
#include <iostream>

#include "bench_common.hpp"
#include "merge/subscription_merger.hpp"
#include "store/subscription_store.hpp"
#include "util/flags.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"

int main(int argc, char** argv) try {
  using namespace psc;
  const bench::HarnessArgs args(argc, argv, {"subs", "probes"});
  const util::Flags& flags = args.flags;
  const auto total_subs = static_cast<std::size_t>(flags.get_int("subs", 1500));
  const auto probes = static_cast<std::size_t>(flags.get_int("probes", 20000));
  util::Timer timer;

  util::print_banner(std::cout, "Ablation: merging stacked on group coverage",
                     "comparison stream (m=10), " + std::to_string(total_subs) +
                         " subscriptions; false positives per " +
                         std::to_string(probes) + " uniform publications");

  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 10;
  // Match the Fig. 13 configuration: 3-6 constrained attributes keeps the
  // active set large enough for merging to have something to do.
  stream_config.min_constrained = 3;
  stream_config.max_constrained = 6;

  store::StoreConfig group_config;
  group_config.policy = store::CoveragePolicy::kGroup;
  group_config.engine.delta = 1e-6;
  group_config.engine.max_iterations = 20'000;
  store::SubscriptionStore store(group_config, args.seed);

  workload::ComparisonStream stream(stream_config, args.seed);
  std::vector<core::Subscription> originals;
  originals.reserve(total_subs);
  for (std::size_t i = 0; i < total_subs; ++i) {
    auto sub = stream.next();
    originals.push_back(sub);
    store.insert(sub);
  }
  const auto actives = store.active_snapshot();
  std::cout << "group-coverage active set: " << actives.size() << " of "
            << total_subs << "\n\n";

  util::TableWriter table(
      {"max-waste", "set-size", "merges", "false-pos rate"}, 4);
  util::Rng rng(args.seed ^ 0xabcdef);

  for (const double threshold : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    merge::MergeConfig merge_config;
    merge_config.max_waste_ratio = threshold;
    merge::MergeStats stats;
    const auto merged = merge::merge_set(actives, merge_config, &stats);

    // False positives: uniform publications matched by the merged set but
    // by NO original subscription.
    std::size_t false_pos = 0, merged_matches = 0;
    util::Rng probe_rng = rng;  // same probes for every threshold
    for (std::size_t p = 0; p < probes; ++p) {
      const auto pub = workload::uniform_publication(
          stream_config.attribute_count, stream_config.domain_lo,
          stream_config.domain_hi, probe_rng);
      bool in_merged = false;
      for (const auto& box : merged) {
        if (pub.matches(box)) {
          in_merged = true;
          break;
        }
      }
      if (!in_merged) continue;
      ++merged_matches;
      bool in_original = false;
      for (const auto& sub : originals) {
        if (pub.matches(sub)) {
          in_original = true;
          break;
        }
      }
      if (!in_original) ++false_pos;
    }
    table.add_row({threshold, static_cast<long long>(merged.size()),
                   static_cast<long long>(stats.merges_performed),
                   merged_matches > 0
                       ? static_cast<double>(false_pos) /
                             static_cast<double>(probes)
                       : 0.0});
  }
  bench::finish(table, args, timer);
  return 0;
} catch (const std::invalid_argument& error) {
  std::cerr << "ablation_merge: " << error.what() << "\n";
  return 2;
}
