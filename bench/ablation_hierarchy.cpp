// Ablation — the Section 4.4 covered-matching hierarchy.
//
// match() descends the cover DAG: a covered entry is examined only below a
// matching active coverer. Reports covered entries examined per publication by the
// descent against what a flat scan of the covered set would examine
// (covered_count() for every publication with an active match), plus the
// descent's wall time, for increasingly nested subscription populations.
#include <iostream>

#include "bench_common.hpp"
#include "store/subscription_store.hpp"
#include "util/flags.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"

int main(int argc, char** argv) try {
  using namespace psc;
  const bench::HarnessArgs args(argc, argv, {"pubs"});
  const util::Flags& flags = args.flags;
  const auto pubs = static_cast<std::size_t>(flags.get_int("pubs", 5000));
  util::Timer total;

  util::print_banner(std::cout, "Ablation: hierarchical covered matching vs a flat scan (Section 4.4)",
                     std::to_string(pubs) + " uniform publications per cell");

  util::TableWriter table({"subs", "covered", "flat exam/pub", "tree exam/pub",
                           "tree ms"},
                          4);

  for (const std::size_t total_subs : {500ul, 1500ul, 3000ul}) {
    workload::ComparisonConfig stream_config;
    stream_config.attribute_count = 10;

    store::StoreConfig config;
    config.policy = store::CoveragePolicy::kGroup;
    config.engine.max_iterations = 20'000;

    store::SubscriptionStore tree(config, args.seed);
    workload::ComparisonStream stream(stream_config, args.seed);
    for (std::size_t i = 0; i < total_subs; ++i) tree.insert(stream.next());

    util::Rng rng(args.seed ^ total_subs);
    std::vector<core::Publication> workload_pubs;
    workload_pubs.reserve(pubs);
    for (std::size_t p = 0; p < pubs; ++p) {
      workload_pubs.push_back(workload::uniform_publication(
          stream_config.attribute_count, stream_config.domain_lo,
          stream_config.domain_hi, rng));
    }

    // match() output is empty exactly when no active matched: covered
    // entries can only match below a matching active.
    std::size_t active_hits = 0;
    std::vector<core::SubscriptionId> ids;
    util::Timer tree_timer;
    for (const auto& pub : workload_pubs) {
      ids.clear();
      tree.match(pub, ids);
      if (!ids.empty()) ++active_hits;
    }
    const double tree_ms = tree_timer.elapsed_millis();

    const double flat_examined = static_cast<double>(tree.covered_count()) *
                                 static_cast<double>(active_hits);
    table.add_row(
        {static_cast<long long>(total_subs),
         static_cast<long long>(tree.covered_count()),
         flat_examined / static_cast<double>(pubs),
         static_cast<double>(tree.covered_examined()) / static_cast<double>(pubs),
         tree_ms});
  }
  bench::finish(table, args, total);
  return 0;
} catch (const std::invalid_argument& error) {
  std::cerr << "ablation_hierarchy: " << error.what() << "\n";
  return 2;
}
