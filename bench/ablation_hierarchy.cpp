// Ablation — the Section 4.4 multi-level covered-matching hierarchy.
//
// Same store contents, two matching modes: flat scan of the covered set vs
// descent through the cover DAG (children examined only below matching
// parents). Reports covered-entries examined per publication and wall
// time, for increasingly nested subscription populations.
#include <iostream>

#include "bench_common.hpp"
#include "store/subscription_store.hpp"
#include "util/flags.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"

int main(int argc, char** argv) try {
  using namespace psc;
  const auto args = bench::HarnessArgs::parse(argc, argv);
  const util::Flags flags(argc, argv);
  const auto pubs = static_cast<std::size_t>(flags.get_int("pubs", 5000));
  util::Timer total;

  util::print_banner(std::cout, "Ablation: flat vs hierarchical covered matching (Section 4.4)",
                     std::to_string(pubs) + " uniform publications per cell");

  util::TableWriter table({"subs", "covered", "flat exam/pub", "tree exam/pub",
                           "flat ms", "tree ms"},
                          4);

  for (const std::size_t total_subs : {500ul, 1500ul, 3000ul}) {
    workload::ComparisonConfig stream_config;
    stream_config.attribute_count = 10;

    store::StoreConfig flat_config;
    flat_config.policy = store::CoveragePolicy::kGroup;
    flat_config.engine.max_iterations = 20'000;
    flat_config.hierarchical_match = false;
    store::StoreConfig tree_config = flat_config;
    tree_config.hierarchical_match = true;

    store::SubscriptionStore flat(flat_config, args.seed);
    store::SubscriptionStore tree(tree_config, args.seed);
    workload::ComparisonStream stream_a(stream_config, args.seed);
    workload::ComparisonStream stream_b(stream_config, args.seed);
    for (std::size_t i = 0; i < total_subs; ++i) {
      flat.insert(stream_a.next());
      tree.insert(stream_b.next());
    }

    util::Rng rng(args.seed ^ total_subs);
    std::vector<core::Publication> workload_pubs;
    workload_pubs.reserve(pubs);
    for (std::size_t p = 0; p < pubs; ++p) {
      workload_pubs.push_back(workload::uniform_publication(
          stream_config.attribute_count, stream_config.domain_lo,
          stream_config.domain_hi, rng));
    }

    util::Timer flat_timer;
    for (const auto& pub : workload_pubs) (void)flat.match(pub);
    const double flat_ms = flat_timer.elapsed_millis();

    util::Timer tree_timer;
    for (const auto& pub : workload_pubs) (void)tree.match(pub);
    const double tree_ms = tree_timer.elapsed_millis();

    table.add_row(
        {static_cast<long long>(total_subs),
         static_cast<long long>(tree.covered_count()),
         static_cast<double>(flat.covered_examined()) / static_cast<double>(pubs),
         static_cast<double>(tree.covered_examined()) / static_cast<double>(pubs),
         flat_ms, tree_ms});
  }
  bench::finish(table, args, total);
  return 0;
} catch (const std::invalid_argument& error) {
  std::cerr << "ablation_hierarchy: " << error.what() << "\n";
  return 2;
}
