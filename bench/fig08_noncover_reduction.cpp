// Figure 8 — Reduction for the non-cover scenario.
//
// Paper setup: the union leaves a slab of s uncovered (scenario 2.b), so
// the WHOLE set is redundant. MCS removal ratio = removed / k, swept over
// k = 10..310 for m = 10, 15, 20.
//
// Expected shape: even better than Figure 6 — ratios >= 0.88 rising
// toward 1.0, because non-covering rows are removed quickly.
#include "bench_common.hpp"
#include "core/conflict_table.hpp"
#include "core/mcs.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) try {
  using namespace psc;
  const bench::HarnessArgs args(argc, argv, {"runs"});
  const auto runs = args.runs_or(100);
  util::Timer timer;

  util::print_banner(std::cout, "Figure 8: redundant-subscription reduction (non-cover case)",
                     "MCS removal ratio; scenario 2.b; runs/cell=" +
                         std::to_string(runs));

  util::TableWriter table({"k", "m=10", "m=15", "m=20"}, 4);
  util::Rng rng(args.seed);

  for (const std::size_t k : bench::paper_k_sweep()) {
    std::vector<util::Cell> row{static_cast<long long>(k)};
    for (const std::size_t m : bench::paper_m_values()) {
      workload::ScenarioConfig config;
      config.attribute_count = m;
      config.set_size = k;
      util::RunningStats reduction;
      for (std::int64_t run = 0; run < runs; ++run) {
        const auto inst = workload::make_non_cover(config, rng);
        const core::ConflictTable ct(inst.tested, inst.existing);
        const auto mcs = core::run_mcs(ct);
        reduction.add(static_cast<double>(k - mcs.kept.size()) /
                      static_cast<double>(k));
      }
      row.push_back(reduction.mean());
    }
    table.add_row(std::move(row));
  }
  bench::finish(table, args, timer);
  return 0;
} catch (const std::invalid_argument& error) {
  std::cerr << "fig08_noncover_reduction: " << error.what() << "\n";
  return 2;
}
