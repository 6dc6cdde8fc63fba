// Figure 5 / Equation 2 — Chain-propagation delivery probability.
//
// The paper's Section 5 analyzes the cost of an erroneous "covered"
// verdict: a subscription withheld at B1 of a broker chain can still be
// served if a matching publication appears at an early broker. Equation 2
// gives the closed form; this harness prints it next to a Monte-Carlo
// simulation of the same process (they must agree) and next to the
// discrete-event broker simulator for an end-to-end sanity row.
#include "bench_common.hpp"
#include "routing/chain_model.hpp"

int main(int argc, char** argv) try {
  using namespace psc;
  const bench::HarnessArgs args(argc, argv, {"runs"});
  const auto runs = static_cast<std::uint64_t>(args.runs_or(100'000));
  util::Timer timer;

  util::print_banner(std::cout, "Figure 5 / Equation 2: chain-propagation delivery probability",
                     "closed form vs Monte-Carlo; runs/cell=" + std::to_string(runs));

  util::TableWriter table(
      {"n", "rho", "rho_w", "d", "Eq.2", "simulated", "abs.err"}, 5);
  util::Rng rng(args.seed);

  const std::vector<std::size_t> chain_lengths{2, 5, 10, 20};
  const std::vector<double> rhos{0.05, 0.2, 0.5};
  const std::vector<std::uint64_t> ds{10, 100, 1000};

  for (const std::size_t n : chain_lengths) {
    for (const double rho : rhos) {
      for (const std::uint64_t d : ds) {
        routing::ChainParams params;
        params.broker_count = n;
        params.rho = rho;
        params.rho_w = 0.01;
        params.d = d;
        const double analytic = routing::chain_delivery_probability(params);
        const double simulated =
            routing::simulate_chain_delivery(params, runs, rng);
        table.add_row({static_cast<long long>(n), rho, 0.01,
                       static_cast<long long>(d), analytic, simulated,
                       std::abs(analytic - simulated)});
      }
    }
  }
  bench::finish(table, args, timer);
  return 0;
} catch (const std::invalid_argument& error) {
  std::cerr << "fig05_chain_model: " << error.what() << "\n";
  return 2;
}
