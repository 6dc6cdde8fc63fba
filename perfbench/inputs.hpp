// Workload definitions and the seeded input generator of the benchmark.
// Everything a run feeds the system comes from make_inputs(spec, seed):
// the same (workload, size, seconds, seed) always yields the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/publication.hpp"
#include "core/subscription.hpp"
#include "routing/broker.hpp"
#include "store/subscription_store.hpp"

namespace perfbench {

enum class Transport { kSim, kTcp };

/// One named workload. Why each exists is recorded in NOTES.md.
struct WorkloadSpec {
  std::string name;
  Transport transport = Transport::kSim;
  std::size_t brokers = 0;
  bool star = false;  ///< star rooted at broker 0, else a random tree
  std::size_t attributes = 0;
  psc::store::CoveragePolicy policy = psc::store::CoveragePolicy::kPairwise;
  std::size_t standing = 0;  ///< subscriptions loaded during set-up
  /// Timed ops per requested second, per kind. Unsubscribes match
  /// subscribes so the live population stays at `standing`.
  double publishes_per_s = 0;
  double subscribes_per_s = 0;
  // Zipf-hotspot shape; widths are fractions of the [0, 1000] domain.
  std::size_t hotspots = 16;
  double zipf_skew = 0.9;
  double width_lo = 0.02;
  double width_hi = 0.25;
  /// RSPC trial cap (EngineConfig::max_iterations); 0 keeps the default.
  std::uint64_t rspc_cap = 0;
  /// Episodes per untraced full-size run. Each episode sets up its own
  /// standing population and replays its share of the timed trace, so a
  /// run averages over independent populations, and setup_s is the median
  /// of several set-ups.
  std::size_t episodes = 3;
  /// The traced run also replays the trace on psc_brokerd processes with
  /// the same tree, policy and seed, to measure the net layer.
  bool tcp_twin = false;
};

/// Seeds the hotspot centers and the random tree. Both are part of the
/// workload, not of the run's seed: a seed draws the traffic over a fixed
/// map and overlay, so runs with different seeds measure the same workload.
inline constexpr std::uint64_t kLayoutSeed = 1;

/// A traced full-size run splits the trace into this many episodes and
/// traces the first, whatever the workload's own episode count.
inline constexpr std::size_t kTracedEpisodes = 3;

/// Full size is what BENCHMARK.json runs; tiny is the self-test size.
enum class Size { kFull, kTiny };

/// Minimum samples per op kind at full size, so every reported p99 has at
/// least ten samples beyond it.
inline constexpr std::size_t kMinSamplesPerKind = 1000;

inline constexpr double kDomainLo = 0.0;
inline constexpr double kDomainHi = 1000.0;

/// Looks a workload up by name; throws std::invalid_argument if unknown.
[[nodiscard]] const WorkloadSpec& find_workload(const std::string& name);
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();

enum class OpKind : std::uint8_t { kPublish, kSubscribe, kUnsubscribe };
inline constexpr std::size_t kOpKinds = 3;
[[nodiscard]] const char* to_string(OpKind kind) noexcept;

struct Op {
  OpKind kind = OpKind::kPublish;
  psc::routing::BrokerId broker = 0;  ///< the client's home broker
  psc::core::Subscription sub;        ///< kSubscribe
  psc::core::SubscriptionId id = 0;   ///< kUnsubscribe
  psc::core::Publication pub;         ///< kPublish
};

/// One episode's inputs.
struct Inputs {
  /// Set-up population: (home broker, subscription), ids 1..standing.
  std::vector<std::pair<psc::routing::BrokerId, psc::core::Subscription>> standing;
  /// The timed closed-loop trace.
  std::vector<Op> ops;
};

/// The episodes of one run: spec.episodes at full size (kTracedEpisodes
/// when traced), 2 at tiny size.
[[nodiscard]] std::vector<Inputs> make_inputs(const WorkloadSpec& spec, Size size,
                                              double seconds, std::uint64_t seed,
                                              bool traced);

}  // namespace perfbench
