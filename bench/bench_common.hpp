// Shared plumbing for the figure-reproduction harnesses.
//
// Every harness on HarnessArgs accepts:
//   --seed=S    RNG seed (default 2006, the paper's publication year)
//   --csv=PATH  also dump the series as CSV
// most also take
//   --runs=N    per-cell repetitions (defaults are scaled-down but shape-
//               preserving; use the paper's counts for full fidelity)
// and some take size flags of their own (--pubs, --subs, ...). A harness
// rejects any flag it does not read (exit 2). Each prints an aligned table
// with the same rows/series the paper plots.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/flags.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table_writer.hpp"
#include "util/timer.hpp"
#include "wire/byte_buffer.hpp"
#include "wire/codec.hpp"
#include "workload/churn_workload.hpp"

namespace psc::bench {

// --- failure reproducibility --------------------------------------------
//
// When a soak gate trips, the harness dumps the offending trace as a PSCT
// file and prints a `--replay=FILE` one-liner. Membership traces embed
// their universe, so a dumped file is self-contained: replay rebuilds the
// overlay from it without knowing which named topology produced it.

/// Writes `trace` to `path`, creating any missing parent directories (a
/// `--dump-dir` that does not exist yet still receives the dump).
inline void write_trace_file(const std::string& path,
                             const workload::ChurnTrace& trace) {
  wire::ByteWriter out;
  wire::write_churn_trace(out, trace);
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open trace dump path: " + path);
  file.write(reinterpret_cast<const char*>(out.buffer().data()),
             static_cast<std::streamsize>(out.buffer().size()));
}

inline workload::ChurnTrace read_trace_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open --replay path: " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  wire::ByteReader in(bytes);
  workload::ChurnTrace trace = wire::read_churn_trace(in);
  if (!in.at_end()) {
    throw std::runtime_error("trailing bytes after trace in " + path);
  }
  return trace;
}

/// One timed section in the shared regression-gate JSON schema: every
/// harness that feeds scripts/check_bench.py (perf_gate, index_scaling)
/// emits sections in exactly this shape.
struct SectionResult {
  std::string name;
  std::uint64_t ops = 0;
  double ops_per_sec = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

/// Latency accumulator behind every gated section: record one sample per
/// timed op, then fold the percentiles into a SectionResult. Percentile
/// semantics are
/// util::SampleSet's linear interpolation over the sorted samples
/// (rank = pct/100 * (n-1)): with samples 1..100, p50 = 50.5 and
/// p99 = 99.01 — pinned by tests/bench_stats_test.cpp, including the
/// record-after-query re-sort at small sample counts that the perf gate's
/// incremental sections exercise.
class LatencyRecorder {
 public:
  void reserve(std::size_t n) { samples_.reserve(n); }

  /// Records one latency sample in nanoseconds. Safe to call after a
  /// percentile query (the sample set re-sorts lazily).
  void record(double ns) { samples_.add(ns); }

  /// Times one invocation of `op` and records it.
  template <typename Op>
  void time(Op&& op) {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    op();
    const auto t1 = clock::now();
    record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
  }

  [[nodiscard]] std::size_t count() const { return samples_.count(); }
  /// Empty-safe: 0.0 with no samples (a zero-op section is a config error
  /// the throughput number already makes obvious; don't crash the harness).
  [[nodiscard]] double percentile(double pct) const {
    return samples_.count() == 0 ? 0.0 : samples_.percentile(pct);
  }

  /// Folds the recorded samples into the shared gate schema. `ops` is the
  /// logical operation count for throughput (== count() for per-op timing,
  /// larger when each sample covers a batch).
  [[nodiscard]] SectionResult section(const std::string& name,
                                      std::uint64_t ops,
                                      double elapsed_seconds) const {
    SectionResult result;
    result.name = name;
    result.ops = ops;
    result.ops_per_sec =
        elapsed_seconds > 0 ? static_cast<double>(ops) / elapsed_seconds : 0.0;
    result.p50_ns = percentile(50.0);
    result.p99_ns = percentile(99.0);
    return result;
  }

 private:
  util::SampleSet samples_;
};

/// Times `op(i)` for i in [0, ops), returning throughput and latency
/// percentiles. Per-op timing: the measured operations are microsecond-
/// scale, so the ~20ns clock overhead is in the noise.
template <typename Op>
SectionResult time_section(const std::string& name, std::uint64_t ops, Op&& op) {
  using clock = std::chrono::steady_clock;
  LatencyRecorder latencies;
  latencies.reserve(ops);
  const auto begin = clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    latencies.time([&] { op(i); });
  }
  const double elapsed =
      std::chrono::duration<double>(clock::now() - begin).count();
  return latencies.section(name, ops, elapsed);
}

inline void write_section(util::JsonWriter& json, const SectionResult& result) {
  json.begin_object(result.name);
  json.member("ops", result.ops);
  json.member("ops_per_sec", result.ops_per_sec);
  json.member("p50_ns", result.p50_ns);
  json.member("p99_ns", result.p99_ns);
  json.end_object();
}

/// The flags of one harness: --seed and --csv, which every harness reads,
/// plus the flags it names at construction (--runs for the per-cell
/// repetition count, and its own, read through `flags`). Any other flag
/// throws std::invalid_argument naming it, so a flag the harness would
/// ignore is a usage error (exit 2), never a silent no-op.
struct HarnessArgs {
  util::Flags flags;
  std::int64_t runs = 0;       ///< 0 = use the harness default
  std::uint64_t seed = 2006;
  std::string csv_path;        ///< empty = no CSV dump

  HarnessArgs(int argc, char** argv,
              std::initializer_list<std::string_view> own_flags)
      : flags(argc, argv) {
    for (const std::string& name : flags.names()) {
      if (name == "seed" || name == "csv" ||
          std::find(own_flags.begin(), own_flags.end(), name) != own_flags.end()) {
        continue;
      }
      std::string accepted = "--seed, --csv";
      for (const std::string_view own : own_flags) {
        accepted += ", --" + std::string(own);
      }
      throw std::invalid_argument("--" + name + " has no effect (this harness reads " +
                                  accepted + ")");
    }
    runs = flags.get_int("runs", 0);
    seed = static_cast<std::uint64_t>(flags.get_int("seed", 2006));
    csv_path = flags.get_string("csv", "");
  }

  [[nodiscard]] std::int64_t runs_or(std::int64_t fallback) const {
    return runs > 0 ? runs : fallback;
  }
};

inline void finish(const util::TableWriter& table, const HarnessArgs& args,
                   const util::Timer& timer) {
  table.print(std::cout);
  if (!args.csv_path.empty()) {
    table.write_csv(args.csv_path);
    std::cout << "\ncsv written to " << args.csv_path << "\n";
  }
  std::cout << "\nelapsed: " << timer.elapsed_seconds() << " s\n";
}

/// The paper's sweep for Figures 6-10: k = 10..310 step 30.
inline std::vector<std::size_t> paper_k_sweep() {
  std::vector<std::size_t> ks;
  for (std::size_t k = 10; k <= 310; k += 30) ks.push_back(k);
  return ks;
}

/// The paper's attribute counts for Figures 6-10 and 13-14.
inline std::vector<std::size_t> paper_m_values() { return {10, 15, 20}; }

}  // namespace psc::bench
