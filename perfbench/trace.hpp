// In-memory span recorder for the benchmark's traced run. Spans are taken
// in the benchmark's own code around its calls into each layer's public
// functions, kept in memory, and written out once when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Every span the benchmark records. Root spans (one per client op) wrap
/// the system call; the others are replays made after the root closed.
enum class SpanName : std::uint16_t {
  kRootPublish,      ///< routing.publish / net.publish
  kRootSubscribe,
  kRootUnsubscribe,
  kTwinPublish,      ///< the same op on the twin over the other transport
  kTwinSubscribe,
  kTwinUnsubscribe,
  kIndexStab,
  kIndexBoxIntersect,
  kStoreInsert,
  kStoreErase,
  kStoreMatch,
  kCoreCheck,
  kCoreConflictTable,
  kCoreFastDecisions,
  kCoreMcs,
  kCoreWitnessEstimate,
  kCoreRspc,
  kBaselineExact,
  kRoutingExpectedRecipients,
  kWireEncode,
  kWireDecode,
  kCount,
};

inline constexpr std::uint16_t kNoParent = 0xffff;

class Tracer {
 public:
  struct Span {
    std::uint32_t op = 0;  ///< client-op index, shared by all its spans
    SpanName name = SpanName::kRootPublish;
    std::uint16_t parent = kNoParent;  ///< SpanName of the parent, if any
    std::int64_t start_ns = 0;         ///< since the tracer's epoch
    std::int64_t end_ns = 0;
  };

  /// Root and twin span names are qualified by the layer that served the
  /// call: "routing" for the simulator, "net" for the TCP cluster.
  Tracer(std::string root_layer, std::string twin_layer);

  void record(std::uint32_t op, SpanName name, SpanName parent,
              Clock::time_point start, Clock::time_point end);
  void record_root(std::uint32_t op, SpanName name, Clock::time_point start,
                   Clock::time_point end);

  /// Durations in microseconds of every span with this name.
  [[nodiscard]] std::vector<double> durations_us(SpanName name) const;

  /// Writes one tab-separated line per span (with a header line).
  void write_tsv(const std::string& path) const;

  [[nodiscard]] std::string name_of(SpanName name) const;

 private:
  [[nodiscard]] std::int64_t since_epoch_ns(Clock::time_point t) const;

  std::string root_layer_;
  std::string twin_layer_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Percentile by linear interpolation (util::SampleSet's convention);
/// 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double pct);

}  // namespace perfbench
