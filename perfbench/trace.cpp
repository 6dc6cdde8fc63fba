#include "trace.hpp"

#include <fstream>
#include <stdexcept>

#include "util/stats.hpp"

namespace perfbench {

namespace {

constexpr const char* kNames[] = {
    "publish",
    "subscribe",
    "unsubscribe",
    "publish",
    "subscribe",
    "unsubscribe",
    "index.stab",
    "index.box_intersect",
    "store.insert",
    "store.erase",
    "store.match",
    "core.check",
    "core.conflict_table",
    "core.fast_decisions",
    "core.mcs",
    "core.witness_estimate",
    "core.rspc",
    "baseline.exact",
    "routing.expected_recipients",
    "wire.encode",
    "wire.decode",
};
static_assert(std::size(kNames) == static_cast<std::size_t>(SpanName::kCount));

bool is_root(SpanName name) { return name <= SpanName::kRootUnsubscribe; }

bool is_twin(SpanName name) {
  return name >= SpanName::kTwinPublish && name <= SpanName::kTwinUnsubscribe;
}

}  // namespace

Tracer::Tracer(std::string root_layer, std::string twin_layer)
    : root_layer_(std::move(root_layer)), twin_layer_(std::move(twin_layer)) {
  spans_.reserve(1 << 16);
}

void Tracer::record(std::uint32_t op, SpanName name, SpanName parent,
                    Clock::time_point start, Clock::time_point end) {
  spans_.push_back(Span{op, name, static_cast<std::uint16_t>(parent),
                        since_epoch_ns(start), since_epoch_ns(end)});
}

void Tracer::record_root(std::uint32_t op, SpanName name, Clock::time_point start,
                         Clock::time_point end) {
  spans_.push_back(Span{op, name, kNoParent, since_epoch_ns(start), since_epoch_ns(end)});
}

std::int64_t Tracer::since_epoch_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
}

std::vector<double> Tracer::durations_us(SpanName name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
    }
  }
  return out;
}

std::string Tracer::name_of(SpanName name) const {
  const std::string base = kNames[static_cast<std::size_t>(name)];
  if (is_root(name)) return root_layer_ + "." + base;
  if (is_twin(name)) return twin_layer_ + ".twin." + base;
  return base;
}

void Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "op\tname\tparent\tstart_ns\tend_ns\n";
  for (const Span& span : spans_) {
    out << span.op << '\t' << name_of(span.name) << '\t'
        << (span.parent == kNoParent ? std::string("-")
                                     : name_of(static_cast<SpanName>(span.parent)))
        << '\t' << span.start_ns << '\t' << span.end_ns << '\n';
  }
  if (!out) throw std::runtime_error("short write to " + path);
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  psc::util::SampleSet set;
  set.reserve(values.size());
  for (const double v : values) set.add(v);
  return set.percentile(pct);
}

}  // namespace perfbench
