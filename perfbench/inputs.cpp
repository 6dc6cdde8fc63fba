#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace perfbench {

using psc::core::Interval;
using psc::core::Publication;
using psc::core::Subscription;
using psc::routing::BrokerId;
using psc::store::CoveragePolicy;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> out;

    WorkloadSpec fanout;
    fanout.name = "publish_fanout";
    fanout.brokers = 16;
    fanout.attributes = 4;
    fanout.policy = CoveragePolicy::kPairwise;
    fanout.standing = 10000;
    fanout.publishes_per_s = 400;
    fanout.subscribes_per_s = 700;
    fanout.tcp_twin = true;
    fanout.episodes = 4;
    out.push_back(fanout);

    WorkloadSpec cover;
    cover.name = "subscribe_cover";
    cover.brokers = 8;
    cover.attributes = 6;
    cover.policy = CoveragePolicy::kGroup;
    cover.standing = 1000;
    cover.publishes_per_s = 400;
    cover.subscribes_per_s = 500;
    cover.hotspots = 16;
    cover.zipf_skew = 0.0;
    cover.width_lo = 0.2;
    cover.width_hi = 0.5;
    cover.rspc_cap = 3'000;
    cover.episodes = 40;
    out.push_back(cover);

    WorkloadSpec tcp;
    tcp.name = "tcp_mixed";
    tcp.transport = Transport::kTcp;
    tcp.brokers = 4;
    tcp.star = true;
    tcp.attributes = 2;
    tcp.policy = CoveragePolicy::kPairwise;
    tcp.standing = 2000;
    tcp.publishes_per_s = 2000;
    tcp.subscribes_per_s = 1000;
    out.push_back(tcp);
    return out;
  }();
  return specs;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const auto& spec : workloads()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

const char* to_string(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::kPublish: return "publish";
    case OpKind::kSubscribe: return "subscribe";
    case OpKind::kUnsubscribe: return "unsubscribe";
  }
  return "?";
}

namespace {

/// Normal jitter of boxes and points around their hotspot, as a fraction
/// of the domain.
constexpr double kRadiusFraction = 0.04;

/// Zipf-popular hotspot regions shared by subscriptions and publications,
/// so coverage and matching both concentrate where the traffic is. With
/// skew 0 every hotspot is equally popular, and draws go round-robin so
/// each hotspot gets exactly its share rather than a random one.
class HotspotModel {
 public:
  HotspotModel(const WorkloadSpec& spec, psc::util::Rng& rng)
      : spec_(spec),
        rank_(spec.hotspots, spec.zipf_skew),
        jitter_(0.0, kRadiusFraction * (kDomainHi - kDomainLo)) {
    centers_.resize(spec.hotspots);
    for (auto& center : centers_) {
      for (std::size_t a = 0; a < spec.attributes; ++a) {
        center.push_back(rng.uniform(kDomainLo, kDomainHi));
      }
    }
  }

  /// The hotspot of the next subscription or publication.
  std::size_t pick(psc::util::Rng& rng) {
    return balanced() ? next_++ % centers_.size() : rank_.sample(rng);
  }

  [[nodiscard]] bool balanced() const { return spec_.zipf_skew == 0; }

  Subscription box(psc::util::Rng& rng, std::size_t hotspot,
                   psc::core::SubscriptionId id) const {
    const auto& center = centers_[hotspot];
    std::vector<Interval> ranges;
    ranges.reserve(spec_.attributes);
    for (std::size_t a = 0; a < spec_.attributes; ++a) {
      const double mid =
          std::clamp(center[a] + jitter_.sample(rng), kDomainLo, kDomainHi);
      const double width =
          rng.uniform(spec_.width_lo, spec_.width_hi) * (kDomainHi - kDomainLo);
      ranges.emplace_back(std::max(kDomainLo, mid - width / 2),
                          std::min(kDomainHi, mid + width / 2));
    }
    return Subscription(std::move(ranges), id);
  }

  Publication point(psc::util::Rng& rng) {
    const auto& center = centers_[pick(rng)];
    std::vector<double> values;
    values.reserve(spec_.attributes);
    for (std::size_t a = 0; a < spec_.attributes; ++a) {
      values.push_back(
          std::clamp(center[a] + jitter_.sample(rng), kDomainLo, kDomainHi));
    }
    return Publication(std::move(values));
  }

 private:
  const WorkloadSpec& spec_;
  psc::util::ZipfSampler rank_;
  psc::util::NormalSampler jitter_;
  std::vector<std::vector<double>> centers_;
  std::size_t next_ = 0;
};

Inputs make_episode(const WorkloadSpec& spec, HotspotModel& model, psc::util::Rng& rng,
                    std::size_t standing, std::size_t publishes, std::size_t subscribes) {
  const auto home = [&] { return static_cast<BrokerId>(rng.next_below(spec.brokers)); };

  Inputs inputs;
  psc::core::SubscriptionId next_id = 1;
  // Live (id, home) pairs per hotspot. Unsubscribes draw uniformly from all
  // of them, or, with balanced hotspots, from each hotspot in turn so every
  // hotspot keeps its share of the population through the run.
  std::vector<std::vector<std::pair<psc::core::SubscriptionId, BrokerId>>> live(
      spec.hotspots);
  std::size_t live_count = 0;
  const auto subscribe = [&](BrokerId broker) {
    const std::size_t hotspot = model.pick(rng);
    live[hotspot].emplace_back(next_id, broker);
    live_count += 1;
    return model.box(rng, hotspot, next_id++);
  };
  std::size_t next_unsubscribe = 0;
  const auto unsubscribe = [&]() {
    std::size_t hotspot = next_unsubscribe++ % spec.hotspots;
    std::size_t pick = 0;
    if (model.balanced()) {
      pick = rng.next_below(live[hotspot].size());
    } else {
      pick = rng.next_below(live_count);
      for (hotspot = 0; pick >= live[hotspot].size(); ++hotspot) {
        pick -= live[hotspot].size();
      }
    }
    auto& pool = live[hotspot];
    const auto target = pool[pick];
    pool[pick] = pool.back();
    pool.pop_back();
    live_count -= 1;
    return target;
  };
  for (std::size_t i = 0; i < standing; ++i) {
    const BrokerId broker = home();
    inputs.standing.emplace_back(broker, subscribe(broker));
  }

  std::vector<OpKind> kinds(publishes, OpKind::kPublish);
  kinds.insert(kinds.end(), subscribes, OpKind::kSubscribe);
  kinds.insert(kinds.end(), subscribes, OpKind::kUnsubscribe);
  for (std::size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.next_below(i)]);
  }

  inputs.ops.reserve(kinds.size());
  for (const OpKind kind : kinds) {
    Op op;
    op.kind = kind;
    switch (kind) {
      case OpKind::kPublish:
        op.broker = home();
        op.pub = model.point(rng);
        break;
      case OpKind::kSubscribe:
        op.broker = home();
        op.sub = subscribe(op.broker);
        break;
      case OpKind::kUnsubscribe:
        std::tie(op.id, op.broker) = unsubscribe();
        break;
    }
    inputs.ops.push_back(std::move(op));
  }
  return inputs;
}

}  // namespace

std::vector<Inputs> make_inputs(const WorkloadSpec& spec, Size size, double seconds,
                                std::uint64_t seed, bool traced) {
  psc::util::Rng layout(kLayoutSeed);
  HotspotModel model(spec, layout);
  psc::util::Rng rng(seed);
  const bool tiny = size == Size::kTiny;
  const std::size_t episodes = tiny ? 2 : traced ? kTracedEpisodes : spec.episodes;
  const std::size_t standing = tiny ? std::min<std::size_t>(spec.standing, 300) : spec.standing;
  // Per-episode op counts; the run pools at least kMinSamplesPerKind.
  const auto per_episode = [&](double per_second, std::size_t tiny_count) {
    if (tiny) return tiny_count;
    const auto total = std::max(kMinSamplesPerKind,
                                static_cast<std::size_t>(std::llround(per_second * seconds)));
    return (total + episodes - 1) / episodes;
  };
  const std::size_t publishes = per_episode(spec.publishes_per_s, 30);
  const std::size_t subscribes = per_episode(spec.subscribes_per_s, 15);
  std::vector<Inputs> out;
  for (std::size_t e = 0; e < episodes; ++e) {
    out.push_back(make_episode(spec, model, rng, standing, publishes, subscribes));
  }
  return out;
}

}  // namespace perfbench
