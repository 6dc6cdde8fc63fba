#include "baseline/pairwise_cover.hpp"

namespace psc::baseline {

std::optional<std::size_t> find_covering(const core::Subscription& s,
                                         std::span<const core::Subscription> set) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (set[i].covers(s)) return i;
  }
  return std::nullopt;
}

bool pairwise_covered(const core::Subscription& s,
                      std::span<const core::Subscription> set) {
  return find_covering(s, set).has_value();
}

}  // namespace psc::baseline
