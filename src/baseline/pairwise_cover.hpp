// Classical deterministic pairwise coverage — the comparison baseline of the
// paper's Section 6.4. A subscription is declared redundant only when a
// *single* existing subscription covers it; group coverage is invisible to
// this algorithm, which is exactly the gap the paper's contribution closes.
#pragma once

#include <optional>
#include <span>

#include "core/subscription.hpp"

namespace psc::baseline {

/// Index of the first subscription in `set` that covers `s`, if any. O(k m).
[[nodiscard]] std::optional<std::size_t> find_covering(
    const core::Subscription& s, std::span<const core::Subscription> set);

/// True iff some single subscription in `set` covers `s`.
[[nodiscard]] bool pairwise_covered(const core::Subscription& s,
                                    std::span<const core::Subscription> set);

}  // namespace psc::baseline
