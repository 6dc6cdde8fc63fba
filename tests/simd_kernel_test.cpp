// Property suite pinning the SIMD contract of util/simd.hpp and the
// IntervalIndex mask sweep built on it:
//
//   1. every word/double kernel agrees with a naive scalar reference on
//      random inputs, including tail-word / partial-block shapes, all-zero
//      and all-one rows, and every NaN/inf compare case;
//   2. the index queries (stab, box_intersect, covering) answer exactly
//      what the Subscription predicates answer for out-of-domain,
//      boundary, and NaN probes, and for ids past 32 bits (churn traces
//      against flat scans live in interval_index_test).
//
// The suite carries the `index` ctest label, so CI also runs it on a
// -DPSC_NO_SIMD=ON build, where the kernels are the scalar bodies.
//
// The suite runs under ASan/UBSan in CI (all tier-1 tests do), so the
// aligned loads and prefetch distances are sanitizer-checked as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "index/interval_index.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace psc {
namespace {

using core::Interval;
using core::Subscription;
using core::SubscriptionId;
using core::Value;
using simd::Word;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<SubscriptionId> sorted(std::vector<SubscriptionId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

simd::AlignedVector<Word> random_words(std::size_t n, util::Rng& rng,
                                       int shape) {
  simd::AlignedVector<Word> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0: out[i] = 0; break;                      // all-zero row
      case 1: out[i] = ~Word{0}; break;               // all-one row
      case 2:                                         // sparse tail word
        out[i] = i + 1 == n ? Word{1} << rng.next_below(64) : 0;
        break;
      default: out[i] = rng() & rng(); break;
    }
  }
  return out;
}

TEST(SimdKernels, WordKernelsMatchScalarReference) {
  util::Rng rng(20260807);
  // Partial-block shapes relative to larger buffers: the kernels only see
  // the first `words` entries, which must be a whole number of blocks.
  for (const std::size_t words : {std::size_t{4}, std::size_t{8},
                                  std::size_t{12}, std::size_t{64}}) {
    for (int shape = 0; shape < 4; ++shape) {
      for (int round = 0; round < 25; ++round) {
        const auto row = random_words(words, rng, shape);
        const auto base = random_words(words, rng, 3);

        auto acc = base;
        std::vector<Word> ref(base.begin(), base.end());
        Word any = 0;
        for (std::size_t w = 0; w < words; ++w) {
          ref[w] &= row[w];
          any |= ref[w];
        }
        EXPECT_EQ(simd::and_into(acc.data(), row.data(), words), any != 0);
        EXPECT_TRUE(std::equal(ref.begin(), ref.end(), acc.begin()));

        acc = base;
        Word any_even = 0;
        for (std::size_t w = 0; w < words; ++w) {
          ref[w] = w % 2 == 0 ? base[w] & row[w] : 0;
          if (w % 2 == 0) any_even |= ref[w];
        }
        EXPECT_EQ(simd::and_into_even(acc.data(), row.data(), words),
                  any_even != 0);
        EXPECT_TRUE(std::equal(ref.begin(), ref.end(), acc.begin()));

        acc = base;
        simd::zero_odd_words(acc.data(), words);
        for (std::size_t w = 0; w < words; ++w) {
          EXPECT_EQ(acc[w], w % 2 == 0 ? base[w] : Word{0});
        }

        Word row_any = 0;
        for (std::size_t w = 0; w < words; ++w) row_any |= row[w];
        EXPECT_EQ(simd::testz(row.data(), words), row_any == 0);
      }
    }
  }
}

TEST(SimdKernels, DoubleKernelsMatchScalarSemantics) {
  // contains4 / contains_box / intersects4 / covers4 must agree with the
  // scalar >= / <= verify on every lane combination, including NaN
  // (fails), +-inf padding lanes (pass anything real), and exact boundary
  // equality (closed intervals).
  const std::vector<double> specials{-kInf, -1.0, 0.0, 1.0, kInf, kNaN};
  util::Rng rng(7);
  alignas(32) double rec[8];
  alignas(32) double point[4];
  alignas(32) double qlo[4];
  alignas(32) double qhi[4];
  for (int round = 0; round < 4000; ++round) {
    for (int lane = 0; lane < 4; ++lane) {
      const auto pick = [&] {
        return rng.bernoulli(0.5)
                   ? specials[rng.next_below(specials.size())]
                   : rng.uniform(-2.0, 2.0);
      };
      double lo = pick(), hi = pick();
      if (lo > hi) std::swap(lo, hi);
      rec[lane] = lo;
      rec[lane + 4] = hi;
      point[lane] = pick();
      double a = pick(), b = pick();
      if (a > b) std::swap(a, b);
      qlo[lane] = a;
      qhi[lane] = b;
    }
    bool contains_ref = true, intersects_ref = true, covers_ref = true;
    for (int lane = 0; lane < 4; ++lane) {
      contains_ref = contains_ref &&
                     point[lane] >= rec[lane] && point[lane] <= rec[lane + 4];
      intersects_ref = intersects_ref &&
                       qhi[lane] >= rec[lane] && qlo[lane] <= rec[lane + 4];
      covers_ref = covers_ref &&
                   qlo[lane] >= rec[lane] && qhi[lane] <= rec[lane + 4];
    }
    EXPECT_EQ(simd::contains4(point, rec), contains_ref) << round;
    EXPECT_EQ(simd::contains_box(point, rec, rec + 4, 4), contains_ref) << round;
    EXPECT_EQ(simd::intersects4(qlo, qhi, rec), intersects_ref) << round;
    EXPECT_EQ(simd::covers4(qlo, qhi, rec), covers_ref) << round;
  }
}

TEST(SimdKernels, Covers4PinsEveryLaneOnSpecialValues) {
  // One lane at a time takes each special value on each of the four
  // operands while the other lanes pass, so a vector body that tests the
  // wrong lane, swaps the operands or drops an ordered-quiet compare
  // disagrees with the scalar reference on some case.
  const std::vector<double> specials{-kInf, -1.0, 0.0, 1.0, kInf, kNaN};
  alignas(32) double rec[8];
  alignas(32) double qlo[4];
  alignas(32) double qhi[4];
  for (int lane = 0; lane < 4; ++lane) {
    for (const double a : specials) {
      for (const double b : specials) {
        for (const double c : specials) {
          for (const double d : specials) {
            for (int i = 0; i < 4; ++i) {
              rec[i] = -kInf;
              rec[i + 4] = kInf;
              qlo[i] = 0.0;
              qhi[i] = 0.0;
            }
            rec[lane] = a;
            rec[lane + 4] = b;
            qlo[lane] = c;
            qhi[lane] = d;
            EXPECT_EQ(simd::covers4(qlo, qhi, rec), c >= a && d <= b)
                << lane << ": [" << a << "," << b << "] contains [" << c
                << "," << d << "]";
          }
        }
      }
    }
  }
}

TEST(SimdIndexEquivalence, BoundaryAndNaNProbesAgreeWithPredicates) {
  // The index must answer exactly what Subscription::contains_point /
  // Subscription::intersects / Subscription::covers answer — including
  // NaN probes, which lie in no interval and so match nothing (examining
  // nothing).
  index::IntervalIndex index(2);
  std::vector<Subscription> subs;
  const auto add = [&](double lo1, double hi1, double lo2, double hi2,
                       SubscriptionId id) {
    subs.emplace_back(std::vector<Interval>{Interval{lo1, hi1}, Interval{lo2, hi2}},
                      id);
    index.insert(subs.back());
  };
  add(0, 10, 0, 10, 1);
  add(-kInf, 5, 200, kInf, 2);
  add(0, 1000, -kInf, kInf, 3);        // wide on attr 1
  add(-kInf, kInf, -kInf, kInf, 4);    // fully unconstrained

  const std::vector<std::vector<Value>> probes{
      {0.0, 0.0},        // domain_lo boundary (certainty trust edge)
      {1000.0, 1000.0},  // domain_hi boundary
      {-50.0, 3.0},      // below the domain: clamped bucket, no certainty
      {3.0, 5000.0},     // above the domain
      {kNaN, 3.0},
      {3.0, kNaN},
      {kNaN, kNaN},
  };
  for (const auto& point : probes) {
    std::vector<SubscriptionId> expected;
    for (const auto& sub : subs) {
      if (sub.contains_point(point)) expected.push_back(sub.id());
    }
    EXPECT_EQ(sorted(index.stab(point)), expected)
        << point[0] << "," << point[1];
    if (std::isnan(point[0]) || std::isnan(point[1])) {
      EXPECT_EQ(index.last_query_cost(), 0u);
    }
  }

  const std::vector<Subscription> boxes{
      Subscription({Interval{0, 0}, Interval{0, 0}}, 99),
      Subscription({Interval{-kInf, -100}, Interval{-kInf, kInf}}, 99),
      Subscription({Interval{1000, 5000}, Interval{999, 1001}}, 99),
      Subscription({Interval{-50, -10}, Interval{300, 5000}}, 99),
      Subscription({Interval{2, 5}, Interval{0, 1000}}, 99),
      Subscription({Interval{kNaN, kNaN}, Interval{0, 10}}, 99),
      Subscription({Interval{0, 10}, Interval{kNaN, 5}}, 99),
  };
  for (const auto& box : boxes) {
    std::vector<SubscriptionId> expected;
    for (const auto& sub : subs) {
      if (sub.intersects(box)) expected.push_back(sub.id());
    }
    EXPECT_EQ(sorted(index.box_intersect(box)), expected) << box.range(0).lo;
    if (std::isnan(box.range(0).lo) || std::isnan(box.range(1).lo)) {
      EXPECT_EQ(index.last_query_cost(), 0u);
    }
    std::vector<SubscriptionId> coverers;
    for (const auto& sub : subs) {
      if (sub.covers(box)) coverers.push_back(sub.id());
    }
    EXPECT_EQ(sorted(index.covering(box)), coverers) << box.range(0).lo;
    if (std::isnan(box.range(0).lo) || std::isnan(box.range(1).lo)) {
      EXPECT_EQ(index.last_query_cost(), 0u);
    }
  }
}

TEST(SimdIndexEquivalence, LargeIdsDisableThe32BitShadow) {
  // Ids above 2^32 must flow through emission unharmed (the 32-bit id
  // shadow is only read while every live id fits).
  index::IntervalIndex index(1);
  const SubscriptionId big = (SubscriptionId{1} << 40) + 7;
  for (const auto& [lo, hi, id] :
       {std::tuple{0.0, 10.0, SubscriptionId{1}},
        std::tuple{5.0, 15.0, big},
        std::tuple{8.0, 9.0, SubscriptionId{2}}}) {
    index.insert(Subscription({Interval{lo, hi}}, id));
  }
  const std::vector<Value> point{8.5};
  EXPECT_EQ(sorted(index.stab(point)),
            (std::vector<SubscriptionId>{1, 2, big}));
  // Erasing the big id re-enables the shadow; decisions stay identical.
  ASSERT_TRUE(index.erase(big));
  EXPECT_EQ(sorted(index.stab(point)), (std::vector<SubscriptionId>{1, 2}));
}

}  // namespace
}  // namespace psc
