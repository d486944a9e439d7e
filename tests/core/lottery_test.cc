#include "unit/core/lottery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

namespace unitdb {
namespace {

std::vector<int> SampleMany(const LotterySampler& s, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> counts(s.size(), 0);
  for (int i = 0; i < n; ++i) {
    const int pick = s.Sample(rng);
    if (pick >= 0) ++counts[pick];
  }
  return counts;
}

TEST(LotterySamplerTest, UniformFallbackWhenAllTicketsEqual) {
  LotterySampler s(4);
  auto counts = SampleMany(s, 40000, 71);
  for (int c : counts) {
    EXPECT_NEAR(c / 40000.0, 0.25, 0.02);
  }
}

TEST(LotterySamplerTest, ProportionalToShiftedTickets) {
  LotterySampler s(3);
  s.SetTicket(0, 1.0);
  s.SetTicket(1, 3.0);
  s.SetTicket(2, 5.0);
  // Weights after the min-shift: 0, 2, 4.
  auto counts = SampleMany(s, 60000, 73);
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(counts[1] / 60000.0, 1.0 / 3.0, 0.02);
  EXPECT_NEAR(counts[2] / 60000.0, 2.0 / 3.0, 0.02);
}

TEST(LotterySamplerTest, WeightsTrackMinShift) {
  LotterySampler s(3);
  s.SetTicket(0, 2.0);
  s.SetTicket(1, 5.0);
  s.SetTicket(2, 4.0);
  // Force the exact re-anchor that Sample() performs.
  Rng rng(79);
  s.Sample(rng);
  EXPECT_DOUBLE_EQ(s.WeightOf(0), 0.0);
  EXPECT_DOUBLE_EQ(s.WeightOf(1), 3.0);
  EXPECT_DOUBLE_EQ(s.WeightOf(2), 2.0);
}

TEST(LotterySamplerTest, LoweringTheMinimumRebases) {
  LotterySampler s(2);
  s.SetTicket(0, 1.0);
  s.SetTicket(1, 2.0);
  Rng rng(83);
  s.Sample(rng);
  EXPECT_DOUBLE_EQ(s.WeightOf(1), 1.0);
  s.SetTicket(0, -3.0);  // new minimum: weights shift by 4
  EXPECT_DOUBLE_EQ(s.WeightOf(0), 0.0);
  EXPECT_DOUBLE_EQ(s.WeightOf(1), 5.0);
}

TEST(LotterySamplerTest, IneligibleItemsNeverSampled) {
  LotterySampler s(4);
  s.SetTicket(0, 10.0);
  s.SetEligible(0, false);
  s.SetTicket(1, 1.0);
  s.SetTicket(2, 2.0);
  s.SetTicket(3, 3.0);
  EXPECT_EQ(s.eligible_count(), 3);
  auto counts = SampleMany(s, 30000, 89);
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[3], counts[2]);
}

TEST(LotterySamplerTest, NoEligibleReturnsMinusOne) {
  LotterySampler s(2);
  s.SetEligible(0, false);
  s.SetEligible(1, false);
  Rng rng(97);
  EXPECT_EQ(s.Sample(rng), -1);
}

TEST(LotterySamplerTest, ReEnablingItemRestoresIt) {
  LotterySampler s(2);
  s.SetEligible(0, false);
  s.SetTicket(0, 100.0);
  s.SetTicket(1, 1.0);
  auto counts = SampleMany(s, 1000, 101);
  EXPECT_EQ(counts[0], 0);
  s.SetEligible(0, true);
  counts = SampleMany(s, 10000, 103);
  EXPECT_GT(counts[0], 9000);
}

TEST(LotterySamplerTest, TicketAccessorsRoundTrip) {
  LotterySampler s(3);
  s.SetTicket(1, -2.5);
  EXPECT_DOUBLE_EQ(s.ticket(1), -2.5);
  EXPECT_DOUBLE_EQ(s.ticket(0), 0.0);
}

TEST(LotterySamplerTest, SingleEligibleAlwaysPicked) {
  LotterySampler s(3);
  s.SetEligible(0, false);
  s.SetEligible(2, false);
  Rng rng(107);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(s.Sample(rng), 1);
  }
}

TEST(LotterySamplerTest, LargePopulationProportions) {
  const int n = 1024;
  LotterySampler s(n);
  // First half weight 1 (after shift), second half weight 3.
  for (int i = 0; i < n; ++i) {
    s.SetTicket(i, i < n / 2 ? 1.0 : 3.0);
  }
  // Min is 1.0 -> weights 0 and 2: only the second half can be picked.
  auto counts = SampleMany(s, 50000, 109);
  int first_half = 0, second_half = 0;
  for (int i = 0; i < n / 2; ++i) first_half += counts[i];
  for (int i = n / 2; i < n; ++i) second_half += counts[i];
  EXPECT_EQ(first_half, 0);
  EXPECT_EQ(second_half, 50000);
}

TEST(LotterySamplerTest, MinTicketMatchesBruteForceMinimum) {
  // Random ticket updates (with ties and negatives), single and bulk
  // eligibility flips, and stretches where nothing is eligible: after every
  // step the sampler's minimum equals a brute-force minimum over eligible
  // tickets (+inf when there are none).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (int n : {1, 2, 3, 7, 64, 100}) {
    LotterySampler s(n);
    Rng rng(static_cast<uint64_t>(900 + n));
    auto brute = [&]() {
      double m = kInf;
      for (int i = 0; i < n; ++i) {
        if (s.IsEligible(i)) m = std::min(m, s.ticket(i));
      }
      return m;
    };
    EXPECT_EQ(s.min_ticket(), 0.0);
    for (int step = 0; step < 3000; ++step) {
      const int64_t op = rng.UniformInt(0, 19);
      const int i = static_cast<int>(rng.UniformInt(0, n - 1));
      if (op < 16) {
        // A small value grid makes equal tickets (ties) common.
        s.SetTicket(i, static_cast<double>(rng.UniformInt(-8, 8)) * 0.5);
      } else if (op < 18) {
        s.SetEligible(i, !s.IsEligible(i));
      } else if (op == 18) {
        s.SetEligibility(std::vector<bool>(static_cast<size_t>(n), false));
      } else {
        std::vector<bool> eligible(static_cast<size_t>(n));
        for (int j = 0; j < n; ++j) eligible[j] = rng.UniformInt(0, 1) == 1;
        s.SetEligibility(eligible);
      }
      ASSERT_EQ(s.min_ticket(), brute()) << "n=" << n << " step=" << step;
      if (s.eligible_count() == 0) {
        EXPECT_EQ(s.min_ticket(), kInf);
        EXPECT_EQ(s.Sample(rng), -1);
      } else if (step % 7 == 0) {
        // Sampling re-anchors at the minimum: the minimum weighs 0 and no
        // weight is negative.
        EXPECT_TRUE(s.IsEligible(s.Sample(rng)));
        for (int j = 0; j < n; ++j) {
          EXPECT_GE(s.WeightOf(j), 0.0);
          if (s.IsEligible(j) && s.ticket(j) == s.min_ticket()) {
            EXPECT_EQ(s.WeightOf(j), 0.0);
          }
        }
      }
    }
  }
}

// --- SampleMany: batched draws against the Sample loop ---------------------

// The reference: `count` Sample calls, stopping at the first -1.
std::vector<int> SampleLoop(const LotterySampler& s, Rng& rng, int count) {
  std::vector<int> picks;
  for (int k = 0; k < count; ++k) {
    const int pick = s.Sample(rng);
    if (pick < 0) break;
    picks.push_back(pick);
  }
  return picks;
}

// Each side draws from its own copy of `s`, so a re-anchor of a stale floor
// happens on both paths, and its own Rng from `seed`: the picks and the next
// raw draw must agree.
void ExpectSampleManyMatchesLoop(const LotterySampler& s, int count,
                                 uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "n=" << s.size() << " count=" << count
                                    << " seed=" << seed);
  LotterySampler batched = s;
  LotterySampler looped = s;
  Rng a(seed);
  Rng b(seed);
  std::vector<int> many = {-7};  // SampleMany clears what it is given
  batched.SampleMany(a, count, &many);
  EXPECT_EQ(many, SampleLoop(looped, b, count));
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

// Counts the draws among `count` Sample calls that took the rounding
// fallback: a weighted draw spends exactly one NextU64 unless it falls back.
int CountRoundingFallbacks(const LotterySampler& s, int count, uint64_t seed) {
  Rng rng(seed);
  int fallbacks = 0;
  for (int k = 0; k < count; ++k) {
    Rng one_dart = rng;
    one_dart.NextU64();
    s.Sample(rng);
    Rng after = rng;
    if (after.NextU64() != one_dart.NextU64()) ++fallbacks;
  }
  return fallbacks;
}

// Leaves the Fenwick tree's stored sums 1 below its running total: weight
// 1 on item 1 is absorbed into 1e16 on item 0, then both weights drop to
// zero, which drives the total below zero (clamped to 0) and the tree's sums
// to -1, and item 1 then takes weight 5. Darts in [4, 5) + the other items'
// weights run past the last slot and clamp onto item n - 1, made ineligible
// here, so those draws take the uniform fallback.
LotterySampler RoundingSkewed(int n) {
  LotterySampler s(n);
  s.SetEligible(n - 1, false);
  s.SetTicket(0, 1e16);
  s.SetTicket(1, 1.0);
  s.SetTicket(0, 0.0);
  s.SetTicket(1, 0.0);
  s.SetTicket(1, 5.0);
  return s;
}

TEST(LotterySamplerTest, SampleManyMatchesSequentialSample) {
  const int counts[] = {0, 1, 7, 8, 9, 17, 63, 64, 100};
  for (int n : {1, 3, 7, 64, 1000, 4096}) {
    // Random tickets, every item eligible.
    LotterySampler s(n);
    Rng traffic(static_cast<uint64_t>(n));
    for (int i = 0; i < n; ++i) s.SetTicket(i, traffic.Uniform(-2.0, 3.0));
    for (int count : counts) ExpectSampleManyMatchesLoop(s, count, 11);
    ExpectSampleManyMatchesLoop(s, n, 12);
    ExpectSampleManyMatchesLoop(s, 3 * n + 5, 13);

    // About a third of the items ineligible (never all of them).
    LotterySampler sparse = s;
    for (int i = 1; i < n; ++i) {
      if (traffic.Bernoulli(0.35)) sparse.SetEligible(i, false);
    }
    for (int count : counts) ExpectSampleManyMatchesLoop(sparse, count, 21);
    ExpectSampleManyMatchesLoop(sparse, n, 22);

    // All tickets equal: every weight is zero, the uniform lottery.
    LotterySampler equal(n);
    for (int i = 0; i < n; ++i) equal.SetTicket(i, 0.75);
    for (int count : counts) ExpectSampleManyMatchesLoop(equal, count, 31);
    ExpectSampleManyMatchesLoop(equal, n, 32);

    // Stale floor: raising the minimum ticket does not re-anchor, so the
    // first draw of either path must.
    LotterySampler stale = s;
    int argmin = 0;
    for (int i = 1; i < n; ++i) {
      if (stale.ticket(i) < stale.ticket(argmin)) argmin = i;
    }
    stale.SetTicket(argmin, stale.ticket(argmin) + 4.0);
    for (int count : counts) ExpectSampleManyMatchesLoop(stale, count, 41);
    ExpectSampleManyMatchesLoop(stale, n, 42);
  }

  // Nothing eligible: no picks and no draws.
  LotterySampler none(5);
  for (int i = 0; i < 5; ++i) none.SetEligible(i, false);
  ExpectSampleManyMatchesLoop(none, 9, 51);
}

TEST(LotterySamplerTest, SampleManyReplaysGroupsThatHitTheRoundingFallback) {
  for (int n : {3, 7, 64, 1000, 4096}) {
    SCOPED_TRACE(n);
    LotterySampler s = RoundingSkewed(n);
    Rng traffic(static_cast<uint64_t>(n) + 1);
    // Other weights sum to about 2 for every n, so about one dart in
    // seven falls back.
    const double top = 20.0 / n;
    for (int i = 2; i + 1 < n; ++i) {
      if (traffic.Bernoulli(0.2)) s.SetTicket(i, traffic.Uniform(0.0, top));
    }
    // The construction really reaches the fallback, on some draws only.
    const int fallbacks = CountRoundingFallbacks(s, 400, 61);
    EXPECT_GT(fallbacks, 0);
    EXPECT_LT(fallbacks, 200);
    for (int count : {1, 8, 9, 40, 400, 1001}) {
      ExpectSampleManyMatchesLoop(s, count, 61);
      ExpectSampleManyMatchesLoop(s, count, 62);
    }
  }
}

}  // namespace
}  // namespace unitdb
