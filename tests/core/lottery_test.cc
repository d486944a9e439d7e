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

}  // namespace
}  // namespace unitdb
