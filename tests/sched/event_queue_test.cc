#include "unit/sched/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "unit/common/rng.h"

namespace unitdb {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  q.Push(30, EventType::kControlTick, 3);
  q.Push(10, EventType::kControlTick, 1);
  q.Push(20, EventType::kControlTick, 2);
  EXPECT_EQ(q.Pop().payload, 1);
  EXPECT_EQ(q.Pop().payload, 2);
  EXPECT_EQ(q.Pop().payload, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, TiesBreakFifo) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.Push(5, EventType::kQueryArrival, i);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(q.Pop().payload, i);
  }
}

TEST(EventQueueTest, CarriesTypeAndGeneration) {
  EventQueue q;
  q.Push(1, EventType::kCompletion, 42, 7);
  const Event e = q.Pop();
  EXPECT_EQ(e.type, EventType::kCompletion);
  EXPECT_EQ(e.payload, 42);
  EXPECT_EQ(e.generation, 7u);
  EXPECT_EQ(e.time, 1);
}

TEST(EventQueueTest, SizeTracksContents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  q.Push(1, EventType::kControlTick, 0);
  q.Push(2, EventType::kControlTick, 0);
  EXPECT_EQ(q.size(), 2u);
  q.Pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  q.Push(10, EventType::kControlTick, 1);
  q.Push(5, EventType::kControlTick, 0);
  EXPECT_EQ(q.Pop().payload, 0);
  q.Push(7, EventType::kControlTick, 2);
  q.Push(12, EventType::kControlTick, 3);
  std::vector<int64_t> rest;
  while (!q.empty()) rest.push_back(q.Pop().payload);
  EXPECT_EQ(rest, (std::vector<int64_t>{2, 1, 3}));
}

TEST(EventQueueTest, TopPeeksWithoutRemoving) {
  EventQueue q;
  q.Push(3, EventType::kControlTick, 9);
  EXPECT_EQ(q.Top().payload, 9);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, ShouldCompactNeedsManyDeadAndHalfTheHeap) {
  EventQueue q;
  for (int i = 0; i < 200; ++i) q.Push(i, EventType::kControlTick, i);
  for (size_t i = 0; i <= EventQueue::kCompactMinDead; ++i) q.NoteCancelled();
  // 65 tombstones out of 200 events: above the floor but not half the heap.
  EXPECT_FALSE(q.ShouldCompact());
  for (int i = 0; i < 40; ++i) q.NoteCancelled();
  EXPECT_TRUE(q.ShouldCompact());  // 105 * 2 > 200
  EXPECT_EQ(q.cancelled(), 105u);
}

TEST(EventQueueTest, CompactIfDropsDeadAndPreservesLiveOrder) {
  EventQueue q;
  // Interleave live and dead events, with ties at equal timestamps so the
  // FIFO seq tie-break is also exercised across a re-heapify.
  for (int i = 0; i < 100; ++i) {
    q.Push(/*time=*/i / 2, EventType::kControlTick, /*payload=*/i);
  }
  auto dead = [](const Event& e) { return e.payload % 3 == 0; };
  for (int i = 0; i < 100; ++i) {
    if (i % 3 == 0) q.NoteCancelled();
  }
  const size_t removed = q.CompactIf(dead);
  EXPECT_EQ(removed, 34u);
  EXPECT_EQ(q.size(), 66u);
  EXPECT_EQ(q.cancelled(), 0u);  // counter resets with the pass

  std::vector<int64_t> got;
  while (!q.empty()) got.push_back(q.Pop().payload);
  std::vector<int64_t> want;
  for (int i = 0; i < 100; ++i) {
    if (i % 3 != 0) want.push_back(i);  // original (time, seq) order
  }
  EXPECT_EQ(got, want);
}

TEST(EventQueueTest, CompactIfCanEmptyTheQueue) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.Push(i, EventType::kQueryDeadline, i);
  EXPECT_EQ(q.CompactIf([](const Event&) { return true; }), 5u);
  EXPECT_TRUE(q.empty());
  q.Push(1, EventType::kControlTick, 7);  // still usable afterwards
  EXPECT_EQ(q.Pop().payload, 7);
}

TEST(EventQueueTest, RandomPushPopMatchesSortedOrder) {
  // The 4-ary heap against a sorted reference of (time, seq): random
  // interleavings with many time ties, and a compaction pass mid-way.
  Rng rng(4242);
  for (int round = 0; round < 20; ++round) {
    EventQueue q;
    std::vector<std::pair<SimTime, int64_t>> pending;  // (time, payload)
    int64_t next_payload = 0;  // payloads follow push order, like seq
    const int ops = static_cast<int>(rng.UniformInt(1, 600));
    for (int op = 0; op < ops; ++op) {
      if (pending.empty() || rng.UniformInt(0, 2) > 0) {
        const SimTime t = rng.UniformInt(0, 40);
        q.Push(t, EventType::kControlTick, next_payload);
        pending.emplace_back(t, next_payload++);
      } else {
        const auto best = std::min_element(pending.begin(), pending.end());
        ASSERT_EQ(q.Top().payload, best->second);
        const Event e = q.Pop();
        EXPECT_EQ(e.time, best->first);
        EXPECT_EQ(e.payload, best->second);
        pending.erase(best);
      }
      if (op == ops / 2) {
        // Drop odd payloads and re-heapify in O(n).
        q.CompactIf([](const Event& e) { return e.payload % 2 == 1; });
        pending.erase(std::remove_if(pending.begin(), pending.end(),
                                     [](const auto& p) {
                                       return p.second % 2 == 1;
                                     }),
                      pending.end());
      }
      ASSERT_EQ(q.size(), pending.size());
    }
    std::sort(pending.begin(), pending.end());
    for (const auto& [t, payload] : pending) {
      const Event e = q.Pop();
      EXPECT_EQ(e.time, t);
      EXPECT_EQ(e.payload, payload);
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueueTest, PeakSizeIsTheHighWaterMark) {
  EventQueue q;
  EXPECT_EQ(q.peak_size(), 0u);
  for (int i = 0; i < 5; ++i) q.Push(i, EventType::kControlTick, i);
  q.Pop();
  q.Pop();
  q.Push(9, EventType::kControlTick, 9);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.peak_size(), 5u);
}

TEST(EventQueueTest, StagedStreamKeepsTheUpFrontOrder) {
  // A stream pushed one event at a time under reserved sequences pops in
  // the same order as the same stream pushed up front, interleaved with
  // auto-numbered events at equal times.
  const std::vector<SimTime> stream = {0, 2, 2, 5, 5, 5, 9};
  const std::vector<SimTime> others = {2, 5, 7};
  auto drain = [](EventQueue& q, const std::vector<SimTime>& s,
                  uint64_t first_seq, bool staged) {
    std::vector<int64_t> order;
    while (!q.empty()) {
      const Event e = q.Pop();
      if (e.type == EventType::kQueryArrival) {
        const size_t next = static_cast<size_t>(e.payload) + 1;
        if (staged && next < s.size()) {
          q.PushWithSeq(s[next], first_seq + next, EventType::kQueryArrival,
                        static_cast<int64_t>(next));
        }
        order.push_back(e.payload);
      } else {
        order.push_back(100 + e.payload);
      }
    }
    return order;
  };
  EventQueue upfront;
  for (size_t i = 0; i < stream.size(); ++i) {
    upfront.Push(stream[i], EventType::kQueryArrival, static_cast<int64_t>(i));
  }
  for (size_t i = 0; i < others.size(); ++i) {
    upfront.Push(others[i], EventType::kControlTick, static_cast<int64_t>(i));
  }
  EventQueue staged;
  const uint64_t first = staged.ReserveSequences(stream.size());
  EXPECT_EQ(first, 0u);
  staged.PushWithSeq(stream[0], first, EventType::kQueryArrival, 0);
  for (size_t i = 0; i < others.size(); ++i) {
    staged.Push(others[i], EventType::kControlTick, static_cast<int64_t>(i));
  }
  EXPECT_EQ(drain(staged, stream, first, true),
            drain(upfront, stream, first, false));
  EXPECT_LE(staged.peak_size(), 1 + others.size());
}

}  // namespace
}  // namespace unitdb
