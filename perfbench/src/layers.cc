#include "layers.h"

#include <algorithm>
#include <chrono>
#include <deque>

#include "unit/common/rng.h"
#include "unit/core/admission.h"
#include "unit/core/lottery.h"
#include "unit/core/update_modulation.h"
#include "unit/db/database.h"
#include "unit/sched/event_queue.h"
#include "unit/sched/ready_queue.h"
#include "unit/txn/transaction.h"
#include "unit/workload/query_source.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Work that a timed loop hands back, so the compiler cannot drop it.
volatile int64_t g_sink = 0;

}  // namespace

double TimeAdmissionInit(const unitdb::Workload& w) {
  std::vector<double> t;
  for (int rep = 0; rep < 3; ++rep) {
    unitdb::AdmissionIndex index;
    const auto t0 = Clock::now();
    index.Init(w);
    t.push_back(Since(t0));
    g_sink = g_sink + index.occupied();
  }
  std::sort(t.begin(), t.end());
  return t[1];
}

double TimeAttachSources(const std::vector<const unitdb::Workload*>& dbs) {
  double total = 0.0;
  for (const unitdb::Workload* w : dbs) {
    unitdb::Database db(w->num_items);
    db.SetSourceHorizon(w->duration);
    if (!db.ApplySpecs(w->updates).ok()) continue;
    unitdb::UpdateModulator modulator(w->num_items, {});
    const auto t0 = Clock::now();
    modulator.AttachSources(db);
    total += Since(t0);
    g_sink = g_sink + modulator.sampler().eligible_count();
  }
  return total;
}

double TimeLotteryNs(int num_items, uint64_t seed) {
  constexpr int kPairs = 400000;
  unitdb::LotterySampler sampler(num_items);
  unitdb::Rng rng(seed);
  for (int i = 0; i < num_items; ++i) sampler.SetTicket(i, rng.NextDouble());
  int64_t picked = 0;
  const auto t0 = Clock::now();
  for (int k = 0; k < kPairs; ++k) {
    const int item = static_cast<int>(rng.UniformInt(0, num_items - 1));
    sampler.SetTicket(item, rng.NextDouble());
    picked += sampler.Sample(rng);
  }
  const double s = Since(t0);
  g_sink = g_sink + picked;
  return s * 1e9 / kPairs;
}

double TimeEventQueueNs(const unitdb::Workload& w) {
  std::vector<unitdb::SimTime> times;
  if (w.query_source != nullptr) {
    auto cursor = w.query_source->NewCursor();
    unitdb::QueryRequest q;
    while (cursor->Next(&q)) times.push_back(q.arrival);
  } else {
    for (const unitdb::QueryRequest& q : w.queries) times.push_back(q.arrival);
  }
  for (const unitdb::ItemUpdateSpec& u : w.updates) {
    const int64_t n = unitdb::SourceGenerationCount(u, w.duration);
    for (int64_t k = 0; k < n; ++k) {
      times.push_back(u.phase + k * u.ideal_period);
    }
  }
  std::vector<double> per_op;
  for (int rep = 0; rep < 3; ++rep) {
    unitdb::EventQueue queue;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < times.size(); ++i) {
      queue.Push(times[i], unitdb::EventType::kQueryArrival,
                 static_cast<int64_t>(i));
    }
    int64_t sum = 0;
    while (!queue.empty()) sum += queue.Pop().payload;
    const size_t ops = 2 * std::max<size_t>(1, times.size());
    per_op.push_back(Since(t0) * 1e9 / static_cast<double>(ops));
    g_sink = g_sink + sum;
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[1];
}

double TimeReadyQueueNs(int depth, uint64_t seed) {
  constexpr int kBatch = 4096;
  constexpr int kBatches = 100;
  depth = std::max(depth, 1);
  const std::vector<unitdb::ItemId> items = {0};
  unitdb::Rng rng(seed);
  unitdb::TxnId next_id = 0;
  unitdb::SimTime now = 0;
  // A query arriving now with a deadline up to 10 s out, as in the traces.
  auto make = [&]() {
    now += unitdb::MillisToSim(1.0);
    return unitdb::Transaction::MakeQuery(
        next_id++, now, unitdb::MillisToSim(20.0),
        unitdb::MillisToSim(rng.Uniform(10.0, 10000.0)), 0.9, items);
  };
  auto arm = [&](unitdb::Transaction* t) { *t = make(); };
  std::deque<unitdb::Transaction> pool;
  for (int i = 0; i < depth + kBatch; ++i) pool.push_back(make());
  std::vector<unitdb::Transaction*> fresh;
  unitdb::ReadyQueue queue;
  for (unitdb::Transaction& t : pool) {
    if (queue.size() < depth) {
      queue.Insert(&t);
    } else {
      fresh.push_back(&t);
    }
  }
  // Each timed batch pops the top and inserts a freshly armed query, so the
  // queue stays at `depth`; popped transactions are re-armed between
  // batches, outside the timer.
  double seconds = 0.0;
  std::vector<unitdb::Transaction*> popped;
  for (int b = 0; b < kBatches; ++b) {
    popped.clear();
    const auto t0 = Clock::now();
    for (unitdb::Transaction* t : fresh) {
      popped.push_back(queue.PopTop());
      queue.Insert(t);
    }
    seconds += Since(t0);
    for (unitdb::Transaction* t : popped) arm(t);
    fresh.swap(popped);
  }
  g_sink = g_sink + queue.size();
  return seconds * 1e9 / (2.0 * kBatch * kBatches);
}

}  // namespace perfbench
