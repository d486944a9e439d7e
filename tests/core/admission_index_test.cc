// Equivalence properties of the online admission index: Engine answers both
// admission checks from its treap over live ready queries, ReferenceEngine
// from the naive ready-queue scan, and the two must make bit-identical
// decisions on every arrival — across every Table 1 trace, policy, weight
// setting and C_flex, and on streamed, closed-loop and fault-laden runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "testing/fake_policy.h"
#include "unit/core/admission.h"
#include "unit/faults/scenario.h"
#include "unit/faults/schedule.h"
#include "unit/model/reference_engine.h"
#include "unit/sched/engine.h"
#include "unit/sim/experiment.h"
#include "unit/sim/server.h"
#include "unit/workload/query_source.h"
#include "unit/workload/spec.h"

namespace unitdb {
namespace {

using testing_support::FakePolicy;

const std::vector<ItemId> kOneItem = {0};

const UpdateVolume kVolumes[] = {UpdateVolume::kLow, UpdateVolume::kMedium,
                                 UpdateVolume::kHigh};
const UpdateDistribution kDists[] = {UpdateDistribution::kUniform,
                                     UpdateDistribution::kPositive,
                                     UpdateDistribution::kNegative};

// --- per-arrival oracle equivalence --------------------------------------

struct ProbeLog {
  std::vector<bool> decisions;
  int64_t rejections = 0;
  int64_t nonempty_queue = 0;  ///< decisions taken with queued queries
  int64_t admitted = 0;
  int64_t rejected_by_deadline = 0;
  int64_t rejected_by_usm = 0;
};

/// Runs `w` on engine type `E` under a FakePolicy whose every admission
/// decision comes from a fresh AdmissionController, logging each decision.
template <typename E>
ProbeLog Probe(const Workload& w, double c_flex, const UsmWeights& weights,
               const EngineParams& params, bool expect_index) {
  AdmissionParams ap;
  ap.initial_c_flex = c_flex;
  AdmissionController controller(ap, weights);
  ProbeLog log;
  FakePolicy policy;
  policy.admit = [&](EngineContext& engine, const Transaction& q) {
    EXPECT_EQ(engine.admission_index().enabled(), expect_index);
    const bool a = controller.Admit(engine, q);
    log.decisions.push_back(a);
    if (!a) ++log.rejections;
    if (engine.ReadyQueryCount() > 0) ++log.nonempty_queue;
    return a;
  };
  E engine(w, &policy, params);
  engine.Run();
  log.admitted = controller.admitted();
  log.rejected_by_deadline = controller.rejected_by_deadline();
  log.rejected_by_usm = controller.rejected_by_usm();
  return log;
}

/// Probes `w` on both engines and asserts every decision agrees: Engine
/// decides from its index, ReferenceEngine from the naive scan.
ProbeLog ProbeBoth(const Workload& w, double c_flex, const UsmWeights& weights,
                   const EngineParams& params = {}) {
  const ProbeLog indexed = Probe<Engine>(w, c_flex, weights, params, true);
  const ProbeLog naive =
      Probe<ReferenceEngine>(w, c_flex, weights, params, false);
  EXPECT_EQ(indexed.decisions, naive.decisions);
  EXPECT_EQ(indexed.admitted, naive.admitted);
  EXPECT_EQ(indexed.rejected_by_deadline, naive.rejected_by_deadline);
  EXPECT_EQ(indexed.rejected_by_usm, naive.rejected_by_usm);
  return indexed;
}

void Accumulate(ProbeLog& total, const ProbeLog& s) {
  total.decisions.insert(total.decisions.end(), s.decisions.begin(),
                         s.decisions.end());
  total.rejections += s.rejections;
  total.nonempty_queue += s.nonempty_queue;
}

// The sweep must actually exercise both checks: decisions with a
// non-trivial queue and real rejections, not just vacuous agreement.
void ExpectExercised(const ProbeLog& total) {
  EXPECT_FALSE(total.decisions.empty());
  EXPECT_GT(total.rejections, 0);
  EXPECT_GT(total.nonempty_queue, 0);
}

TEST(AdmissionIndexEquivalenceTest, MatchesNaiveOnEveryArrival) {
  const double c_flexes[] = {0.5, 1.0, 4.0};
  const UsmWeights weight_sets[] = {
      UsmWeights{},                  // naive: unit-cost USM check
      UsmWeights{1.0, 0.5, 1.0, 0.5},  // C_fm > C_r: both checks live
      UsmWeights{1.0, 2.0, 1.0, 0.5},  // C_r > C_fm: deadline check skipped
  };
  ProbeLog total;
  for (UpdateVolume volume : kVolumes) {
    for (UpdateDistribution dist : kDists) {
      auto w = MakeStandardWorkload(volume, dist, /*scale=*/0.02, /*seed=*/42);
      ASSERT_TRUE(w.ok()) << w.status().ToString();
      for (double c_flex : c_flexes) {
        for (const UsmWeights& weights : weight_sets) {
          Accumulate(total, ProbeBoth(*w, c_flex, weights));
        }
      }
    }
  }
  ExpectExercised(total);
}

// Streamed queries have no materialized list: the index keys them as they
// enter the ready queue, exactly like materialized ones.
TEST(AdmissionIndexEquivalenceTest, StreamedArrivalsMatchNaive) {
  QueryTraceParams qp;
  qp.seed = 7;
  qp.duration = SecondsToSim(120.0);
  qp.base_rate_hz = 40.0;
  auto w = MakeStreamingWorkload(qp);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_NE(w->query_source, nullptr);
  ProbeLog total;
  for (double c_flex : {0.5, 1.0}) {
    Accumulate(total, ProbeBoth(*w, c_flex, UsmWeights{1.0, 0.5, 1.0, 0.5}));
  }
  ExpectExercised(total);
}

// Session resubmissions and shedding evictions enter and leave the index
// mid-run with no precomputed slot.
TEST(AdmissionIndexEquivalenceTest, ClosedLoopArrivalsMatchNaive) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform,
                                /*scale=*/0.02, /*seed=*/42);
  ASSERT_TRUE(w.ok());
  EngineParams params;
  params.session.sessions = 8;
  params.shed_watermark = 6;
  ProbeLog total;
  for (double c_flex : {0.5, 4.0}) {
    Accumulate(total,
               ProbeBoth(*w, c_flex, UsmWeights{1.0, 0.5, 1.0, 0.5}, params));
  }
  ExpectExercised(total);
}

// --- full-run equivalence across every policy ----------------------------

/// Asserts two runs of one input reached the same semantic outcome, bit for
/// bit (USM compared exactly, not approximately).
void ExpectSameOutcome(const RunMetrics& a, const RunMetrics& b,
                       const UsmWeights& weights) {
  EXPECT_EQ(a.counts.submitted, b.counts.submitted);
  EXPECT_EQ(a.counts.success, b.counts.success);
  EXPECT_EQ(a.counts.rejected, b.counts.rejected);
  EXPECT_EQ(a.counts.dmf, b.counts.dmf);
  EXPECT_EQ(a.counts.dsf, b.counts.dsf);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.lock_restarts, b.lock_restarts);
  EXPECT_EQ(a.update_commits, b.update_commits);
  EXPECT_EQ(a.fault_injected_queries, b.fault_injected_queries);
  EXPECT_EQ(a.fault_suppressed_updates, b.fault_suppressed_updates);
  EXPECT_EQ(UsmAverage(a.counts, weights), UsmAverage(b.counts, weights));
}

/// Runs `policy` over `w` on Engine and on ReferenceEngine, asserts the same
/// outcome, and returns Engine's metrics.
RunMetrics ExpectEnginesAgree(const Workload& w, const std::string& policy,
                              const UsmWeights& weights,
                              const EngineParams& params = {}) {
  auto p1 = MakePolicy(policy, weights, PolicyOptions{});
  auto p2 = MakePolicy(policy, weights, PolicyOptions{});
  if (!p1.ok() || !p2.ok()) {
    ADD_FAILURE() << "cannot make policy " << policy;
    return {};
  }
  const RunMetrics a = Engine(w, p1->get(), params).Run();
  const RunMetrics b = ReferenceEngine(w, p2->get(), params).Run();
  SCOPED_TRACE(w.update_trace_name + " / " + policy);
  ExpectSameOutcome(a, b, weights);
  return a;
}

TEST(AdmissionIndexEquivalenceTest, FullRunsMatchOnAllTracesAndPolicies) {
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  for (UpdateVolume volume : kVolumes) {
    for (UpdateDistribution dist : kDists) {
      auto w = MakeStandardWorkload(volume, dist, /*scale=*/0.02, /*seed=*/42);
      ASSERT_TRUE(w.ok()) << w.status().ToString();
      for (const char* policy : {"imu", "odu", "qmf", "unit"}) {
        ExpectEnginesAgree(*w, policy, weights);
      }
    }
  }
}

// A burst-plus-outage-plus-load-step schedule: injected queries enter the
// ready queue alongside workload ones, so the index must agree with the
// naive scan while the queue holds a mix of both.
StatusOr<FaultSchedule> StressSchedule(const Workload& w) {
  const double duration_s = SimToSeconds(w.duration);
  auto spec = FaultScenarioSpec::Parse(
      "fault0.kind = load-step\n"
      "fault0.start_s = " + std::to_string(0.25 * duration_s) + "\n"
      "fault0.end_s = " + std::to_string(0.75 * duration_s) + "\n"
      "fault0.rate_hz = 25\n"
      "fault1.kind = update-burst\n"
      "fault1.start_s = " + std::to_string(0.3 * duration_s) + "\n"
      "fault1.end_s = " + std::to_string(0.5 * duration_s) + "\n"
      "fault1.items = *\nfault1.rate_hz = 2\n"
      "fault2.kind = update-outage\n"
      "fault2.start_s = " + std::to_string(0.55 * duration_s) + "\n"
      "fault2.end_s = " + std::to_string(0.7 * duration_s) + "\n"
      "fault2.items = *\n");
  if (!spec.ok()) return spec.status();
  return FaultSchedule::Compile(*spec, w, 42);
}

TEST(AdmissionIndexEquivalenceTest, FaultLadenArrivalsMatchNaive) {
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  ProbeLog total;
  for (UpdateDistribution dist : kDists) {
    auto w = MakeStandardWorkload(UpdateVolume::kMedium, dist,
                                  /*scale=*/0.02, /*seed=*/42);
    ASSERT_TRUE(w.ok());
    auto faults = StressSchedule(*w);
    ASSERT_TRUE(faults.ok()) << faults.status().ToString();
    ASSERT_FALSE(faults->injected_queries().empty());
    EngineParams params;
    params.faults = &*faults;
    for (double c_flex : {0.5, 1.0}) {
      const ProbeLog s = ProbeBoth(*w, c_flex, weights, params);
      // Injected queries face the same admission decision as workload ones.
      EXPECT_GT(s.decisions.size(), w->queries.size());
      Accumulate(total, s);
    }
  }
  ExpectExercised(total);
}

TEST(AdmissionIndexEquivalenceTest, FaultLadenFullRunsMatch) {
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform,
                                /*scale=*/0.02, /*seed=*/42);
  ASSERT_TRUE(w.ok());
  auto faults = StressSchedule(*w);
  ASSERT_TRUE(faults.ok()) << faults.status().ToString();
  EngineParams params;
  params.faults = &*faults;
  for (const char* policy : {"imu", "odu", "qmf", "unit"}) {
    const RunMetrics a = ExpectEnginesAgree(*w, policy, weights, params);
    EXPECT_GT(a.fault_injected_queries, 0) << policy;
  }
}

TEST(AdmissionIndexEquivalenceTest, EventCompactionDoesNotChangeOutcomes) {
  EngineParams compacting;
  EngineParams lazy_only;
  lazy_only.compact_events = false;
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  for (UpdateVolume volume : {UpdateVolume::kMedium, UpdateVolume::kHigh}) {
    auto w = MakeStandardWorkload(volume, UpdateDistribution::kNegative,
                                  /*scale=*/0.05, /*seed=*/42);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    for (const char* policy : {"unit", "qmf"}) {
      auto a = RunExperiment(*w, policy, weights, compacting);
      auto b = RunExperiment(*w, policy, weights, lazy_only);
      ASSERT_TRUE(a.ok() && b.ok());
      SCOPED_TRACE(w->update_trace_name + " / " + policy);
      ExpectSameOutcome(a->metrics, b->metrics, weights);
      EXPECT_EQ(a->usm, b->usm);
      // Tombstones accumulate either way; only the compacting run removes
      // them from the heap.
      EXPECT_GT(a->metrics.events_cancelled, 0);
      EXPECT_EQ(a->metrics.events_cancelled, b->metrics.events_cancelled);
      EXPECT_EQ(b->metrics.events_compacted, 0);
      EXPECT_LE(a->metrics.events_processed, b->metrics.events_processed);
    }
  }
}

TEST(AdmissionIndexTest, DisabledUnderFcfsDispatch) {
  auto w = MakeStandardWorkload(UpdateVolume::kLow, UpdateDistribution::kUniform,
                                /*scale=*/0.01, /*seed=*/42);
  ASSERT_TRUE(w.ok());
  FakePolicy policy;
  EngineParams params;
  params.discipline = QueueDiscipline::kFcfs;
  Engine engine(*w, &policy, params);
  EXPECT_FALSE(engine.admission_index().enabled());
  engine.Run();  // and the run itself stays well-formed
}

// Every EDF run uses the index — streamed and closed-loop ones included —
// and it holds live ready queries only, so it drains to empty by the end.
TEST(AdmissionIndexTest, EnabledOnStreamedAndClosedLoopRuns) {
  QueryTraceParams qp;
  qp.seed = 11;
  qp.duration = SecondsToSim(60.0);
  qp.base_rate_hz = 30.0;
  auto w = MakeStreamingWorkload(qp);
  ASSERT_TRUE(w.ok());
  for (int sessions : {0, 6}) {
    EngineParams params;
    params.session.sessions = sessions;
    AdmissionController controller(AdmissionParams{},
                                   UsmWeights{1.0, 0.5, 1.0, 0.5});
    FakePolicy policy;
    int64_t peak = 0;
    policy.admit = [&](EngineContext& engine, const Transaction& q) {
      peak = std::max(peak, engine.admission_index().occupied());
      EXPECT_EQ(engine.admission_index().occupied(),
                engine.ReadyQueryCount());
      return controller.Admit(engine, q);
    };
    Engine engine(*w, &policy, params);
    EXPECT_TRUE(engine.admission_index().enabled());
    engine.Run();
    EXPECT_GT(peak, 0);
    EXPECT_EQ(engine.admission_index().occupied(), 0);
    EXPECT_GT(engine.admission_index().nodes_visited(), 0);
  }
}

// --- deterministic cost: nodes visited per Admit grow with log n ---------

/// Average index nodes visited by one Admit when the ready queue holds
/// between `depth` and `depth + kProbes - 1` queries. A head query pins the
/// CPU; every later arrival queues behind it (its deadline is later), so
/// arrival k + 1 sees ready depth k.
double NodesPerAdmit(int depth) {
  constexpr int kProbes = 64;
  const int n = depth + kProbes;
  std::mt19937_64 rng(20261019);
  Workload w;
  w.num_items = 4;
  w.duration = SecondsToSim(100000.0);
  QueryRequest head;
  head.id = 0;
  head.arrival = 0;
  head.exec = SecondsToSim(50000.0);
  head.relative_deadline = SecondsToSim(50001.0);
  head.freshness_req = 0.0;
  head.items = {0};
  w.queries.push_back(head);
  for (int i = 1; i <= n; ++i) {
    QueryRequest q;
    q.id = i;
    q.arrival = MillisToSim(static_cast<double>(i));
    q.exec = MillisToSim(1.0 + static_cast<double>(rng() % 4));
    // Deadlines spread over 40000 s: lags stay far apart relative to the
    // candidate's endangered window, as under any non-saturated load.
    q.relative_deadline =
        SecondsToSim(50010.0 + static_cast<double>(rng() % 40000000) / 1000.0) -
        q.arrival;
    q.freshness_req = 0.0;
    q.items = {static_cast<ItemId>(i % 4)};
    w.queries.push_back(q);
  }
  AdmissionController controller(AdmissionParams{},
                                 UsmWeights{1.0, 0.5, 1.0, 0.5});
  FakePolicy policy;
  policy.periodic_updates = false;
  int64_t visited = 0;
  int probes = 0;
  policy.admit = [&](EngineContext& engine, const Transaction& q) {
    const AdmissionIndex& index = engine.admission_index();
    const int64_t before = index.nodes_visited();
    controller.Admit(engine, q);
    if (engine.ReadyQueryCount() >= depth) {
      visited += index.nodes_visited() - before;
      ++probes;
    }
    return true;  // keep growing the queue
  };
  Engine engine(w, &policy, EngineParams{});
  engine.Run();
  EXPECT_EQ(probes, kProbes);
  return static_cast<double>(visited) / std::max(probes, 1);
}

TEST(AdmissionIndexTest, NodesVisitedPerAdmitGrowLogarithmically) {
  const double at_n = NodesPerAdmit(512);
  const double at_4n = NodesPerAdmit(2048);
  EXPECT_GT(at_n, 0.0);
  // A scan would add 3n = 1536 visits; a balanced tree adds a few per
  // root-to-leaf walk, times log2(4) = 2 extra levels.
  EXPECT_LE(at_4n - at_n, 12.0 * std::log2(4.0)) << at_n << " -> " << at_4n;
}

// --- randomized structural check against brute force ---------------------

TEST(AdmissionIndexTest, RandomizedMatchesBruteForce) {
  std::mt19937_64 rng(20260805);
  const int kQueries = 200;

  std::vector<Transaction> txns;
  txns.reserve(kQueries);
  SimTime arrival = 0;
  for (int i = 0; i < kQueries; ++i) {
    arrival += static_cast<SimTime>(rng() % MillisToSim(50));
    const SimDuration exec =
        1 + static_cast<SimDuration>(rng() % MillisToSim(200));
    // Odd queries take an arbitrary relative deadline in (0, 2 s]; even
    // ones an absolute deadline on a 100 ms grid, so equal-deadline ties
    // (broken by id) are common.
    SimDuration relative_deadline =
        1 + static_cast<SimDuration>(rng() % SecondsToSim(2.0));
    if (i % 2 == 0) {
      const SimTime grid = MillisToSim(100);
      relative_deadline =
          grid * (arrival / grid + 1 + static_cast<SimTime>(rng() % 20)) -
          arrival;
    }
    txns.push_back(Transaction::MakeQuery(i, arrival, exec, relative_deadline,
                                          0.9, kOneItem));
  }

  AdmissionIndex index;
  index.Init(Workload{});
  ASSERT_TRUE(index.enabled());

  std::vector<bool> queued(kQueries, false);
  // Reference answers come from re-simulating the naive scan over the queued
  // set in EDF (deadline, id) order.
  auto brute = [&](SimTime d, int64_t lo, int64_t hi, SimDuration* earlier,
                   int64_t* later_count) -> int64_t {
    std::vector<const Transaction*> later;
    *earlier = 0;
    for (int i = 0; i < kQueries; ++i) {
      if (!queued[i]) continue;
      if (txns[i].absolute_deadline() <= d) {
        *earlier += txns[i].remaining();
      } else {
        later.push_back(&txns[i]);
      }
    }
    std::sort(later.begin(), later.end(),
              [](const Transaction* a, const Transaction* b) {
                if (a->absolute_deadline() != b->absolute_deadline())
                  return a->absolute_deadline() < b->absolute_deadline();
                return a->id() < b->id();
              });
    *later_count = static_cast<int64_t>(later.size());
    int64_t prefix = 0;
    int64_t endangered = 0;
    for (const Transaction* t : later) {
      prefix += t->remaining();
      const int64_t m = t->absolute_deadline() - prefix;
      if (m >= lo && m < hi) ++endangered;
    }
    return endangered;
  };

  int64_t live = 0;
  for (int step = 0; step < 3000; ++step) {
    const int i = static_cast<int>(rng() % kQueries);
    if (queued[i]) {
      index.OnRemove(txns[i]);
      EXPECT_EQ(txns[i].admission_node(), -1);
      queued[i] = false;
      --live;
    } else {
      // Remaining work only changes while a query is out of the queue.
      txns[i].set_remaining(1 + static_cast<SimDuration>(
                                    rng() % txns[i].exec_time()));
      index.OnInsert(txns[i]);
      EXPECT_GE(txns[i].admission_node(), 0);
      queued[i] = true;
      ++live;
    }
    ASSERT_EQ(index.occupied(), live);

    // Probe with a deadline near a random query's and a random lag window.
    const int probe = static_cast<int>(rng() % kQueries);
    const SimTime d = txns[probe].absolute_deadline() +
                      static_cast<SimTime>(rng() % MillisToSim(10)) -
                      MillisToSim(5);
    const int64_t lo = static_cast<int64_t>(rng() % SecondsToSim(3.0));
    const int64_t hi = lo + 1 + static_cast<int64_t>(rng() % SecondsToSim(1.0));
    SimDuration want_earlier = 0;
    int64_t want_later = 0;
    const int64_t want_endangered = brute(d, lo, hi, &want_earlier, &want_later);
    ASSERT_EQ(index.EarlierWork(d), want_earlier) << "step " << step;
    ASSERT_EQ(index.LaterCount(d), want_later) << "step " << step;
    ASSERT_EQ(index.CountEndangered(d, lo, hi), want_endangered)
        << "step " << step << " d=" << d << " lo=" << lo << " hi=" << hi;
  }
}

// Equal deadlines order by txn id (arrival order), exactly the ready queue's
// EDF tie-break: that order decides each query's prefix work, hence its lag.
TEST(AdmissionIndexTest, RanksFollowDeadlineThenArrivalOrder) {
  // Arrivals 0,1,2,3 with absolute deadlines 5s, 2s, 5s, 1s; queries 0 and
  // 2 tie on deadline and differ in remaining work.
  const double deadlines_s[] = {5.0, 2.0, 5.0, 1.0};
  const SimDuration work[] = {MillisToSim(30), MillisToSim(10),
                              MillisToSim(70), MillisToSim(20)};
  std::vector<Transaction> txns;
  for (int i = 0; i < 4; ++i) {
    const SimTime arrival = SecondsToSim(static_cast<double>(i) * 0.1);
    txns.push_back(Transaction::MakeQuery(
        i, arrival, work[i], SecondsToSim(deadlines_s[i]) - arrival, 0.9,
        kOneItem));
  }
  AdmissionIndex index;
  index.Init(Workload{});
  // Insertion order must not matter: insert the later-id tie first.
  for (int i : {2, 3, 0, 1}) index.OnInsert(txns[i]);
  EXPECT_EQ(index.occupied(), 4);

  EXPECT_EQ(index.EarlierWork(SecondsToSim(1.0)), work[3]);
  EXPECT_EQ(index.EarlierWork(SecondsToSim(2.0)), work[3] + work[1]);
  EXPECT_EQ(index.LaterCount(SecondsToSim(2.0)), 2);
  EXPECT_EQ(index.LaterCount(SecondsToSim(5.0)), 0);

  // Past a 2 s cut, (5s, id 0) precedes (5s, id 2): lags are 5s - 30ms and
  // 5s - 100ms. The reverse order would give 5s - 70ms and 5s - 100ms.
  const SimTime five = SecondsToSim(5.0);
  const SimTime cut = SecondsToSim(2.0);
  EXPECT_EQ(index.CountEndangered(cut, five - work[0], five - work[0] + 1), 1);
  EXPECT_EQ(index.CountEndangered(cut, five - work[2], five - work[2] + 1), 0);
  EXPECT_EQ(index.CountEndangered(cut, five - work[0] - work[2],
                                  five - work[0] - work[2] + 1),
            1);

  index.OnRemove(txns[0]);
  // Query 2 now leads the tie: its lag is 5s - 70ms.
  EXPECT_EQ(index.CountEndangered(cut, five - work[2], five - work[2] + 1), 1);
}

}  // namespace
}  // namespace unitdb
