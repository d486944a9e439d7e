#include "unit/sim/experiment.h"

#include <gtest/gtest.h>

#include <utility>

#include "unit/sched/engine.h"
#include "unit/shard/sharded.h"
#include "unit/sim/server.h"

namespace unitdb {
namespace {

TEST(MakeStandardWorkloadTest, RejectsBadScale) {
  EXPECT_FALSE(MakeStandardWorkload(UpdateVolume::kLow,
                                    UpdateDistribution::kUniform, 0.0)
                   .ok());
  EXPECT_FALSE(MakeStandardWorkload(UpdateVolume::kLow,
                                    UpdateDistribution::kUniform, -1.0)
                   .ok());
}

TEST(MakeStandardWorkloadTest, ScaleShortensTheTrace) {
  auto full = MakeStandardWorkload(UpdateVolume::kLow,
                                   UpdateDistribution::kUniform, 0.2, 5);
  auto tenth = MakeStandardWorkload(UpdateVolume::kLow,
                                    UpdateDistribution::kUniform, 0.02, 5);
  ASSERT_TRUE(full.ok() && tenth.ok());
  EXPECT_EQ(full->duration, 10 * tenth->duration);
  EXPECT_GT(full->queries.size(), tenth->queries.size());
}

TEST(MakeStandardWorkloadTest, NamesTheTrace) {
  auto w = MakeStandardWorkload(UpdateVolume::kHigh,
                                UpdateDistribution::kPositive, 0.05, 5);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->update_trace_name, "high-pos");
  EXPECT_EQ(w->query_trace_name, "cello-like");
}

TEST(RunReplicatedTest, AggregatesSeveralSeeds) {
  auto r = RunReplicated(UpdateVolume::kLow, UpdateDistribution::kUniform,
                         "imu", UsmWeights{}, /*replications=*/3,
                         /*scale=*/0.05);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->replications, 3);
  EXPECT_EQ(r->usm.count(), 3);
  EXPECT_EQ(r->trace, "low-unif");
  EXPECT_EQ(r->policy, "imu");
  EXPECT_GT(r->usm.mean(), 0.0);
  EXPECT_LE(r->usm.max(), 1.0);
  // Different seeds => (almost surely) different workloads => spread.
  EXPECT_GT(r->usm.max() - r->usm.min(), 0.0);
  // Ratio means stay consistent with each other.
  EXPECT_NEAR(r->success_ratio.mean() + r->rejection_ratio.mean() +
                  r->dmf_ratio.mean() + r->dsf_ratio.mean(),
              1.0, 1e-9);
}

TEST(RunReplicatedTest, RejectsBadInputs) {
  EXPECT_FALSE(RunReplicated(UpdateVolume::kLow,
                             UpdateDistribution::kUniform, "imu",
                             UsmWeights{}, 0)
                   .ok());
  EXPECT_FALSE(RunReplicated(UpdateVolume::kLow,
                             UpdateDistribution::kUniform, "no-such-policy",
                             UsmWeights{}, 1, 0.05)
                   .ok());
}

TEST(RunReplicatedTest, EngineParamsPropagate) {
  EngineParams fcfs;
  fcfs.discipline = QueueDiscipline::kFcfs;
  auto edf = RunReplicated(UpdateVolume::kMedium,
                           UpdateDistribution::kUniform, "imu", UsmWeights{},
                           2, 0.1);
  auto fcfs_r = RunReplicated(UpdateVolume::kMedium,
                              UpdateDistribution::kUniform, "imu",
                              UsmWeights{}, 2, 0.1, 42, fcfs);
  ASSERT_TRUE(edf.ok() && fcfs_r.ok());
  // Firm deadlines + overload: EDF completes at least as much as FCFS.
  EXPECT_GE(edf->usm.mean(), fcfs_r->usm.mean());
}

// Three queries with the second and third out of arrival order.
Workload UnsortedTrace() {
  Workload w;
  w.num_items = 4;
  w.duration = SecondsToSim(10.0);
  const double arrivals_s[] = {1.0, 3.0, 2.0};
  for (int i = 0; i < 3; ++i) {
    QueryRequest q;
    q.id = i;
    q.arrival = SecondsToSim(arrivals_s[i]);
    q.exec = MillisToSim(10.0);
    q.relative_deadline = SecondsToSim(1.0);
    q.items = {static_cast<ItemId>(i)};
    w.queries.push_back(q);
  }
  return w;
}

TEST(ArrivalOrderTest, UnsortedTraceIsRejectedBeforeItRuns) {
  Workload w = UnsortedTrace();
  EXPECT_EQ(CheckArrivalOrder(w).code(), StatusCode::kInvalidArgument);
  Server::Config cfg;
  cfg.policy = "unit";
  EXPECT_EQ(Server::Create(w, cfg).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunExperiment(w, "unit", UsmWeights{}).status().code(),
            StatusCode::kInvalidArgument);
  for (int shards : {1, 2}) {
    ShardedParams sp;
    sp.shards = shards;
    EXPECT_EQ(RunSharded(w, "unit", UsmWeights{}, sp).status().code(),
              StatusCode::kInvalidArgument)
        << "shards=" << shards;
  }

  // Equal arrival times are in order; the sorted trace runs.
  std::swap(w.queries[1], w.queries[2]);
  w.queries[2].arrival = w.queries[1].arrival;
  EXPECT_TRUE(CheckArrivalOrder(w).ok());
  EXPECT_TRUE(Server::Create(w, cfg).ok());
  ShardedParams sp;
  sp.shards = 2;
  EXPECT_TRUE(RunSharded(w, "unit", UsmWeights{}, sp).ok());
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
TEST(ArrivalOrderDeathTest, EngineAssertsOnAnUnsortedTrace) {
  const Workload w = UnsortedTrace();
  auto policy = MakePolicy("unit", UsmWeights{}, PolicyOptions{});
  ASSERT_TRUE(policy.ok());
  EXPECT_DEATH(
      {
        Engine engine(w, policy->get(), EngineParams{});
        engine.Run();
      },
      "sorted by time");
}
#endif

}  // namespace
}  // namespace unitdb
