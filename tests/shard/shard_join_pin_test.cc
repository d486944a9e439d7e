// Pins the cross-shard join's output: a hash of every joined parent record
// (ShardedResult::queries, in merged resolution order) and of the merged
// RunMetrics, for 2, 4 and 8 shards on a plain, a closed-loop and a faulted
// run, each at jobs 1 and 4. The pinned values were recorded with the
// sort-based join that preceded the merge-ordered one, so a join rewrite
// must keep every record, every fold order and every merged stat bit for
// bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "unit/shard/sharded.h"
#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

/// FNV-1a over the object representation of plain values; doubles hash by
/// bit pattern, so equal hashes mean bit-identical fields. The pins assume
/// a little-endian LP64 target.
class Fnv {
 public:
  template <typename T>
  void Add(const T& v) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001B3ULL;
    }
  }
  void Add(const OutcomeCounts& c) {
    Add(c.submitted);
    Add(c.success);
    Add(c.rejected);
    Add(c.dmf);
    Add(c.dsf);
  }
  void Add(const RunningStat& s) {
    Add(s.count());
    Add(s.sum());
    Add(s.mean());
    Add(s.variance());
    Add(s.min());
    Add(s.max());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

uint64_t HashQueries(const std::vector<ShardQueryRecord>& queries) {
  Fnv h;
  h.Add(queries.size());
  for (const ShardQueryRecord& q : queries) {
    h.Add(q.trace_id);
    h.Add(q.outcome);
    h.Add(q.observed_freshness);
    h.Add(q.commit_time);
    h.Add(q.resolve_time);
    h.Add(q.restarts);
    h.Add(q.preference_class);
    h.Add(q.subqueries);
  }
  return h.value();
}

uint64_t HashMetrics(const ShardedResult& r) {
  const RunMetrics& m = r.metrics;
  Fnv h;
  h.Add(m.counts);
  h.Add(m.per_class_counts.size());
  for (const OutcomeCounts& c : m.per_class_counts) h.Add(c);
  h.Add(m.query_response_s);
  h.Add(m.query_freshness);
  h.Add(m.update_latency_s);
  h.Add(m.session_retry_delay_s);
  h.Add(m.duration_s);
  h.Add(m.busy_s);
  for (int64_t v :
       {m.events_processed, m.events_cancelled, m.txn_live_peak,
        m.txn_slots_created, m.txn_released, m.readset_inline,
        m.readset_spill, m.fault_edges, m.fault_injected_queries,
        m.fault_injected_updates, m.fault_suppressed_updates,
        m.session_requests, m.session_retries, m.session_successes,
        m.session_abandons, m.queries_shed, m.preemptions, m.lock_restarts,
        m.update_commits, m.on_demand_updates, m.updates_generated,
        m.updates_dropped}) {
    h.Add(v);
  }
  h.Add(m.peak_ready_depth);
  for (int64_t v : m.per_item_accesses) h.Add(v);
  for (int64_t v : m.per_item_applied_updates) h.Add(v);
  h.Add(r.usm);
  h.Add(r.cross_shard_queries);
  h.Add(r.subqueries);
  return h.value();
}

enum class Arm { kPlain, kSessions, kFaults };

struct JoinPin {
  int shards;
  Arm arm;
  uint64_t queries_hash;
  uint64_t metrics_hash;
};

const char* ArmName(Arm arm) {
  switch (arm) {
    case Arm::kPlain:
      return "plain";
    case Arm::kSessions:
      return "sessions=4";
    case Arm::kFaults:
      return "faults";
  }
  return "?";
}

void PrintTo(const JoinPin& p, std::ostream* os) {
  *os << "shards" << p.shards << "_" << ArmName(p.arm);
}

std::string PinName(const ::testing::TestParamInfo<JoinPin>& param) {
  const JoinPin& p = param.param;
  const char* arm = p.arm == Arm::kPlain      ? "Plain"
                    : p.arm == Arm::kSessions ? "Sessions4"
                                              : "Faults";
  return "Shards" + std::to_string(p.shards) + arm;
}

class ShardJoinPinTest : public ::testing::TestWithParam<JoinPin> {};

TEST_P(ShardJoinPinTest, QueriesAndMergedMetricsMatchThePin) {
  const JoinPin& pin = GetParam();
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, /*scale=*/0.05,
                                /*seed=*/42);
  ASSERT_TRUE(w.ok());
  const UsmWeights weights{1.0, 0.5, 1.0, 0.5};
  const double dur_s = SimToSeconds(w->duration);

  FaultScenarioSpec scenario;
  scenario.name = "join-pin";
  scenario.seed = 7;
  FaultSpec step;
  step.kind = FaultKind::kLoadStep;
  step.start_s = 0.2 * dur_s;
  step.end_s = 0.5 * dur_s;
  step.rate_hz = 30.0;
  scenario.faults.push_back(step);
  FaultSpec outage;
  outage.kind = FaultKind::kUpdateOutage;
  outage.start_s = 0.4 * dur_s;
  outage.end_s = 0.8 * dur_s;
  outage.items = "*";
  scenario.faults.push_back(outage);

  for (int jobs : {1, 4}) {
    ShardedParams p;
    p.shards = pin.shards;
    p.jobs = jobs;
    if (pin.arm == Arm::kSessions) p.engine.session.sessions = 4;
    if (pin.arm == Arm::kFaults) p.scenario = &scenario;
    auto r = RunSharded(*w, "unit", weights, p);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // The arms exercise what they are named after.
    EXPECT_GT(r->cross_shard_queries, 0);
    if (pin.arm == Arm::kSessions) {
      EXPECT_GT(r->metrics.session_retries, 0);
    }
    if (pin.arm == Arm::kFaults) {
      EXPECT_GT(r->metrics.fault_injected_queries, 0);
      EXPECT_GT(r->metrics.fault_suppressed_updates, 0);
    }
    EXPECT_EQ(HashQueries(r->queries), pin.queries_hash)
        << "jobs=" << jobs << " queries hash 0x" << std::hex
        << HashQueries(r->queries);
    EXPECT_EQ(HashMetrics(*r), pin.metrics_hash)
        << "jobs=" << jobs << " metrics hash 0x" << std::hex
        << HashMetrics(*r);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsByArm, ShardJoinPinTest,
    ::testing::Values(JoinPin{2, Arm::kPlain, 0xC25D9F46CB767496ULL,
                              0xB0FD75B9284ECD05ULL},
                      JoinPin{2, Arm::kSessions, 0xCD3CAD36A2CB0C29ULL,
                              0xABC64619246B16CBULL},
                      JoinPin{2, Arm::kFaults, 0x1AE0D00D1B6AF097ULL,
                              0xA05B1EB92AF808F2ULL},
                      JoinPin{4, Arm::kPlain, 0x8B3F1552F396E465ULL,
                              0xB4E1E83BD36ED140ULL},
                      JoinPin{4, Arm::kSessions, 0x6F8DB8A518D2A80FULL,
                              0xC12206D1D70896E7ULL},
                      JoinPin{4, Arm::kFaults, 0xB565381143141D0CULL,
                              0xBF99DF0281924528ULL},
                      JoinPin{8, Arm::kPlain, 0x4710554A82C6104BULL,
                              0x072D69DB780692DAULL},
                      JoinPin{8, Arm::kSessions, 0x746A639029432B70ULL,
                              0x93A61DB2311C94A4ULL},
                      JoinPin{8, Arm::kFaults, 0xC504373B1255A29CULL,
                              0x0261EECAA91AEF7AULL}),
    PinName);

}  // namespace
}  // namespace unitdb
