// Correctness checks the benchmark applies to the program's outputs, each
// computed apart from the program: Eq. 5 USM and outcome conservation from
// the outcome counts, session conservation, the trace invariants, and the
// differential oracle on a prefix of every workload.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "unit/obs/trace_event.h"
#include "unit/obs/trace_sink.h"
#include "unit/sched/metrics.h"
#include "unit/shard/sharded.h"
#include "workloads.h"

namespace perfbench {

/// Eq. 5 average USM with the benchmark's own arithmetic: the weights are
/// whole quarters, so the weighted total is an exact integer and a single
/// division rounds it.
double IndependentUsm(const unitdb::OutcomeCounts& c,
                      const unitdb::UsmWeights& w);

/// Checks one engine or sharded run. `workload_queries` is the input's
/// query count; `usm` is the USM the program reported; `sharded` is the
/// sharded result (null for an engine run). Returns one line per failed
/// check.
std::vector<std::string> CheckRun(const WorkloadDef& def,
                                  const unitdb::RunMetrics& m,
                                  int64_t workload_queries, double usm,
                                  const unitdb::ShardedResult* sharded);

/// Whether two runs of the same input agree on every semantic field (the
/// outcome counts, the committed-query statistics and the CPU busy time),
/// bit for bit.
bool SameSemantics(const unitdb::RunMetrics& a, const unitdb::RunMetrics& b);

inline constexpr int kTraceKinds =
    static_cast<int>(unitdb::TraceEventType::kCacheInvalidate) + 1;

/// Per-kind event counts of the traced run.
struct TraceTally {
  std::array<int64_t, kTraceKinds> kinds{};
  int64_t events = 0;

  void Add(const unitdb::TraceEvent& e) {
    ++kinds[static_cast<int>(e.type)];
    ++events;
  }
  int64_t of(unitdb::TraceEventType t) const {
    return kinds[static_cast<int>(t)];
  }
};

/// Trace sink that keeps every event of one engine run in memory, for
/// CheckTrace and the per-kind tally.
class CollectingSink final : public unitdb::TraceSink {
 public:
  void Emit(const unitdb::TraceEvent& e) override { events_.push_back(e); }
  const std::vector<unitdb::TraceEvent>& events() const { return events_; }

 private:
  std::vector<unitdb::TraceEvent> events_;
};

/// Runs CheckTrace (invariants 1-8) over `events` and tallies them into
/// `tally`; returns a description of the violations, empty when none.
std::string CheckEvents(const std::vector<unitdb::TraceEvent>& events,
                        TraceTally* tally);

/// Reads the per-shard JSONL traces a sharded run wrote into `dir`, checks
/// each with CheckEvents and removes the directory.
std::string CheckShardTraces(const std::string& dir, int shards,
                             TraceTally* tally);

/// One differential or property check on a workload's prefix.
struct DiffCheck {
  std::string name;
  std::string failure;  ///< empty when the check passed
};

/// Replays the first `def.prefix_s` simulated seconds of every input of
/// `def` through the differential oracle (optimized engine against the
/// naive ReferenceEngine, same policy and knobs) for every cell, plus the
/// workload's property checks: streamed == materialized (streamed inputs),
/// shards=1 == monolithic and jobs-invariance (sharded cells).
unitdb::StatusOr<std::vector<DiffCheck>> DifferentialChecks(
    const WorkloadDef& def, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
