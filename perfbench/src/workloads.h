// The benchmark's four workloads: how each one's inputs are generated from
// the run seed, which cells (policy x input x shard count) one round runs,
// and the engine knobs every cell shares.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "unit/common/status.h"
#include "unit/core/usm.h"
#include "unit/faults/scenario.h"
#include "unit/sched/engine_context.h"
#include "unit/workload/query_trace.h"
#include "unit/workload/spec.h"
#include "unit/workload/update_trace.h"

namespace perfbench {

/// One operation of a round: an engine run of one input under one policy
/// through unitdb::Server (shards == 0), or a RunSharded run of it
/// (shards >= 1).
struct Cell {
  std::string label;
  int input = 0;  ///< index into WorkloadDef::updates
  std::string policy;
  int shards = 0;
  int jobs = 1;
};

struct WorkloadDef {
  std::string name;
  /// Simulated seconds of every input.
  double horizon_s = 0.0;
  /// Simulated seconds of the prefix replayed through the differential
  /// oracle.
  double prefix_s = 0.0;
  /// Query side streams on demand (MakeStreamingWorkload) instead of being
  /// materialized.
  bool streamed = false;
  /// Query trace of every input; seed and duration are set per input.
  unitdb::QueryTraceParams queries;
  /// One input per entry: a query trace of its own plus these update
  /// sources.
  std::vector<unitdb::UpdateTraceParams> updates;
  std::vector<Cell> cells;
  /// Engine knobs of every cell (observability and fault hooks unset).
  unitdb::EngineParams engine;
  /// Compile FaultScenario(horizon) against each input and attach it.
  bool faults = false;
};

const std::vector<WorkloadDef>& AllWorkloads();
/// nullptr for an unknown name.
const WorkloadDef* FindWorkload(const std::string& name);

/// Paper-style penalty weights every cell is valued with.
unitdb::UsmWeights Weights();

/// Input `index` of `def` at `horizon_s` for run seed `seed`: its own query
/// trace plus its update sources.
unitdb::StatusOr<unitdb::Workload> MakeInput(const WorkloadDef& def, int index,
                                             uint64_t seed, double horizon_s);

/// Load step followed by an update outage on the hottest items, with
/// windows placed as fractions of `horizon_s`.
unitdb::StatusOr<unitdb::FaultScenarioSpec> FaultScenario(double horizon_s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
