#include "workloads.h"

#include <algorithm>
#include <sstream>

#include "unit/workload/query_source.h"

namespace perfbench {

using unitdb::UpdateDistribution;
using unitdb::UpdateTraceParams;
using unitdb::UpdateVolume;

namespace {

UpdateTraceParams Updates(UpdateVolume volume, UpdateDistribution dist) {
  UpdateTraceParams p;
  p.volume = volume;
  p.distribution = dist;
  return p;
}

/// Adds `replications` independent inputs with update sources `u`, each run
/// under every policy in `policies` at every shard count in `shards` (0:
/// one engine; k >= 1: RunSharded with k shards on k jobs).
void AddInputs(WorkloadDef& d, const UpdateTraceParams& u, int replications,
               const std::vector<std::string>& policies,
               const std::vector<int>& shards = {0}) {
  for (int r = 0; r < replications; ++r) {
    const int input = static_cast<int>(d.updates.size());
    d.updates.push_back(u);
    std::ostringstream trace;
    trace << unitdb::UpdateTraceName(u);
    if (replications > 1) trace << "#" << r;
    for (const std::string& policy : policies) {
      for (int k : shards) {
        std::ostringstream label;
        label << trace.str() << "/" << policy;
        if (k > 0) label << "/sh" << k;
        d.cells.push_back({label.str(), input, policy, k, std::max(k, 1)});
      }
    }
  }
}

// Horizons and replication counts are the benchmark's own. A round takes
// 1.5 to 4 s on a 4-core machine, so a 25 s run repeats six or more rounds
// and their median rides out the machine's timing noise; independent
// replications, rather than longer horizons, keep the seed-to-seed spread
// small where a longer input would only grow the round. stream-overload
// keeps one long input: its goodput settles only after the first ~1000 s.
std::vector<WorkloadDef> Build() {
  const std::vector<std::string> paper_policies = {"imu", "odu", "qmf",
                                                   "unit"};
  std::vector<WorkloadDef> defs;
  {
    // The paper's evaluation: cello-like MMPP trace (5 Hz base, Zipf 1.3
    // over 1024 items) under four of Table 1's update traces and the four
    // policies of Section 5.
    WorkloadDef d;
    d.name = "paper-table1";
    d.horizon_s = 4000.0;
    d.prefix_s = 400.0;
    for (const UpdateTraceParams& u :
         {Updates(UpdateVolume::kLow, UpdateDistribution::kUniform),
          Updates(UpdateVolume::kMedium, UpdateDistribution::kUniform),
          Updates(UpdateVolume::kHigh, UpdateDistribution::kNegative),
          Updates(UpdateVolume::kHigh, UpdateDistribution::kPositive)}) {
      AddInputs(d, u, 1, paper_policies);
    }
    defs.push_back(d);
  }
  {
    // Streamed stationary Poisson overload: 80 Hz over 1024 items.
    WorkloadDef d;
    d.name = "stream-overload";
    d.horizon_s = 3000.0;
    d.prefix_s = 30.0;
    d.streamed = true;
    d.queries.base_rate_hz = 80.0;
    d.queries.burst_rate_multiplier = 1.0;
    AddInputs(d, Updates(UpdateVolume::kMedium, UpdateDistribution::kUniform),
              1, {"unit", "qmf"});
    defs.push_back(d);
  }
  {
    // Wide materialized Poisson trace run through the shard layer.
    WorkloadDef d;
    d.name = "shard-wide";
    d.horizon_s = 1500.0;
    d.prefix_s = 20.0;
    d.queries.num_items = 4096;
    d.queries.base_rate_hz = 160.0;
    d.queries.burst_rate_multiplier = 1.0;
    AddInputs(d, Updates(UpdateVolume::kMedium, UpdateDistribution::kUniform),
              2, {"unit"}, {1, 4});
    defs.push_back(d);
  }
  {
    // Closed loop with the result cache, sessions, shedding and faults.
    WorkloadDef d;
    d.name = "closed-loop-cache";
    d.horizon_s = 2500.0;
    d.prefix_s = 60.0;
    d.queries.base_rate_hz = 40.0;
    AddInputs(d, Updates(UpdateVolume::kMedium, UpdateDistribution::kUniform),
              6, {"unit"});
    d.engine.cache.capacity = 64;
    d.engine.session.sessions = 24;
    d.engine.session.patience = unitdb::SecondsToSim(2.0);
    d.engine.shed_watermark = 8;
    d.faults = true;
    defs.push_back(d);
  }
  return defs;
}

}  // namespace

const std::vector<WorkloadDef>& AllWorkloads() {
  static const std::vector<WorkloadDef> defs = Build();
  return defs;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& d : AllWorkloads()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

unitdb::UsmWeights Weights() { return unitdb::UsmWeights{1.0, 0.5, 1.0, 0.5}; }

unitdb::StatusOr<unitdb::Workload> MakeInput(const WorkloadDef& def, int index,
                                             uint64_t seed, double horizon_s) {
  // Every input draws its query trace and its update sources from seeds
  // of its own, so inputs are independent samples of the traffic.
  const uint64_t input_seed = seed * 16 + static_cast<uint64_t>(index);
  unitdb::QueryTraceParams q = def.queries;
  q.seed = input_seed;
  q.duration = unitdb::SecondsToSim(horizon_s);
  auto w = def.streamed ? unitdb::MakeStreamingWorkload(q)
                        : unitdb::GenerateQueryTrace(q);
  if (!w.ok()) return w.status();
  UpdateTraceParams u = def.updates[index];
  u.seed = input_seed + 8;
  if (unitdb::Status s = unitdb::GenerateUpdateTrace(u, *w); !s.ok()) return s;
  return w;
}

unitdb::StatusOr<unitdb::FaultScenarioSpec> FaultScenario(double horizon_s) {
  std::ostringstream spec;
  spec << "name = step-then-outage\n"
       << "fault0.kind = load-step\n"
       << "fault0.start_s = " << 0.3 * horizon_s << "\n"
       << "fault0.end_s = " << 0.45 * horizon_s << "\n"
       << "fault0.rate_hz = 20\n"
       << "fault1.kind = update-outage\n"
       << "fault1.start_s = " << 0.5 * horizon_s << "\n"
       << "fault1.end_s = " << 0.65 * horizon_s << "\n"
       << "fault1.items = 0-63\n";
  return unitdb::FaultScenarioSpec::Parse(spec.str());
}

}  // namespace perfbench
