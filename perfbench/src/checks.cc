#include "checks.h"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "unit/faults/schedule.h"
#include "unit/model/diff.h"
#include "unit/obs/trace_check.h"
#include "unit/obs/trace_reader.h"
#include "unit/sim/server.h"
#include "unit/workload/query_source.h"

namespace perfbench {

using unitdb::OutcomeCounts;
using unitdb::RunMetrics;

namespace {

int64_t Quarters(double w) {
  const double q = std::round(w * 4.0);
  // Weights off the quarter grid would make the total inexact; the
  // benchmark's weights are fixed, so this is a programming error.
  if (q / 4.0 != w) std::abort();
  return static_cast<int64_t>(q);
}

template <typename T>
void Expect(std::vector<std::string>& out, const char* what, T got,
            T want) {
  if (got == want) return;
  std::ostringstream s;
  s.precision(17);
  s << what << ": got " << got << ", want " << want;
  out.push_back(s.str());
}

/// The first `prefix_s` simulated seconds of `w`, materialized: queries
/// arriving before the cut, and the same update sources.
unitdb::Workload Prefix(const unitdb::Workload& w, double prefix_s) {
  unitdb::Workload p;
  p.num_items = w.num_items;
  p.duration = unitdb::SecondsToSim(prefix_s);
  p.updates = w.updates;
  p.query_trace_name = w.query_trace_name;
  p.update_trace_name = w.update_trace_name;
  if (w.query_source != nullptr) {
    auto cursor = w.query_source->NewCursor();
    unitdb::QueryRequest q;
    while (cursor->Next(&q) && q.arrival < p.duration) p.queries.push_back(q);
  } else {
    for (const unitdb::QueryRequest& q : w.queries) {
      if (q.arrival >= p.duration) break;
      p.queries.push_back(q);
    }
  }
  return p;
}

std::string DiffFailure(const unitdb::StatusOr<unitdb::DiffResult>& r) {
  if (!r.ok()) return r.status().ToString();
  if (r->equivalent) return "";
  std::string s = std::to_string(r->divergence_count) + " divergences";
  for (const std::string& d : r->divergences) s += "; " + d;
  return s;
}

std::string Describe(const OutcomeCounts& c, double usm) {
  std::ostringstream s;
  s.precision(17);
  s << "submitted=" << c.submitted << " success=" << c.success
    << " usm=" << usm;
  return s.str();
}

}  // namespace

double IndependentUsm(const OutcomeCounts& c, const unitdb::UsmWeights& w) {
  if (c.submitted <= 0) return 0.0;
  const int64_t total = Quarters(w.gain) * c.success -
                        Quarters(w.c_r) * c.rejected -
                        Quarters(w.c_fm) * c.dmf - Quarters(w.c_fs) * c.dsf;
  return static_cast<double>(total) /
         (4.0 * static_cast<double>(c.submitted));
}

std::vector<std::string> CheckRun(const WorkloadDef& def, const RunMetrics& m,
                                  int64_t workload_queries, double usm,
                                  const unitdb::ShardedResult* sharded) {
  std::vector<std::string> out;
  const OutcomeCounts& c = m.counts;
  Expect(out, "usm (Eq. 5 recomputed)", usm, IndependentUsm(c, Weights()));
  // Every submitted query resolves to exactly one of the four outcomes.
  Expect(out, "success+rejected+dmf+dsf", c.success + c.rejected + c.dmf +
                                              c.dsf, c.submitted);
  // Workload queries and load-step injections enter once each, and every
  // session retry submits its request again.
  Expect(out, "submitted", c.submitted,
         workload_queries + m.fault_injected_queries + m.session_retries);
  if (sharded != nullptr) {
    int64_t success = 0;
    for (const unitdb::ShardQueryRecord& q : sharded->queries) {
      success += q.outcome == unitdb::Outcome::kSuccess ? 1 : 0;
    }
    Expect(out, "joined parent records", static_cast<int64_t>(
                                             sharded->queries.size()),
           c.submitted);
    Expect(out, "successful parent records", success, c.success);
  } else {
    // Committed queries (success or stale) are exactly the ones with a
    // response time.
    Expect(out, "committed queries", c.success + c.dsf,
           m.query_response_s.count());
  }
  if (def.engine.session.sessions > 0) {
    Expect(out, "session requests", m.session_requests,
           m.session_successes + m.session_abandons);
  }
  return out;
}

bool SameSemantics(const RunMetrics& a, const RunMetrics& b) {
  return a.counts == b.counts && a.busy_s == b.busy_s &&
         a.query_response_s.count() == b.query_response_s.count() &&
         a.query_response_s.sum() == b.query_response_s.sum() &&
         a.query_freshness.sum() == b.query_freshness.sum() &&
         a.preemptions == b.preemptions &&
         a.lock_restarts == b.lock_restarts &&
         a.update_commits == b.update_commits &&
         a.updates_generated == b.updates_generated &&
         a.updates_dropped == b.updates_dropped;
}

std::string CheckEvents(const std::vector<unitdb::TraceEvent>& events,
                        TraceTally* tally) {
  for (const unitdb::TraceEvent& e : events) tally->Add(e);
  const unitdb::TraceCheckResult r = unitdb::CheckTrace(events);
  return r.ok() ? "" : unitdb::TraceCheckSummary(r);
}

std::string CheckShardTraces(const std::string& dir, int shards,
                             TraceTally* tally) {
  std::string failure;
  for (int k = 0; k < shards && failure.empty(); ++k) {
    const std::string path = dir + "/shard" + std::to_string(k) + ".jsonl";
    std::ifstream in(path);
    if (!in) {
      failure = "cannot read " + path;
      break;
    }
    // The sharded runner tags every event with a "shard" key that
    // ParseTraceLine rejects as unknown. It is constant within one shard's
    // file and no invariant reads it, so it is dropped before parsing.
    const std::string tag = ",\"shard\":";
    std::vector<unitdb::TraceEvent> events;
    std::string line;
    for (int64_t n = 1; std::getline(in, line) && failure.empty(); ++n) {
      if (line.empty()) continue;
      const size_t at = line.find(tag);
      if (at != std::string::npos) {
        const size_t end = line.find_first_of(",}", at + tag.size());
        line.erase(at, end - at);
      }
      auto e = unitdb::ParseTraceLine(line);
      if (e.ok()) {
        events.push_back(*e);
      } else {
        failure = path + ":" + std::to_string(n) + ": " +
                  e.status().ToString();
      }
    }
    if (failure.empty()) failure = CheckEvents(events, tally);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return failure;
}

unitdb::StatusOr<std::vector<DiffCheck>> DifferentialChecks(
    const WorkloadDef& def, uint64_t seed) {
  std::vector<DiffCheck> checks;
  unitdb::FaultScenarioSpec scenario;
  if (def.faults) {
    auto spec = FaultScenario(def.prefix_s);
    if (!spec.ok()) return spec.status();
    scenario = *spec;
  }
  std::set<std::string> checked;
  for (int i = 0; i < static_cast<int>(def.updates.size()); ++i) {
    // Replications of one update trace differ only in their seeds; the
    // first stands for all of them.
    if (!checked.insert(unitdb::UpdateTraceName(def.updates[i])).second) {
      continue;
    }
    auto w = MakeInput(def, i, seed, def.horizon_s);
    if (!w.ok()) return w.status();
    const unitdb::Workload prefix = Prefix(*w, def.prefix_s);

    std::set<std::pair<int, std::string>> sharded_cells;
    for (const Cell& cell : def.cells) {
      if (cell.input != i) continue;
      unitdb::DiffCase c;
      c.workload = prefix;
      c.scenario = scenario;
      c.workload_seed = seed;
      c.policy = cell.policy;
      c.weights = Weights();
      c.engine = def.engine;
      c.stream_queries = def.streamed;
      c.shards = cell.shards;
      c.shard_jobs = cell.jobs;
      checks.push_back({"diff " + cell.label + " " + unitdb::DescribeCase(c),
                        DiffFailure(unitdb::RunDiff(c))});
      if (cell.shards > 0) sharded_cells.insert({cell.shards, cell.policy});

      if (def.streamed) {
        // Property: the streamed engine path equals the materialized one.
        unitdb::Server::Config cfg;
        cfg.policy = cell.policy;
        cfg.weights = Weights();
        cfg.engine = def.engine;
        unitdb::Workload streamed = prefix;
        unitdb::ConvertToStreamingWorkload(&streamed);
        auto a = unitdb::Server::Create(prefix, cfg);
        auto b = unitdb::Server::Create(streamed, cfg);
        if (!a.ok()) return a.status();
        if (!b.ok()) return b.status();
        const RunMetrics ma = (*a)->Run();
        const RunMetrics mb = (*b)->Run();
        checks.push_back(
            {"streamed == materialized " + cell.label,
             SameSemantics(ma, mb) ? ""
                                   : "materialized " +
                                         Describe(ma.counts, 0) +
                                         " streamed " +
                                         Describe(mb.counts, 0)});
      }
    }
    for (const auto& [shards, policy] : sharded_cells) {
      // Properties: shards=1 is the monolithic engine, and every shard
      // count gives the same result for any number of jobs.
      unitdb::ShardedParams sp;
      sp.shards = shards;
      sp.engine = def.engine;
      sp.scenario = def.faults ? &scenario : nullptr;
      sp.fault_seed = seed;
      sp.jobs = 1;
      auto serial = unitdb::RunSharded(prefix, policy, Weights(), sp);
      sp.jobs = 4;
      auto parallel = unitdb::RunSharded(prefix, policy, Weights(), sp);
      if (!serial.ok()) return serial.status();
      if (!parallel.ok()) return parallel.status();
      const bool same = SameSemantics(serial->metrics, parallel->metrics) &&
                        serial->usm == parallel->usm;
      checks.push_back(
          {"sharded jobs=1 == jobs=4 shards=" + std::to_string(shards),
           same ? ""
                : "jobs=1 " + Describe(serial->metrics.counts, serial->usm) +
                      " jobs=4 " +
                      Describe(parallel->metrics.counts, parallel->usm)});
      if (shards == 1) {
        unitdb::Server::Config cfg;
        cfg.policy = policy;
        cfg.weights = Weights();
        cfg.engine = def.engine;
        unitdb::FaultSchedule schedule;
        if (def.faults) {
          auto compiled =
              unitdb::FaultSchedule::Compile(scenario, prefix, seed);
          if (!compiled.ok()) return compiled.status();
          schedule = *std::move(compiled);
          cfg.engine.faults = &schedule;
        }
        auto server = unitdb::Server::Create(prefix, cfg);
        if (!server.ok()) return server.status();
        const RunMetrics mono = (*server)->Run();
        checks.push_back(
            {"shards=1 == monolithic engine",
             SameSemantics(mono, serial->metrics)
                 ? ""
                 : "monolithic " + Describe(mono.counts, 0) + " sharded " +
                       Describe(serial->metrics.counts, serial->usm)});
      }
    }
  }
  return checks;
}

}  // namespace perfbench
