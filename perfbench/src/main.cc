// perfbench: the repository benchmark. Runs one workload (workloads.cc)
// for a fixed host-time budget in whole rounds, checks every output, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics of a
// separate traced run (--trace 1). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR]
//   --out-dir  where the traced run writes its spans and sharded JSONL
//              traces (default .bench_build/perfbench/out)

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "layers.h"
#include "spans.h"
#include "unit/faults/schedule.h"
#include "unit/shard/router.h"
#include "unit/shard/sharded.h"
#include "unit/sim/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using unitdb::RunMetrics;
using unitdb::Status;
using unitdb::TraceEventType;

/// The traced round runs each input at this fraction of its horizon.
constexpr double kTraceScale = 10.0;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench/out";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        o->workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        o->seed = std::stoull(value);
      } else if (key == "--seconds") {
        o->seconds = std::stod(value);
      } else if (key == "--trace") {
        o->trace = std::stoi(value) != 0;
      } else if (key == "--out-dir") {
        o->out_dir = value;
      } else {
        std::cerr << "unknown argument " << key << "\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << key << ": " << value << "\n";
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::cerr << "argument " << argv[argc - 1] << " has no value\n";
    return false;
  }
  return have_workload && o->seconds > 0.0;
}

/// One operation: an engine or sharded run of one cell.
struct CellRun {
  const Cell* cell = nullptr;
  double sim_s = 0.0;
  double run_s = 0.0;
  RunMetrics metrics;
  double usm = 0.0;  ///< as the program reports it
  int64_t subqueries = 0;
  int64_t cross_shard_queries = 0;
  std::vector<std::string> failures;
};

/// One pass over every cell of the workload: inputs generated, servers
/// built and run.
struct Round {
  double gen_s = 0.0;
  double partition_s = 0.0;
  double fault_compile_s = 0.0;
  double create_s = 0.0;
  double run_s = 0.0;
  double sim_s = 0.0;
  int64_t queries = 0;
  int64_t source_updates = 0;
  std::vector<CellRun> cells;

  double setup_s() const {
    return gen_s + partition_s + fault_compile_s + create_s;
  }
};

/// Observability of the traced round (all off in the timed rounds).
struct Hooks {
  SpanRecorder* spans = nullptr;
  bool trace = false;     ///< attach a trace sink and check its events
  std::string trace_dir;  ///< sharded cells write their JSONL here
  TraceTally tally;
};

void RunCell(const WorkloadDef& def, const Cell& cell,
             const unitdb::Workload& w,
             const unitdb::FaultScenarioSpec* scenario,
             const unitdb::FaultSchedule* schedule, uint64_t seed,
             Hooks* hooks, Round* round) {
  CellRun run;
  run.cell = &cell;
  run.sim_s = unitdb::SimToSeconds(w.duration);
  SpanRecorder* spans = hooks->spans;
  std::string trace_failure;
  const unitdb::ShardedResult* sharded = nullptr;
  std::optional<unitdb::StatusOr<unitdb::ShardedResult>> sharded_result;

  if (cell.shards == 0) {
    CollectingSink sink;
    unitdb::Server::Config cfg;
    cfg.policy = cell.policy;
    cfg.weights = Weights();
    cfg.engine = def.engine;
    cfg.engine.faults = schedule;
    if (hooks->trace) cfg.engine.trace = &sink;
    auto t0 = Clock::now();
    auto server = [&] {
      ScopedSpan span(spans, "server_create");
      return unitdb::Server::Create(w, cfg);
    }();
    round->create_s += Since(t0);
    if (!server.ok()) {
      run.failures.push_back(server.status().ToString());
      round->cells.push_back(std::move(run));
      return;
    }
    t0 = Clock::now();
    {
      ScopedSpan span(spans, "run");
      run.metrics = (*server)->Run();
    }
    run.run_s = Since(t0);
    {
      ScopedSpan span(spans, "usm");
      run.usm = unitdb::UsmAverage(run.metrics.counts, Weights());
    }
    if (hooks->trace) {
      ScopedSpan span(spans, "trace_check");
      trace_failure = CheckEvents(sink.events(), &hooks->tally);
    }
  } else {
    auto t0 = Clock::now();
    {
      // Partitioning is set-up: timed here from outside, although
      // RunSharded partitions the input again itself.
      ScopedSpan span(spans, "partition");
      auto part =
          unitdb::PartitionWorkload(w, unitdb::ShardRouter(cell.shards));
      if (!part.ok()) run.failures.push_back(part.status().ToString());
    }
    round->partition_s += Since(t0);
    unitdb::ShardedParams sp;
    sp.shards = cell.shards;
    sp.jobs = cell.jobs;
    sp.engine = def.engine;
    sp.scenario = scenario;
    sp.fault_seed = seed;
    if (hooks->trace) sp.trace_dir = hooks->trace_dir + "/" + def.name;
    t0 = Clock::now();
    {
      ScopedSpan span(spans, "run");
      sharded_result = unitdb::RunSharded(w, cell.policy, Weights(), sp);
    }
    run.run_s = Since(t0);
    if (!sharded_result->ok()) {
      run.failures.push_back(sharded_result->status().ToString());
      round->cells.push_back(std::move(run));
      return;
    }
    sharded = &**sharded_result;
    run.metrics = sharded->metrics;
    run.usm = sharded->usm;
    run.subqueries = sharded->subqueries;
    run.cross_shard_queries = sharded->cross_shard_queries;
    if (hooks->trace) {
      ScopedSpan span(spans, "trace_check");
      trace_failure = CheckShardTraces(sp.trace_dir, cell.shards,
                                       &hooks->tally);
    }
  }
  for (std::string& f :
       CheckRun(def, run.metrics, w.QueryCount(), run.usm, sharded)) {
    run.failures.push_back(std::move(f));
  }
  if (!trace_failure.empty()) {
    run.failures.push_back("trace invariants: " + trace_failure);
  }
  round->run_s += run.run_s;
  round->sim_s += run.sim_s;
  round->cells.push_back(std::move(run));
}

unitdb::StatusOr<Round> RunRound(const WorkloadDef& def, uint64_t seed,
                                 double horizon_s, Hooks* hooks) {
  Round round;
  SpanRecorder* spans = hooks->spans;
  ScopedSpan round_span(spans, "round");
  std::optional<unitdb::FaultScenarioSpec> scenario;
  if (def.faults) {
    auto spec = FaultScenario(horizon_s);
    if (!spec.ok()) return spec.status();
    scenario = *spec;
  }
  for (int i = 0; i < static_cast<int>(def.updates.size()); ++i) {
    auto t0 = Clock::now();
    auto input = [&] {
      ScopedSpan span(spans, "generate");
      return MakeInput(def, i, seed, horizon_s);
    }();
    round.gen_s += Since(t0);
    if (!input.ok()) return input.status();
    const unitdb::Workload& w = *input;
    round.queries += w.QueryCount();
    round.source_updates += w.TotalSourceUpdates();

    std::optional<unitdb::FaultSchedule> schedule;
    if (scenario.has_value()) {
      t0 = Clock::now();
      ScopedSpan span(spans, "fault_compile");
      auto compiled = unitdb::FaultSchedule::Compile(*scenario, w, seed);
      if (!compiled.ok()) return compiled.status();
      schedule = *std::move(compiled);
      round.fault_compile_s += Since(t0);
    }
    for (const Cell& cell : def.cells) {
      if (cell.input != i) continue;
      RunCell(def, cell, w, scenario ? &*scenario : nullptr,
              schedule ? &*schedule : nullptr, seed, hooks, &round);
    }
  }
  return round;
}

/// Later rounds replay the first round's inputs, so every simulated output
/// must repeat bit for bit.
void CheckDeterminism(const Round& first, Round* later) {
  for (size_t i = 0; i < later->cells.size() && i < first.cells.size(); ++i) {
    const CellRun& a = first.cells[i];
    CellRun& b = later->cells[i];
    if (!SameSemantics(a.metrics, b.metrics) || a.usm != b.usm ||
        a.metrics.events_processed != b.metrics.events_processed) {
      b.failures.push_back("round differs from the first round");
    }
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Operations {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Op(const std::string& what, const std::vector<std::string>& failures) {
    ++attempted;
    if (failures.empty()) return;
    ++failed;
    std::cerr << "FAILED " << what << ":";
    for (const std::string& f : failures) std::cerr << "\n  " << f;
    std::cerr << "\n";
  }
};

void PrintResult(const Operations& ops, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              ops.failed == 0 ? "true" : "false",
              static_cast<long long>(ops.attempted),
              static_cast<long long>(ops.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void CountRound(const Round& round, Operations* ops) {
  for (const CellRun& c : round.cells) ops->Op(c.cell->label, c.failures);
}

/// Runs rounds without hooks while the budget lasts (at least `min_rounds`),
/// checking each and accounting its operations.
unitdb::StatusOr<std::vector<Round>> TimedRounds(const WorkloadDef& def,
                                                 uint64_t seed,
                                                 double budget_s,
                                                 int min_rounds,
                                                 Operations* ops) {
  std::vector<Round> rounds;
  const auto start = Clock::now();
  while (true) {
    const double elapsed = Since(start);
    const double per_round =
        rounds.empty() ? 0.0 : elapsed / static_cast<double>(rounds.size());
    if (static_cast<int>(rounds.size()) >= min_rounds &&
        elapsed + per_round > budget_s) {
      break;
    }
    Hooks none;
    auto round = RunRound(def, seed, def.horizon_s, &none);
    if (!round.ok()) return round.status();
    if (!rounds.empty()) CheckDeterminism(rounds.front(), &*round);
    CountRound(*round, ops);
    rounds.push_back(std::move(*round));
  }
  return rounds;
}

void Accumulate(const unitdb::OutcomeCounts& c, unitdb::OutcomeCounts* into) {
  into->submitted += c.submitted;
  into->success += c.success;
  into->rejected += c.rejected;
  into->dmf += c.dmf;
  into->dsf += c.dsf;
}

/// Sum over a round's cells of one RunMetrics field.
template <typename F>
double SumCells(const Round& r, F field) {
  double s = 0.0;
  for (const CellRun& c : r.cells) s += static_cast<double>(field(c.metrics));
  return s;
}

template <typename F>
double MaxCells(const Round& r, F field) {
  double s = 0.0;
  for (const CellRun& c : r.cells) {
    s = std::max(s, static_cast<double>(field(c.metrics)));
  }
  return s;
}

std::vector<Metric> EndToEnd(const std::vector<Round>& rounds) {
  std::vector<double> setup, host;
  for (const Round& r : rounds) {
    setup.push_back(r.setup_s());
    host.push_back(1000.0 * r.run_s / r.sim_s);
  }
  // Simulated outputs repeat every round (checked), so the first round's
  // successes give the goodput.
  const Round& first = rounds.front();
  const double success =
      SumCells(first, [](const RunMetrics& m) { return m.counts.success; });
  return {{"setup_s", Median(setup), "s"},
          {"host_ms_per_sim_s", Median(host), "ms"},
          {"goodput_qps", success / first.sim_s, "queries/s"},
          {"peak_rss_mb", PeakRssMb(), "MB"}};
}

/// Median over rounds of one cell-level timing, 0 when no cell matches.
double MedianCellRun(const std::vector<Round>& rounds, int shards) {
  std::vector<double> t;
  for (const Round& r : rounds) {
    double s = 0.0;
    for (const CellRun& c : r.cells) {
      if (c.cell->shards == shards) s += c.run_s;
    }
    t.push_back(s);
  }
  return Median(t);
}

template <typename F>
double MedianOf(const std::vector<Round>& rounds, F f) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(f(r));
  return Median(v);
}

/// Per-layer metrics: timings are medians over the full-size `timed`
/// rounds and counters come from the first of them; trace counts, span self
/// times and the tracing overhead come from the `traced` round and the
/// untraced `baseline` round on the same reduced inputs.
unitdb::StatusOr<std::vector<Metric>> PerLayer(
    const WorkloadDef& def, uint64_t seed, const std::vector<Round>& timed,
    const Round& baseline, const Round& traced, const Hooks& hooks) {
  const Round& full = timed.front();
  const double run_s = MedianOf(timed, [](const Round& r) { return r.run_s; });
  const double events = SumCells(
      full, [](const RunMetrics& m) { return m.events_processed; });
  const double peak_depth = MaxCells(
      full, [](const RunMetrics& m) { return m.peak_ready_depth; });
  auto sum = [&](auto field) { return SumCells(full, field); };
  const double hits = sum([](const RunMetrics& m) { return m.cache_hits; });
  const double lookups =
      hits + sum([](const RunMetrics& m) {
        return m.cache_misses + m.cache_stale_skips;
      });
  unitdb::OutcomeCounts unit_counts;
  int64_t subqueries = 0;
  int64_t cross = 0;
  for (const CellRun& c : full.cells) {
    if (c.cell->policy == "unit") Accumulate(c.metrics.counts, &unit_counts);
    if (c.cell->shards > 1) {
      subqueries += c.subqueries;
      cross += c.cross_shard_queries;
    }
  }

  // Layer timings from outside, on the workload's own inputs.
  double admission_init_s = 0.0;
  double attach_s = 0.0;
  double event_queue_ns = 0.0;
  for (int i = 0; i < static_cast<int>(def.updates.size()); ++i) {
    auto input = MakeInput(def, i, seed, def.horizon_s);
    if (!input.ok()) return input.status();
    const unitdb::Workload& w = *input;
    admission_init_s += TimeAdmissionInit(w);
    if (i == 0) event_queue_ns = TimeEventQueueNs(w);
    for (const Cell& cell : def.cells) {
      if (cell.input != i || cell.policy != "unit") continue;
      if (cell.shards <= 1) {
        attach_s += TimeAttachSources({&w});
        continue;
      }
      auto part =
          unitdb::PartitionWorkload(w, unitdb::ShardRouter(cell.shards));
      if (!part.ok()) return part.status();
      std::vector<const unitdb::Workload*> dbs;
      for (const unitdb::Workload& shard : part->shards) dbs.push_back(&shard);
      attach_s += TimeAttachSources(dbs);
    }
  }
  const double sh1_s = MedianCellRun(timed, 1);
  const double sh4_s = MedianCellRun(timed, 4);
  const std::map<std::string, double> self =
      hooks.spans->SelfSeconds();
  auto self_of = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  using T = TraceEventType;
  const TraceTally& t = hooks.tally;
  return std::vector<Metric>{
      {"workload.gen_s",
       MedianOf(timed, [](const Round& r) { return r.gen_s; }), "s"},
      {"workload.queries", static_cast<double>(full.queries), "count"},
      {"workload.source_updates",
       static_cast<double>(full.source_updates), "count"},
      {"shard.partition_s",
       MedianOf(timed, [](const Round& r) { return r.partition_s; }), "s"},
      {"shard.subqueries", static_cast<double>(subqueries), "count"},
      {"shard.cross_shard_queries", static_cast<double>(cross), "count"},
      {"shard.run_s.sh1", sh1_s, "s"},
      {"shard.run_s.sh4", sh4_s, "s"},
      {"shard.speedup", sh4_s > 0.0 ? sh1_s / sh4_s : 0.0, "x"},
      {"sim.server_create_s",
       MedianOf(timed, [](const Round& r) { return r.create_s; }), "s"},
      {"core.admission.init_s", admission_init_s, "s"},
      {"core.modulator.attach_s", attach_s, "s"},
      {"core.lottery.sample_ns",
       TimeLotteryNs(def.queries.num_items, seed), "ns"},
      {"sched.events_per_s", events / run_s, "1/s"},
      {"sched.events_processed", events, "count"},
      {"sched.events_cancelled",
       sum([](const RunMetrics& m) { return m.events_cancelled; }), "count"},
      {"sched.events_compacted",
       sum([](const RunMetrics& m) { return m.events_compacted; }), "count"},
      {"sched.event_compactions",
       sum([](const RunMetrics& m) { return m.event_compactions; }), "count"},
      {"sched.event_queue.op_ns", event_queue_ns, "ns"},
      {"sched.ready_queue.op_ns",
       TimeReadyQueueNs(static_cast<int>(peak_depth), seed), "ns"},
      {"sched.peak_ready_depth", peak_depth, "count"},
      {"sched.preemptions",
       sum([](const RunMetrics& m) { return m.preemptions; }), "count"},
      {"db.lock_restarts",
       sum([](const RunMetrics& m) { return m.lock_restarts; }), "count"},
      {"core.updates_generated",
       sum([](const RunMetrics& m) { return m.updates_generated; }), "count"},
      {"core.updates_dropped",
       sum([](const RunMetrics& m) { return m.updates_dropped; }), "count"},
      {"core.on_demand_updates",
       sum([](const RunMetrics& m) { return m.on_demand_updates; }), "count"},
      {"core.lbc.signals", static_cast<double>(t.of(T::kLbcSignal)), "count"},
      {"core.admission.rejects",
       sum([](const RunMetrics& m) { return m.counts.rejected; }), "count"},
      {"core.usm.unit", IndependentUsm(unit_counts, Weights()), "usm"},
      {"txn.live_peak",
       MaxCells(full, [](const RunMetrics& m) { return m.txn_live_peak; }),
       "count"},
      {"txn.slots_created",
       MaxCells(full, [](const RunMetrics& m) { return m.txn_slots_created; }),
       "count"},
      {"cache.hits", hits, "count"},
      {"cache.misses",
       sum([](const RunMetrics& m) { return m.cache_misses; }), "count"},
      {"cache.invalidations",
       sum([](const RunMetrics& m) { return m.cache_invalidations; }), "count"},
      {"cache.stale_skips",
       sum([](const RunMetrics& m) { return m.cache_stale_skips; }), "count"},
      {"cache.hit_ratio", lookups > 0.0 ? hits / lookups : 0.0, "ratio"},
      {"session.requests",
       sum([](const RunMetrics& m) { return m.session_requests; }), "count"},
      {"session.retries",
       sum([](const RunMetrics& m) { return m.session_retries; }), "count"},
      {"session.abandons",
       sum([](const RunMetrics& m) { return m.session_abandons; }), "count"},
      {"session.shed",
       sum([](const RunMetrics& m) { return m.queries_shed; }), "count"},
      {"faults.edges",
       sum([](const RunMetrics& m) { return m.fault_edges; }), "count"},
      {"faults.injected_queries",
       sum([](const RunMetrics& m) { return m.fault_injected_queries; }),
       "count"},
      {"faults.suppressed_updates",
       sum([](const RunMetrics& m) { return m.fault_suppressed_updates; }),
       "count"},
      {"obs.trace_overhead", traced.run_s / baseline.run_s, "x"},
      {"obs.trace_events", static_cast<double>(t.events), "count"},
      {"obs.trace.admits", static_cast<double>(t.of(T::kAdmit)), "count"},
      {"obs.trace.rejects", static_cast<double>(t.of(T::kReject)), "count"},
      {"obs.trace.period_changes",
       static_cast<double>(t.of(T::kPeriodChange)), "count"},
      {"obs.trace.cache_hits",
       static_cast<double>(t.of(T::kCacheHit)), "count"},
      {"obs.trace.session_retries",
       static_cast<double>(t.of(T::kSessionRetry)), "count"},
      {"obs.trace.sheds", static_cast<double>(t.of(T::kShed)), "count"},
      {"span.self_s.generate", self_of("generate"), "s"},
      {"span.self_s.partition", self_of("partition"), "s"},
      {"span.self_s.fault_compile", self_of("fault_compile"), "s"},
      {"span.self_s.server_create", self_of("server_create"), "s"},
      {"span.self_s.run", self_of("run"), "s"},
      {"span.self_s.usm", self_of("usm"), "s"},
      {"span.self_s.trace_check", self_of("trace_check"), "s"},
      {"span.self_s.round", self_of("round"), "s"},
  };
}

void PrintPolicyUsm(const Round& round) {
  std::map<std::string, unitdb::OutcomeCounts> by_policy;
  for (const CellRun& c : round.cells) {
    Accumulate(c.metrics.counts, &by_policy[c.cell->policy]);
  }
  for (const auto& [policy, k] : by_policy) {
    std::printf("core.usm.%-25s %18.6f usm\n", policy.c_str(),
                IndependentUsm(k, Weights()));
  }
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n";
    return 2;
  }
  const WorkloadDef* def = FindWorkload(opt.workload);
  if (def == nullptr) {
    std::cerr << "unknown workload " << opt.workload << "\n";
    return 2;
  }
  const auto start = Clock::now();
  Operations ops;

  auto diffs = DifferentialChecks(*def, opt.seed);
  if (!diffs.ok()) {
    std::cerr << diffs.status().ToString() << "\n";
    return 1;
  }
  for (const DiffCheck& d : *diffs) {
    ops.Op(d.name, d.failure.empty() ? std::vector<std::string>{}
                                     : std::vector<std::string>{d.failure});
  }
  std::printf("%s: %zu differential and property checks on a %.0f s prefix "
              "(%.2f s)\n",
              def->name.c_str(), diffs->size(), def->prefix_s, Since(start));

  if (!opt.trace) {
    auto rounds = TimedRounds(*def, opt.seed, opt.seconds, 3, &ops);
    if (!rounds.ok()) {
      std::cerr << rounds.status().ToString() << "\n";
      return 1;
    }
    std::printf("%s: %zu rounds of %zu cells, %.1f simulated s each\n",
                def->name.c_str(), rounds->size(), rounds->front().cells.size(),
                rounds->front().sim_s);
    PrintResult(ops, EndToEnd(*rounds));
    return 0;
  }

  // Traced run. Full-size untraced rounds give the layer timings and
  // counters; then the same workload at a tenth of the horizon runs once
  // untraced and once with spans and trace sinks, which keeps every
  // cell's in-memory event stream small. The two reduced rounds give the
  // tracing overhead.
  auto timed = TimedRounds(*def, opt.seed, 0.5 * opt.seconds, 2, &ops);
  if (!timed.ok()) {
    std::cerr << timed.status().ToString() << "\n";
    return 1;
  }
  const double trace_horizon_s = def->horizon_s / kTraceScale;
  Hooks none;
  auto baseline = RunRound(*def, opt.seed, trace_horizon_s, &none);
  if (!baseline.ok()) {
    std::cerr << baseline.status().ToString() << "\n";
    return 1;
  }
  CountRound(*baseline, &ops);
  std::filesystem::create_directories(opt.out_dir);
  SpanRecorder spans;
  Hooks hooks;
  hooks.spans = &spans;
  hooks.trace = true;
  hooks.trace_dir = opt.out_dir;
  auto traced = RunRound(*def, opt.seed, trace_horizon_s, &hooks);
  if (!traced.ok()) {
    std::cerr << traced.status().ToString() << "\n";
    return 1;
  }
  CheckDeterminism(*baseline, &*traced);
  CountRound(*traced, &ops);
  const std::string span_path =
      opt.out_dir + "/spans-" + def->name + ".json";
  if (Status s = spans.WriteJson(span_path); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  auto metrics =
      PerLayer(*def, opt.seed, *timed, *baseline, *traced, hooks);
  if (!metrics.ok()) {
    std::cerr << metrics.status().ToString() << "\n";
    return 1;
  }
  std::printf("%s: traced round of %zu cells at %.0f simulated s per "
              "input; spans in %s\n",
              def->name.c_str(), traced->cells.size(), trace_horizon_s,
              span_path.c_str());
  PrintPolicyUsm(timed->front());
  PrintResult(ops, *metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
