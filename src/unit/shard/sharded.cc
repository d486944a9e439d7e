#include "unit/shard/sharded.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>

#include "unit/common/thread_pool.h"
#include "unit/db/data_item.h"
#include "unit/faults/schedule.h"
#include "unit/model/reference_engine.h"
#include "unit/obs/trace_event.h"
#include "unit/obs/trace_sink.h"
#include "unit/sched/engine.h"
#include "unit/workload/query_source.h"

namespace unitdb {
namespace {

/// One resolved sub-query as seen by a shard's recording policy wrapper.
struct SubRecord {
  TxnId trace_id = kInvalidTxn;  ///< parent index (kInvalidTxn: injected)
  Outcome outcome = Outcome::kPending;
  double freshness = -1.0;
  SimTime arrival = 0;
  SimTime commit_time = -1;
  SimTime resolve_time = -1;
  int restarts = 0;
  int pref_class = 0;
};

/// Forwards every hook to the wrapped policy and records one SubRecord per
/// resolved sub-query. Wrapping is behavior-neutral (the same construction
/// the differential harness uses), so a wrapped shards=1 run stays
/// bit-identical to the bare monolithic engine. `perturb` injects the
/// admit-off-by-one defect on this shard for oracle self-tests.
class SubRecordingPolicy final : public Policy {
 public:
  SubRecordingPolicy(Policy* inner, bool perturb)
      : inner_(inner), perturb_(perturb) {}

  std::string name() const override { return inner_->name(); }
  void Attach(EngineContext& engine) override { inner_->Attach(engine); }

  bool AdmitQuery(EngineContext& engine, const Transaction& query) override {
    const bool admit = inner_->AdmitQuery(engine, query);
    if (admit && perturb_ && ++admitted_ == 8) {
      return false;  // the injected defect: shed one admitted query
    }
    return admit;
  }

  bool BeforeQueryDispatch(EngineContext& engine,
                           Transaction& query) override {
    return inner_->BeforeQueryDispatch(engine, query);
  }

  void OnQueryResolved(EngineContext& engine, const Transaction& query,
                       Outcome outcome) override {
    SubRecord r;
    r.trace_id = query.trace_id();
    r.outcome = outcome;
    r.freshness = query.observed_freshness();
    r.arrival = query.arrival();
    r.commit_time = query.commit_time();
    r.resolve_time = engine.now();
    r.restarts = query.restarts();
    r.pref_class = query.preference_class();
    records.push_back(r);
    inner_->OnQueryResolved(engine, query, outcome);
  }

  void OnUpdateCommit(EngineContext& engine,
                      const Transaction& update) override {
    inner_->OnUpdateCommit(engine, update);
  }

  void OnUpdateSourceArrival(EngineContext& engine, ItemId item) override {
    inner_->OnUpdateSourceArrival(engine, item);
  }

  void OnControlTick(EngineContext& engine) override {
    inner_->OnControlTick(engine);
  }

  double AdmissionKnob() const override { return inner_->AdmissionKnob(); }
  bool UsesPeriodicUpdates() const override {
    return inner_->UsesPeriodicUpdates();
  }

  std::vector<SubRecord> records;

 private:
  Policy* inner_;
  bool perturb_;
  int admitted_ = 0;
};

/// Stamps the shard index onto every event, forwards to the shard's own
/// JSONL file, and keeps an in-memory copy for the merged global trace.
class ShardTagSink final : public TraceSink {
 public:
  ShardTagSink(TraceSink* file, int shard, std::vector<TraceEvent>* collect)
      : file_(file), shard_(shard), collect_(collect) {}

  void Emit(const TraceEvent& e) override {
    TraceEvent tagged = e;
    tagged.shard = shard_;
    if (file_ != nullptr) file_->Emit(tagged);
    if (collect_ != nullptr) collect_->push_back(tagged);
  }

  void Flush() override {
    if (file_ != nullptr) file_->Flush();
  }

 private:
  TraceSink* file_;
  int shard_;
  std::vector<TraceEvent>* collect_;
};

/// Everything one shard's run produced.
struct ShardRunOutput {
  RunMetrics metrics;
  std::vector<SubRecord> records;
  std::vector<WindowSample> series;
  std::vector<TraceEvent> events;
};

/// Parses an explicit "a-b" / "a,b,c" item selector (the
/// faults/scenario.h grammar, minus "*"). Returns false on malformed
/// input, in which case the caller keeps the fault verbatim and lets
/// FaultSchedule::Compile report the canonical error.
bool ParseItemSelector(const std::string& items, int num_items,
                       std::vector<ItemId>* out) {
  size_t pos = 0;
  while (pos <= items.size()) {
    size_t comma = items.find(',', pos);
    if (comma == std::string::npos) comma = items.size();
    const std::string token = items.substr(pos, comma - pos);
    if (token.empty()) return false;
    const size_t dash = token.find('-');
    char* end = nullptr;
    const long lo = std::strtol(token.c_str(), &end, 10);
    if (end == token.c_str()) return false;
    long hi = lo;
    if (dash != std::string::npos) {
      const char* hs = token.c_str() + dash + 1;
      hi = std::strtol(hs, &end, 10);
      if (end == hs) return false;
    }
    if (lo < 0 || hi < lo || hi >= num_items) return false;
    for (long id = lo; id <= hi; ++id) out->push_back(static_cast<ItemId>(id));
    pos = comma + 1;
    if (comma == items.size()) break;
  }
  return true;
}

/// Scopes a scenario to one shard's sub-workload (shards > 1 only; with one
/// shard the input scenario passes through verbatim so compilation is
/// bit-identical to the monolithic path). Each shard's fault layer draws
/// its own decorrelated injection stream — the sharded analogue of
/// per-replication compilation:
///  - load steps are dropped on a shard whose sub-trace has no queries
///    (there are no templates to clone, and the monolithic compiler
///    rejects that as an error rather than a no-op);
///  - outage/burst item selections are restricted to items this shard owns
///    and sources, and the fault is dropped when nothing remains;
///  - service-slowdown and freshness-shift windows broadcast to all shards.
FaultScenarioSpec ScopeScenario(const FaultScenarioSpec& spec,
                                const Workload& sub) {
  std::vector<char> has_source(static_cast<size_t>(sub.num_items), 0);
  for (const auto& u : sub.updates) {
    if (u.ideal_period <= 0 || u.ideal_period >= kNoUpdates) continue;
    if (u.item >= 0 && u.item < sub.num_items) {
      has_source[static_cast<size_t>(u.item)] = 1;
    }
  }
  const bool any_source =
      std::find(has_source.begin(), has_source.end(), char{1}) !=
      has_source.end();

  FaultScenarioSpec scoped = spec;
  scoped.faults.clear();
  for (const FaultSpec& fault : spec.faults) {
    switch (fault.kind) {
      case FaultKind::kLoadStep:
      case FaultKind::kRetryStorm:
        // Both clone query templates from the sub-trace; drop on a shard
        // with nothing to clone.
        if (!sub.queries.empty()) scoped.faults.push_back(fault);
        break;
      case FaultKind::kUpdateOutage:
      case FaultKind::kUpdateBurst: {
        if (fault.items == "*") {
          if (any_source) scoped.faults.push_back(fault);
          break;
        }
        std::vector<ItemId> selected;
        if (!ParseItemSelector(fault.items, sub.num_items, &selected)) {
          scoped.faults.push_back(fault);  // malformed: let Compile reject
          break;
        }
        std::string owned;
        for (ItemId id : selected) {
          if (!has_source[static_cast<size_t>(id)]) continue;
          if (!owned.empty()) owned += ',';
          owned += std::to_string(id);
        }
        if (owned.empty()) break;  // nothing this shard sources: drop
        FaultSpec f = fault;
        f.items = std::move(owned);
        scoped.faults.push_back(f);
        break;
      }
      case FaultKind::kServiceSlowdown:
      case FaultKind::kFreshnessShift:
        scoped.faults.push_back(fault);
        break;
    }
  }
  return scoped;
}

/// Runs one shard's full server stack over its sub-workload. `input` is the
/// unpartitioned workload: a single shard compiles its faults against it,
/// exactly as the monolithic path does.
StatusOr<ShardRunOutput> RunOneShard(const Workload& input,
                                     const Workload& sub, int shard,
                                     int num_shards,
                                     const std::string& policy_name,
                                     const UsmWeights& weights,
                                     const ShardedParams& params) {
  PolicyOptions options = params.options;
  options.unit.seed = ShardSeed(params.options.unit.seed, shard, num_shards);
  auto policy = MakePolicy(policy_name, weights, options);
  if (!policy.ok()) return policy.status();
  SubRecordingPolicy recorder(policy.value().get(),
                              params.perturb_admit_off_by_one && shard == 0);

  EngineParams ep = params.engine;
  ep.seed = ShardSeed(params.engine.seed, shard, num_shards);
  ep.trace = nullptr;
  ep.series = nullptr;
  ep.counters = nullptr;
  ep.faults = nullptr;

  FaultSchedule schedule;
  if (params.scenario != nullptr && !params.scenario->empty() &&
      (params.fault_target_shard < 0 || params.fault_target_shard == shard)) {
    const FaultScenarioSpec scoped = num_shards == 1
                                         ? *params.scenario
                                         : ScopeScenario(*params.scenario, sub);
    if (!scoped.empty()) {
      auto compiled = FaultSchedule::Compile(
          scoped, num_shards == 1 ? input : sub,
          ShardSeed(params.fault_seed, shard, num_shards));
      if (!compiled.ok()) return compiled.status();
      schedule = std::move(compiled).value();
      if (!schedule.empty()) ep.faults = &schedule;
    }
  }

  TimeSeriesRecorder series(weights);
  if (params.record_series) ep.series = &series;
  // One record per resolved query: every trace query resolves at least
  // once, and every injected one exactly once.
  recorder.records.reserve(static_cast<size_t>(sub.QueryCount()) +
                           schedule.injected_queries().size());

  ShardRunOutput out;
  std::unique_ptr<JsonlTraceSink> file_sink;
  std::unique_ptr<ShardTagSink> tag;
  if (!params.trace_dir.empty() && !params.reference_engines) {
    auto sink = JsonlTraceSink::Open(params.trace_dir + "/shard" +
                                     std::to_string(shard) + ".jsonl");
    if (!sink.ok()) return sink.status();
    file_sink = std::move(sink).value();
    tag = std::make_unique<ShardTagSink>(file_sink.get(), shard, &out.events);
    ep.trace = tag.get();
  }

  if (params.reference_engines) {
    ReferenceEngine engine(sub, &recorder, ep);
    out.metrics = engine.Run();
  } else {
    Engine engine(sub, &recorder, ep);
    out.metrics = engine.Run();
  }
  if (tag != nullptr) tag->Flush();
  out.records = std::move(recorder.records);
  if (params.record_series) out.series = series.samples();
  return out;
}

/// Folds per-shard window series into the merged global series: samples
/// with the same window-end instant are combined (counts / depths /
/// utilization summed, Udrop percentiles max'd, admission knob averaged
/// over shards that have one, USM re-derived from the merged window), in
/// (t, shard, index) order — deterministic for any jobs count.
std::vector<WindowSample> MergeSeries(
    const std::vector<std::vector<WindowSample>>& per_shard,
    const UsmWeights& weights) {
  if (per_shard.size() == 1) return per_shard[0];
  struct Tagged {
    double t;
    int shard;
    size_t idx;
    const WindowSample* s;
  };
  std::vector<Tagged> all;
  for (size_t s = 0; s < per_shard.size(); ++s) {
    for (size_t i = 0; i < per_shard[s].size(); ++i) {
      all.push_back(
          Tagged{per_shard[s][i].t_s, static_cast<int>(s), i, &per_shard[s][i]});
    }
  }
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    return std::tie(a.t, a.shard, a.idx) < std::tie(b.t, b.shard, b.idx);
  });

  std::vector<WindowSample> merged;
  size_t i = 0;
  while (i < all.size()) {
    WindowSample m = *all[i].s;
    double knob_sum = std::isnan(m.admission_knob) ? 0.0 : m.admission_knob;
    int knob_n = std::isnan(m.admission_knob) ? 0 : 1;
    size_t j = i + 1;
    for (; j < all.size() && all[j].t == all[i].t; ++j) {
      const WindowSample& s = *all[j].s;
      m.window.submitted += s.window.submitted;
      m.window.success += s.window.success;
      m.window.rejected += s.window.rejected;
      m.window.dmf += s.window.dmf;
      m.window.dsf += s.window.dsf;
      m.utilization += s.utilization;  // aggregate over N shard CPUs
      m.ready_queries += s.ready_queries;
      m.ready_updates += s.ready_updates;
      m.degraded_items += s.degraded_items;
      m.retries += s.retries;
      m.abandons += s.abandons;
      m.shed += s.shed;
      m.cache_hits += s.cache_hits;
      m.cache_invalidations += s.cache_invalidations;
      m.udrop_p50 = std::max(m.udrop_p50, s.udrop_p50);
      m.udrop_p90 = std::max(m.udrop_p90, s.udrop_p90);
      m.udrop_max = std::max(m.udrop_max, s.udrop_max);
      if (!std::isnan(s.admission_knob)) {
        knob_sum += s.admission_knob;
        ++knob_n;
      }
    }
    m.admission_knob = knob_n > 0
                           ? knob_sum / static_cast<double>(knob_n)
                           : std::numeric_limits<double>::quiet_NaN();
    m.usm = UsmDecompose(m.window, weights);
    merged.push_back(m);
    i = j;
  }
  return merged;
}

/// Writes the merged global trace: every shard's tagged events, sorted by
/// (time, shard, per-shard emission order).
Status WriteMergedTrace(const std::vector<ShardRunOutput>& outputs,
                        const std::string& dir) {
  struct Tagged {
    SimTime time;
    int shard;
    size_t idx;
    const TraceEvent* e;
  };
  std::vector<Tagged> all;
  for (size_t s = 0; s < outputs.size(); ++s) {
    for (size_t i = 0; i < outputs[s].events.size(); ++i) {
      all.push_back(Tagged{outputs[s].events[i].time, static_cast<int>(s), i,
                           &outputs[s].events[i]});
    }
  }
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    return std::tie(a.time, a.shard, a.idx) < std::tie(b.time, b.shard, b.idx);
  });
  const std::string path = dir + "/merged.jsonl";
  std::ofstream f(path, std::ios::trunc);
  if (!f) return Status::Internal("cannot open " + path);
  char buf[512];
  for (const Tagged& t : all) {
    const size_t n = FormatJsonl(*t.e, buf, sizeof(buf));
    f.write(buf, static_cast<std::streamsize>(n));
    f.put('\n');
  }
  f.flush();
  if (!f.good()) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

/// Join state of one parent query while its sub-records arrive.
struct ParentAgg {
  int seen = 0;
  Outcome outcome = Outcome::kPending;
  int restarts = 0;
  /// The shard whose record set `arrival` and `pref_class`: the highest
  /// one, as a shard-by-shard fold leaves them.
  int from_shard = -1;
  int pref_class = 0;
  double freshness = std::numeric_limits<double>::infinity();
  SimTime commit = -1;
  SimTime arrival = 0;
};

/// Folds one sub-record from `shard` into its parent.
void FoldSubRecord(const SubRecord& rec, int shard, ParentAgg* p) {
  p->outcome = p->seen > 0 ? CrossShardJoin(p->outcome, rec.outcome)
                           : rec.outcome;
  ++p->seen;
  if (rec.outcome == Outcome::kSuccess || rec.outcome == Outcome::kDataStale) {
    // Committed sub: parent freshness is the min over committed subs
    // (exactly the monolithic Eq. 1 value — QueryFreshness is itself a min
    // over the read set), commit instant the latest sub commit.
    p->freshness = std::min(p->freshness, rec.freshness);
    p->commit = std::max(p->commit, rec.commit_time);
  }
  p->restarts += rec.restarts;
  if (shard >= p->from_shard) {
    p->from_shard = shard;
    p->arrival = rec.arrival;
    p->pref_class = rec.pref_class;
  }
}

/// A shard's next unconsumed record in the join's merge.
struct MergeHead {
  SimTime time;  ///< its resolve time
  int shard;
};

/// Heap order of the merge: the head with the smaller (resolve_time, shard)
/// comes out first; positions within a shard follow.
bool Later(const MergeHead& a, const MergeHead& b) {
  return a.time > b.time || (a.time == b.time && a.shard > b.shard);
}

}  // namespace

StatusOr<ShardPartition> PartitionWorkload(const Workload& w,
                                           const ShardRouter& router) {
  Status order = CheckArrivalOrder(w);
  if (!order.ok()) return order;
  const int n = router.num_shards();
  ShardPartition part;
  part.shards.resize(static_cast<size_t>(n));
  for (Workload& sub : part.shards) {
    sub.num_items = w.num_items;  // global item-id space on every shard
    sub.duration = w.duration;
    sub.query_trace_name = w.query_trace_name;
    sub.update_trace_name = w.update_trace_name;
  }
  if (n == 1) {
    // The one sub-workload reads the input's own trace through a view that
    // numbers queries by trace index: exactly the sub-trace a copy would
    // hold, with no query copied.
    Workload& sub = part.shards[0];
    sub.updates = w.updates;
    sub.query_source = std::make_shared<TraceIndexView>(&w);
    part.subqueries = w.QueryCount();
    part.sub_count.assign(static_cast<size_t>(part.subqueries), 1);
    return part;
  }
  for (const auto& u : w.updates) {
    part.shards[static_cast<size_t>(router.ShardOf(u.item))].updates.push_back(
        u);
  }

  // Sub-queries are re-dealt across shards into each sub-workload's own
  // materialized vector; the parent trace is read once, in place (or from a
  // cursor when streamed), and no parent read set is copied.
  part.sub_count.reserve(static_cast<size_t>(w.QueryCount()));
  std::vector<std::vector<ItemId>> groups;
  std::vector<int> touched;
  auto split = [&](const QueryRequest& q) {
    const size_t p = part.sub_count.size();
    router.Split(q.items, &groups, &touched);
    if (touched.empty()) touched.push_back(0);  // defensive: empty read set
    const auto total = static_cast<SimDuration>(q.items.size());
    SimDuration assigned = 0;
    for (size_t k = 0; k < touched.size(); ++k) {
      const int s = touched[k];
      QueryRequest sq;
      sq.id = static_cast<TxnId>(p);  // parent trace index, for the join
      sq.arrival = q.arrival;
      sq.exec = q.exec;
      sq.relative_deadline = q.relative_deadline;
      sq.freshness_req = q.freshness_req;
      sq.items = std::move(groups[static_cast<size_t>(s)]);
      sq.preference_class = q.preference_class;
      if (touched.size() > 1) {
        // Service demand proportional to the sub read-set size, each sub
        // >= 1 tick, integer remainder on the last touched shard.
        if (k + 1 < touched.size()) {
          sq.exec = std::max<SimDuration>(
              1, q.exec * static_cast<SimDuration>(sq.items.size()) / total);
          assigned += sq.exec;
        } else {
          sq.exec = std::max<SimDuration>(1, q.exec - assigned);
        }
      }
      part.shards[static_cast<size_t>(s)].queries.push_back(std::move(sq));
    }
    part.sub_count.push_back(static_cast<int>(touched.size()));
    part.subqueries += static_cast<int64_t>(touched.size());
    if (touched.size() > 1) ++part.cross_shard_queries;
  };
  if (w.query_source != nullptr) {
    auto cursor = w.query_source->NewCursor();
    QueryRequest q;
    while (cursor->Next(&q)) split(q);
  } else {
    for (const QueryRequest& q : w.queries) split(q);
  }
  return part;
}

Outcome CrossShardJoin(Outcome a, Outcome b) {
  // Dominant-penalty order (paper Fig. 2): reject > deadline miss > stale.
  // A parent succeeds only if every sub-query succeeded.
  auto rank = [](Outcome o) {
    switch (o) {
      case Outcome::kRejected:
        return 3;
      case Outcome::kDeadlineMiss:
        return 2;
      case Outcome::kDataStale:
        return 1;
      default:
        return 0;
    }
  };
  return rank(a) >= rank(b) ? a : b;
}

StatusOr<ShardedResult> RunSharded(const Workload& workload,
                                   const std::string& policy,
                                   const UsmWeights& weights,
                                   const ShardedParams& params) {
  const int n = params.shards < 1 ? 1 : params.shards;
  const ShardRouter router(n);
  auto part = PartitionWorkload(workload, router);
  if (!part.ok()) return part.status();

  if (!params.trace_dir.empty() && !params.reference_engines) {
    std::error_code ec;
    std::filesystem::create_directories(params.trace_dir, ec);
    if (ec) {
      return Status::Internal("trace_dir " + params.trace_dir + ": " +
                              ec.message());
    }
  }

  // Run the shards — in submission order on the pool; results land by
  // shard index, so completion order is irrelevant to every fold below.
  std::vector<ShardRunOutput> outputs(static_cast<size_t>(n));
  Status first_error = Status::Ok();
  if (params.jobs > 1 && n > 1) {
    ThreadPool pool(std::min(ResolveJobs(params.jobs), n));
    std::vector<std::future<StatusOr<ShardRunOutput>>> futures;
    futures.reserve(static_cast<size_t>(n));
    for (int s = 0; s < n; ++s) {
      futures.push_back(pool.Submit([&, s]() {
        return RunOneShard(workload,
                           part.value().shards[static_cast<size_t>(s)], s, n,
                           policy, weights, params);
      }));
    }
    for (int s = 0; s < n; ++s) {  // drain every future even after an error
      auto r = futures[static_cast<size_t>(s)].get();
      if (!r.ok()) {
        if (first_error.ok()) first_error = r.status();
      } else {
        outputs[static_cast<size_t>(s)] = std::move(r).value();
      }
    }
  } else {
    for (int s = 0; s < n; ++s) {
      auto r = RunOneShard(workload,
                           part.value().shards[static_cast<size_t>(s)], s, n,
                           policy, weights, params);
      if (!r.ok()) {
        first_error = r.status();
        break;
      }
      outputs[static_cast<size_t>(s)] = std::move(r).value();
    }
  }
  if (!first_error.ok()) return first_error;

  ShardedResult result;
  result.cross_shard_queries = part.value().cross_shard_queries;
  result.subqueries = part.value().subqueries;
  result.per_shard.reserve(static_cast<size_t>(n));
  for (const auto& o : outputs) result.per_shard.push_back(o.metrics);
  if (params.record_series) {
    result.per_shard_series.reserve(static_cast<size_t>(n));
    for (auto& o : outputs) result.per_shard_series.push_back(o.series);
    result.merged_series = MergeSeries(result.per_shard_series, weights);
  }

  // Scalar counters: shard 0's metrics as the base, every other shard
  // summed in (max for the depth and heap peaks). duration_s is
  // per-wall-clock and identical on every shard, so shard 0's copy stands.
  RunMetrics& merged = result.metrics;
  merged = outputs[0].metrics;
  for (int s = 1; s < n; ++s) {
    const RunMetrics& m = outputs[static_cast<size_t>(s)].metrics;
    merged.busy_s += m.busy_s;  // aggregate over N shard CPUs
    merged.events_processed += m.events_processed;
    merged.events_cancelled += m.events_cancelled;
    merged.event_compactions += m.event_compactions;
    merged.events_compacted += m.events_compacted;
    merged.peak_ready_depth = std::max(merged.peak_ready_depth,
                                       m.peak_ready_depth);
    merged.peak_event_queue = std::max(merged.peak_event_queue,
                                       m.peak_event_queue);
    merged.txn_live_peak += m.txn_live_peak;  // aggregate arena footprint
    merged.txn_slots_created += m.txn_slots_created;
    merged.txn_released += m.txn_released;
    merged.readset_inline += m.readset_inline;
    merged.readset_spill += m.readset_spill;
    merged.fault_edges += m.fault_edges;
    merged.fault_injected_queries += m.fault_injected_queries;
    merged.fault_injected_updates += m.fault_injected_updates;
    merged.fault_suppressed_updates += m.fault_suppressed_updates;
    merged.preemptions += m.preemptions;
    merged.lock_restarts += m.lock_restarts;
    merged.update_commits += m.update_commits;
    merged.on_demand_updates += m.on_demand_updates;
    merged.updates_generated += m.updates_generated;
    merged.updates_dropped += m.updates_dropped;
    merged.update_latency_s.Merge(m.update_latency_s);
    merged.session_requests += m.session_requests;
    merged.session_retries += m.session_retries;
    merged.session_successes += m.session_successes;
    merged.session_abandons += m.session_abandons;
    merged.queries_shed += m.queries_shed;
    merged.session_retry_delay_s.Merge(m.session_retry_delay_s);
    merged.cache_hits += m.cache_hits;
    merged.cache_misses += m.cache_misses;
    merged.cache_invalidations += m.cache_invalidations;
    merged.cache_stale_skips += m.cache_stale_skips;
    const size_t items = std::min(merged.per_item_accesses.size(),
                                  m.per_item_accesses.size());
    for (size_t i = 0; i < items; ++i) {
      merged.per_item_accesses[i] += m.per_item_accesses[i];
    }
    const size_t applied = std::min(merged.per_item_applied_updates.size(),
                                    m.per_item_applied_updates.size());
    for (size_t i = 0; i < applied; ++i) {
      merged.per_item_applied_updates[i] += m.per_item_applied_updates[i];
    }
  }
  if (n > 1) {
    // Per-shard registries can't be merged meaningfully (same counter names
    // with different per-shard meanings); the per_shard metrics keep them.
    merged.obs_counters.clear();
    merged.obs_gauges.clear();
  }

  // Join sub-queries back into parents. Workload parents are keyed by the
  // trace index carried in Transaction::trace_id; fault-injected queries
  // (trace_id kInvalidTxn) are their own single-sub parents.
  const std::vector<int>& sub_count = part.value().sub_count;
  const auto unknown_parent = [&](TxnId id) {
    return id < 0 || static_cast<size_t>(id) >= sub_count.size();
  };
  const auto unknown_parent_error = [](TxnId id) {
    return Status::Internal("sub-query resolved with unknown parent " +
                            std::to_string(id));
  };
  // Closed-loop runs resolve one sub-record per *attempt* of a parent's
  // sub-query on its home shard. The parent join is over final outcomes, so
  // each shard keeps only its last record per parent (injected queries have
  // no sessions and every record is kept); a backward scan marks them.
  // When sessions are off every record is kept.
  const bool closed_loop = params.engine.session.sessions > 0;
  std::vector<std::vector<char>> keep(static_cast<size_t>(n));
  if (closed_loop) {
    std::vector<int> kept_on(sub_count.size(), -1);  // shard that kept it
    for (int s = 0; s < n; ++s) {
      const auto& records = outputs[static_cast<size_t>(s)].records;
      std::vector<char>& k = keep[static_cast<size_t>(s)];
      k.assign(records.size(), 0);
      for (size_t pos = records.size(); pos-- > 0;) {
        const TxnId id = records[pos].trace_id;
        if (id == kInvalidTxn) {
          k[pos] = 1;
        } else if (unknown_parent(id)) {
          return unknown_parent_error(id);
        } else if (kept_on[static_cast<size_t>(id)] != s) {
          kept_on[static_cast<size_t>(id)] = s;
          k[pos] = 1;
        }
      }
    }
  }

  // Parent-level accounting in merged resolution order: a shard resolves
  // its records in (resolve_time, pos) order, since its clock never runs
  // backwards, so a k-way merge of the shards' kept records by
  // (resolve_time, shard, pos) visits every sub-record in one total order,
  // identical for every jobs count. A parent is complete at its last
  // sub-record, its largest key, and is folded into the counts and stats
  // right then; at shards=1 this is shard 0's resolution order, which is
  // what makes the merged stat folds bit-identical to the monolithic
  // engine's.
  merged.counts = OutcomeCounts{};
  merged.per_class_counts.clear();
  merged.query_response_s.Clear();
  merged.query_freshness.Clear();
  const auto count = [](Outcome outcome, OutcomeCounts& c) {
    ++c.submitted;
    switch (outcome) {
      case Outcome::kSuccess:
        ++c.success;
        break;
      case Outcome::kRejected:
        ++c.rejected;
        break;
      case Outcome::kDeadlineMiss:
        ++c.dmf;
        break;
      case Outcome::kDataStale:
        ++c.dsf;
        break;
      case Outcome::kPending:
        break;
    }
  };
  const auto emit = [&](const ParentAgg& p, TxnId trace_id, SimTime rt) {
    count(p.outcome, merged.counts);
    const auto cls = static_cast<size_t>(p.pref_class);
    if (cls >= merged.per_class_counts.size()) {
      merged.per_class_counts.resize(cls + 1);
    }
    count(p.outcome, merged.per_class_counts[cls]);
    const bool committed = p.outcome == Outcome::kSuccess ||
                           p.outcome == Outcome::kDataStale;
    if (committed) {
      merged.query_response_s.Add(SimToSeconds(p.commit - p.arrival));
      merged.query_freshness.Add(p.freshness);
    }
    ShardQueryRecord rec;
    rec.trace_id = trace_id;
    rec.outcome = p.outcome;
    rec.observed_freshness = committed ? p.freshness : -1.0;
    rec.commit_time = committed ? p.commit : -1;
    rec.resolve_time = rt;
    rec.restarts = p.restarts;
    rec.preference_class = p.pref_class;
    rec.subqueries = p.seen;
    result.queries.push_back(rec);
  };

  // Sub-records each parent still awaits; it completes at 0. Parents split
  // across shards fold into `partial`, one slot each (in trace order,
  // through slot_of); every other parent is emitted straight from its one
  // record.
  std::vector<int> remaining = sub_count;
  std::vector<int> slot_of;
  std::vector<ParentAgg> partial;
  if (part.value().cross_shard_queries > 0) {
    slot_of.assign(sub_count.size(), -1);
    int slots = 0;
    for (size_t i = 0; i < sub_count.size(); ++i) {
      if (sub_count[i] > 1) slot_of[i] = slots++;
    }
    partial.resize(static_cast<size_t>(slots));
  }
  result.queries.reserve(sub_count.size());

  // The merge: a min-heap over the head record of every shard, keyed by
  // (resolve_time, shard); `next[s]` is shard s's head position.
  std::vector<size_t> next(static_cast<size_t>(n), 0);
  const auto to_kept = [&](int s) {  // false once shard s is exhausted
    const auto& records = outputs[static_cast<size_t>(s)].records;
    size_t& pos = next[static_cast<size_t>(s)];
    if (closed_loop) {
      const std::vector<char>& k = keep[static_cast<size_t>(s)];
      while (pos < records.size() && k[pos] == 0) ++pos;
    }
    return pos < records.size();
  };
  std::vector<MergeHead> heads;
  heads.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    if (!to_kept(s)) continue;
    heads.push_back(MergeHead{outputs[static_cast<size_t>(s)]
                                  .records[next[static_cast<size_t>(s)]]
                                  .resolve_time,
                              s});
  }
  std::make_heap(heads.begin(), heads.end(), Later);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), Later);
    const int s = heads.back().shard;
    const auto& records = outputs[static_cast<size_t>(s)].records;
    const SubRecord& rec = records[next[static_cast<size_t>(s)]++];
    if (to_kept(s)) {
      heads.back().time = records[next[static_cast<size_t>(s)]].resolve_time;
      assert(heads.back().time >= rec.resolve_time);
      std::push_heap(heads.begin(), heads.end(), Later);
    } else {
      heads.pop_back();
    }

    const TxnId id = rec.trace_id;
    if (id != kInvalidTxn && unknown_parent(id)) return unknown_parent_error(id);
    if (id != kInvalidTxn && sub_count[static_cast<size_t>(id)] > 1) {
      ParentAgg& p = partial[static_cast<size_t>(
          slot_of[static_cast<size_t>(id)])];
      FoldSubRecord(rec, s, &p);
      if (--remaining[static_cast<size_t>(id)] == 0) {
        emit(p, id, rec.resolve_time);
      }
      continue;
    }
    // A fault-injected query, or a parent with one sub-query.
    if (id != kInvalidTxn && --remaining[static_cast<size_t>(id)] != 0) {
      continue;  // a second record: reported below
    }
    ParentAgg one;
    FoldSubRecord(rec, s, &one);
    emit(one, id, rec.resolve_time);
  }
  for (size_t i = 0; i < remaining.size(); ++i) {
    if (remaining[i] != 0) {
      return Status::Internal(
          "parent " + std::to_string(i) + " joined " +
          std::to_string(sub_count[i] - remaining[i]) + "/" +
          std::to_string(sub_count[i]) + " sub-queries");
    }
  }

  result.usm = UsmAverage(merged.counts, weights);
  result.breakdown = UsmDecompose(merged.counts, weights);

  if (!params.trace_dir.empty() && !params.reference_engines) {
    Status s = WriteMergedTrace(outputs, params.trace_dir);
    if (!s.ok()) return s;
  }
  return result;
}

}  // namespace unitdb
