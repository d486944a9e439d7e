#ifndef UNIT_SCHED_METRICS_H_
#define UNIT_SCHED_METRICS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "unit/common/stats.h"
#include "unit/common/types.h"
#include "unit/txn/outcome.h"

namespace unitdb {

/// Everything one engine run records. Outcome counts feed the USM; the rest
/// supports the paper's distribution plots (Fig. 3), the ratio decomposition
/// (Fig. 6), and general sanity reporting.
struct RunMetrics {
  OutcomeCounts counts;
  /// Per-preference-class outcome counters (index = preference_class;
  /// sized to the largest class seen; empty when no query resolved).
  std::vector<OutcomeCounts> per_class_counts;

  /// Response time of committed queries, seconds.
  RunningStat query_response_s;
  /// Observed read-set freshness of committed queries (Eq. 1 value).
  RunningStat query_freshness;
  /// Arrival-to-commit latency of update transactions, seconds.
  RunningStat update_latency_s;

  double duration_s = 0.0;
  double busy_s = 0.0;  ///< CPU busy time
  double Utilization() const {
    return duration_s > 0.0 ? busy_s / duration_s : 0.0;
  }

  // --- engine hot-path telemetry (perf tracking; bench_engine_throughput
  // reports these as BENCH_engine.json fields) ---
  int64_t events_processed = 0;   ///< events popped off the event queue
  int64_t events_cancelled = 0;   ///< events tombstoned by lazy cancellation
  int64_t event_compactions = 0;  ///< event-heap compaction passes
  int64_t events_compacted = 0;   ///< dead events physically removed
  int peak_ready_depth = 0;       ///< largest ready-queue size observed
  int64_t peak_event_queue = 0;   ///< most events pending in the heap at once

  // --- transaction-slab / read-set telemetry (memory-flat hot path; the
  // slab recycles slots, so slots_created is the arena's whole footprint
  // and live_peak bounds it regardless of how many transactions a run
  // processes in total) ---
  int64_t txn_live_peak = 0;      ///< max simultaneously live transactions
  int64_t txn_slots_created = 0;  ///< distinct slab slots ever allocated
  int64_t txn_released = 0;       ///< slots recycled over the run
  int64_t readset_inline = 0;     ///< read sets held in the inline buffer
  int64_t readset_spill = 0;      ///< read sets spilled to a heap block

  // --- fault-injection telemetry (src/unit/faults/; all 0 when no fault
  // schedule is attached or the schedule is empty) ---
  int64_t fault_edges = 0;               ///< fault start/stop edges processed
  int64_t fault_injected_queries = 0;    ///< load-step query arrivals injected
  int64_t fault_injected_updates = 0;    ///< burst update deliveries ingested
  int64_t fault_suppressed_updates = 0;  ///< deliveries swallowed by outages

  // --- closed-loop session telemetry (src/unit/session/; all 0 when
  // SessionParams::sessions == 0 and shedding is off) ---
  int64_t session_requests = 0;   ///< distinct trace requests entering a session
  int64_t session_retries = 0;    ///< resubmissions scheduled by sessions
  int64_t session_successes = 0;  ///< requests that eventually committed
  int64_t session_abandons = 0;   ///< requests given up (retries/patience spent)
  int64_t queries_shed = 0;       ///< ready queries evicted by overload shedding
  /// Client-observed retry delay (think + backoff + jitter), seconds.
  RunningStat session_retry_delay_s;

  // --- result-cache telemetry (src/unit/cache/; all 0 when
  // CacheParams::capacity == 0) ---
  int64_t cache_hits = 0;           ///< queries answered from cache on arrival
  int64_t cache_misses = 0;         ///< arrivals with an uncovered read set
  int64_t cache_invalidations = 0;  ///< entries erased by update installs
  int64_t cache_stale_skips = 0;    ///< covered arrivals too stale to serve

  int64_t preemptions = 0;
  int64_t lock_restarts = 0;      ///< 2PL-HP aborts of shared holders
  int64_t update_commits = 0;
  int64_t on_demand_updates = 0;  ///< refresh transactions issued by ODU-style policies
  int64_t updates_generated = 0;  ///< update txns the server created (periodic + on-demand)
  int64_t updates_dropped = 0;    ///< source arrivals shed by frequency modulation

  /// Per-item counters copied from the database at end of run.
  std::vector<int64_t> per_item_accesses;
  std::vector<int64_t> per_item_applied_updates;

  /// Observability registry snapshot (EngineParams::counters), taken at end
  /// of run. Empty unless a registry was attached AND something registered
  /// into it (sinks / recorders only register when tracing is on — the
  /// trace-off overhead test asserts these stay empty). Excluded from
  /// behavior-equivalence comparisons: tracing must not change any other
  /// field of this struct.
  std::vector<std::pair<std::string, int64_t>> obs_counters;
  std::vector<std::pair<std::string, double>> obs_gauges;
};

}  // namespace unitdb

#endif  // UNIT_SCHED_METRICS_H_
