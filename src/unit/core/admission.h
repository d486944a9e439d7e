#ifndef UNIT_CORE_ADMISSION_H_
#define UNIT_CORE_ADMISSION_H_

#include <cstdint>
#include <vector>

#include "unit/common/types.h"
#include "unit/core/usm.h"
#include "unit/txn/transaction.h"
#include "unit/workload/spec.h"

namespace unitdb {

class EngineContext;

/// Tunables of the paper's Query Admission Control (Section 3.3).
struct AdmissionParams {
  double initial_c_flex = 1.0;  ///< lag ratio C_flex (larger = tighter)
  double adjust_step = 0.10;    ///< TAC/LAC adjust C_flex by +/-10%
  double min_c_flex = 0.1;
  double max_c_flex = 16.0;
  /// Enables the system USM check on top of the deadline check.
  bool usm_check_enabled = true;
  /// Effective per-query cost used by the USM check when every weight is
  /// zero (the naive setting): endangered transactions and the candidate are
  /// then compared at unit cost.
  double zero_weight_unit_cost = 1.0;
};

/// Online EST/admission index over the queries live in the engine's ready
/// queue, kept in sync at every ready-queue mutation of a query: a treap
/// keyed by (absolute deadline, txn id) — the ready queue's EDF order — with
/// deterministic SplitMix64(txn id) priorities. Nothing is presorted, so
/// streamed, closed-loop and fault-injected arrivals are indexed alike.
/// Each node summarizes its subtree:
///
///  - remaining service demand: the deadline check's earlier-deadline work
///    term (EST) is one root-to-leaf walk;
///  - min/max of the per-query "lag" m_k = deadline_k - P_k (P_k = EDF-prefix
///    remaining work through query k within the queried key suffix),
///    answering "how many queued queries with deadline > d have lag in
///    [lo, hi)" — exactly the set the candidate would newly endanger.
///    Subtrees whose lag window misses [lo, hi) are pruned, so the count is
///    O(log n) except when many queries straddle the window.
///
/// Nodes live in one vector with a free list (no per-node allocation); each
/// indexed Transaction holds its node handle. Integer (SimTime) arithmetic
/// end to end, so every comparison matches the naive scan bit for bit.
class AdmissionIndex {
 public:
  /// Clears and enables the index, reserving node storage for the first
  /// queued queries of `workload`. Assumes EDF dispatch order.
  void Init(const Workload& workload);

  bool enabled() const { return enabled_; }

  /// The query entered the ready queue (remaining stays fixed while
  /// queued); stamps its node handle.
  void OnInsert(Transaction& query);
  /// The query left the ready queue; clears its node handle.
  void OnRemove(Transaction& query);

  /// Sum of remaining demand of queued queries with deadline <= `deadline`.
  SimDuration EarlierWork(SimTime deadline) const;

  /// Number of queued queries with deadline > `deadline`.
  int64_t LaterCount(SimTime deadline) const;

  /// Number of queued queries with deadline > `deadline` whose EDF lag
  /// (deadline minus the prefix work of later-deadline queries through
  /// themselves) falls in [lo, hi) — the candidate's newly endangered set.
  int64_t CountEndangered(SimTime deadline, int64_t lo, int64_t hi) const;

  /// Number of currently indexed (queued) queries.
  int64_t occupied() const { return root_ < 0 ? 0 : nodes_[root_].sum.count; }

  /// Tree nodes the three queries above have touched since Init — an
  /// operation counter for deterministic cost tests.
  int64_t nodes_visited() const { return nodes_visited_; }

 private:
  struct Summary {
    int64_t work = 0;    ///< sum of remaining demand in the subtree
    int64_t min_m = 0;   ///< min over subtree of deadline - local prefix work
    int64_t max_m = 0;   ///< max of the same (valid only when count > 0)
    int32_t count = 0;   ///< queries in the subtree
  };
  struct Node {
    SimTime deadline = 0;
    TxnId id = kInvalidTxn;
    SimDuration work = 0;   ///< the query's remaining demand
    uint64_t priority = 0;  ///< heap order: parent priority >= child's
    /// Left, right; child[0] is also the free-list link of a free node.
    int32_t child[2] = {-1, -1};
    Summary sum;            ///< over the subtree rooted here
  };

  static Summary Merge(const Summary& l, const Summary& r);
  static bool KeyLess(const Node& a, const Node& b) {
    return a.deadline != b.deadline ? a.deadline < b.deadline : a.id < b.id;
  }
  const Summary& SumOf(int32_t t) const {
    static const Summary kEmpty;
    return t < 0 ? kEmpty : nodes_[t].sum;
  }
  void Pull(int32_t t);
  int32_t Rotate(int32_t t, int d);
  int32_t InsertRec(int32_t t, int32_t x);
  int32_t RemoveRec(int32_t t, int32_t x);
  int32_t Join(int32_t a, int32_t b);
  int64_t Endangered(int32_t t, SimTime deadline, bool whole, int64_t lo,
                     int64_t hi, int64_t& acc) const;

  bool enabled_ = false;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
  int32_t free_head_ = -1;
  mutable int64_t nodes_visited_ = 0;
};

/// The paper's two-stage admission control:
///
///  1. *Transaction deadline check*: the query is promising iff
///     C_flex * EST_i + qe_i < qt_i, where EST_i (earliest possible start)
///     sums the remaining demand of the running transaction, all queued
///     updates, and queued queries with earlier deadlines.
///  2. *System USM check*: simulate inserting the query into the EDF
///     schedule; transactions that would newly miss their deadlines are
///     "endangered". Reject when their total DMF cost exceeds the rejection
///     cost C_r of turning the candidate away.
///
/// Both checks are O(N_rq) in the paper (and in the naive scan, which the
/// reference engine and the FCFS ablation use); whenever the engine's
/// AdmissionIndex is enabled they run against it in O(log N_rq), with
/// bit-identical decisions.
class AdmissionController {
 public:
  AdmissionController(const AdmissionParams& params,
                      const UsmWeights& weights);

  /// Full admission decision for `candidate` at its arrival instant, using
  /// the controller's default weights.
  bool Admit(const EngineContext& engine, const Transaction& candidate);

  /// Same, valuing the candidate and the endangered transactions with
  /// caller-chosen weights (multi-preference support).
  bool Admit(const EngineContext& engine, const Transaction& candidate,
             const UsmWeights& weights);

  /// TAC signal: tighten (C_flex up by adjust_step).
  void Tighten();
  /// LAC signal: loosen (C_flex down by adjust_step).
  void Loosen();

  double c_flex() const { return c_flex_; }
  int64_t rejected_by_deadline() const { return rejected_by_deadline_; }
  int64_t rejected_by_usm() const { return rejected_by_usm_; }
  int64_t admitted() const { return admitted_; }

  /// Which check failed the most recent Admit call ("deadline" or "usm";
  /// nullptr when it admitted). Static-storage strings — callers may hold
  /// the pointer. Feeds the reject-reason field of obs/ trace events.
  const char* last_reject_reason() const { return last_reject_reason_; }

 private:
  bool AdmitNaive(const EngineContext& engine, const Transaction& candidate,
                  const UsmWeights& weights);
  bool AdmitIndexed(const EngineContext& engine, const AdmissionIndex& index,
                    const Transaction& candidate, const UsmWeights& weights);
  /// Both checks, given the gathered earlier-deadline work, whether any
  /// queued query has a later deadline, and `count_endangered(start,
  /// start_with)`: how many later queries meet their deadline when the
  /// later schedule starts at `start` but miss it when it starts at
  /// `start_with` (the candidate running first).
  template <typename CountEndangered>
  bool Decide(const EngineContext& engine, const Transaction& candidate,
              const UsmWeights& weights, SimDuration earlier_work,
              bool any_later, CountEndangered&& count_endangered);

  AdmissionParams params_;
  UsmWeights weights_;
  double c_flex_;
  int64_t rejected_by_deadline_ = 0;
  int64_t rejected_by_usm_ = 0;
  int64_t admitted_ = 0;
  const char* last_reject_reason_ = nullptr;
};

}  // namespace unitdb

#endif  // UNIT_CORE_ADMISSION_H_
