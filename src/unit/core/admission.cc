#include "unit/core/admission.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "unit/common/rng.h"
#include "unit/sched/engine_context.h"

namespace unitdb {

// --- AdmissionIndex -------------------------------------------------------

namespace {
/// Node storage reserved up front; the vector grows past it with the ready
/// queue, never with the trace.
constexpr size_t kInitialNodes = 1024;
}  // namespace

void AdmissionIndex::Init(const Workload& workload) {
  enabled_ = true;
  nodes_.clear();
  nodes_.reserve(std::min(workload.queries.size(), kInitialNodes));
  root_ = -1;
  free_head_ = -1;
  nodes_visited_ = 0;
}

AdmissionIndex::Summary AdmissionIndex::Merge(const Summary& l,
                                              const Summary& r) {
  Summary p;
  p.count = l.count + r.count;
  p.work = l.work + r.work;
  if (l.count == 0) {  // l.work == 0, so the right half shifts by nothing
    p.min_m = r.min_m;
    p.max_m = r.max_m;
  } else if (r.count == 0) {
    p.min_m = l.min_m;
    p.max_m = l.max_m;
  } else {
    p.min_m = std::min(l.min_m, r.min_m - l.work);
    p.max_m = std::max(l.max_m, r.max_m - l.work);
  }
  return p;
}

void AdmissionIndex::Pull(int32_t t) {
  Node& n = nodes_[t];
  const Summary self{n.work, n.deadline - n.work, n.deadline - n.work, 1};
  n.sum = Merge(Merge(SumOf(n.child[0]), self), SumOf(n.child[1]));
}

// Lifts child `d` of `t` (0 = left, 1 = right) above it.
int32_t AdmissionIndex::Rotate(int32_t t, int d) {
  const int32_t c = nodes_[t].child[d];
  nodes_[t].child[d] = nodes_[c].child[1 - d];
  nodes_[c].child[1 - d] = t;
  Pull(t);
  Pull(c);
  return c;
}

int32_t AdmissionIndex::InsertRec(int32_t t, int32_t x) {
  if (t < 0) return x;
  const int d = KeyLess(nodes_[t], nodes_[x]) ? 1 : 0;
  const int32_t c = InsertRec(nodes_[t].child[d], x);
  nodes_[t].child[d] = c;
  if (nodes_[c].priority > nodes_[t].priority) return Rotate(t, d);
  Pull(t);
  return t;
}

// Merges subtrees `a` and `b`, every key of `a` below every key of `b`.
int32_t AdmissionIndex::Join(int32_t a, int32_t b) {
  if (a < 0) return b;
  if (b < 0) return a;
  if (nodes_[a].priority > nodes_[b].priority) {
    nodes_[a].child[1] = Join(nodes_[a].child[1], b);
    Pull(a);
    return a;
  }
  nodes_[b].child[0] = Join(a, nodes_[b].child[0]);
  Pull(b);
  return b;
}

int32_t AdmissionIndex::RemoveRec(int32_t t, int32_t x) {
  assert(t >= 0 && "query not in the admission index");
  if (t == x) return Join(nodes_[t].child[0], nodes_[t].child[1]);
  const int d = KeyLess(nodes_[t], nodes_[x]) ? 1 : 0;
  nodes_[t].child[d] = RemoveRec(nodes_[t].child[d], x);
  Pull(t);
  return t;
}

void AdmissionIndex::OnInsert(Transaction& query) {
  assert(query.is_query() && query.admission_node() < 0);
  int32_t x = free_head_;
  if (x >= 0) {
    free_head_ = nodes_[x].child[0];
  } else {
    x = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[x] = Node{query.absolute_deadline(), query.id(), query.remaining(),
                   SplitMix64(static_cast<uint64_t>(query.id())), {-1, -1},
                   Summary{}};
  Pull(x);
  root_ = InsertRec(root_, x);
  query.set_admission_node(x);
}

void AdmissionIndex::OnRemove(Transaction& query) {
  const int32_t x = query.admission_node();
  assert(query.is_query() && x >= 0 && nodes_[x].id == query.id());
  root_ = RemoveRec(root_, x);
  nodes_[x].child[0] = free_head_;
  free_head_ = x;
  query.set_admission_node(-1);
}

SimDuration AdmissionIndex::EarlierWork(SimTime deadline) const {
  SimDuration work = 0;
  for (int32_t t = root_; t >= 0;) {
    ++nodes_visited_;
    const Node& n = nodes_[t];
    if (n.deadline <= deadline) {
      work += SumOf(n.child[0]).work + n.work;
      t = n.child[1];
    } else {
      t = n.child[0];
    }
  }
  return work;
}

int64_t AdmissionIndex::LaterCount(SimTime deadline) const {
  int64_t count = 0;
  for (int32_t t = root_; t >= 0;) {
    ++nodes_visited_;
    const Node& n = nodes_[t];
    if (n.deadline > deadline) {
      count += SumOf(n.child[1]).count + 1;
      t = n.child[0];
    } else {
      t = n.child[1];
    }
  }
  return count;
}

// Queries of subtree `t` with deadline > `deadline`, in key order, adding
// their work to `acc`. Once `whole` (every query of `t` lies past the cut),
// the subtree's lags, shifted by `acc`, span [min_m - acc, max_m - acc].
int64_t AdmissionIndex::Endangered(int32_t t, SimTime deadline, bool whole,
                                   int64_t lo, int64_t hi,
                                   int64_t& acc) const {
  while (!whole && t >= 0 && nodes_[t].deadline <= deadline) {
    ++nodes_visited_;
    t = nodes_[t].child[1];  // this node and its left subtree precede the cut
  }
  if (t < 0) return 0;
  ++nodes_visited_;
  const Node& n = nodes_[t];
  if (whole) {
    const int64_t mn = n.sum.min_m - acc;
    const int64_t mx = n.sum.max_m - acc;
    if (mx < lo || mn >= hi || (lo <= mn && mx < hi)) {
      acc += n.sum.work;
      return mx < lo || mn >= hi ? 0 : n.sum.count;
    }
  }
  int64_t c = Endangered(n.child[0], deadline, whole, lo, hi, acc);
  acc += n.work;
  const int64_t m = n.deadline - acc;
  if (lo <= m && m < hi) ++c;
  return c + Endangered(n.child[1], deadline, true, lo, hi, acc);
}

int64_t AdmissionIndex::CountEndangered(SimTime deadline, int64_t lo,
                                        int64_t hi) const {
  int64_t acc = 0;
  return Endangered(root_, deadline, /*whole=*/false, lo, hi, acc);
}

// --- AdmissionController --------------------------------------------------

AdmissionController::AdmissionController(const AdmissionParams& params,
                                         const UsmWeights& weights)
    : params_(params), weights_(weights), c_flex_(params.initial_c_flex) {}

bool AdmissionController::Admit(const EngineContext& engine,
                                const Transaction& candidate) {
  return Admit(engine, candidate, weights_);
}

bool AdmissionController::Admit(const EngineContext& engine,
                                const Transaction& candidate,
                                const UsmWeights& weights) {
  const AdmissionIndex& index = engine.admission_index();
  return index.enabled() ? AdmitIndexed(engine, index, candidate, weights)
                         : AdmitNaive(engine, candidate, weights);
}

bool AdmissionController::AdmitNaive(const EngineContext& engine,
                                     const Transaction& candidate,
                                     const UsmWeights& weights) {
  // One O(N_rq) pass over queued queries gathers both the earlier-deadline
  // work (for EST) and the later-deadline schedule (for the USM check), in
  // visit order (EDF order under EDF dispatch).
  SimDuration earlier_work = 0;
  struct Later {
    SimTime deadline;
    SimDuration remaining;
  };
  std::vector<Later> later;
  engine.ForEachReadyQuery([&](const Transaction& q) {
    if (q.absolute_deadline() <= candidate.absolute_deadline()) {
      earlier_work += q.remaining();
    } else {
      later.push_back({q.absolute_deadline(), q.remaining()});
    }
  });
  // Walk the later schedule without and with the candidate slotted in
  // ahead of it: which queries would newly miss their deadlines?
  return Decide(engine, candidate, weights, earlier_work, !later.empty(),
                [&later](SimTime without, SimTime with) {
                  int64_t endangered = 0;
                  for (const Later& q : later) {
                    with += q.remaining;
                    without += q.remaining;
                    if (with > q.deadline && without <= q.deadline) {
                      ++endangered;
                    }
                  }
                  return endangered;
                });
}

bool AdmissionController::AdmitIndexed(const EngineContext& engine,
                                       const AdmissionIndex& index,
                                       const Transaction& candidate,
                                       const UsmWeights& weights) {
  // A later query is newly endangered iff its lag falls in
  // [start, start_with) — see Decide.
  const SimTime deadline = candidate.absolute_deadline();
  return Decide(engine, candidate, weights, index.EarlierWork(deadline),
                index.LaterCount(deadline) > 0,
                [&index, deadline](SimTime start, SimTime start_with) {
                  return index.CountEndangered(deadline, start, start_with);
                });
}

template <typename CountEndangered>
bool AdmissionController::Decide(const EngineContext& engine,
                                 const Transaction& candidate,
                                 const UsmWeights& weights,
                                 SimDuration earlier_work, bool any_later,
                                 CountEndangered&& count_endangered) {
  // Integer (SimTime) arithmetic for EST and every endangered-set
  // comparison, so both gathering paths decide bit for bit alike.
  const SimDuration est = engine.RunningRemaining() +
                          engine.QueuedUpdateWork() + earlier_work;
  const bool naive = weights.AllZeroPenalties();

  // 1. Transaction deadline check: C_flex * EST + qe < qt. Rejecting an
  // unpromising query only raises user satisfaction when a rejection costs
  // no more than the deadline miss it prevents; with C_r > C_fm the
  // USM-rational move is to admit and let the firm deadline decide (the
  // system USM check still protects the other transactions).
  if (!(!naive && weights.c_r > weights.c_fm)) {
    const double lhs = c_flex_ * static_cast<double>(est) +
                       static_cast<double>(candidate.estimate());
    const double qt = static_cast<double>(candidate.absolute_deadline() -
                                          engine.now());
    if (!(lhs < qt)) {
      ++rejected_by_deadline_;
      last_reject_reason_ = "deadline";
      return false;
    }
  }

  // 2. System USM check: reject when the later-deadline queries the
  // candidate would newly endanger cost more than turning it away.
  if (params_.usm_check_enabled && any_later) {
    const double dmf_cost =
        naive ? params_.zero_weight_unit_cost : weights.c_fm;
    const double rejection_cost =
        naive ? params_.zero_weight_unit_cost : weights.c_r;
    if (dmf_cost > 0.0) {
      const SimTime start = engine.now() + est;
      const int64_t endangered =
          count_endangered(start, start + candidate.estimate());
      // Accumulate the cost by repeated addition, one term per endangered
      // query, as a per-query scan would.
      double endangered_cost = 0.0;
      for (int64_t i = 0; i < endangered; ++i) endangered_cost += dmf_cost;
      if (endangered_cost > rejection_cost) {
        ++rejected_by_usm_;
        last_reject_reason_ = "usm";
        return false;
      }
    }
  }

  ++admitted_;
  last_reject_reason_ = nullptr;
  return true;
}

void AdmissionController::Tighten() {
  c_flex_ = std::min(params_.max_c_flex, c_flex_ * (1.0 + params_.adjust_step));
}

void AdmissionController::Loosen() {
  c_flex_ = std::max(params_.min_c_flex, c_flex_ * (1.0 - params_.adjust_step));
}

}  // namespace unitdb
