#include "unit/core/policies/qmf.h"

#include <algorithm>
#include <cmath>

#include "unit/db/database.h"
#include "unit/sched/engine_context.h"

namespace unitdb {

QmfPolicy::QmfPolicy(QmfParams params)
    : params_(params), budget_(params.initial_budget) {}

void QmfPolicy::Attach(EngineContext& engine) {
  const int n = engine.db().num_items();
  access_count_.assign(n, 0.0);
  update_count_.assign(n, 0.0);
  ranked_.reserve(static_cast<size_t>(n));
  window_budget_s_ =
      budget_ * SimToSeconds(engine.params().control_period);
  window_admitted_work_s_ = 0.0;
  last_tick_ = 0;
  last_busy_s_ = 0.0;
}

bool QmfPolicy::AdmitQuery(EngineContext& engine, const Transaction& query) {
  (void)engine;
  const double demand_s = SimToSeconds(query.estimate());
  if (window_admitted_work_s_ + demand_s > window_budget_s_) {
    ++budget_rejections_;
    return false;
  }
  window_admitted_work_s_ += demand_s;
  return true;
}

void QmfPolicy::OnQueryResolved(EngineContext& engine, const Transaction& query,
                                Outcome outcome) {
  (void)engine;
  if (outcome == Outcome::kRejected) return;
  ++window_admitted_resolved_;
  if (outcome == Outcome::kDeadlineMiss) {
    ++window_admitted_missed_;
    return;
  }
  // Committed (success or stale): count perceived freshness and accesses.
  ++window_committed_;
  if (outcome == Outcome::kSuccess) ++window_fresh_;
  for (ItemId item : query.items()) access_count_[item] += 1.0;
}

void QmfPolicy::OnUpdateSourceArrival(EngineContext& engine, ItemId item) {
  (void)engine;
  update_count_[item] += 1.0;
}

void QmfPolicy::OnControlTick(EngineContext& engine) {
  const SimTime now = engine.now();
  const double window_s = SimToSeconds(now - last_tick_);
  last_tick_ = now;

  const double busy = engine.BusySeconds();
  const double utilization =
      window_s > 0.0 ? (busy - last_busy_s_) / window_s : 0.0;
  last_busy_s_ = busy;

  const double freshness =
      window_committed_ > 0 ? static_cast<double>(window_fresh_) /
                                  static_cast<double>(window_committed_)
                            : 1.0;
  const double miss_ratio =
      window_admitted_resolved_ > 0
          ? static_cast<double>(window_admitted_missed_) /
                static_cast<double>(window_admitted_resolved_)
          : 0.0;

  const bool overloaded = utilization >= params_.target_utilization ||
                          miss_ratio > params_.target_miss_ratio;
  if (!overloaded) {
    if (freshness < params_.target_freshness) {
      UpgradeAll(engine);
    } else {
      budget_ = std::min(params_.max_budget,
                         budget_ * (1.0 + params_.budget_step));
    }
  } else {
    if (freshness >= params_.target_freshness) {
      DegradeLowestRatio(engine);
    } else {
      budget_ = std::max(params_.min_budget,
                         budget_ * (1.0 - params_.budget_step));
    }
  }

  // Roll the window.
  window_budget_s_ =
      budget_ * SimToSeconds(engine.params().control_period);
  window_admitted_work_s_ = 0.0;
  window_admitted_resolved_ = 0;
  window_admitted_missed_ = 0;
  window_committed_ = 0;
  window_fresh_ = 0;
  for (auto& c : access_count_) c *= params_.counter_decay;
  for (auto& c : update_count_) c *= params_.counter_decay;
}

void QmfPolicy::DegradeLowestRatio(EngineContext& engine) {
  Database& db = engine.db();
  // Rank update-bearing items by access/update ratio, lowest first: items
  // that are updated a lot but read rarely lose update bandwidth first.
  // Each ratio is computed once; (ratio, id) pairs order lexicographically,
  // a strict total order, so the batch and its order are unique.
  ranked_.clear();
  for (ItemId i = 0; i < db.num_items(); ++i) {
    const DataItemState& item = db.item(i);
    if (item.ideal_period >= kNoUpdates) continue;
    if (static_cast<double>(item.current_period) >=
        static_cast<double>(item.ideal_period) * params_.max_stretch) {
      continue;
    }
    ranked_.emplace_back(access_count_[i] / (update_count_[i] + 1.0), i);
  }
  const auto k = static_cast<std::ptrdiff_t>(std::min<size_t>(
      ranked_.size(), static_cast<size_t>(params_.degrade_batch)));
  std::nth_element(ranked_.begin(), ranked_.begin() + k, ranked_.end());
  std::sort(ranked_.begin(), ranked_.begin() + k);
  for (std::ptrdiff_t j = 0; j < k; ++j) {
    const ItemId i = ranked_[static_cast<size_t>(j)].second;
    const DataItemState& item = db.item(i);
    const double cap =
        static_cast<double>(item.ideal_period) * params_.max_stretch;
    const double stretched =
        std::min(cap, static_cast<double>(item.current_period) *
                          params_.degrade_factor);
    db.SetCurrentPeriod(i, static_cast<SimDuration>(stretched));
  }
}

void QmfPolicy::UpgradeAll(EngineContext& engine) {
  Database& db = engine.db();
  for (ItemId i = 0; i < db.num_items(); ++i) {
    const DataItemState& item = db.item(i);
    if (item.ideal_period >= kNoUpdates ||
        item.current_period <= item.ideal_period) {
      continue;
    }
    const SimDuration shrunk = std::max(
        item.ideal_period,
        static_cast<SimDuration>(static_cast<double>(item.current_period) /
                                 params_.degrade_factor));
    db.SetCurrentPeriod(i, shrunk);
  }
}

}  // namespace unitdb
