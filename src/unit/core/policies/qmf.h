#ifndef UNIT_CORE_POLICIES_QMF_H_
#define UNIT_CORE_POLICIES_QMF_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "unit/core/policy.h"

namespace unitdb {

/// Tunables of the QMF re-implementation.
struct QmfParams {
  /// CPU utilization set-point separating "underutilized" from "overloaded".
  double target_utilization = 0.90;
  /// Perceived-freshness target (fraction of committed queries meeting their
  /// freshness requirement).
  double target_freshness = 0.90;
  /// Miss-ratio target among admitted queries.
  double target_miss_ratio = 0.05;
  /// Admission budget: fraction of a control window's CPU the estimated
  /// demand of newly admitted queries may claim.
  double initial_budget = 1.0;
  double min_budget = 0.02;
  double max_budget = 2.0;
  /// Relative budget adjustment per control action.
  double budget_step = 0.15;
  /// Items degraded per QoD-degradation action (lowest access/update ratio
  /// first) and the per-action period stretch factor.
  int degrade_batch = 32;
  double degrade_factor = 2.0;
  double max_stretch = 1024.0;
  /// Forgetting factor on the per-item access/update counters.
  double counter_decay = 0.9;
};

/// Re-implementation of QMF (Kang, Son & Stankovic, TKDE'04) as described in
/// the UNIT paper (Sections 4.1 and 4.5): a feedback loop on deadline miss
/// ratio and data freshness.
///
///  * CPU underutilized:  freshness below target -> update more often
///    (restore degraded periods); otherwise -> admit more transactions.
///  * CPU overloaded:     freshness above target -> update less often
///    (degrade the QoD of items with the lowest access/update ratio);
///    otherwise -> drop incoming transactions until the system recovers.
///
/// Admission is a per-window CPU budget on the estimated demand of admitted
/// queries; under bursts the budget exhausts and every further query is
/// rejected — the conservative behaviour the UNIT paper observes ("QMF's
/// rejection ratio [is] very high", Section 4.5).
class QmfPolicy : public Policy {
 public:
  explicit QmfPolicy(QmfParams params = {});

  std::string name() const override { return "qmf"; }
  void Attach(EngineContext& engine) override;
  bool AdmitQuery(EngineContext& engine, const Transaction& query) override;
  void OnQueryResolved(EngineContext& engine, const Transaction& query,
                       Outcome outcome) override;
  void OnUpdateSourceArrival(EngineContext& engine, ItemId item) override;
  void OnControlTick(EngineContext& engine) override;

  double budget() const { return budget_; }
  int64_t budget_rejections() const { return budget_rejections_; }

 private:
  void DegradeLowestRatio(EngineContext& engine);
  void UpgradeAll(EngineContext& engine);

  QmfParams params_;
  double budget_;
  double window_admitted_work_s_ = 0.0;  ///< estimated demand admitted this window
  double window_budget_s_ = 0.0;         ///< CPU seconds the budget allows per window

  // Windowed monitors.
  int64_t window_admitted_resolved_ = 0;
  int64_t window_admitted_missed_ = 0;
  int64_t window_committed_ = 0;
  int64_t window_fresh_ = 0;
  double last_busy_s_ = 0.0;
  SimTime last_tick_ = 0;

  // Per-item decayed access/update counters for QoD degradation.
  std::vector<double> access_count_;
  std::vector<double> update_count_;
  /// DegradeLowestRatio's (access/update ratio, item) candidates, reused
  /// across control ticks.
  std::vector<std::pair<double, ItemId>> ranked_;

  int64_t budget_rejections_ = 0;
};

}  // namespace unitdb

#endif  // UNIT_CORE_POLICIES_QMF_H_
