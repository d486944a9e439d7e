#ifndef UNIT_CORE_LOTTERY_H_
#define UNIT_CORE_LOTTERY_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "unit/common/fenwick.h"
#include "unit/common/rng.h"

namespace unitdb {

/// Lottery-scheduling sampler over data items (Waldspurger '95): each
/// eligible item holds a real-valued *ticket*; sampling picks item j with
/// probability proportional to (ticket_j - min eligible ticket), the paper's
/// non-negativity shift (Section 3.4.1). When every shifted weight is zero
/// (e.g., all tickets equal), sampling falls back to uniform over the
/// eligible items — the natural lottery behaviour for an all-equal pool.
///
/// Ticket updates cost O(log n) and allocate nothing: a Fenwick tree holds
/// the weights and a min segment tree the exact minimum eligible ticket.
/// Sampling is O(log n) except when the minimum moved since the last draw,
/// which triggers an O(n) re-anchor (rare in steady state, and amortized
/// across the draws between minimum changes).
class LotterySampler {
 public:
  explicit LotterySampler(int n);

  int size() const { return static_cast<int>(tickets_.size()); }

  /// Marks item i eligible (default) or permanently out of the draw
  /// (e.g. items with no update source). O(n log n): one rebuild.
  void SetEligible(int i, bool eligible);
  /// Sets every item's eligibility at once (`eligible.size() == size()`)
  /// with at most one rebuild — the same state as per-item SetEligible
  /// calls.
  void SetEligibility(const std::vector<bool>& eligible);
  bool IsEligible(int i) const { return eligible_[i]; }
  int eligible_count() const { return eligible_count_; }

  void SetTicket(int i, double ticket);
  double ticket(int i) const { return tickets_[i]; }

  /// Smallest ticket over eligible items; +inf when nothing is eligible.
  double min_ticket() const { return min_tree_[1]; }

  /// Sampling weight of item i after the min-shift (0 for ineligible items).
  double WeightOf(int i) const;

  /// Draws one eligible item; returns -1 when nothing is eligible.
  int Sample(Rng& rng) const;

  /// Draws `count` items into `out` (cleared first; left empty when nothing
  /// is eligible): the same picks, in the same order, and the same `rng`
  /// state afterwards as `count` calls of Sample. Weighted draws run
  /// kBatch Fenwick descents at a time; a group in which any dart lands on
  /// an ineligible slot (the rounding fallback, which spends an extra
  /// UniformInt) is replayed one Sample at a time from an Rng snapshot.
  void SampleMany(Rng& rng, int count, std::vector<int>* out) const;

  /// Darts per batched group in SampleMany.
  static constexpr int kBatch = 8;

  /// Eligibility rebuilds so far (an operation counter for cost tests).
  int64_t rebuilds() const { return rebuilds_; }

 private:
  /// Re-derives the eligible list, the minimum tracker and every weight
  /// from eligible_ and tickets_.
  void Rebuild();
  void Rebase();
  /// Re-anchors the floor at the current minimum if it moved (the floor
  /// may be stale: above-minimum ticket raises do not re-anchor).
  void SyncFloor() const;
  /// One draw once the floor is synced: weighted when `total` (the tree's
  /// total weight) is positive, else uniform over the eligible items.
  int Draw(Rng& rng, double total) const;
  void RefreshWeight(int i);
  /// Rebuilds the min tree from eligible_ and tickets_ in O(n).
  void FillMinTree();
  /// Sets item i's leaf in the min tree and repairs its ancestors, stopping
  /// at the first one whose value does not change.
  void SetMinLeaf(int i, double value);

  static constexpr double kInf = std::numeric_limits<double>::infinity();

  FenwickTree tree_;
  std::vector<double> tickets_;
  std::vector<bool> eligible_;
  std::vector<int> eligible_items_;     ///< for the uniform fallback
  /// Min segment tree over tickets: leaves at [leaf_base_, 2 * leaf_base_)
  /// hold eligible tickets (+inf for ineligible items and padding), node k
  /// the min of nodes 2k and 2k + 1, so min_tree_[1] is the minimum.
  std::vector<double> min_tree_;
  int leaf_base_ = 1;                   ///< power of two >= size()
  double floor_ = 0.0;                  ///< min at the last re-anchor (lazy)
  int eligible_count_ = 0;
  int64_t rebuilds_ = 0;
};

}  // namespace unitdb

#endif  // UNIT_CORE_LOTTERY_H_
