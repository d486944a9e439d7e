#ifndef UNIT_COMMON_FENWICK_H_
#define UNIT_COMMON_FENWICK_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>
#include <vector>

namespace unitdb {

/// Fenwick (binary indexed) tree over non-negative double weights.
///
/// Supports point assignment, prefix sums, and weighted sampling by prefix
/// search, all in O(log n). This is the data structure behind the
/// lottery-scheduling victim picker (core/lottery.h; Waldspurger '95
/// describes an O(log n) tree-based lottery, and a Fenwick tree is the
/// compact modern equivalent).
class FenwickTree {
 public:
  FenwickTree() = default;
  explicit FenwickTree(size_t n) { Reset(n); }

  /// Resizes to n slots, all weights zero.
  void Reset(size_t n) {
    n_ = n;
    high_bit_ = HighestPow2(n);
    // A descent probes nodes up to 2 * high_bit_ - 1. Those past n_ hold
    // NaN, against which no comparison holds, so a descent never steps
    // onto them and needs no bound check; nothing else reads them.
    tree_.assign(2 * high_bit_, 0.0);
    std::fill(tree_.begin() + static_cast<std::ptrdiff_t>(n + 1), tree_.end(),
              std::numeric_limits<double>::quiet_NaN());
    weights_.assign(n, 0.0);
    total_ = 0.0;
  }

  size_t size() const { return n_; }

  /// Total weight across all slots.
  double total() const { return total_; }

  /// Current weight of slot i.
  double Get(size_t i) const {
    assert(i < n_);
    return weights_[i];
  }

  /// Sets slot i to weight w (w must be >= 0).
  void Set(size_t i, double w) {
    assert(i < n_);
    assert(w >= 0.0);
    const double delta = w - weights_[i];
    weights_[i] = w;
    total_ += delta;
    for (size_t j = i + 1; j <= n_; j += j & (~j + 1)) {
      tree_[j] += delta;
    }
    if (total_ < 0.0) total_ = 0.0;  // guard accumulated rounding error
  }

  /// Adds delta to slot i (result must stay >= 0 up to rounding).
  void Add(size_t i, double delta) { Set(i, weights_[i] + delta); }

  /// Sum of weights in slots [0, i).
  double PrefixSum(size_t i) const {
    assert(i <= n_);
    double s = 0.0;
    for (size_t j = i; j > 0; j -= j & (~j + 1)) {
      s += tree_[j];
    }
    return s;
  }

  /// Returns the smallest index i such that PrefixSum(i+1) > target, i.e.,
  /// the slot a dart thrown at `target` in [0, total()) lands in. If all
  /// weights are zero returns size()-1 (caller should check total() first).
  size_t FindPrefix(double target) const {
    assert(n_ > 0);
    size_t pos = 0;
    double acc = 0.0;
    for (size_t mask = high_bit_; mask != 0; mask >>= 1) {
      const size_t next = pos + mask;
      const double sum = acc + tree_[next];
      if (sum <= target) {
        pos = next;
        acc = sum;
      }
    }
    // pos is the count of slots whose cumulative weight is <= target.
    return pos < n_ ? pos : n_ - 1;
  }

  /// FindPrefix for G targets at once: out[g] == FindPrefix(targets[g]),
  /// with the same sums in the same order. The G descents advance together
  /// one level at a time and take each step by selection rather than by
  /// branch, so their independent tree loads overlap instead of running
  /// back to back.
  template <size_t G>
  void FindPrefixes(const double (&targets)[G], size_t (&out)[G]) const {
    assert(n_ > 0);
    size_t pos[G] = {};
    double acc[G] = {};
    for (size_t mask = high_bit_; mask != 0; mask >>= 1) {
      for (size_t g = 0; g < G; ++g) {
        const size_t next = pos[g] + mask;
        const double sum = acc[g] + tree_[next];
        const bool step = sum <= targets[g];
        pos[g] = step ? next : pos[g];
        acc[g] = step ? sum : acc[g];
      }
    }
    for (size_t g = 0; g < G; ++g) out[g] = pos[g] < n_ ? pos[g] : n_ - 1;
  }

 private:
  static size_t HighestPow2(size_t n) {
    size_t p = 1;
    while ((p << 1) <= n) p <<= 1;
    return p;
  }

  size_t n_ = 0;
  size_t high_bit_ = 1;          // HighestPow2(n_), the first descent step
  std::vector<double> tree_;     // 1-based internal nodes, NaN past n_
  std::vector<double> weights_;  // exact per-slot weights for Get()/Set()
  double total_ = 0.0;
};

}  // namespace unitdb

#endif  // UNIT_COMMON_FENWICK_H_
