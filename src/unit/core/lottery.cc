#include "unit/core/lottery.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace unitdb {

LotterySampler::LotterySampler(int n)
    : tree_(static_cast<size_t>(n)),
      tickets_(n, 0.0),
      eligible_(n, true),
      eligible_count_(n) {
  assert(n > 0);
  while (leaf_base_ < n) leaf_base_ *= 2;
  min_tree_.assign(2 * static_cast<size_t>(leaf_base_), kInf);
  eligible_items_.reserve(n);
  for (int i = 0; i < n; ++i) eligible_items_.push_back(i);
  FillMinTree();
  // floor_ == 0 == every ticket: weights start at zero (uniform fallback).
}

void LotterySampler::SetEligible(int i, bool eligible) {
  if (eligible_[i] == eligible) return;
  eligible_[i] = eligible;
  Rebuild();
}

void LotterySampler::SetEligibility(const std::vector<bool>& eligible) {
  assert(static_cast<int>(eligible.size()) == size());
  if (eligible == eligible_) return;  // e.g. every item has a source
  eligible_ = eligible;
  Rebuild();
}

void LotterySampler::Rebuild() {
  ++rebuilds_;
  eligible_items_.clear();
  for (int j = 0; j < size(); ++j) {
    if (eligible_[j]) eligible_items_.push_back(j);
  }
  FillMinTree();
  eligible_count_ = static_cast<int>(eligible_items_.size());
  Rebase();
}

void LotterySampler::SetTicket(int i, double ticket) {
  tickets_[i] = ticket;
  if (!eligible_[i]) return;
  SetMinLeaf(i, ticket);
  if (ticket < floor_) {
    // Weights must stay non-negative: re-anchor at the new minimum.
    Rebase();
  } else {
    RefreshWeight(i);
  }
}

double LotterySampler::WeightOf(int i) const {
  return eligible_[i] ? tree_.Get(static_cast<size_t>(i)) : 0.0;
}

int LotterySampler::Sample(Rng& rng) const {
  if (eligible_count_ == 0) return -1;
  SyncFloor();
  return Draw(rng, tree_.total());
}

void LotterySampler::SampleMany(Rng& rng, int count,
                                std::vector<int>* out) const {
  out->clear();
  if (eligible_count_ == 0 || count <= 0) return;
  SyncFloor();  // once: drawing changes no ticket
  const double total = tree_.total();
  out->reserve(static_cast<size_t>(count));
  int k = 0;
  if (total > 1e-12) {
    for (; k + kBatch <= count; k += kBatch) {
      const Rng snapshot = rng;
      double darts[kBatch];
      for (double& d : darts) d = rng.NextDouble() * total;
      size_t picks[kBatch];
      tree_.FindPrefixes(darts, picks);
      bool fallback = false;
      for (size_t p : picks) fallback |= !eligible_[p];
      if (fallback) {
        // Some dart needs the uniform fallback, whose extra draw shifts
        // every later dart: replay the group one draw at a time.
        rng = snapshot;
        for (int g = 0; g < kBatch; ++g) out->push_back(Draw(rng, total));
      } else {
        for (size_t p : picks) out->push_back(static_cast<int>(p));
      }
    }
  }
  // The tail shorter than a group, and the uniform lottery (one
  // UniformInt per draw), go one draw at a time.
  for (; k < count; ++k) out->push_back(Draw(rng, total));
}

void LotterySampler::SyncFloor() const {
  // Re-anchor exactly before drawing so probabilities match the paper's
  // (T_j - T_min) weights. The min tree gives the exact minimum in O(1);
  // the O(n) re-anchor only runs when the minimum actually moved.
  if (min_ticket() != floor_) {
    const_cast<LotterySampler*>(this)->Rebase();
  }
}

int LotterySampler::Draw(Rng& rng, double total) const {
  if (total <= 1e-12) {
    // All shifted weights are zero: uniform lottery over eligible items.
    const size_t k = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(eligible_items_.size()) - 1));
    return eligible_items_[k];
  }
  const double dart = rng.NextDouble() * total;
  int pick = static_cast<int>(tree_.FindPrefix(dart));
  if (!eligible_[pick]) {
    // Rounding landed on a zero-weight slot; fall back to uniform-eligible.
    const size_t k = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(eligible_items_.size()) - 1));
    pick = eligible_items_[k];
  }
  return pick;
}

void LotterySampler::Rebase() {
  floor_ = eligible_count_ == 0 ? 0.0 : min_ticket();
  for (int j = 0; j < size(); ++j) {
    if (eligible_[j]) {
      tree_.Set(static_cast<size_t>(j), tickets_[j] - floor_);
    } else {
      tree_.Set(static_cast<size_t>(j), 0.0);
    }
  }
}

void LotterySampler::RefreshWeight(int i) {
  tree_.Set(static_cast<size_t>(i), tickets_[i] - floor_);
}

void LotterySampler::FillMinTree() {
  for (int j = 0; j < size(); ++j) {
    min_tree_[leaf_base_ + j] = eligible_[j] ? tickets_[j] : kInf;
  }
  for (int k = leaf_base_ - 1; k >= 1; --k) {
    min_tree_[k] = std::min(min_tree_[2 * k], min_tree_[2 * k + 1]);
  }
}

void LotterySampler::SetMinLeaf(int i, double value) {
  int k = leaf_base_ + i;
  min_tree_[k] = value;
  for (k /= 2; k >= 1; k /= 2) {
    const double m = std::min(min_tree_[2 * k], min_tree_[2 * k + 1]);
    if (m == min_tree_[k]) break;
    min_tree_[k] = m;
  }
}

}  // namespace unitdb
