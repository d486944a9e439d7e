#include "unit/workload/spec.h"

#include "unit/workload/query_source.h"

namespace unitdb {

int64_t Workload::QueryCount() const {
  if (query_source) return query_source->count();
  return static_cast<int64_t>(queries.size());
}

Status CheckArrivalOrder(const Workload& w) {
  for (size_t i = 1; i < w.queries.size(); ++i) {
    if (w.queries[i].arrival < w.queries[i - 1].arrival) {
      return Status::InvalidArgument(
          "query trace is not sorted by arrival time: query " +
          std::to_string(i) + " arrives before query " + std::to_string(i - 1));
    }
  }
  return Status::Ok();
}

double Workload::QueryUtilization() const {
  if (duration <= 0) return 0.0;
  double busy = 0.0;
  if (query_source) {
    QueryRequest q;
    auto cursor = query_source->NewCursor();
    while (cursor->Next(&q)) busy += static_cast<double>(q.exec);
  } else {
    for (const auto& q : queries) busy += static_cast<double>(q.exec);
  }
  return busy / static_cast<double>(duration);
}

std::vector<int64_t> Workload::QueryAccessCounts() const {
  std::vector<int64_t> counts(num_items, 0);
  if (query_source) {
    QueryRequest q;
    auto cursor = query_source->NewCursor();
    while (cursor->Next(&q)) {
      for (ItemId it : q.items) ++counts[it];
    }
  } else {
    for (const auto& q : queries) {
      for (ItemId it : q.items) ++counts[it];
    }
  }
  return counts;
}

}  // namespace unitdb
