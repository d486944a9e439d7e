// In-memory spans the benchmark records around each call it makes into a
// layer of the library (generation, partition, server construction, run,
// USM derivation) during the traced run. Spans are written out once, when
// the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "unit/common/status.h"

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    double start_s = 0.0;
    double end_s = 0.0;
  };

  /// Opens a span nested in the innermost open one; returns its index.
  int Begin(const std::string& name);
  /// Closes span `id` (the innermost open one).
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed duration minus the part covered by child spans.
  std::map<std::string, double> SelfSeconds() const;

  /// Writes every span as one JSON array.
  unitdb::Status WriteJson(const std::string& path) const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on construction and closes it on destruction; does nothing
/// when `recorder` is null (the untimed rounds).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder),
        id_(recorder == nullptr ? -1 : recorder->Begin(name)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
