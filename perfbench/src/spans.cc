#include "spans.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanRecorder::Begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = Now();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int id) {
  spans_[id].end_s = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  // Children nest strictly inside their parent, so the covered part of a
  // parent is the sum of its children's durations.
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_s - s.start_s;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

unitdb::Status SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return unitdb::Status::Internal("cannot write " + path);
  f << "[\n";
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}",
                  s.parent, s.start_s, s.end_s);
    f << "  {\"id\": " << i << ", \"name\": \"" << s.name << "\", " << buf
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]\n";
  return f ? unitdb::Status::Ok() : unitdb::Status::Internal("write " + path);
}

}  // namespace perfbench
