#include "unit/obs/trace_reader.h"

#include <cstdlib>
#include <cstring>
#include <fstream>

namespace unitdb {

namespace {

/// Minimal cursor over one flat JSON object: {"key":value,...} with string
/// or numeric values, no nesting, no escapes (the writer never emits any).
class LineCursor {
 public:
  explicit LineCursor(const std::string& line) : s_(line.c_str()) {}

  Status Fail(const std::string& what) const {
    return Status(StatusCode::kInvalidArgument,
                  what + " at offset " + std::to_string(pos_));
  }

  bool Consume(char c) {
    if (s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  char Peek() const { return s_[pos_]; }

  /// Reads a "quoted" string into `out` (bounded by `cap`, truncating).
  Status QuotedString(char* out, size_t cap) {
    if (!Consume('"')) return Fail("expected '\"'");
    size_t n = 0;
    while (s_[pos_] != '"') {
      if (s_[pos_] == '\0') return Fail("unterminated string");
      if (n + 1 < cap) out[n++] = s_[pos_];
      ++pos_;
    }
    ++pos_;  // closing quote
    out[n] = '\0';
    return Status::Ok();
  }

  /// Reads a JSON number as both int64 and double; `is_int` reports whether
  /// the text was a pure integer (no '.', 'e', "nan", "inf").
  Status Number(int64_t* as_int, double* as_double, bool* is_int) {
    const char* start = s_ + pos_;
    char* end = nullptr;
    *as_double = std::strtod(start, &end);
    if (end == start) return Fail("expected number");
    *is_int = true;
    for (const char* p = start; p != end; ++p) {
      if (*p == '.' || *p == 'e' || *p == 'E' || *p == 'n' || *p == 'i') {
        *is_int = false;
        break;
      }
    }
    if (*is_int) *as_int = std::strtoll(start, nullptr, 10);
    pos_ += static_cast<size_t>(end - start);
    return Status::Ok();
  }

 private:
  const char* s_;
  size_t pos_ = 0;
};

Status SetField(TraceEvent* e, const char* key, LineCursor& cur) {
  // String-valued fields. "reason", "outcome", and "signal" all land in
  // e->reason — the writer picks the wire key by event type.
  if (std::strcmp(key, "ev") == 0) {
    char name[32];
    Status st = cur.QuotedString(name, sizeof(name));
    if (!st.ok()) return st;
    if (!TraceEventTypeFromName(name, &e->type)) {
      return Status(StatusCode::kInvalidArgument,
                    std::string("unknown event type \"") + name + "\"");
    }
    return Status::Ok();
  }
  if (std::strcmp(key, "reason") == 0 || std::strcmp(key, "outcome") == 0 ||
      std::strcmp(key, "signal") == 0 || std::strcmp(key, "kind") == 0) {
    return cur.QuotedString(e->reason, sizeof(e->reason));
  }

  int64_t iv = 0;
  double dv = 0.0;
  bool is_int = false;
  Status st = cur.Number(&iv, &dv, &is_int);
  if (!st.ok()) return st;

  if (std::strcmp(key, "t") == 0) e->time = iv;
  else if (std::strcmp(key, "shard") == 0) e->shard = static_cast<int32_t>(iv);
  else if (std::strcmp(key, "txn") == 0) e->txn = static_cast<TxnId>(iv);
  else if (std::strcmp(key, "fault") == 0) e->txn = static_cast<TxnId>(iv);
  else if (std::strcmp(key, "items") == 0) e->resolved = iv;
  else if (std::strcmp(key, "mag") == 0) e->magnitude = dv;
  else if (std::strcmp(key, "item") == 0) e->item = static_cast<ItemId>(iv);
  else if (std::strcmp(key, "class") == 0) e->pref_class = static_cast<int>(iv);
  else if (std::strcmp(key, "deadline") == 0) e->deadline = iv;
  else if (std::strcmp(key, "est") == 0) e->estimate = iv;
  else if (std::strcmp(key, "lag") == 0) e->lag = iv;
  else if (std::strcmp(key, "from") == 0) e->period_from = iv;
  else if (std::strcmp(key, "to") == 0) e->period_to = iv;
  else if (std::strcmp(key, "udrop") == 0) e->udrop = iv;
  else if (std::strcmp(key, "resolved") == 0) e->resolved = iv;
  else if (std::strcmp(key, "drop") == 0) e->drop_trigger = iv != 0;
  else if (std::strcmp(key, "freshness") == 0) e->freshness = dv;
  else if (std::strcmp(key, "freq") == 0) e->freshness_req = dv;
  else if (std::strcmp(key, "r") == 0) e->r = dv;
  else if (std::strcmp(key, "fm") == 0) e->fm = dv;
  else if (std::strcmp(key, "fs") == 0) e->fs = dv;
  else if (std::strcmp(key, "util") == 0) e->utilization = dv;
  else if (std::strcmp(key, "knob0") == 0) e->knob_before = dv;
  else if (std::strcmp(key, "knob") == 0) e->knob = dv;
  else if (std::strcmp(key, "session") == 0) e->session = iv;
  else if (std::strcmp(key, "request") == 0) e->request = static_cast<TxnId>(iv);
  else if (std::strcmp(key, "attempt") == 0) e->resolved = iv;
  else if (std::strcmp(key, "delay") == 0) e->lag = iv;
  else if (std::strcmp(key, "depth") == 0) e->resolved = iv;
  else if (std::strcmp(key, "capacity") == 0) e->resolved = iv;
  else if (std::strcmp(key, "watermark") == 0) e->magnitude = static_cast<double>(iv);
  else {
    return Status(StatusCode::kInvalidArgument,
                  std::string("unknown trace key \"") + key + "\"");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<TraceEvent> ParseTraceLine(const std::string& line) {
  LineCursor cur(line);
  if (!cur.Consume('{')) return cur.Fail("expected '{'");
  TraceEvent e;
  bool saw_type = false;
  bool first = true;
  while (!cur.Consume('}')) {
    if (!first && !cur.Consume(',')) return cur.Fail("expected ','");
    first = false;
    char key[32];
    Status st = cur.QuotedString(key, sizeof(key));
    if (!st.ok()) return st;
    if (!cur.Consume(':')) return cur.Fail("expected ':'");
    st = SetField(&e, key, cur);
    if (!st.ok()) return st;
    if (std::strcmp(key, "ev") == 0) saw_type = true;
  }
  if (cur.Peek() != '\0') return cur.Fail("trailing characters");
  if (!saw_type) {
    return Status(StatusCode::kInvalidArgument, "missing \"ev\" field");
  }
  return e;
}

StatusOr<std::vector<TraceEvent>> ReadTrace(std::istream& is) {
  std::vector<TraceEvent> events;
  std::string line;
  int64_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    StatusOr<TraceEvent> e = ParseTraceLine(line);
    if (!e.ok()) {
      return Status(e.status().code(), "line " + std::to_string(lineno) +
                                           ": " + e.status().message());
    }
    events.push_back(*e);
  }
  return events;
}

StatusOr<std::vector<TraceEvent>> ReadTraceFile(const std::string& path) {
  std::ifstream f(path);
  if (!f.is_open()) {
    return Status(StatusCode::kIoError, "cannot open trace file " + path);
  }
  return ReadTrace(f);
}

}  // namespace unitdb
