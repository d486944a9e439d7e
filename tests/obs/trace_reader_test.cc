#include "unit/obs/trace_reader.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "unit/obs/trace_check.h"
#include "unit/shard/sharded.h"
#include "unit/sim/experiment.h"

namespace unitdb {
namespace {

std::string Format(const TraceEvent& e) {
  char buf[640];
  const size_t n = FormatJsonl(e, buf, sizeof(buf));
  return std::string(buf, n);
}

// Every event kind must survive writer -> reader with all serialized fields
// intact: trace_check re-evaluates the producer's comparisons on the parsed
// values, so lossy parsing would mean spurious violations.
TEST(TraceReaderTest, RoundTripsEveryEventKind) {
  std::vector<TraceEvent> events;

  TraceEvent arrival;
  arrival.time = 100;
  arrival.type = TraceEventType::kQueryArrival;
  arrival.txn = 1;
  arrival.pref_class = 3;
  arrival.deadline = 5000;
  arrival.estimate = 77;
  events.push_back(arrival);

  for (TraceEventType t :
       {TraceEventType::kAdmit, TraceEventType::kPreempt,
        TraceEventType::kLockRestart, TraceEventType::kDeadlineMiss}) {
    TraceEvent e;
    e.time = 101;
    e.type = t;
    e.txn = 1;
    events.push_back(e);
  }

  TraceEvent reject;
  reject.time = 102;
  reject.type = TraceEventType::kReject;
  reject.txn = 2;
  reject.set_reason("deadline");
  events.push_back(reject);

  TraceEvent commit;
  commit.time = 103;
  commit.type = TraceEventType::kCommit;
  commit.txn = 1;
  commit.set_reason("dsf");
  commit.freshness = 1.0 / 3.0;
  commit.freshness_req = 0.9;
  commit.udrop = 2;
  events.push_back(commit);

  TraceEvent up_arrival;
  up_arrival.time = 104;
  up_arrival.type = TraceEventType::kUpdateArrival;
  up_arrival.item = 17;
  events.push_back(up_arrival);

  TraceEvent drop = up_arrival;
  drop.time = 105;
  drop.type = TraceEventType::kUpdateDrop;
  events.push_back(drop);

  TraceEvent apply;
  apply.time = 106;
  apply.type = TraceEventType::kUpdateApply;
  apply.txn = 9;
  apply.item = 17;
  apply.lag = 1234;
  apply.set_reason("periodic");
  events.push_back(apply);

  TraceEvent period;
  period.time = 107;
  period.type = TraceEventType::kPeriodChange;
  period.item = 17;
  period.period_from = 1000;
  period.period_to = 1500;
  period.set_reason("degrade");
  events.push_back(period);

  TraceEvent lbc;
  lbc.time = 108;
  lbc.type = TraceEventType::kLbcSignal;
  lbc.set_reason("loosen-ac");
  lbc.r = 0.375;
  lbc.fm = 0.1;
  lbc.fs = 0.2;
  lbc.utilization = 0.83;
  lbc.resolved = 42;
  lbc.drop_trigger = true;
  lbc.knob_before = 1.21;
  lbc.knob = 1.1;
  events.push_back(lbc);

  for (const TraceEvent& e : events) {
    auto parsed = ParseTraceLine(Format(e));
    ASSERT_TRUE(parsed.ok()) << Format(e) << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(parsed->time, e.time);
    EXPECT_EQ(parsed->type, e.type);
    EXPECT_EQ(parsed->txn, e.txn) << Format(e);
    EXPECT_EQ(parsed->item, e.item) << Format(e);
    EXPECT_EQ(parsed->pref_class, e.pref_class);
    EXPECT_EQ(parsed->deadline, e.deadline);
    EXPECT_EQ(parsed->estimate, e.estimate);
    EXPECT_EQ(parsed->lag, e.lag);
    EXPECT_EQ(parsed->period_from, e.period_from);
    EXPECT_EQ(parsed->period_to, e.period_to);
    EXPECT_STREQ(parsed->reason, e.reason);
    // Doubles round-trip bit-exactly through %.17g.
    EXPECT_EQ(parsed->freshness, e.freshness) << Format(e);
    EXPECT_EQ(parsed->freshness_req, e.freshness_req);
    EXPECT_EQ(parsed->udrop, e.udrop);
    EXPECT_EQ(parsed->r, e.r);
    EXPECT_EQ(parsed->fm, e.fm);
    EXPECT_EQ(parsed->fs, e.fs);
    EXPECT_EQ(parsed->utilization, e.utilization);
    EXPECT_EQ(parsed->resolved, e.resolved);
    EXPECT_EQ(parsed->drop_trigger, e.drop_trigger);
    EXPECT_EQ(parsed->knob_before, e.knob_before);
    EXPECT_EQ(parsed->knob, e.knob);
  }
}

TEST(TraceReaderTest, RoundTripsShardTag) {
  TraceEvent e;
  e.time = 42;
  e.type = TraceEventType::kAdmit;
  e.txn = 7;
  e.shard = 3;
  const std::string line = Format(e);
  ASSERT_NE(line.find("\"shard\":3"), std::string::npos) << line;
  auto parsed = ParseTraceLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->shard, 3);
  EXPECT_EQ(parsed->txn, 7);
  EXPECT_EQ(Format(*parsed), line);

  // Untagged events keep the default.
  e.shard = -1;
  auto untagged = ParseTraceLine(Format(e));
  ASSERT_TRUE(untagged.ok());
  EXPECT_EQ(untagged->shard, -1);
}

// A sharded run's trace files are readable and each shard file passes the
// checker on its own; the merged global view parses too.
TEST(TraceReaderTest, ReadsEveryFileOfAShardedTrace) {
  auto w = MakeStandardWorkload(UpdateVolume::kMedium,
                                UpdateDistribution::kUniform, /*scale=*/0.02,
                                /*seed=*/42);
  ASSERT_TRUE(w.ok());
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / "trace_reader_sharded";
  std::filesystem::remove_all(root);
  ShardedParams p;
  p.shards = 2;
  p.trace_dir = root.string();
  auto r = RunSharded(*w, "unit", UsmWeights{1.0, 0.5, 1.0, 0.5}, p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  for (int k = 0; k < 2; ++k) {
    const std::string path = (root / ("shard" + std::to_string(k) + ".jsonl"))
                                 .string();
    auto events = ReadTraceFile(path);
    ASSERT_TRUE(events.ok()) << path << ": " << events.status().ToString();
    ASSERT_FALSE(events->empty());
    for (const TraceEvent& e : *events) ASSERT_EQ(e.shard, k);
    const TraceCheckResult check = CheckTrace(*events);
    EXPECT_TRUE(check.ok()) << path << ": " << TraceCheckSummary(check);
  }
  auto merged = ReadTraceFile((root / "merged.jsonl").string());
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_FALSE(merged->empty());
  std::filesystem::remove_all(root);
}

TEST(TraceReaderTest, RejectsGarbage) {
  EXPECT_FALSE(ParseTraceLine("not json").ok());
  EXPECT_FALSE(ParseTraceLine("{\"t\":1").ok());
  EXPECT_FALSE(ParseTraceLine("").ok());
}

TEST(TraceReaderTest, RejectsUnknownKey) {
  // Unknown keys are schema drift, not extensibility.
  auto r = ParseTraceLine("{\"t\":1,\"ev\":\"admit\",\"txn\":1,\"zzz\":2}");
  EXPECT_FALSE(r.ok());
}

TEST(TraceReaderTest, RejectsUnknownOrMissingEventType) {
  EXPECT_FALSE(ParseTraceLine("{\"t\":1,\"ev\":\"warp\",\"txn\":1}").ok());
  EXPECT_FALSE(ParseTraceLine("{\"t\":1,\"txn\":1}").ok());
}

TEST(TraceReaderTest, ReadTraceReportsLineNumber) {
  std::istringstream in(
      "{\"t\":1,\"ev\":\"admit\",\"txn\":1}\n"
      "\n"
      "{\"t\":2,\"ev\":\"bogus\",\"txn\":1}\n");
  auto r = ReadTrace(in);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("line 3"), std::string::npos)
      << r.status().ToString();
}

TEST(TraceReaderTest, ReadTraceSkipsBlankLines) {
  std::istringstream in(
      "{\"t\":1,\"ev\":\"admit\",\"txn\":1}\n"
      "\n"
      "{\"t\":2,\"ev\":\"deadline-miss\",\"txn\":1}\n");
  auto r = ReadTrace(in);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);
}

TEST(TraceReaderTest, ReadTraceFileFailsOnMissingFile) {
  EXPECT_FALSE(ReadTraceFile("/nonexistent/trace.jsonl").ok());
}

}  // namespace
}  // namespace unitdb
