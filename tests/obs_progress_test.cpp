#include "obs/progress.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "connectors/memory.h"
#include "exec/streaming_query.h"

namespace sstreaming {
namespace {

constexpr int64_t kSec = 1000000;

SchemaPtr ClickSchema() {
  return Schema::Make({{"country", TypeId::kString, false},
                       {"latency", TypeId::kInt64, false},
                       {"time", TypeId::kTimestamp, false}});
}

Row Click(const char* country, int64_t latency, int64_t time_sec) {
  return {Value::Str(country), Value::Int64(latency),
          Value::Timestamp(time_sec * kSec)};
}

QueryProgress MakeFullProgress() {
  QueryProgress p;
  p.epoch = 12;
  p.rows_read = 1000;
  p.rows_written = 42;
  p.watermark_micros = 11 * kSec;
  p.state_entries = 7;
  p.state_bytes = 4096;
  p.duration_nanos = 600;
  p.plan_nanos = 100;
  p.source_read_nanos = 150;
  p.exec_nanos = 200;
  p.checkpoint_nanos = 50;
  p.commit_nanos = 75;
  p.other_nanos = 25;
  p.trigger_wait_nanos = 999;
  p.trigger_drift_nanos = 1234;
  p.watermark_lag_micros = 3 * kSec;
  LogHistogram e2e;
  e2e.RecordN(2500, 40);
  e2e.RecordN(90000, 2);
  p.e2e_latency = LatencySummary::FromHistogram(e2e);
  SourceProgress src;
  src.name = "clicks";
  src.rows = 1000;
  src.rows_per_sec = 123456.789;
  src.backlog_rows = 17;
  src.backlog_age_micros = 250000;
  p.sources.push_back(src);
  OperatorProgress op;
  op.op_id = 3;
  op.name = "StatefulAggregate";
  op.rows_in = 1000;
  op.rows_out = 42;
  op.batches = 4;
  op.cpu_nanos = 180;
  op.output_bytes = 2048;
  op.state_rows = 7;
  op.state_bytes = 4096;
  p.operators.push_back(op);
  return p;
}

TEST(ProgressJsonTest, RoundTripIsByteIdentical) {
  QueryProgress p = MakeFullProgress();
  std::string dump = p.ToJson().Dump();
  auto parsed = Json::Parse(dump);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto back = QueryProgress::FromJson(*parsed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ToJson().Dump(), dump);
}

TEST(ProgressJsonTest, RoundTripPreservesUnsetWatermark) {
  QueryProgress p = MakeFullProgress();
  p.watermark_micros = INT64_MIN;  // serialized by omission
  std::string dump = p.ToJson().Dump();
  EXPECT_EQ(dump.find("watermarkMicros"), std::string::npos);
  auto parsed = Json::Parse(dump);
  ASSERT_TRUE(parsed.ok());
  auto back = QueryProgress::FromJson(*parsed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->watermark_micros, INT64_MIN);
  EXPECT_EQ(back->ToJson().Dump(), dump);
}

// Format pin for the event log and durable history: these two lines (one
// operator without scheduler fields, then one with them) must parse and
// re-serialize byte-identically, so an edit to the counter table cannot
// silently change the on-disk format. Scheduler fields stay out of the line
// of an operator that ran no task.
TEST(ProgressJsonTest, GoldenLinesReserializeByteIdentically) {
  const char* const kWithoutSchedulerFields =
      R"json({"durationNanos":600,"durations":{"checkpointNanos":50)json"
      R"json(,"commitNanos":75,"execNanos":200,"otherNanos":25)json"
      R"json(,"planNanos":100,"sourceReadNanos":150})json"
      R"json(,"e2eLatency":{"buckets":[],"count":0,"maxMicros":0)json"
      R"json(,"p50Micros":0,"p95Micros":0,"p99Micros":0)json"
      R"json(,"sumMicros":0},"epoch":12,"operators":[{"batches":2)json"
      R"json(,"cpuNanos":150,"name":"StreamScan(clicks)","opId":1)json"
      R"json(,"outputBytes":24000,"rowsIn":0,"rowsOut":1000)json"
      R"json(,"stateBytes":0,"stateRows":0}],"queueWaitNanos":0)json"
      R"json(,"rowsRead":1000,"rowsWritten":42,"sinkCommitNanos":60)json"
      R"json(,"sources":[{"backlogAgeMicros":250000,"backlogRows":17)json"
      R"json(,"name":"clicks","rows":1000,"rowsPerSec":123456.789}])json"
      R"json(,"stateBytes":4096,"stateEntries":7)json"
      R"json(,"triggerDriftNanos":1234,"triggerWaitNanos":999)json"
      R"json(,"watermarkLagMicros":3000000)json"
      R"json(,"watermarkMicros":11000000})json";
  const char* const kWithSchedulerFields =
      R"json({"durationNanos":600,"durations":{"checkpointNanos":50)json"
      R"json(,"commitNanos":75,"execNanos":200,"otherNanos":25)json"
      R"json(,"planNanos":100,"sourceReadNanos":150})json"
      R"json(,"e2eLatency":{"buckets":[],"count":0,"maxMicros":0)json"
      R"json(,"p50Micros":0,"p95Micros":0,"p99Micros":0)json"
      R"json(,"sumMicros":0},"epoch":12,"operators":[{"batches":2)json"
      R"json(,"cpuNanos":150,"name":"StreamScan(clicks)","opId":1)json"
      R"json(,"outputBytes":24000,"rowsIn":0,"rowsOut":1000)json"
      R"json(,"stateBytes":0,"stateRows":0},{"batches":2)json"
      R"json(,"cpuNanos":180,"maxTaskRunNanos":2500)json"
      R"json(,"name":"StatefulAggregate","opId":3,"outputBytes":2048)json"
      R"json(,"queueWaitNanos":3100,"rowsIn":1000,"rowsOut":42)json"
      R"json(,"shardState":[[3,1800],[4,2296]],"stateBytes":4096)json"
      R"json(,"stateRows":7,"taskRunNanos":9200,"tasks":6}])json"
      R"json(,"queueWaitNanos":3100,"rowsRead":1000,"rowsWritten":42)json"
      R"json(,"sinkCommitNanos":60)json"
      R"json(,"sources":[{"backlogAgeMicros":250000,"backlogRows":17)json"
      R"json(,"name":"clicks","rows":1000,"rowsPerSec":123456.789}])json"
      R"json(,"stateBytes":4096,"stateEntries":7)json"
      R"json(,"triggerDriftNanos":1234,"triggerWaitNanos":999)json"
      R"json(,"watermarkLagMicros":3000000)json"
      R"json(,"watermarkMicros":11000000})json";
  for (const char* line : {kWithoutSchedulerFields, kWithSchedulerFields}) {
    auto parsed = Json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto back = QueryProgress::FromJson(*parsed);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->ToJson().Dump(), line);
  }
  auto parsed = Json::Parse(kWithSchedulerFields);
  ASSERT_TRUE(parsed.ok());
  auto back = QueryProgress::FromJson(*parsed);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->operators.size(), 2u);
  const OperatorProgress& scan = back->operators[0];
  EXPECT_EQ(scan.tasks, 0);
  EXPECT_TRUE(scan.ToJson().Get("tasks").is_null());
  const OperatorProgress& agg = back->operators[1];
  EXPECT_EQ(agg.rows_in, 1000);
  EXPECT_EQ(agg.tasks, 6);
  EXPECT_EQ(agg.queue_wait_nanos, 3100);
  EXPECT_EQ(agg.task_run_nanos, 9200);
  EXPECT_EQ(agg.max_task_run_nanos, 2500);
}

// The field table lists every OpCounters member once, and Add folds each
// by its declared rule.
TEST(OpCountersTest, TableCoversEveryFieldAndAddFollowsMergeRules) {
  std::set<std::string> keys;
  OpCounters a;
  OpCounters b;
  int64_t seed = 1;
  for (const OpCounterField& f : kOpCounterFields) {
    EXPECT_TRUE(keys.insert(f.json_key).second) << f.json_key;
    EXPECT_EQ(a.*f.member, 0) << f.json_key << " listed twice";
    a.*f.member = seed;
    b.*f.member = 10 * seed + 5;
    ++seed;
  }
  EXPECT_EQ(keys.size() * sizeof(int64_t), sizeof(OpCounters));
  OpCounters sum = a;
  sum.Add(b);
  for (const OpCounterField& f : kOpCounterFields) {
    const int64_t want = f.merge == CounterMerge::kSum
                             ? a.*f.member + b.*f.member
                             : std::max(a.*f.member, b.*f.member);
    EXPECT_EQ(sum.*f.member, want) << f.json_key;
  }
  EXPECT_EQ(sum.max_task_run_nanos, b.max_task_run_nanos);
  EXPECT_EQ(sum.rows_in, a.rows_in + b.rows_in);
}

TEST(ProgressJsonTest, FromJsonToleratesMissingNewFields) {
  // A log line from a build without the memory-accounting fields.
  auto parsed = Json::Parse(
      R"({"epoch": 3, "rowsRead": 10, "rowsWritten": 5,)"
      R"( "stateEntries": 2, "durationNanos": 100})");
  ASSERT_TRUE(parsed.ok());
  auto back = QueryProgress::FromJson(*parsed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->epoch, 3);
  EXPECT_EQ(back->state_bytes, 0);
  EXPECT_TRUE(back->operators.empty());
}

// Merging every per-epoch LatencySummary must reproduce the histogram that
// recorded the full value stream — same count/sum/max, same buckets, and
// therefore the same quantile estimates. This is the contract that lets the
// lifetime Prometheus series and the per-epoch QueryProgress summaries tie
// out exactly.
TEST(LatencySummaryTest, MergedEpochSummariesReproduceLifetimeHistogram) {
  LogHistogram lifetime;
  LogHistogram merged;
  for (int epoch = 0; epoch < 5; ++epoch) {
    LogHistogram per_epoch;
    for (int i = 0; i < 100; ++i) {
      // Spread samples over several powers of two, different mix per epoch.
      int64_t value = (epoch + 1) * 1000 + i * i * 7;
      per_epoch.Record(value);
      lifetime.Record(value);
    }
    LatencySummary summary = LatencySummary::FromHistogram(per_epoch);
    // The summary survives JSON too — merge what a reader would parse back.
    auto parsed = LatencySummary::FromJson(summary.ToJson());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    parsed->MergeInto(&merged);
  }
  EXPECT_EQ(merged.count(), lifetime.count());
  EXPECT_EQ(merged.sum(), lifetime.sum());
  EXPECT_EQ(merged.max(), lifetime.max());
  for (int i = 0; i < LogHistogram::kNumBuckets; ++i) {
    ASSERT_EQ(merged.bucket_count(i), lifetime.bucket_count(i))
        << "bucket " << i;
  }
  EXPECT_EQ(merged.ValueAtQuantile(0.50), lifetime.ValueAtQuantile(0.50));
  EXPECT_EQ(merged.ValueAtQuantile(0.99), lifetime.ValueAtQuantile(0.99));
}

TEST(LatencySummaryTest, JsonRoundTripIsByteIdentical) {
  LogHistogram h;
  h.RecordN(100, 3);
  h.RecordN(5000, 10);
  h.RecordN(123456, 1);
  LatencySummary s = LatencySummary::FromHistogram(h);
  std::string dump = s.ToJson().Dump();
  auto parsed = Json::Parse(dump);
  ASSERT_TRUE(parsed.ok());
  auto back = LatencySummary::FromJson(*parsed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ToJson().Dump(), dump);
  EXPECT_EQ(back->count, 14);
  EXPECT_EQ(back->max_micros, 123456);
}

// The documented invariant on a real stateful query: stage durations sum to
// duration_nanos, and the new accounting fields are populated.
TEST(ProgressJsonTest, RealQueryProgressInvariants) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df =
      DataFrame::ReadStream(stream)
          .WithWatermark("time", 5 * kSec)
          .GroupBy({As(TumblingWindow(Col("time"), 10 * kSec), "window")})
          .Count();
  QueryOptions opts;
  opts.mode = OutputMode::kAppend;
  opts.num_partitions = 3;
  auto query = StreamingQuery::Start(df, sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 2), Click("ny", 1, 7)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());

  QueryProgress last;
  ASSERT_TRUE((*query)->GetLastProgress(&last));
  EXPECT_EQ(last.StageSumNanos(), last.duration_nanos);
  EXPECT_GT(last.state_entries, 0);
  EXPECT_GT(last.state_bytes, 0) << "memory accounting must see the window "
                                    "state";
  bool saw_stateful = false;
  int64_t op_state_bytes = 0;
  for (const OperatorProgress& op : last.operators) {
    if (op.state_rows > 0) {
      saw_stateful = true;
      op_state_bytes += op.state_bytes;
      EXPECT_GT(op.state_bytes, 0);
    }
    if (op.rows_out > 0) {
      EXPECT_GT(op.output_bytes, 0);
    }
  }
  EXPECT_TRUE(saw_stateful);
  EXPECT_EQ(op_state_bytes, last.state_bytes)
      << "query total must equal the per-operator sum";

  // The real progress also survives the JSON round trip byte-identically.
  std::string dump = last.ToJson().Dump();
  auto parsed = Json::Parse(dump);
  ASSERT_TRUE(parsed.ok());
  auto back = QueryProgress::FromJson(*parsed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ToJson().Dump(), dump);
}

}  // namespace
}  // namespace sstreaming
