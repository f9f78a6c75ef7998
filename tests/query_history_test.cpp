#include "obs/query_history.h"

#include <gtest/gtest.h>

#include <fstream>

#include "chaos_harness.h"
#include "connectors/memory.h"
#include "exec/streaming_query.h"
#include "obs/http_server.h"
#include "storage/fs.h"

namespace sstreaming {
namespace {

constexpr int64_t kSec = 1000000;

std::string TempDir() {
  auto dir = MakeTempDir("sstreaming_history");
  EXPECT_TRUE(dir.ok()) << dir.status().ToString();
  return *dir;
}

QueryProgress MakeProgress(int64_t epoch) {
  QueryProgress p;
  p.epoch = epoch;
  p.rows_read = 10 * epoch;
  p.rows_written = epoch;
  p.duration_nanos = 100;
  p.exec_nanos = 100;
  return p;
}

TEST(QueryHistoryTest, AppendsAndReadsLifecycleEvents) {
  std::string dir = TempDir();
  ManualClock clock(5 * kSec);
  auto log = QueryHistoryLog::Open(dir, &clock);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  Diagnostic warning;
  warning.code = DiagCode::kUnboundedAggregationState;
  warning.message = "state grows without bound";
  ASSERT_TRUE((*log)->AppendStarted("q", false, {warning}).ok());
  clock.AdvanceMicros(kSec);
  ASSERT_TRUE((*log)->AppendProgress("q", MakeProgress(1)).ok());
  ASSERT_TRUE((*log)->AppendProgress("q", MakeProgress(2)).ok());
  clock.AdvanceMicros(kSec);
  ASSERT_TRUE(
      (*log)->AppendTerminated("q", Status::OK(), 2, PlanProfile{}).ok());
  EXPECT_TRUE((*log)->status().ok());

  auto events = QueryHistoryLog::ReadAll(dir);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 4u);
  EXPECT_EQ((*events)[0].Get("event").string_value(), "started");
  EXPECT_EQ((*events)[0].Get("query").string_value(), "q");
  EXPECT_EQ((*events)[0].Get("timestampMicros").int_value(), 5 * kSec);
  EXPECT_FALSE((*events)[0].Get("recovered").bool_value());
  ASSERT_EQ((*events)[0].Get("planWarnings").array_items().size(), 1u);
  EXPECT_EQ((*events)[1].Get("event").string_value(), "progress");
  EXPECT_EQ((*events)[1].Get("timestampMicros").int_value(), 6 * kSec);
  // Progress lines round-trip through the documented QueryProgress schema.
  auto progress = QueryProgress::FromJson((*events)[1].Get("progress"));
  ASSERT_TRUE(progress.ok()) << progress.status().ToString();
  EXPECT_EQ(progress->epoch, 1);
  EXPECT_EQ((*events)[3].Get("event").string_value(), "terminated");
  EXPECT_EQ((*events)[3].Get("lastEpoch").int_value(), 2);
  EXPECT_EQ((*events)[3].Get("error").string_value(), "");
}

TEST(QueryHistoryTest, ReadAllIsNotFoundWithoutHistory) {
  std::string dir = TempDir();
  auto events = QueryHistoryLog::ReadAll(dir);
  EXPECT_TRUE(events.status().IsNotFound()) << events.status().ToString();
}

TEST(QueryHistoryTest, OpenRepairsTornTail) {
  std::string dir = TempDir();
  ManualClock clock;
  {
    auto log = QueryHistoryLog::Open(dir, &clock);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AppendStarted("q", false, {}).ok());
    ASSERT_TRUE((*log)->AppendProgress("q", MakeProgress(1)).ok());
  }
  // Simulate a crash mid-append: a partial line with no trailing newline.
  std::string path = QueryHistoryLog::HistoryPath(dir);
  {
    std::ofstream out(path, std::ios::app);
    out << R"({"event":"progress","torn)";
  }
  // Offline readers skip the torn tail without repairing it.
  auto before = QueryHistoryLog::ReadAll(dir);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->size(), 2u);
  // Reopening truncates the tail, and new appends continue a clean log.
  auto log = QueryHistoryLog::Open(dir, &clock);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_TRUE((*log)->AppendProgress("q", MakeProgress(2)).ok());
  auto events = QueryHistoryLog::ReadAll(dir);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 3u);
  auto progress = QueryProgress::FromJson((*events)[2].Get("progress"));
  ASSERT_TRUE(progress.ok());
  EXPECT_EQ(progress->epoch, 2);
}

TEST(QueryHistoryTest, InteriorCorruptionSurfacesAsError) {
  std::string dir = TempDir();
  ManualClock clock;
  {
    auto log = QueryHistoryLog::Open(dir, &clock);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AppendStarted("q", false, {}).ok());
  }
  std::string path = QueryHistoryLog::HistoryPath(dir);
  {
    std::ofstream out(path, std::ios::app);
    out << "not json\n";                        // interior corruption...
    out << R"({"event":"progress"})" << "\n";   // ...because a line follows
  }
  auto events = QueryHistoryLog::ReadAll(dir);
  EXPECT_FALSE(events.ok());
}

SchemaPtr ClickSchema() {
  return Schema::Make({{"country", TypeId::kString, false},
                       {"time", TypeId::kTimestamp, false}});
}

Row Click(const char* country, int64_t time_sec) {
  return {Value::Str(country), Value::Timestamp(time_sec * kSec)};
}

DataFrame ClickQuery(const std::shared_ptr<MemoryStream>& stream) {
  return DataFrame::ReadStream(stream)
      .WithWatermark("time", 5 * kSec)
      .GroupBy({As(TumblingWindow(Col("time"), 10 * kSec), "w")})
      .Count();
}

// A checkpointed query writes its lifecycle to the history log without any
// extra wiring, a restart appends a recovered start, and the HTTP endpoint
// serves the accumulated events.
TEST(QueryHistoryTest, QueryLifecycleLandsInHistoryAcrossRestart) {
  std::string dir = TempDir();
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  opts.num_partitions = 2;
  opts.checkpoint_dir = dir;
  opts.query_name = "clicks";

  {
    auto sink = std::make_shared<MemorySink>();
    auto query = StreamingQuery::Start(ClickQuery(stream), sink, opts);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    ASSERT_TRUE(stream->AddData({Click("ca", 2), Click("ny", 7)}).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  }  // clean stop appends "terminated"

  auto mid = QueryHistoryLog::ReadAll(dir);
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  ASSERT_GE(mid->size(), 3u);
  EXPECT_EQ(mid->front().Get("event").string_value(), "started");
  EXPECT_FALSE(mid->front().Get("recovered").bool_value());
  EXPECT_EQ(mid->back().Get("event").string_value(), "terminated");

  auto sink = std::make_shared<MemorySink>();
  auto query = StreamingQuery::Start(ClickQuery(stream), sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream->AddData({Click("tx", 14)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());

  auto events = QueryHistoryLog::ReadAll(dir);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  int64_t starts = 0;
  int64_t recovered = 0;
  for (const Json& event : *events) {
    EXPECT_EQ(event.Get("query").string_value(), "clicks");
    if (event.Get("event").string_value() == "started") {
      ++starts;
      if (event.Get("recovered").bool_value()) ++recovered;
    }
  }
  EXPECT_EQ(starts, 2);
  EXPECT_EQ(recovered, 1);

  // The live endpoint serves the same events.
  ObservabilityServer server;
  server.MountQuery("clicks", query->get());
  HttpResponse resp = server.Handle({"GET", "/queries/clicks/history"});
  EXPECT_EQ(resp.status, 200);
  auto body = Json::Parse(resp.body);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(body->Get("name").string_value(), "clicks");
  EXPECT_EQ(body->Get("events").array_items().size(), events->size());

  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
}

// An ephemeral (no-checkpoint) query has no history to serve.
TEST(QueryHistoryTest, EphemeralQueryHistoryIs404) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  auto query = StreamingQuery::Start(ClickQuery(stream), sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ObservabilityServer server;
  server.MountQuery("clicks", query->get());
  HttpResponse resp = server.Handle({"GET", "/queries/clicks/history"});
  EXPECT_EQ(resp.status, 404);
}

// The crash-restart case the history log exists for: a fault injected on the
// durability path kills the process mid-run (several times), and afterwards
// the history must still parse end to end, hold at least one started event,
// and reach the engine's final epoch. ChaosHarness::Run checks exactly that
// (CheckHistoryIntegrity) after every run, so one torn-write scenario and
// one error scenario here stand in for the full sweep in chaos_recovery_test.
TEST(QueryHistoryTest, HistorySurvivesCrashRestart) {
  ChaosHarness::Options options;
  ChaosHarness harness(options);
  auto golden = harness.RunFaultFree();
  ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();

  auto torn = harness.RunWithFault("fs.write.torn", 2);
  ASSERT_TRUE(torn.status.ok()) << torn.status.ToString();
  EXPECT_GT(torn.crashes, 0);
  EXPECT_TRUE(ChaosHarness::CheckInvariants(golden, torn).ok());

  auto failed = harness.RunWithFault("wal.commit.before_write", 2);
  ASSERT_TRUE(failed.status.ok()) << failed.status.ToString();
  EXPECT_GT(failed.crashes, 0);
  EXPECT_TRUE(ChaosHarness::CheckInvariants(golden, failed).ok());
}

}  // namespace
}  // namespace sstreaming
