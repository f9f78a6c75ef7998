#include "obs/http_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "connectors/memory.h"
#include "exec/query_manager.h"
#include "exec/streaming_query.h"
#include "obs/metrics.h"
#include "obs/progress.h"

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

DataFrame WindowedCount(std::shared_ptr<MemoryStream> stream) {
  return DataFrame::ReadStream(stream)
      .WithWatermark("time", 5 * kSec)
      .GroupBy({As(TumblingWindow(Col("time"), 10 * kSec), "window")})
      .Count();
}

// Parses "name{...,op_id=\"N\",...} value" sample lines for one family into
// op_id -> value.
std::map<int, int64_t> ParseFamilyByOpId(const std::string& text,
                                         const std::string& family) {
  std::map<int, int64_t> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind(family + "{", 0) != 0) continue;
    size_t id = line.find("op_id=\"");
    size_t space = line.rfind(' ');
    if (id == std::string::npos || space == std::string::npos) continue;
    out[std::atoi(line.c_str() + id + 7)] =
        std::atoll(line.c_str() + space + 1);
  }
  return out;
}

void CollectPlanTotals(const Json& node, std::map<int, int64_t>* rows_in,
                       std::map<int, int64_t>* rows_out) {
  (*rows_in)[static_cast<int>(node.Get("opId").int_value())] =
      node.Get("rowsIn").int_value();
  (*rows_out)[static_cast<int>(node.Get("opId").int_value())] =
      node.Get("rowsOut").int_value();
  for (const Json& child : node.Get("children").array_items()) {
    CollectPlanTotals(child, rows_in, rows_out);
  }
}

// op_id -> the integer at `key` of every node in a /plan JSON tree.
void CollectPlanField(const Json& node, const char* key,
                      std::map<int, int64_t>* out) {
  (*out)[static_cast<int>(node.Get("opId").int_value())] =
      node.Get(key).int_value();
  for (const Json& child : node.Get("children").array_items()) {
    CollectPlanField(child, key, out);
  }
}

TEST(HttpServerTest, HealthzAndIndexAndErrors) {
  QueryManager manager;
  ASSERT_TRUE(manager.ServeHttp(0).ok());
  int port = manager.http_port();
  ASSERT_GT(port, 0);

  auto health = HttpGet(port, "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  auto index = HttpGet(port, "/");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->status, 200);
  EXPECT_NE(index->body.find("/metrics"), std::string::npos);
  EXPECT_EQ(index->body.find("profile"), std::string::npos);

  // The query string is split off before routing.
  auto metrics = HttpGet(port, "/metrics?foo=1");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);

  auto missing = HttpGet(port, "/no/such/route");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  auto parsed = Json::Parse(missing->body);
  ASSERT_TRUE(parsed.ok()) << "errors must be JSON: " << missing->body;
  EXPECT_TRUE(parsed->Get("error").is_string());

  // There is no sampling-profile route: /profile is an unknown path.
  auto profile = HttpGet(port, "/profile?seconds=1");
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->status, 404);

  auto no_query = HttpGet(port, "/queries/ghost/plan");
  ASSERT_TRUE(no_query.ok());
  EXPECT_EQ(no_query->status, 404);

  // Starting twice on the same manager is refused.
  EXPECT_FALSE(manager.ServeHttp(0).ok());
  manager.StopHttp();
  EXPECT_EQ(manager.http_port(), 0);
}

TEST(HttpServerTest, NonGetIsMethodNotAllowed) {
  ObservabilityServer server;
  HttpRequest req;
  req.method = "POST";
  req.path = "/metrics";
  EXPECT_EQ(server.Handle(req).status, 405);
}

// Acceptance: with a windowed aggregation running, /metrics reports
// sstreaming_state_bytes > 0 and the /plan row totals match the
// sstreaming_operator_rows_*_total counters in the same scrape.
TEST(HttpServerTest, MetricsAgreeWithPlanProfile) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  QueryManager manager;
  QueryOptions opts;
  opts.mode = OutputMode::kAppend;
  opts.num_partitions = 3;
  ASSERT_TRUE(manager
                  .StartQuerySynchronous("windowed", WindowedCount(stream),
                                         sink, opts)
                  .ok());
  ASSERT_TRUE(manager.ServeHttp(0).ok());
  int port = manager.http_port();

  ASSERT_TRUE(stream->AddData({Click("ca", 1, 2), Click("ny", 1, 7)}).ok());
  ASSERT_TRUE(manager.ProcessAllAvailable().ok());
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 16), Click("de", 1, 17)}).ok());
  ASSERT_TRUE(manager.ProcessAllAvailable().ok());

  auto metrics = HttpGet(port, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_EQ(metrics->status, 200);
  std::map<int, int64_t> state_bytes =
      ParseFamilyByOpId(metrics->body, "sstreaming_state_bytes");
  int64_t total_state_bytes = 0;
  for (const auto& [op_id, bytes] : state_bytes) total_state_bytes += bytes;
  EXPECT_GT(total_state_bytes, 0)
      << "windowed state must show up in /metrics:\n"
      << metrics->body;

  auto plan = HttpGet(port, "/queries/windowed/plan");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->status, 200);
  auto plan_json = Json::Parse(plan->body);
  ASSERT_TRUE(plan_json.ok()) << plan->body;
  EXPECT_GT(plan_json->Get("epochs").int_value(), 0);
  EXPECT_NE(plan_json->Get("explain").string_value().find("EXPLAIN ANALYZE"),
            std::string::npos);

  std::map<int, int64_t> plan_rows_in, plan_rows_out;
  CollectPlanTotals(plan_json->Get("root"), &plan_rows_in, &plan_rows_out);
  std::map<int, int64_t> counter_rows_in =
      ParseFamilyByOpId(metrics->body, "sstreaming_operator_rows_in_total");
  std::map<int, int64_t> counter_rows_out =
      ParseFamilyByOpId(metrics->body, "sstreaming_operator_rows_out_total");
  ASSERT_FALSE(plan_rows_in.empty());
  for (const auto& [op_id, rows] : plan_rows_in) {
    ASSERT_TRUE(counter_rows_in.count(op_id)) << "op " << op_id;
    EXPECT_EQ(rows, counter_rows_in[op_id]) << "rows_in of op " << op_id;
  }
  for (const auto& [op_id, rows] : plan_rows_out) {
    ASSERT_TRUE(counter_rows_out.count(op_id)) << "op " << op_id;
    EXPECT_EQ(rows, counter_rows_out[op_id]) << "rows_out of op " << op_id;
  }
  // Every operator family the counter table exports ties out the same way.
  // A stage-only family is absent for an operator that never ran a
  // scheduler stage; its plan total must then be zero.
  int families = 0;
  for (const OpCounterField& f : kOpCounterFields) {
    if (f.metric_family == nullptr) continue;
    ++families;
    std::map<int, int64_t> plan_values;
    CollectPlanField(plan_json->Get("root"), f.json_key, &plan_values);
    std::map<int, int64_t> counter_values =
        ParseFamilyByOpId(metrics->body, f.metric_family);
    ASSERT_FALSE(plan_values.empty());
    for (const auto& [op_id, value] : plan_values) {
      if (counter_values.count(op_id) == 0) {
        EXPECT_TRUE(f.stage_only) << f.metric_family << " op " << op_id;
        EXPECT_EQ(value, 0) << f.json_key << " of op " << op_id;
        continue;
      }
      EXPECT_EQ(value, counter_values[op_id])
          << f.json_key << " of op " << op_id;
    }
  }
  EXPECT_GE(families, 5);
  manager.StopHttp();
}

TEST(HttpServerTest, QueriesListDetailAndTrace) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  QueryManager manager;
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  DataFrame df = DataFrame::ReadStream(stream).GroupBy({"country"}).Count();
  ASSERT_TRUE(manager.StartQuerySynchronous("counts", df, sink, opts).ok());
  ASSERT_TRUE(manager.ServeHttp(0).ok());
  int port = manager.http_port();

  ASSERT_TRUE(stream->AddData({Click("ca", 1, 1), Click("ny", 2, 1)}).ok());
  ASSERT_TRUE(manager.ProcessAllAvailable().ok());

  auto list = HttpGet(port, "/queries");
  ASSERT_TRUE(list.ok());
  auto list_json = Json::Parse(list->body);
  ASSERT_TRUE(list_json.ok()) << list->body;
  ASSERT_EQ(list_json->array_items().size(), 1u);
  const Json& entry = list_json->array_items()[0];
  EXPECT_EQ(entry.Get("name").string_value(), "counts");
  EXPECT_EQ(entry.Get("error").string_value(), "");
  EXPECT_GT(entry.Get("lastEpoch").int_value(), 0);
  EXPECT_TRUE(entry.Get("lastProgress").is_object());

  auto detail = HttpGet(port, "/queries/counts");
  ASSERT_TRUE(detail.ok());
  auto detail_json = Json::Parse(detail->body);
  ASSERT_TRUE(detail_json.ok()) << detail->body;
  ASSERT_TRUE(detail_json->Get("progress").is_array());
  EXPECT_GE(detail_json->Get("progress").array_items().size(), 1u);

  auto trace = HttpGet(port, "/queries/counts/trace");
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace->status, 200);
  auto trace_json = Json::Parse(trace->body);
  ASSERT_TRUE(trace_json.ok()) << trace->body;
  EXPECT_TRUE(trace_json->Get("traceEvents").is_array());

  // After StopQuery the endpoints 404 instead of touching freed memory.
  ASSERT_TRUE(manager.StopQuery("counts").ok());
  auto gone = HttpGet(port, "/queries/counts");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->status, 404);
}

TEST(HttpServerTest, MountsIndividualQueryWithoutManager) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  QueryOptions opts;
  opts.mode = OutputMode::kAppend;
  auto query = StreamingQuery::Start(DataFrame::ReadStream(stream), sink,
                                     opts);
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 1)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());

  ObservabilityServer server;
  server.MountQuery("solo", query->get());
  ASSERT_TRUE(server.Start(0).ok());
  auto plan = HttpGet(server.port(), "/queries/solo/plan");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->status, 200);
  auto metrics = HttpGet(server.port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("sstreaming_rows_read_total"),
            std::string::npos)
      << metrics->body;
  server.Stop();
}

// Scrape-under-load: four client threads hammer /metrics and /plan while
// the query keeps executing epochs. Run under TSan this is the data-race
// certification for the whole read path (progress ring, plan profile,
// metrics registry, state-size accounting).
TEST(HttpServerTest, ConcurrentScrapeUnderLoad) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  QueryManager manager;
  QueryOptions opts;
  opts.mode = OutputMode::kAppend;
  opts.num_partitions = 3;
  opts.trigger = Trigger::ProcessingTime(1000);  // 1ms
  ASSERT_TRUE(
      manager.StartQuery("load", WindowedCount(stream), sink, opts).ok());
  ASSERT_TRUE(manager.ServeHttp(0).ok());
  int port = manager.http_port();

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  const char* paths[] = {"/metrics", "/queries/load/plan", "/queries",
                         "/queries/load"};
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      while (!done.load()) {
        auto resp = HttpGet(port, paths[t]);
        if (!resp.ok() || resp->status != 200) failures.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        stream->AddData({Click("ca", i, i), Click("ny", i, i + 3)}).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  done.store(true);
  for (std::thread& t : scrapers) t.join();
  EXPECT_EQ(failures.load(), 0);
  manager.StopAll();
  manager.StopHttp();
}

}  // namespace
}  // namespace sstreaming
