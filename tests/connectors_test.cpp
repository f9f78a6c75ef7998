#include <gtest/gtest.h>

#include "common/clock.h"
#include "connectors/bus_connectors.h"
#include "connectors/file_connectors.h"
#include "connectors/memory.h"
#include "connectors/rate_source.h"
#include "storage/fs.h"

namespace sstreaming {
namespace {

SchemaPtr TwoColSchema() {
  return Schema::Make(
      {{"k", TypeId::kString, true}, {"v", TypeId::kInt64, true}});
}

TEST(MemoryStreamTest, RoundRobinAcrossPartitions) {
  MemoryStream s("m", TwoColSchema(), 2);
  ASSERT_TRUE(s.AddData({{Value::Str("a"), Value::Int64(1)},
                         {Value::Str("b"), Value::Int64(2)},
                         {Value::Str("c"), Value::Int64(3)}})
                  .ok());
  auto offsets = s.LatestOffsets();
  ASSERT_TRUE(offsets.ok());
  EXPECT_EQ((*offsets)[0], 2);
  EXPECT_EQ((*offsets)[1], 1);
  auto batch = s.ReadPartition(0, 0, 2);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)->num_rows(), 2);
  EXPECT_EQ((*batch)->RowAt(0)[0], Value::Str("a"));
  EXPECT_EQ((*batch)->RowAt(1)[0], Value::Str("c"));
}

TEST(MemoryStreamTest, ArityChecked) {
  MemoryStream s("m", TwoColSchema(), 1);
  EXPECT_FALSE(s.AddData({{Value::Str("a")}}).ok());
}

TEST(MemorySinkTest, AppendIdempotentByEpoch) {
  MemorySink sink;
  auto batch = RecordBatch::FromRows(TwoColSchema(),
                                     {{Value::Str("a"), Value::Int64(1)}})
                   .TakeValue();
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kAppend, 0, {batch}).ok());
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kAppend, 0, {batch}).ok());
  EXPECT_EQ(sink.Snapshot().size(), 1u) << "re-commit must not duplicate";
}

TEST(MemorySinkTest, UpdateUpsertsByKey) {
  MemorySink sink;
  auto b1 = RecordBatch::FromRows(TwoColSchema(),
                                  {{Value::Str("a"), Value::Int64(1)},
                                   {Value::Str("b"), Value::Int64(1)}})
                .TakeValue();
  auto b2 = RecordBatch::FromRows(TwoColSchema(),
                                  {{Value::Str("a"), Value::Int64(5)}})
                .TakeValue();
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kUpdate, 1, {b1}).ok());
  ASSERT_TRUE(sink.CommitEpoch(2, OutputMode::kUpdate, 1, {b2}).ok());
  auto rows = sink.SortedSnapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], Value::Int64(5));  // a upserted
  EXPECT_EQ(rows[1][1], Value::Int64(1));  // b unchanged
}

TEST(MemorySinkTest, UpdateRequiresKeys) {
  MemorySink sink;
  auto b = RecordBatch::FromRows(TwoColSchema(),
                                 {{Value::Str("a"), Value::Int64(1)}})
               .TakeValue();
  EXPECT_FALSE(sink.CommitEpoch(1, OutputMode::kUpdate, 0, {b}).ok());
}

TEST(MemorySinkTest, CompleteReplacesTable) {
  MemorySink sink;
  auto b1 = RecordBatch::FromRows(TwoColSchema(),
                                  {{Value::Str("a"), Value::Int64(1)},
                                   {Value::Str("b"), Value::Int64(2)}})
                .TakeValue();
  auto b2 = RecordBatch::FromRows(TwoColSchema(),
                                  {{Value::Str("a"), Value::Int64(9)}})
                .TakeValue();
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kComplete, 0, {b1}).ok());
  ASSERT_TRUE(sink.CommitEpoch(2, OutputMode::kComplete, 0, {b2}).ok());
  EXPECT_EQ(sink.Snapshot().size(), 1u);
  // Stale re-commit of epoch 1 (recovery) does not clobber epoch 2.
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kComplete, 0, {b1}).ok());
  EXPECT_EQ(sink.Snapshot().size(), 1u);
  EXPECT_EQ(sink.last_committed_epoch(), 2);
}

TEST(BusConnectorsTest, SourceReadsTopic) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("in", 2).ok());
  ASSERT_TRUE(bus.Append("in", 0, {Value::Str("x"), Value::Int64(1)}).ok());
  ASSERT_TRUE(bus.Append("in", 1, {Value::Str("y"), Value::Int64(2)}).ok());
  BusSource source(&bus, "in", TwoColSchema());
  EXPECT_EQ(source.num_partitions(), 2);
  auto offsets = source.LatestOffsets();
  ASSERT_TRUE(offsets.ok());
  EXPECT_EQ((*offsets)[0], 1);
  auto batch = source.ReadPartition(1, 0, 1);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)->RowAt(0)[0], Value::Str("y"));
}

TEST(BusConnectorsTest, SinkWritesAndSuppressesRecommit) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("out", 2).ok());
  BusSink sink(&bus, "out");
  auto b = RecordBatch::FromRows(TwoColSchema(),
                                 {{Value::Str("a"), Value::Int64(1)},
                                  {Value::Str("b"), Value::Int64(2)}})
               .TakeValue();
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kAppend, 0, {b}).ok());
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kAppend, 0, {b}).ok());
  EXPECT_EQ(*bus.TotalRecords("out"), 2);
}

TEST(BusConnectorsTest, SinkPlacesEveryRowOnItsRowHashPartition) {
  constexpr int kPartitions = 5;
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("out", kPartitions).ok());
  BusSink sink(&bus, "out");
  auto schema = Schema::Make({{"i", TypeId::kInt64, true},
                              {"s", TypeId::kString, true},
                              {"d", TypeId::kFloat64, true}});
  // int64, string, null and integral-double keys (3.0 must hash like 3).
  std::vector<Row> rows;
  for (int64_t i = 0; i < 60; ++i) {
    rows.push_back({i % 7 == 0 ? Value::Null() : Value::Int64(i * 31),
                    i % 5 == 0 ? Value::Null()
                               : Value::Str(std::to_string(i * 17)),
                    i % 3 == 0 ? Value::Float64(static_cast<double>(i))
                               : Value::Float64(static_cast<double>(i) + .5)});
  }
  auto plain = RecordBatch::FromRows(schema, rows).TakeValue();
  // A selection view: the sink sees its logical rows only.
  std::vector<int32_t> keep;
  std::vector<Row> want = rows;
  for (int32_t i = 59; i >= 0; i -= 3) {
    keep.push_back(i);
    want.push_back(rows[static_cast<size_t>(i)]);
  }
  auto view =
      RecordBatch::MakeView(plain, SelectionVector::FromVector(keep));
  ASSERT_TRUE(sink.CommitEpoch(0, OutputMode::kAppend, 0, {plain, view}).ok());

  // Each partition holds, in commit order, exactly the rows that
  // HashRow(row) % n sends there.
  for (int p = 0; p < kPartitions; ++p) {
    std::vector<Row> expected;
    for (const Row& r : want) {
      if (HashRow(r) % kPartitions == static_cast<uint64_t>(p)) {
        expected.push_back(r);
      }
    }
    auto got = bus.Read("out", p, 0, *bus.EndOffset("out", p));
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), expected.size()) << "partition " << p;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(CompareRows((*got)[i], expected[i]), 0)
          << "partition " << p << " row " << i << ": "
          << RowToString((*got)[i]) << " vs " << RowToString(expected[i]);
    }
  }
  EXPECT_EQ(*bus.TotalRecords("out"), static_cast<int64_t>(want.size()));
}

class FileConnectorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("sstreaming_fileconn_test");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }
  std::string dir_;
};

TEST_F(FileConnectorsTest, ParseLine) {
  auto schema = TwoColSchema();
  auto row = JsonFileSource::ParseLine(*schema, R"({"k":"a","v":3})");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0], Value::Str("a"));
  EXPECT_EQ((*row)[1], Value::Int64(3));
  // Missing and mistyped fields become NULL, not errors (paper §7.2).
  row = JsonFileSource::ParseLine(*schema, R"({"k":"a","v":"oops"})");
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE((*row)[1].is_null());
  row = JsonFileSource::ParseLine(*schema, R"({"other":1})");
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE((*row)[0].is_null());
  // Whole-line garbage is an error.
  EXPECT_FALSE(JsonFileSource::ParseLine(*schema, "not json").ok());
}

TEST_F(FileConnectorsTest, SourceOffsetsSpanFiles) {
  ASSERT_TRUE(EnsureDir(dir_ + "/in").ok());
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/in/01.jsonl",
                              "{\"k\":\"a\",\"v\":1}\n{\"k\":\"b\",\"v\":2}\n")
                  .ok());
  ASSERT_TRUE(
      WriteFileAtomic(dir_ + "/in/02.jsonl", "{\"k\":\"c\",\"v\":3}\n").ok());
  JsonFileSource source(dir_ + "/in", TwoColSchema());
  auto offsets = source.LatestOffsets();
  ASSERT_TRUE(offsets.ok());
  EXPECT_EQ((*offsets)[0], 3);
  auto batch = source.ReadPartition(0, 1, 3);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ((*batch)->num_rows(), 2);
  EXPECT_EQ((*batch)->RowAt(0)[0], Value::Str("b"));
  EXPECT_EQ((*batch)->RowAt(1)[0], Value::Str("c"));
  // New files extend the stream; old offsets stay valid (replayability).
  ASSERT_TRUE(
      WriteFileAtomic(dir_ + "/in/03.jsonl", "{\"k\":\"d\",\"v\":4}\n").ok());
  EXPECT_EQ((*source.LatestOffsets())[0], 4);
  auto again = source.ReadPartition(0, 1, 3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->RowAt(0)[0], Value::Str("b"));
}

TEST_F(FileConnectorsTest, SinkWritesEpochFilesIdempotently) {
  JsonFileSink sink(dir_ + "/out");
  auto schema = TwoColSchema();
  auto b = RecordBatch::FromRows(schema, {{Value::Str("a"), Value::Int64(1)}})
               .TakeValue();
  ASSERT_TRUE(sink.CommitEpoch(3, OutputMode::kAppend, 0, {b}).ok());
  ASSERT_TRUE(sink.CommitEpoch(3, OutputMode::kAppend, 0, {b}).ok());
  auto rows = sink.ReadAll(*schema);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  auto epochs = sink.ListEpochs();
  ASSERT_TRUE(epochs.ok());
  EXPECT_EQ(*epochs, std::vector<int64_t>{3});
}

TEST_F(FileConnectorsTest, SinkCompleteModeKeepsOneFile) {
  JsonFileSink sink(dir_ + "/out");
  auto schema = TwoColSchema();
  auto b1 = RecordBatch::FromRows(schema,
                                  {{Value::Str("a"), Value::Int64(1)}})
                .TakeValue();
  auto b2 = RecordBatch::FromRows(schema,
                                  {{Value::Str("a"), Value::Int64(2)},
                                   {Value::Str("b"), Value::Int64(3)}})
                .TakeValue();
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kComplete, 0, {b1}).ok());
  ASSERT_TRUE(sink.CommitEpoch(2, OutputMode::kComplete, 0, {b2}).ok());
  auto epochs = sink.ListEpochs();
  ASSERT_TRUE(epochs.ok());
  EXPECT_EQ(*epochs, std::vector<int64_t>{2});
  auto rows = sink.ReadEpoch(*schema, 2);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(FileConnectorsTest, SinkRollbackRemovesEpochs) {
  JsonFileSink sink(dir_ + "/out");
  auto schema = TwoColSchema();
  for (int64_t e = 1; e <= 4; ++e) {
    auto b = RecordBatch::FromRows(schema,
                                   {{Value::Str("x"), Value::Int64(e)}})
                 .TakeValue();
    ASSERT_TRUE(sink.CommitEpoch(e, OutputMode::kAppend, 0, {b}).ok());
  }
  ASSERT_TRUE(sink.RemoveEpochsAfter(2).ok());
  EXPECT_EQ(*sink.ListEpochs(), (std::vector<int64_t>{1, 2}));
}

TEST(RateSourceTest, DeterministicAndReplayable) {
  ManualClock clock(0);
  RateSource source("rate", 1000, 2, &clock);
  EXPECT_EQ((*source.LatestOffsets())[0], 0);
  clock.AdvanceMillis(100);  // 100ms at 1000 rows/s = 100 rows
  auto offsets = source.LatestOffsets();
  ASSERT_TRUE(offsets.ok());
  EXPECT_EQ((*offsets)[0] + (*offsets)[1], 100);
  auto b1 = source.ReadPartition(0, 10, 20);
  auto b2 = source.ReadPartition(0, 10, 20);
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(b2.ok());
  ASSERT_EQ((*b1)->num_rows(), 10);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(CompareRows((*b1)->RowAt(i), (*b2)->RowAt(i)), 0);
  }
  // Values are globally unique across partitions.
  EXPECT_EQ((*b1)->RowAt(0)[0], Value::Int64(20));  // offset 10 * 2 parts + 0
}

TEST(RateSourceTest, TimestampsTrackProductionTime) {
  ManualClock clock(0);
  RateSource source("rate", 100, 1, &clock);
  // Record 50 is produced at t = 50/100 s = 500ms.
  EXPECT_EQ(source.TimestampFor(0, 50), 500000);
}

TEST(ForeachSinkTest, CallbackReceivesRows) {
  std::vector<Row> seen;
  int64_t seen_epoch = -1;
  ForeachSink sink([&](int64_t epoch, OutputMode,
                       const std::vector<Row>& rows) -> Status {
    seen_epoch = epoch;
    seen.insert(seen.end(), rows.begin(), rows.end());
    return Status::OK();
  });
  auto b = RecordBatch::FromRows(TwoColSchema(),
                                 {{Value::Str("a"), Value::Int64(1)}})
               .TakeValue();
  ASSERT_TRUE(sink.CommitEpoch(7, OutputMode::kAppend, 0, {b}).ok());
  EXPECT_EQ(seen_epoch, 7);
  ASSERT_EQ(seen.size(), 1u);
}

}  // namespace
}  // namespace sstreaming
