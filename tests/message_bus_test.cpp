#include "bus/message_bus.h"

#include <algorithm>
#include <thread>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"

namespace sstreaming {
namespace {

Row MakeRow(int64_t v) { return {Value::Int64(v)}; }

SchemaPtr IntSchema(TypeId type = TypeId::kInt64) {
  return Schema::Make({{"v", type, true}});
}

bool Contains(const Status& status, const std::string& text) {
  return status.message().find(text) != std::string::npos;
}

TEST(MessageBusTest, CreateTopicValidation) {
  MessageBus bus;
  EXPECT_TRUE(bus.CreateTopic("t", 4).ok());
  EXPECT_EQ(bus.CreateTopic("t", 4).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(bus.CreateTopic("bad", 0).ok());
  EXPECT_TRUE(bus.HasTopic("t"));
  EXPECT_FALSE(bus.HasTopic("nope"));
  EXPECT_EQ(*bus.NumPartitions("t"), 4);
}

TEST(MessageBusTest, AppendAssignsSequentialOffsets) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("t", 2).ok());
  EXPECT_EQ(*bus.Append("t", 0, MakeRow(10)), 0);
  EXPECT_EQ(*bus.Append("t", 0, MakeRow(11)), 1);
  EXPECT_EQ(*bus.Append("t", 1, MakeRow(20)), 0);
  EXPECT_EQ(*bus.EndOffset("t", 0), 2);
  EXPECT_EQ(*bus.EndOffset("t", 1), 1);
}

TEST(MessageBusTest, ReadRange) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(bus.Append("t", 0, MakeRow(i)).ok());
  }
  auto rows = bus.Read("t", 0, 3, 7);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);
  EXPECT_EQ((*rows)[0][0], Value::Int64(3));
  EXPECT_EQ((*rows)[3][0], Value::Int64(6));
}

TEST(MessageBusTest, ReadIsReplayable) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(bus.Append("t", 0, MakeRow(i)).ok());
  }
  auto first = bus.Read("t", 0, 0, 5);
  auto second = bus.Read("t", 0, 0, 5);  // same range, same data
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ(CompareRows((*first)[i], (*second)[i]), 0);
  }
}

TEST(MessageBusTest, ReadClampsEnd) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.Append("t", 0, MakeRow(1)).ok());
  auto rows = bus.Read("t", 0, 0, 100);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST(MessageBusTest, ReadBadStartFails) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  EXPECT_FALSE(bus.Read("t", 0, 5, 10).ok());
  EXPECT_FALSE(bus.Read("t", 0, -1, 1).ok());
}

TEST(MessageBusTest, UnknownTopicOrPartition) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  EXPECT_TRUE(bus.Append("nope", 0, MakeRow(1)).status().IsNotFound());
  EXPECT_FALSE(bus.Append("t", 3, MakeRow(1)).ok());
  EXPECT_FALSE(bus.Read("t", -1, 0, 1).ok());
}

TEST(MessageBusTest, AppendBatchReturnsFirstOffset) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.Append("t", 0, MakeRow(0)).ok());
  auto first = bus.AppendBatch("t", 0, {MakeRow(1), MakeRow(2), MakeRow(3)});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1);
  EXPECT_EQ(*bus.EndOffset("t", 0), 4);
}

TEST(MessageBusTest, EndOffsetsAndTotal) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("t", 3).ok());
  ASSERT_TRUE(bus.Append("t", 0, MakeRow(1)).ok());
  ASSERT_TRUE(bus.Append("t", 2, MakeRow(2)).ok());
  ASSERT_TRUE(bus.Append("t", 2, MakeRow(3)).ok());
  auto ends = bus.EndOffsets("t");
  ASSERT_TRUE(ends.ok());
  EXPECT_EQ(*ends, (std::vector<int64_t>{1, 0, 2}));
  EXPECT_EQ(*bus.TotalRecords("t"), 3);
}

TEST(MessageBusTest, ConcurrentProducersKeepAllRecords) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("t", 2).ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bus, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(bus.Append("t", t % 2, MakeRow(t * 10000 + i)).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(*bus.TotalRecords("t"), kThreads * kPerThread);
  // Per-partition offsets are a total order: all records readable.
  auto p0 = bus.Read("t", 0, 0, *bus.EndOffset("t", 0));
  auto p1 = bus.Read("t", 1, 0, *bus.EndOffset("t", 1));
  EXPECT_EQ(p0->size() + p1->size(),
            static_cast<size_t>(kThreads * kPerThread));
}

TEST(MessageBusTest, AppendBatchRejectsMixedFieldTypes) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("t", 2).ok());
  ASSERT_TRUE(bus.Append("t", 1, MakeRow(0)).ok());
  auto appended = bus.AppendBatch(
      "t", 1, {MakeRow(1), {Value::Null()}, {Value::Str("x")}, MakeRow(3)});
  ASSERT_EQ(appended.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(appended.status(), "topic 't' partition 1 offset 3"))
      << appended.status().ToString();
  EXPECT_TRUE(Contains(appended.status(), "string"))
      << appended.status().ToString();
  EXPECT_EQ(*bus.EndOffset("t", 1), 1);  // nothing of the batch landed
}

TEST(MessageBusTest, AppendBatchRejectsInconsistentArity) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  auto appended = bus.AppendBatch(
      "t", 0, {MakeRow(1), {Value::Int64(2), Value::Int64(3)}});
  ASSERT_EQ(appended.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(appended.status(), "topic 't' partition 0 offset 1"))
      << appended.status().ToString();
  EXPECT_EQ(*bus.EndOffset("t", 0), 0);
}

TEST(MessageBusTest, ReadBatchReportsFieldTypeMismatch) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.AppendBatch("t", 0, {MakeRow(1), MakeRow(2)}).ok());
  ASSERT_TRUE(bus.AppendBatch("t", 0, {{Value::Null()}, {Value::Str("x")}})
                  .ok());
  // The int64 segment and the null in the string segment still read.
  auto ok = bus.ReadBatch("t", 0, 0, 3, IntSchema());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE((*ok)->column(0)->IsNull(2));
  auto bad = bus.ReadBatch("t", 0, 0, 4, IntSchema());
  ASSERT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(bad.status(), "topic 't' partition 0 offset 3"))
      << bad.status().ToString();
}

TEST(MessageBusTest, ReadBatchReportsShortRecord) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.Append("t", 0, MakeRow(1)).ok());
  const std::vector<int> projection = {1};
  auto bad = bus.ReadBatch("t", 0, 0, 1, IntSchema(), &projection);
  ASSERT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(bad.status(), "topic 't' partition 0 offset 0"))
      << bad.status().ToString();
}

TEST(MessageBusTest, BadStartNamesTopicPartitionAndOffset) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("t", 2).ok());
  ASSERT_TRUE(bus.Append("t", 1, MakeRow(1)).ok());
  auto read = bus.Read("t", 1, 5, 10);
  auto batch = bus.ReadBatch("t", 1, 5, 10, IntSchema());
  for (const Status& status : {read.status(), batch.status()}) {
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
    EXPECT_TRUE(Contains(status, "topic 't' partition 1 offset 5"))
        << status.ToString();
    EXPECT_TRUE(Contains(status, "outside log [0, 1]")) << status.ToString();
  }
}

TEST(MessageBusTest, Int64ReadsThroughFloat64Field) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.AppendBatch("t", 0, {MakeRow(3), {Value::Null()}}).ok());
  ASSERT_TRUE(bus.Append("t", 0, {Value::Timestamp(7)}).ok());
  auto batch = bus.ReadBatch("t", 0, 0, 3, IntSchema(TypeId::kFloat64));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const Column& col = *(*batch)->column(0);
  EXPECT_EQ(col.type(), TypeId::kFloat64);
  EXPECT_EQ(col.Float64At(0), 3.0);
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.Float64At(2), 7.0);
}

// --- Model-based test: random producer sequences against a row vector ---

SchemaPtr ModelSchema() {
  return Schema::Make({{"k", TypeId::kInt64, true},
                       {"s", TypeId::kString, true},
                       {"t", TypeId::kTimestamp, true},
                       {"d", TypeId::kFloat64, true}});
}

Row RandomRow(Random* rng) {
  auto maybe_null = [rng](Value v) {
    return rng->Uniform(5) == 0 ? Value::Null() : std::move(v);
  };
  return {maybe_null(Value::Int64(static_cast<int64_t>(rng->Uniform(50)))),
          maybe_null(Value::Str(std::string(rng->Uniform(4), 'a') + "z")),
          maybe_null(Value::Timestamp(static_cast<int64_t>(rng->Uniform(99)))),
          maybe_null(Value::Float64(static_cast<double>(rng->Uniform(9)) / 2))};
}

// Same type and same value (Value equality alone says Int64(1) ==
// Float64(1.0)).
void ExpectSameRows(const std::vector<Row>& got, const std::vector<Row>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << what << " row " << i;
    for (size_t f = 0; f < got[i].size(); ++f) {
      EXPECT_EQ(got[i][f].type(), want[i][f].type())
          << what << " row " << i << " field " << f;
      EXPECT_EQ(got[i][f], want[i][f])
          << what << " row " << i << " field " << f;
    }
  }
}

struct ModelPartition {
  std::vector<Row> rows;
  std::vector<int64_t> stamps;  // 0 = undated
};

void CheckAgainstModel(const MessageBus& bus,
                       const std::vector<ModelPartition>& model, Random* rng) {
  std::vector<int64_t> ends;
  for (const ModelPartition& m : model) {
    ends.push_back(static_cast<int64_t>(m.rows.size()));
  }
  ASSERT_EQ(*bus.EndOffsets("t"), ends);
  const SchemaPtr schema = ModelSchema();
  const std::vector<int> projection = {3, 0};
  const SchemaPtr projected =
      Schema::Make({schema->field(3), schema->field(0)});
  const SchemaPtr as_float = Schema::Make({{"k", TypeId::kFloat64, true}});
  const std::vector<int> k_only = {0};
  for (int p = 0; p < static_cast<int>(model.size()); ++p) {
    const ModelPartition& m = model[static_cast<size_t>(p)];
    const int64_t end = ends[static_cast<size_t>(p)];
    for (int trial = 0; trial < 4; ++trial) {
      const int64_t a = static_cast<int64_t>(
          rng->Uniform(static_cast<uint64_t>(end + 1)));
      const int64_t b =
          a + static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(
                  end - a + 3)));  // may run past the end
      const int64_t clamped = std::min(b, end);
      const std::string what = "partition " + std::to_string(p) + " [" +
                               std::to_string(a) + ", " + std::to_string(b) +
                               ")";
      std::vector<Row> want(m.rows.begin() + a, m.rows.begin() + clamped);

      auto rows = bus.Read("t", p, a, b);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      ExpectSameRows(*rows, want, "Read " + what);

      auto full = bus.ReadBatch("t", p, a, b, schema);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      ExpectSameRows((*full)->ToRows(), want, "ReadBatch " + what);
      for (int c = 0; c < schema->num_fields(); ++c) {
        int64_t nulls = 0;
        for (const Row& r : want) nulls += r[static_cast<size_t>(c)].is_null();
        EXPECT_EQ((*full)->column(c)->null_count(), nulls)
            << "ReadBatch " << what << " field " << c;
      }

      std::vector<Row> want_projected;
      std::vector<Row> want_float;
      for (const Row& r : want) {
        want_projected.push_back({r[3], r[0]});
        want_float.push_back({r[0].is_null()
                                  ? Value::Null()
                                  : Value::Float64(r[0].AsDouble())});
      }
      auto part = bus.ReadBatch("t", p, a, b, projected, &projection);
      ASSERT_TRUE(part.ok()) << part.status().ToString();
      ExpectSameRows((*part)->ToRows(), want_projected,
                     "projected ReadBatch " + what);

      auto coerced = bus.ReadBatch("t", p, a, b, as_float, &k_only);
      ASSERT_TRUE(coerced.ok()) << coerced.status().ToString();
      ExpectSameRows((*coerced)->ToRows(), want_float,
                     "float64 ReadBatch " + what);

      int64_t oldest = 0;
      for (int64_t i = a; i < clamped; ++i) {
        const int64_t s = m.stamps[static_cast<size_t>(i)];
        if (s > 0 && (oldest == 0 || s < oldest)) oldest = s;
      }
      EXPECT_EQ(*bus.OldestIngestMicros("t", p, a, b), oldest)
          << "OldestIngestMicros " << what;
    }
  }
}

TEST(MessageBusTest, MatchesRowModelUnderRandomProducers) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    ManualClock clock(1000);
    MessageBus bus;
    constexpr int kPartitions = 3;
    ASSERT_TRUE(bus.CreateTopic("t", kPartitions).ok());
    std::vector<ModelPartition> model(kPartitions);
    for (int step = 0; step < 120; ++step) {
      // Mostly dated, sometimes undated; the clock usually moves forward
      // but may stand still or step back.
      const bool dated = rng.Uniform(4) != 0;
      bus.set_ingest_clock(dated ? &clock : nullptr);
      const uint64_t move = rng.Uniform(10);
      if (move == 0) {
        clock.AdvanceMicros(-3);
      } else {
        clock.AdvanceMicros(static_cast<int64_t>(move) - 1);
      }
      const int64_t stamp = dated ? clock.NowMicros() : 0;
      const int p = static_cast<int>(rng.Uniform(kPartitions));
      ModelPartition& m = model[static_cast<size_t>(p)];
      std::vector<Row> rows;
      const uint64_t op = rng.Uniform(3);
      const size_t n = op == 0 ? 1 : rng.Uniform(12);
      for (size_t i = 0; i < n; ++i) rows.push_back(RandomRow(&rng));
      const int64_t expect_offset = static_cast<int64_t>(m.rows.size());
      Result<int64_t> offset = Status::OK();
      std::vector<Row> appended = rows;
      if (op == 0) {
        offset = bus.Append("t", p, rows[0]);
      } else if (op == 1) {
        offset = bus.AppendBatch("t", p, rows);
      } else {
        auto batch = RecordBatch::FromRows(ModelSchema(), rows).TakeValue();
        if (n > 0 && rng.Uniform(2) == 0) {
          // A selection view: keep every other row, backwards.
          std::vector<int32_t> keep;
          appended.clear();
          for (int64_t i = static_cast<int64_t>(n) - 1; i >= 0; i -= 2) {
            keep.push_back(static_cast<int32_t>(i));
            appended.push_back(rows[static_cast<size_t>(i)]);
          }
          batch = RecordBatch::MakeView(
              batch, SelectionVector::FromVector(std::move(keep)));
        }
        offset = bus.AppendColumns("t", p, batch);
      }
      ASSERT_TRUE(offset.ok()) << offset.status().ToString();
      EXPECT_EQ(*offset, expect_offset);
      for (Row& r : appended) {
        m.rows.push_back(std::move(r));
        m.stamps.push_back(stamp);
      }
      if (step % 10 == 9) CheckAgainstModel(bus, model, &rng);
    }
    CheckAgainstModel(bus, model, &rng);
  }
}

}  // namespace
}  // namespace sstreaming
