// Producer/consumer race on one MessageBus: columnar and single-record
// producers append to the same partitions while consumers read offset
// ranges and backlog ages. Meant for the thread-sanitizer build (ctest -L
// tsan-stress); elsewhere it checks that every read is a consistent prefix
// slice of each producer's sequence.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bus/message_bus.h"
#include "common/clock.h"
#include "common/random.h"

namespace sstreaming {
namespace {

constexpr int kPartitions = 2;
constexpr int64_t kPerProducer = 4000;  // records per producer and partition
constexpr int kMinReads = 300;          // per consumer

SchemaPtr StressSchema() {
  return Schema::Make({{"producer", TypeId::kInt64, false},
                       {"seq", TypeId::kInt64, false},
                       {"payload", TypeId::kString, false}});
}

Row StressRow(int64_t producer, int64_t seq) {
  return {Value::Int64(producer), Value::Int64(seq),
          Value::Str(std::to_string(seq))};
}

// Within [start, end) each producer's sequence numbers must be consecutive:
// both producers append in order and the bus never reorders a partition.
bool ConsistentSlice(const RecordBatch& batch) {
  int64_t last[2] = {-1, -1};
  for (int64_t i = 0; i < batch.num_rows(); ++i) {
    const int64_t producer = batch.column(1)->Int64At(i);
    const int64_t seq = batch.column(0)->Int64At(i);
    if (producer < 0 || producer > 1) return false;
    if (last[producer] >= 0 && seq != last[producer] + 1) return false;
    last[producer] = seq;
  }
  return true;
}

TEST(BusStressTest, ProducersAndConsumersRace) {
  MessageBus bus;
  bus.set_ingest_clock(SystemClock::Default());
  ASSERT_TRUE(bus.CreateTopic("t", kPartitions).ok());
  const SchemaPtr schema = StressSchema();
  std::atomic<int> producers_running{2};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> reads{0};
  // All four threads start together so the reads overlap the appends.
  std::atomic<int> ready{0};
  auto start_together = [&ready] {
    ++ready;
    while (ready.load() < 4) std::this_thread::yield();
  };

  std::thread columnar([&] {
    start_together();
    Random rng(1);
    int64_t seq[kPartitions] = {0, 0};
    while (seq[0] < kPerProducer || seq[1] < kPerProducer) {
      const int p = static_cast<int>(rng.Uniform(kPartitions));
      std::vector<Row> rows;
      const int64_t n = 1 + static_cast<int64_t>(rng.Uniform(64));
      for (int64_t i = 0; i < n && seq[p] < kPerProducer; ++i) {
        rows.push_back(StressRow(0, seq[p]++));
      }
      auto batch = RecordBatch::FromRows(schema, rows);
      if (!batch.ok() || !bus.AppendColumns("t", p, *batch).ok()) ++errors;
    }
    --producers_running;
  });
  std::thread single([&] {
    start_together();
    for (int64_t s = 0; s < kPerProducer; ++s) {
      for (int p = 0; p < kPartitions; ++p) {
        if (!bus.Append("t", p, StressRow(1, s)).ok()) ++errors;
      }
    }
    --producers_running;
  });

  const std::vector<int> projection = {1, 0};
  const SchemaPtr projected =
      Schema::Make({schema->field(1), schema->field(0)});
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&, c] {
      start_together();
      Random rng(100 + static_cast<uint64_t>(c));
      // At least kMinReads each, and on until both producers are done.
      for (int i = 0; i < kMinReads || producers_running.load() > 0; ++i) {
        const int p = static_cast<int>(rng.Uniform(kPartitions));
        auto end = bus.EndOffset("t", p);
        if (!end.ok()) {
          ++errors;
          continue;
        }
        const int64_t a = static_cast<int64_t>(
            rng.Uniform(static_cast<uint64_t>(*end + 1)));
        const int64_t b = a + static_cast<int64_t>(rng.Uniform(
                                  static_cast<uint64_t>(*end - a + 1)));
        auto batch = bus.ReadBatch("t", p, a, b, projected, &projection);
        if (!batch.ok() || (*batch)->num_rows() != b - a ||
            !ConsistentSlice(**batch)) {
          ++errors;
        }
        auto oldest = bus.OldestIngestMicros("t", p, a, *end + 100);
        if (!oldest.ok() || (a < *end && *oldest <= 0) ||
            *oldest > SystemClock::Default()->NowMicros()) {
          ++errors;
        }
        ++reads;
      }
    });
  }
  columnar.join();
  single.join();
  for (std::thread& t : consumers) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(reads.load(), 0);
  for (int p = 0; p < kPartitions; ++p) {
    ASSERT_EQ(*bus.EndOffset("t", p), 2 * kPerProducer);
    auto all = bus.ReadBatch("t", p, 0, 2 * kPerProducer, projected,
                             &projection);
    ASSERT_TRUE(all.ok());
    EXPECT_TRUE(ConsistentSlice(**all));
  }
}

}  // namespace
}  // namespace sstreaming
