#ifndef SSTREAMING_BUS_MESSAGE_BUS_H_
#define SSTREAMING_BUS_MESSAGE_BUS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "types/record_batch.h"
#include "types/row.h"

namespace sstreaming {

/// An in-process, Kafka-like replayable message bus: topics divided into
/// partitions, each an append-only log addressed by offset. This is the only
/// property the engine requires of its sources (paper §3: "input sources must
/// be replayable") and stands in for Kafka/Kinesis.
///
/// Storage is columnar, the bus's analogue of the compact binary format the
/// paper credits for its lead over Flink (§9.1): each partition is a list of
/// segments, each holding a run of consecutive records as one typed Column
/// per field. Topics are schemaless; a segment's column types are inferred
/// from its records when it is appended, and a batch whose records disagree
/// on arity or on a field's type is rejected. ReadBatch serves an offset
/// range with one bulk typed copy per projected column and segment; Read
/// boxes Rows from the columns for the record-at-a-time baselines.
///
/// Thread safety: all operations are safe under concurrent producers and
/// consumers; each partition has its own lock. Batch segments are built
/// outside it and only linked in under it.
class MessageBus {
 public:
  MessageBus() = default;
  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  /// When set, every appended record is stamped with clock->NowMicros()
  /// (broker arrival time, like Kafka's LogAppendTime) so consumers can
  /// measure end-to-end latency and backlog age; records appended without a
  /// clock read as undated (ingest 0). Set before producing — the bus does
  /// not take ownership and the clock must outlive it.
  void set_ingest_clock(const Clock* clock) { ingest_clock_ = clock; }

  Status CreateTopic(const std::string& topic, int num_partitions);
  bool HasTopic(const std::string& topic) const;
  Result<int> NumPartitions(const std::string& topic) const;

  /// Appends one record; returns its offset within the partition. Records
  /// whose field types match the partition's open tail segment extend it;
  /// any other record starts a new one.
  Result<int64_t> Append(const std::string& topic, int partition, Row row);

  /// Appends many records as one segment (the batched-producer path).
  /// Returns the offset of the first appended record. Fails with
  /// InvalidArgument, appending nothing, when a record's arity or a field's
  /// type disagrees with the batch's earlier records.
  Result<int64_t> AppendBatch(const std::string& topic, int partition,
                              std::vector<Row> rows);

  /// Appends the rows of `batch` as one segment, sharing its column storage
  /// (the columnar-producer path; a selection view is compacted first).
  /// Returns the offset of the first appended record.
  Result<int64_t> AppendColumns(const std::string& topic, int partition,
                                const RecordBatchPtr& batch);

  /// Reads records [start, end) from a partition. `end` beyond the log end
  /// is clamped.
  Result<std::vector<Row>> Read(const std::string& topic, int partition,
                                int64_t start, int64_t end) const;

  /// Reads records [start, end) into a columnar batch — the batched-consumer
  /// path used by the engine's source. Each overlapping segment contributes
  /// one bulk copy per column; a stored column whose type differs from the
  /// schema's goes value by value, so int64 reads through a float64 field
  /// and all-null columns through any field. A stored field the schema's
  /// type cannot hold, or a record too short for the schema, is an
  /// InvalidArgument naming the topic, partition and offset.
  /// `projection`: indices into the stored record to materialize (schema
  /// must describe exactly those fields, in order); null = all fields.
  Result<RecordBatchPtr> ReadBatch(const std::string& topic, int partition,
                                   int64_t start, int64_t end,
                                   const SchemaPtr& schema,
                                   const std::vector<int>* projection =
                                       nullptr) const;

  /// Arrival stamp (clock micros) of the oldest record in [start, end) of a
  /// partition, or 0 when no record in the range is dated. Errors only on
  /// unknown topic/partition. A batch segment costs O(1), as its records
  /// share one stamp; only Append-built segments are scanned per record.
  Result<int64_t> OldestIngestMicros(const std::string& topic, int partition,
                                     int64_t start, int64_t end) const;

  /// One past the last offset in a partition.
  Result<int64_t> EndOffset(const std::string& topic, int partition) const;

  /// End offsets for all partitions of a topic.
  Result<std::vector<int64_t>> EndOffsets(const std::string& topic) const;

  /// Total record count across partitions (monitoring convenience).
  Result<int64_t> TotalRecords(const std::string& topic) const;

 private:
  /// Records [base, base + rows) of a partition, one column per field.
  /// Segments from AppendBatch/AppendColumns are immutable and share one
  /// arrival stamp. A segment built by single Appends stays open while it is
  /// the tail, grows in place, and stamps each record.
  struct Segment {
    int64_t base = 0;
    int64_t rows = 0;
    std::vector<ColumnPtr> columns;
    int64_t ingest = 0;           // batch segments (0 = undated)
    std::vector<int64_t> stamps;  // Append-built segments, one per record
    int64_t end() const { return base + rows; }
  };
  struct Partition {
    mutable std::mutex mu;
    std::vector<Segment> segments SS_GUARDED_BY(mu);
    int64_t end() const SS_REQUIRES(mu) {
      return segments.empty() ? 0 : segments.back().end();
    }
  };
  struct Topic {
    // The vector is append-never after CreateTopic; partitions synchronize
    // themselves.
    std::vector<std::unique_ptr<Partition>> partitions;
  };

  Result<const Topic*> FindTopic(const std::string& topic) const
      SS_EXCLUDES(topics_mu_);
  Result<Partition*> FindPartition(const std::string& topic,
                                   int partition) const;
  /// Stamps `segment`, gives it the next offset and links it in.
  int64_t Link(Partition* p, Segment segment);

  const Clock* ingest_clock_ = nullptr;
  mutable std::mutex topics_mu_;
  std::map<std::string, Topic> topics_ SS_GUARDED_BY(topics_mu_);
};

}  // namespace sstreaming

#endif  // SSTREAMING_BUS_MESSAGE_BUS_H_
