// Tracing from outside the engine. The traced run wraps the engine's public
// seams (Source, TaskScheduler, Sink, the trigger and Start calls, bus
// appends) in timing decorators that record spans into per-thread buffers;
// nothing inside src/ is instrumented. After the run the spans are written
// out and folded, epoch by epoch, into per-layer metrics.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bus/message_bus.h"
#include "connectors/sink.h"
#include "connectors/source.h"
#include "measure.h"
#include "obs/progress.h"
#include "runtime/scheduler.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kTrigger,        // one ProcessOneTrigger call (drains)
  kStart,          // StreamingQuery::Start
  kStage,          // TaskScheduler::RunStage
  kTask,           // one task of a stage
  kSourceOffsets,  // Source::LatestOffsets
  kSourceRead,     // Source::ReadPartition[Projected]
  kSourceIngest,   // Source::OldestIngestMicros
  kSinkCommit,     // Sink::CommitEpoch
  kBusAppend,      // MessageBus::AppendBatch by the load generator
};

const char* SpanKindName(SpanKind kind);

/// One timed interval. The parent is explicit for tasks (their stage) and
/// for source calls made inside a task (that task); every other span's
/// parent is the trigger span that contains it on the same thread.
struct Span {
  int64_t start = 0;
  int64_t end = 0;
  int64_t rows = 0;
  int64_t bytes = 0;
  int64_t epoch = 0;   // set for trigger spans; others inherit by time
  int32_t thread = 0;  // recorder-assigned thread number
  int32_t stage = -1;  // kStage: own id; kTask: parent stage id
  int32_t task = -1;   // kTask: own id; source spans in a task: parent task
  SpanKind kind = SpanKind::kTrigger;
};

struct StageInfo {
  std::string name;
  sstreaming::StageWait wait;
};

/// Process-wide span store with lock-free per-thread buffers. One recorder
/// is live at a time; Reset() starts a new trace.
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void Reset();
  void Record(const Span& span);
  /// Small dense number of the calling thread within this trace.
  int32_t ThisThread();
  int32_t BeginStage(const std::string& name);
  void EndStage(int32_t stage, const sstreaming::StageWait& wait);
  int32_t NewTaskId() { return next_task_.fetch_add(1); }

  /// All spans sorted by start. Call only once traced threads are idle.
  std::vector<Span> Collect() const;
  std::vector<StageInfo> Stages() const;
  /// Writes every span as one TSV line (kind, start, end, thread, stage,
  /// task, epoch, rows, bytes, stage name).
  bool WriteTsv(const std::string& path) const;

 private:
  struct Buffer {
    int32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer* ThisBuffer();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<StageInfo> stages_;
  std::atomic<uint64_t> generation_{1};
  std::atomic<int32_t> next_task_{0};
};

/// Scope marker: source calls made while it is alive belong to `task`.
class TaskScope {
 public:
  explicit TaskScope(int32_t task);
  ~TaskScope();
  static int32_t Current();

 private:
  int32_t previous_;
};

/// Source decorator: forwards every virtual (including projection pushdown
/// and ingest dating) and times each call.
class TracedSource : public sstreaming::Source {
 public:
  explicit TracedSource(sstreaming::SourcePtr inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  sstreaming::SchemaPtr schema() const override { return inner_->schema(); }
  int num_partitions() const override { return inner_->num_partitions(); }
  sstreaming::Result<std::vector<int64_t>> LatestOffsets() const override;
  sstreaming::Result<sstreaming::RecordBatchPtr> ReadPartition(
      int partition, int64_t start, int64_t end) const override;
  sstreaming::Result<sstreaming::RecordBatchPtr> ReadPartitionProjected(
      int partition, int64_t start, int64_t end,
      const std::vector<int>& columns) const override;
  int64_t OldestIngestMicros(int partition, int64_t start,
                             int64_t end) const override;

  int64_t full_reads() const { return full_reads_.load(); }
  int64_t projected_reads() const { return projected_reads_.load(); }

 private:
  sstreaming::SourcePtr inner_;
  mutable std::atomic<int64_t> full_reads_{0};
  mutable std::atomic<int64_t> projected_reads_{0};
};

/// Scheduler decorator: one span per stage and per task; forwards the
/// inner scheduler's StageWait to the engine unchanged.
class TracedScheduler : public sstreaming::TaskScheduler {
 public:
  explicit TracedScheduler(sstreaming::TaskScheduler* inner) : inner_(inner) {}

  using sstreaming::TaskScheduler::RunStage;
  sstreaming::Status RunStage(
      const std::string& stage_name,
      std::vector<std::function<sstreaming::Status()>> tasks,
      sstreaming::StageWait* wait) override;
  int parallelism() const override { return inner_->parallelism(); }
  void ChargeVirtualNanos(int64_t nanos) override {
    inner_->ChargeVirtualNanos(nanos);
  }

 private:
  sstreaming::TaskScheduler* inner_;
};

/// Sink decorator: times CommitEpoch and counts the rows it carries.
class TracedSink : public sstreaming::Sink {
 public:
  explicit TracedSink(sstreaming::SinkPtr inner) : inner_(std::move(inner)) {}

  bool SupportsMode(sstreaming::OutputMode mode) const override {
    return inner_->SupportsMode(mode);
  }
  sstreaming::Status CommitEpoch(
      int64_t epoch, sstreaming::OutputMode mode, int num_key_columns,
      const std::vector<sstreaming::RecordBatchPtr>& batches) override;

 private:
  sstreaming::SinkPtr inner_;
};

/// MessageBus::AppendBatch, timed when `traced`.
sstreaming::Status AppendRows(sstreaming::MessageBus* bus,
                              const std::string& topic, int partition,
                              std::vector<sstreaming::Row> rows, bool traced);

/// The parts of one epoch's QueryProgress the benchmark uses, plus the
/// trigger span measured around it.
struct EpochInfo {
  int64_t epoch = 0;
  int64_t start_ns = 0;  // trigger span
  int64_t end_ns = 0;
  int32_t thread = 0;    // the trigger thread (recorder numbering)
  int64_t rows_read = 0;
  int64_t rows_written = 0;
  int64_t duration_ns = 0;
  int64_t plan_ns = 0;
  int64_t checkpoint_ns = 0;
  int64_t commit_ns = 0;
  int64_t trigger_wait_ns = 0;
  int64_t state_entries = 0;
  int64_t state_bytes = 0;
  int64_t shuffle_bytes = 0;
};

EpochInfo EpochInfoFrom(const sstreaming::QueryProgress& progress);

/// Layer families that a workload's plan must produce at least one stage of.
enum Family : uint32_t {
  kScan = 1,
  kPipeline = 2,
  kJoin = 4,
  kShuffle = 8,
  kAggEval = 16,
  kAggSplit = 32,
  kAggFold = 64,
};

/// Folds a traced pass into per-layer metrics (see README.md for each
/// definition) and adds a note that splits the epochs' wall time into its
/// parts. Fails `tally` when the parts do not account for the wall time:
/// per epoch, stage spans must nest inside the trigger span without
/// overlapping, the serial remainder must not be negative, and the engine's
/// duration must fit in the trigger span; per stage, the task spans must
/// nest inside it, be as many as the engine ran, fit in `threads` and in the
/// engine's task run time, and not overlap when `threads` is 1. Also fails
/// when a family in `required` recorded no stage.
Metrics AnalyzeTrace(const std::vector<EpochInfo>& epochs,
                     const std::vector<Span>& spans,
                     const std::vector<StageInfo>& stages, int threads,
                     uint32_t required, Tally* tally,
                     std::vector<std::string>* notes);

/// Per-epoch rows_read/rows_written of two passes over the same input must
/// match over their first `n` epochs.
void CompareEpochRows(const std::vector<EpochInfo>& untraced,
                      const std::vector<EpochInfo>& traced, size_t n,
                      Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
