#ifndef SSTREAMING_OBS_PROGRESS_H_
#define SSTREAMING_OBS_PROGRESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "obs/histogram.h"

namespace sstreaming {

/// A serializable snapshot of one LogHistogram of latency samples: headline
/// quantiles plus the sparse bucket counts, so per-epoch summaries can be
/// merged back into a histogram without losing bucket-level precision.
/// Merging every epoch's summary reproduces the query-lifetime
/// `sstreaming_e2e_latency_micros` series exactly (same buckets, same
/// quantile estimates — tested).
struct LatencySummary {
  int64_t count = 0;
  int64_t sum_micros = 0;
  int64_t max_micros = 0;
  int64_t p50_micros = 0;
  int64_t p95_micros = 0;
  int64_t p99_micros = 0;
  /// (LogHistogram bucket index, count), ascending by index, zero counts
  /// omitted.
  std::vector<std::pair<int, int64_t>> buckets;

  bool empty() const { return count == 0; }

  /// Snapshot of `h` (headline stats + sparse buckets).
  static LatencySummary FromHistogram(const LogHistogram& h);
  /// Adds this summary's samples into `h` at bucket granularity (exact sum
  /// and max are restored too).
  void MergeInto(LogHistogram* h) const;

  Json ToJson() const;
  static Result<LatencySummary> FromJson(const Json& json);
};

struct OpCounterField;

/// The per-operator accounting record (paper §7.4 monitoring): what one
/// operator did over one epoch or, folded with Add, over a query's lifetime.
/// OpStats, OperatorProgress and the EXPLAIN ANALYZE nodes embed it, and
/// every view of it is a loop over kOpCounterFields, so the views agree by
/// construction. A new counter is one member plus one table row.
struct OpCounters {
  /// Rows the operator consumed: the combined rows_out of its inputs.
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  int64_t batches = 0;
  /// Self time: the operator's inclusive wall time minus its children's.
  int64_t cpu_nanos = 0;
  /// Approximate bytes of the operator's output batches.
  int64_t output_bytes = 0;
  // Scheduler accounting for the stages the operator submitted (see
  // StageWait): summed submit->start queue wait is the backpressure signal;
  // the slowest task's run time against the mean is its skew.
  int64_t tasks = 0;
  int64_t queue_wait_nanos = 0;
  int64_t task_run_nanos = 0;
  int64_t max_task_run_nanos = 0;

  /// Folds `other` in, each field by its merge rule.
  void Add(const OpCounters& other);
  /// False for a scheduler-only field when no task ran: such fields are
  /// left out of the per-epoch JSON and /metrics.
  bool Reports(const OpCounterField& field) const;
  /// Sets each reported field's JSON key on `obj` (every field if `all`).
  void WriteJson(Json* obj, bool all) const;
  /// Reads every field's JSON key from `obj`; absent keys read as 0.
  void ReadJson(const Json& obj);
};

/// How a field folds across tasks, epochs and Add.
enum class CounterMerge { kSum, kMax };

/// How EXPLAIN ANALYZE prints a field: as an integer, or nanoseconds as
/// milliseconds with three decimals.
enum class ExplainUnit { kCount, kNanosAsMillis };

/// One row of the field table: a member of OpCounters and the name it has
/// in each view. A null metric family or EXPLAIN column means the field is
/// not exported there.
struct OpCounterField {
  int64_t OpCounters::*member;
  const char* json_key;
  CounterMerge merge;
  /// Reported only when the operator ran a scheduler stage (tasks != 0).
  bool stage_only;
  const char* metric_family;
  const char* explain_column;
  ExplainUnit explain_unit;
};

/// The field table, in EXPLAIN ANALYZE column order.
inline constexpr OpCounterField kOpCounterFields[] = {
    {&OpCounters::rows_in, "rowsIn", CounterMerge::kSum, false,
     "sstreaming_operator_rows_in_total", "rows_in", ExplainUnit::kCount},
    {&OpCounters::rows_out, "rowsOut", CounterMerge::kSum, false,
     "sstreaming_operator_rows_out_total", "rows_out", ExplainUnit::kCount},
    {&OpCounters::batches, "batches", CounterMerge::kSum, false,
     "sstreaming_operator_batches_total", "batches", ExplainUnit::kCount},
    {&OpCounters::cpu_nanos, "cpuNanos", CounterMerge::kSum, false,
     "sstreaming_operator_cpu_nanos_total", "self_cpu_ms",
     ExplainUnit::kNanosAsMillis},
    {&OpCounters::queue_wait_nanos, "queueWaitNanos", CounterMerge::kSum, true,
     "sstreaming_operator_queue_wait_nanos_total", "queue_ms",
     ExplainUnit::kNanosAsMillis},
    {&OpCounters::output_bytes, "outputBytes", CounterMerge::kSum, false,
     nullptr, "output_bytes", ExplainUnit::kCount},
    {&OpCounters::tasks, "tasks", CounterMerge::kSum, true, nullptr, nullptr,
     ExplainUnit::kCount},
    {&OpCounters::task_run_nanos, "taskRunNanos", CounterMerge::kSum, true,
     nullptr, nullptr, ExplainUnit::kCount},
    {&OpCounters::max_task_run_nanos, "maxTaskRunNanos", CounterMerge::kMax,
     true, nullptr, nullptr, ExplainUnit::kCount},
};

/// Per-operator summary for one epoch: the operator's OpCounters plus its
/// live state size.
struct OperatorProgress : OpCounters {
  int op_id = 0;
  std::string name;
  /// Live state-store size after the epoch (0 for stateless operators).
  int64_t state_rows = 0;
  int64_t state_bytes = 0;
  /// Per-shard breakdown of (state_rows, state_bytes), indexed by shard.
  /// Empty for stateless operators (and omitted from the JSON then).
  std::vector<std::pair<int64_t, int64_t>> shard_state;

  /// `all_counters` writes the scheduler fields even when no task ran.
  Json ToJson(bool all_counters = false) const;
  static Result<OperatorProgress> FromJson(const Json& json);
};

/// Per-source input summary for one epoch.
struct SourceProgress {
  std::string name;
  int64_t rows = 0;
  /// Input rate over the epoch's processing duration.
  double rows_per_sec = 0;
  /// Records available at plan time but deferred to later epochs (>0 only
  /// when max_records_per_epoch caps the batch).
  int64_t backlog_rows = 0;
  /// Age of the oldest deferred record at plan time (now minus its ingest
  /// stamp). 0 when there is no backlog or the source cannot date it.
  int64_t backlog_age_micros = 0;

  Json ToJson() const;
  static Result<SourceProgress> FromJson(const Json& json);
};

/// Per-epoch progress information (paper §7.4 monitoring).
///
/// `duration_nanos` is defined as the sum of the per-stage durations
/// (plan + source read + exec + state checkpoint + sink commit + other), so
/// stage breakdowns always account for the whole epoch; debug builds assert
/// this invariant. `trigger_wait_nanos` is idle time before the trigger
/// fired and is deliberately *not* part of the processing duration.
struct QueryProgress {
  int64_t epoch = 0;
  int64_t rows_read = 0;
  int64_t rows_written = 0;
  int64_t watermark_micros = INT64_MIN;
  int64_t state_entries = 0;
  /// Approximate live state bytes across all operators (memory accounting).
  int64_t state_bytes = 0;
  int64_t duration_nanos = 0;

  // Stage breakdown (sums to duration_nanos).
  int64_t plan_nanos = 0;         // offset planning + WAL plan write
  int64_t source_read_nanos = 0;  // time inside source scan operators
  int64_t exec_nanos = 0;         // operator DAG execution minus source read
  int64_t checkpoint_nanos = 0;   // state store CommitAll
  int64_t commit_nanos = 0;       // sink commit + WAL commit + retention
  int64_t other_nanos = 0;        // watermark/progress bookkeeping remainder

  /// Time inside Sink::CommitEpoch alone — the sink-bound signal. A subset
  /// of commit_nanos (which also covers the WAL commit and retention), so
  /// deliberately NOT part of the StageSumNanos invariant.
  int64_t sink_commit_nanos = 0;

  /// Sum of per-operator scheduler queue wait this epoch (see
  /// OperatorProgress::queue_wait_nanos). Tasks wait concurrently, so this
  /// can exceed duration_nanos; divide by the scheduler's parallelism for
  /// a wall-clock-comparable figure.
  int64_t queue_wait_nanos = 0;

  /// Idle time between the previous trigger finishing and this one firing
  /// (0 for the first trigger and for recovery replay).
  int64_t trigger_wait_nanos = 0;

  /// How late this epoch started relative to its scheduled trigger time
  /// (actual minus scheduled; 0 for unscheduled triggers and recovery
  /// replay). Sustained growth means the trigger interval is shorter than
  /// the epochs it schedules.
  int64_t trigger_drift_nanos = 0;

  /// Wall-clock minus watermark at the end of the epoch — how far event-time
  /// completeness trails real time. Only meaningful (and only serialized)
  /// when a watermark exists.
  int64_t watermark_lag_micros = 0;

  /// End-to-end latency (sink commit time minus source ingest time) of the
  /// rows written this epoch, row-weighted. Empty when the epoch wrote
  /// nothing.
  LatencySummary e2e_latency;

  std::vector<SourceProgress> sources;
  std::vector<OperatorProgress> operators;

  /// The invariant total of the per-stage durations.
  int64_t StageSumNanos() const {
    return plan_nanos + source_read_nanos + exec_nanos + checkpoint_nanos +
           commit_nanos + other_nanos;
  }

  /// One JSON object per epoch — the schema of the JSONL metrics event log.
  Json ToJson() const;

  /// Parses ToJson() output back. Round-trip is lossless: FromJson(ToJson())
  /// re-serializes byte-identically (tested), so the JSONL event log can be
  /// re-ingested without drift.
  static Result<QueryProgress> FromJson(const Json& json);
};

}  // namespace sstreaming

#endif  // SSTREAMING_OBS_PROGRESS_H_
