#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <set>

namespace perfbench {

namespace ss = sstreaming;

namespace {

thread_local uint64_t tl_generation = 0;
thread_local void* tl_buffer = nullptr;
thread_local int32_t tl_task = -1;

// A span may stick out of the span that contains it, and a remainder may
// read below zero, by this much before the accounting check fails: the
// engine reads its clocks a few instructions away from the decorators'.
constexpr int64_t kClockSlackNs = 20000;

enum FamilyIndex {
  kFamScan,
  kFamPipeline,
  kFamJoin,
  kFamShuffle,
  kFamAggEval,
  kFamAggSplit,
  kFamAggFold,
  kFamOther,
  kNumFamilies
};

const char* const kFamilyMetric[kNumFamilies] = {
    "physical.scan.run_ms",    "physical.pipeline.run_ms",
    "physical.join.run_ms",    "physical.shuffle.run_ms",
    "physical.agg.eval_ms",    "physical.agg.split_ms",
    "physical.agg.fold_ms",    "physical.other.run_ms"};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool Contains(const std::string& s, const char* part) {
  return s.find(part) != std::string::npos;
}

// Stage names come from PhysOp::name() plus the sub-stage suffixes the
// operators append ("/map", "[eval]", ...).
int ClassifyStage(const std::string& name) {
  if (StartsWith(name, "Source")) return kFamScan;
  if (StartsWith(name, "FusedPipeline[") || StartsWith(name, "Filter") ||
      StartsWith(name, "Project")) {
    return kFamPipeline;
  }
  if (StartsWith(name, "StreamStaticJoin")) return kFamJoin;
  if (StartsWith(name, "Shuffle")) return kFamShuffle;
  if (StartsWith(name, "StatefulAggregate")) {
    if (Contains(name, "[eval]")) return kFamAggEval;
    if (Contains(name, "[split]")) return kFamAggSplit;
    return kFamAggFold;
  }
  return kFamOther;
}

uint32_t FamilyBit(int family) {
  switch (family) {
    case kFamScan: return kScan;
    case kFamPipeline: return kPipeline;
    case kFamJoin: return kJoin;
    case kFamShuffle: return kShuffle;
    case kFamAggEval: return kAggEval;
    case kFamAggSplit: return kAggSplit;
    case kFamAggFold: return kAggFold;
    default: return 0;
  }
}

double Ms(double ns) { return ns / 1e6; }

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTrigger: return "trigger";
    case SpanKind::kStart: return "start";
    case SpanKind::kStage: return "stage";
    case SpanKind::kTask: return "task";
    case SpanKind::kSourceOffsets: return "source.offsets";
    case SpanKind::kSourceRead: return "source.read";
    case SpanKind::kSourceIngest: return "source.ingest_age";
    case SpanKind::kSinkCommit: return "sink.commit";
    case SpanKind::kBusAppend: return "bus.append";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// SpanRecorder

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

void SpanRecorder::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  stages_.clear();
  next_task_.store(0);
  generation_.fetch_add(1);
}

SpanRecorder::Buffer* SpanRecorder::ThisBuffer() {
  uint64_t gen = generation_.load(std::memory_order_relaxed);
  if (tl_generation != gen || tl_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto buffer = std::make_unique<Buffer>();
    buffer->thread = static_cast<int32_t>(buffers_.size());
    buffer->spans.reserve(1 << 14);
    tl_buffer = buffer.get();
    tl_generation = gen;
    buffers_.push_back(std::move(buffer));
  }
  return static_cast<Buffer*>(tl_buffer);
}

void SpanRecorder::Record(const Span& span) {
  Buffer* buffer = ThisBuffer();
  buffer->spans.push_back(span);
  buffer->spans.back().thread = buffer->thread;
}

int32_t SpanRecorder::ThisThread() { return ThisBuffer()->thread; }

int32_t SpanRecorder::BeginStage(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  stages_.push_back(StageInfo{name, {}});
  return static_cast<int32_t>(stages_.size() - 1);
}

void SpanRecorder::EndStage(int32_t stage, const ss::StageWait& wait) {
  std::lock_guard<std::mutex> lock(mu_);
  stages_[static_cast<size_t>(stage)].wait = wait;
}

std::vector<Span> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start < b.start;
  });
  return all;
}

std::vector<StageInfo> SpanRecorder::Stages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stages_;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::vector<Span> spans = Collect();
  std::vector<StageInfo> stages = Stages();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "kind\tstart_ns\tend_ns\tthread\tstage\ttask\tepoch\trows"
                  "\tbytes\tstage_name\n");
  for (const Span& s : spans) {
    const char* stage_name =
        s.stage >= 0 && static_cast<size_t>(s.stage) < stages.size()
            ? stages[static_cast<size_t>(s.stage)].name.c_str()
            : "";
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%d\t%d\t%lld\t%lld\t%lld\t%s\n",
                 SpanKindName(s.kind), static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.thread, s.stage, s.task,
                 static_cast<long long>(s.epoch),
                 static_cast<long long>(s.rows),
                 static_cast<long long>(s.bytes), stage_name);
  }
  return std::fclose(f) == 0;
}

TaskScope::TaskScope(int32_t task) : previous_(tl_task) { tl_task = task; }
TaskScope::~TaskScope() { tl_task = previous_; }
int32_t TaskScope::Current() { return tl_task; }

// ---------------------------------------------------------------------------
// Decorators

namespace {

Span SourceSpan(SpanKind kind, int64_t start) {
  Span span;
  span.kind = kind;
  span.start = start;
  span.end = NowNs();
  span.task = TaskScope::Current();
  return span;
}

}  // namespace

ss::Result<std::vector<int64_t>> TracedSource::LatestOffsets() const {
  int64_t t0 = NowNs();
  auto result = inner_->LatestOffsets();
  SpanRecorder::Get().Record(SourceSpan(SpanKind::kSourceOffsets, t0));
  return result;
}

ss::Result<ss::RecordBatchPtr> TracedSource::ReadPartition(
    int partition, int64_t start, int64_t end) const {
  full_reads_.fetch_add(1, std::memory_order_relaxed);
  int64_t t0 = NowNs();
  auto result = inner_->ReadPartition(partition, start, end);
  Span span = SourceSpan(SpanKind::kSourceRead, t0);
  if (result.ok()) {
    span.rows = (*result)->num_rows();
    span.bytes = (*result)->ApproxBytes();
  }
  SpanRecorder::Get().Record(span);
  return result;
}

ss::Result<ss::RecordBatchPtr> TracedSource::ReadPartitionProjected(
    int partition, int64_t start, int64_t end,
    const std::vector<int>& columns) const {
  projected_reads_.fetch_add(1, std::memory_order_relaxed);
  int64_t t0 = NowNs();
  auto result = inner_->ReadPartitionProjected(partition, start, end, columns);
  Span span = SourceSpan(SpanKind::kSourceRead, t0);
  if (result.ok()) {
    span.rows = (*result)->num_rows();
    span.bytes = (*result)->ApproxBytes();
  }
  SpanRecorder::Get().Record(span);
  return result;
}

int64_t TracedSource::OldestIngestMicros(int partition, int64_t start,
                                         int64_t end) const {
  int64_t t0 = NowNs();
  int64_t oldest = inner_->OldestIngestMicros(partition, start, end);
  Span span = SourceSpan(SpanKind::kSourceIngest, t0);
  span.rows = end - start;
  SpanRecorder::Get().Record(span);
  return oldest;
}

ss::Status TracedScheduler::RunStage(
    const std::string& stage_name,
    std::vector<std::function<ss::Status()>> tasks, ss::StageWait* wait) {
  SpanRecorder& recorder = SpanRecorder::Get();
  const int32_t stage = recorder.BeginStage(stage_name);
  std::vector<std::function<ss::Status()>> wrapped;
  wrapped.reserve(tasks.size());
  for (auto& task : tasks) {
    const int32_t task_id = recorder.NewTaskId();
    wrapped.push_back([stage, task_id, task = std::move(task)]() {
      Span span;
      span.kind = SpanKind::kTask;
      span.stage = stage;
      span.task = task_id;
      span.start = NowNs();
      ss::Status status;
      {
        TaskScope scope(task_id);
        status = task();
      }
      span.end = NowNs();
      SpanRecorder::Get().Record(span);
      return status;
    });
  }
  Span span;
  span.kind = SpanKind::kStage;
  span.stage = stage;
  span.rows = static_cast<int64_t>(wrapped.size());
  span.start = NowNs();
  ss::StageWait inner_wait;
  ss::Status status = inner_->RunStage(stage_name, std::move(wrapped),
                                       &inner_wait);
  span.end = NowNs();
  recorder.Record(span);
  recorder.EndStage(stage, inner_wait);
  if (wait != nullptr) *wait = inner_wait;
  return status;
}

ss::Status TracedSink::CommitEpoch(
    int64_t epoch, ss::OutputMode mode, int num_key_columns,
    const std::vector<ss::RecordBatchPtr>& batches) {
  Span span;
  span.kind = SpanKind::kSinkCommit;
  span.epoch = epoch;
  for (const auto& b : batches) span.rows += b->num_rows();
  span.start = NowNs();
  ss::Status status =
      inner_->CommitEpoch(epoch, mode, num_key_columns, batches);
  span.end = NowNs();
  SpanRecorder::Get().Record(span);
  return status;
}

ss::Status AppendRows(ss::MessageBus* bus, const std::string& topic,
                      int partition, std::vector<ss::Row> rows, bool traced) {
  if (!traced) {
    return bus->AppendBatch(topic, partition, std::move(rows)).status();
  }
  Span span;
  span.kind = SpanKind::kBusAppend;
  span.rows = static_cast<int64_t>(rows.size());
  span.start = NowNs();
  ss::Status status =
      bus->AppendBatch(topic, partition, std::move(rows)).status();
  span.end = NowNs();
  SpanRecorder::Get().Record(span);
  return status;
}

EpochInfo EpochInfoFrom(const ss::QueryProgress& p) {
  EpochInfo e;
  e.epoch = p.epoch;
  e.rows_read = p.rows_read;
  e.rows_written = p.rows_written;
  e.duration_ns = p.duration_nanos;
  e.plan_ns = p.plan_nanos;
  e.checkpoint_ns = p.checkpoint_nanos;
  e.commit_ns = p.commit_nanos;
  e.trigger_wait_ns = p.trigger_wait_nanos;
  e.state_entries = p.state_entries;
  e.state_bytes = p.state_bytes;
  for (const ss::OperatorProgress& op : p.operators) {
    if (StartsWith(op.name, "Shuffle")) e.shuffle_bytes += op.output_bytes;
  }
  return e;
}

// ---------------------------------------------------------------------------
// Analysis

Metrics AnalyzeTrace(const std::vector<EpochInfo>& epochs_in,
                     const std::vector<Span>& spans,
                     const std::vector<StageInfo>& stages, int threads,
                     uint32_t required, Tally* tally,
                     std::vector<std::string>* notes) {
  std::vector<EpochInfo> epochs = epochs_in;
  std::sort(epochs.begin(), epochs.end(),
            [](const EpochInfo& a, const EpochInfo& b) {
              return a.start_ns < b.start_ns;
            });
  const size_t n = epochs.size();
  std::vector<int64_t> starts(n);
  for (size_t i = 0; i < n; ++i) starts[i] = epochs[i].start_ns;
  // The epoch whose trigger span holds the start of `s`, on any thread.
  auto epoch_at = [&](const Span& s) -> long {
    auto it = std::upper_bound(starts.begin(), starts.end(), s.start);
    if (it == starts.begin()) return -1;
    size_t i = static_cast<size_t>(it - starts.begin()) - 1;
    return s.start > epochs[i].end_ns ? -1 : static_cast<long>(i);
  };
  // The same, but only when `s` ran on that epoch's trigger thread.
  auto epoch_of = [&](const Span& s) -> long {
    long i = epoch_at(s);
    return i >= 0 && s.thread == epochs[static_cast<size_t>(i)].thread ? i
                                                                       : -1;
  };

  // Each task's child time (the source calls it made), each stage's span
  // and tasks.
  int32_t max_task = -1;
  for (const Span& s : spans) max_task = std::max(max_task, s.task);
  std::vector<int64_t> task_children(static_cast<size_t>(max_task + 1), 0);
  std::vector<const Span*> stage_span(stages.size(), nullptr);
  std::vector<std::vector<const Span*>> stage_tasks(stages.size());
  for (const Span& s : spans) {
    switch (s.kind) {
      case SpanKind::kSourceRead:
      case SpanKind::kSourceIngest:
      case SpanKind::kSourceOffsets:
        if (s.task >= 0) {
          task_children[static_cast<size_t>(s.task)] += s.end - s.start;
        }
        break;
      case SpanKind::kStage:
        stage_span[static_cast<size_t>(s.stage)] = &s;
        break;
      case SpanKind::kTask:
        stage_tasks[static_cast<size_t>(s.stage)].push_back(&s);
        break;
      default:
        break;
    }
  }

  // Stages, in the order the trigger thread ran them. With one worker, a
  // stage's wall time is its tasks' self time, the source calls inside its
  // tasks, and the dispatch time during which no task of it ran (hand-off
  // to and from the worker). The decorators measure these independently of
  // the engine's StageWait, which the checks compare them with.
  std::vector<int64_t> stage_wall(n, 0), last_stage_end(n, 0);
  double family_run[kNumFamilies] = {};
  int64_t family_stages[kNumFamilies] = {};
  std::set<std::string> other_names;
  int64_t stage_total = 0, run_total = 0, traced_run_total = 0,
          queue_total = 0, task_total = 0, src_in_tasks = 0,
          dispatch_total = 0;
  int64_t epoch_violations = 0, stage_violations = 0;
  std::vector<double> fold_skew;
  for (size_t id = 0; id < stages.size(); ++id) {
    const Span* st = stage_span[id];
    if (st == nullptr) {
      ++stage_violations;  // begun but never ended
      continue;
    }
    const long e = epoch_of(*st);
    if (e < 0) continue;  // a stage outside any epoch: recovery in Start
    const StageInfo& info = stages[id];
    const int fam = ClassifyStage(info.name);
    ++family_stages[fam];
    if (fam == kFamOther) other_names.insert(info.name);

    const int64_t wall = st->end - st->start;
    int64_t spans_sum = 0, children = 0;
    bool ok = static_cast<int64_t>(stage_tasks[id].size()) == info.wait.tasks;
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (const Span* t : stage_tasks[id]) {
      const int64_t dur = t->end - t->start;
      const int64_t child = task_children[static_cast<size_t>(t->task)];
      ok = ok && t->start >= st->start - kClockSlackNs &&
           t->end <= st->end + kClockSlackNs && child <= dur + kClockSlackNs;
      spans_sum += dur;
      children += child;
      covered.push_back(
          {std::max(t->start, st->start), std::min(t->end, st->end)});
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0, reach = st->start;
    for (const auto& [b, f] : covered) {
      if (f > reach) {
        union_ns += f - std::max(b, reach);
        reach = f;
      }
    }
    // The tasks fit in the stage's threads, the engine's run time (taken
    // around each decorated task) covers the decorators' spans, and one
    // worker never runs two tasks at once.
    ok = ok && spans_sum <= wall * threads + kClockSlackNs &&
         spans_sum <= info.wait.run_nanos + kClockSlackNs;
    if (threads == 1) ok = ok && union_ns >= spans_sum - kClockSlackNs;
    if (!ok) ++stage_violations;

    family_run[fam] += static_cast<double>(spans_sum - children);
    src_in_tasks += children;
    dispatch_total += wall - union_ns;
    traced_run_total += spans_sum;
    stage_total += wall;
    run_total += info.wait.run_nanos;
    queue_total += info.wait.queue_wait_nanos;
    task_total += info.wait.tasks;
    if (fam == kFamAggFold && info.wait.tasks > 0 && info.wait.run_nanos > 0) {
      double mean = static_cast<double>(info.wait.run_nanos) /
                    static_cast<double>(info.wait.tasks);
      fold_skew.push_back(static_cast<double>(info.wait.max_run_nanos) / mean);
    }

    const size_t i = static_cast<size_t>(e);
    stage_wall[i] += wall;
    if (st->end > epochs[i].end_ns + kClockSlackNs ||
        st->start < last_stage_end[i]) {
      ++epoch_violations;
    }
    last_stage_end[i] = std::max(last_stage_end[i], st->end);
  }

  // Serial calls of the trigger thread: source calls made outside any task
  // (planning) and the sink commit.
  std::vector<int64_t> src_plan(n, 0), sink_ns(n, 0);
  int64_t read_ns = 0, read_rows = 0, read_bytes = 0, ingest_ns = 0,
          offsets_ns = 0, sink_total = 0, sink_rows = 0, append_ns = 0,
          append_rows = 0, append_max = 0;
  for (const Span& s : spans) {
    const int64_t dur = s.end - s.start;
    switch (s.kind) {
      case SpanKind::kSourceRead:
      case SpanKind::kSourceIngest:
      case SpanKind::kSourceOffsets: {
        if (s.kind == SpanKind::kSourceRead) {
          read_ns += dur;
          read_rows += s.rows;
          read_bytes += s.bytes;
        } else if (s.kind == SpanKind::kSourceIngest) {
          ingest_ns += dur;
        } else {
          offsets_ns += dur;
        }
        if (s.task >= 0) break;  // inside a scan task: a task's child
        long e = epoch_of(s);
        if (e >= 0) {
          src_plan[static_cast<size_t>(e)] += dur;
        } else if (epoch_at(s) >= 0) {
          ++epoch_violations;  // during an epoch, in no task, off its thread
        }
        break;
      }
      case SpanKind::kSinkCommit: {
        sink_total += dur;
        sink_rows += s.rows;
        long e = epoch_of(s);
        if (e >= 0) sink_ns[static_cast<size_t>(e)] += dur;
        break;
      }
      case SpanKind::kBusAppend:
        append_ns += dur;
        append_rows += s.rows;
        append_max = std::max(append_max, dur);
        break;
      default:
        break;
    }
  }

  // Per epoch: wall = stages + serial, and serial = planning's source calls
  // + the rest of planning (WAL) + state checkpoint + sink commit + the rest
  // of the commit stage (WAL) + exec self. The engine's own duration for the
  // epoch must fit in the trigger span.
  double wall_total = 0, serial = 0, wal_plan = 0, wal_commit = 0, ckpt = 0,
         exec_self = 0, trigger_wait = 0, rows_read = 0, shuffle_bytes = 0,
         src_plan_total = 0, sink_epochs = 0;
  for (size_t i = 0; i < n; ++i) {
    const EpochInfo& e = epochs[i];
    const int64_t wall = e.end_ns - e.start_ns;
    const int64_t serial_e = wall - stage_wall[i];
    const int64_t plan_e = std::max<int64_t>(0, e.plan_ns - src_plan[i]);
    const int64_t commit_e = std::max<int64_t>(0, e.commit_ns - sink_ns[i]);
    const int64_t self_e = serial_e - src_plan[i] - plan_e - e.checkpoint_ns -
                           sink_ns[i] - commit_e;
    if (self_e < -kClockSlackNs || e.duration_ns > wall + kClockSlackNs) {
      ++epoch_violations;
    }
    wall_total += static_cast<double>(wall);
    serial += static_cast<double>(serial_e);
    src_plan_total += static_cast<double>(src_plan[i]);
    sink_epochs += static_cast<double>(sink_ns[i]);
    wal_plan += static_cast<double>(plan_e);
    wal_commit += static_cast<double>(commit_e);
    ckpt += static_cast<double>(e.checkpoint_ns);
    exec_self += static_cast<double>(self_e);
    trigger_wait += static_cast<double>(e.trigger_wait_ns);
    rows_read += static_cast<double>(e.rows_read);
    shuffle_bytes += static_cast<double>(e.shuffle_bytes);
  }
  tally->Check(epoch_violations == 0,
               "trace accounting: " + std::to_string(epoch_violations) +
                   " epoch-level violation(s): a stage span overlapping "
                   "another or leaving the trigger span, a negative serial "
                   "remainder, an engine duration longer than the trigger "
                   "span, or a source call in no task and off the trigger "
                   "thread");
  tally->Check(stage_violations == 0,
               "trace accounting: " + std::to_string(stage_violations) +
                   " stage(s) whose task spans leave the stage, overlap on "
                   "one worker, exceed the stage's threads or the engine's "
                   "task run time, or miss tasks the engine ran, or that "
                   "never ended");
  tally->Check(traced_run_total >= run_total - run_total / 10,
               "trace accounting: task spans cover " +
                   std::to_string(traced_run_total) + " ns of the engine's " +
                   std::to_string(run_total) + " ns of task run time");
  double family_total = 0;
  for (double v : family_run) family_total += v;
  char line[512];
  std::snprintf(
      line, sizeof line,
      "accounting (ms over %zu epochs): wall %.1f = serial %.1f [source "
      "%.1f, wal plan %.1f, checkpoint %.1f, sink %.1f, wal commit %.1f, "
      "exec self %.1f] + stages %.1f [task self %.1f, source in tasks %.1f, "
      "dispatch %.1f]",
      n, Ms(wall_total), Ms(serial), Ms(src_plan_total), Ms(wal_plan),
      Ms(ckpt), Ms(sink_epochs), Ms(wal_commit),
      Ms(exec_self), Ms(static_cast<double>(stage_total)), Ms(family_total),
      Ms(static_cast<double>(src_in_tasks)),
      Ms(static_cast<double>(dispatch_total)));
  notes->push_back(line);
  for (int fam = 0; fam < kFamOther; ++fam) {
    if ((required & FamilyBit(fam)) == 0) continue;
    tally->Check(family_stages[fam] > 0,
                 std::string("no stage of family ") + kFamilyMetric[fam] +
                     " was recorded; stage names changed?");
  }
  for (const std::string& name : other_names) {
    notes->push_back("physical.other stage: " + name);
  }

  const double per_epoch = n > 0 ? 1.0 / static_cast<double>(n) : 0;
  auto per_rec = [](double num, double den) { return den > 0 ? num / den : 0; };
  Metrics m;
  m.Set("bus.append_ns_per_rec",
        per_rec(static_cast<double>(append_ns),
                static_cast<double>(append_rows)),
        "ns");
  m.Set("bus.append_max_ms", Ms(static_cast<double>(append_max)), "ms");
  m.Set("source.read_ms", Ms(static_cast<double>(read_ns)) * per_epoch, "ms");
  m.Set("source.read_ns_per_rec",
        per_rec(static_cast<double>(read_ns), static_cast<double>(read_rows)),
        "ns");
  m.Set("source.bytes_per_rec",
        per_rec(static_cast<double>(read_bytes),
                static_cast<double>(read_rows)),
        "B/rec");
  m.Set("source.ingest_age_ms", Ms(static_cast<double>(ingest_ns)) * per_epoch,
        "ms");
  m.Set("source.offsets_ms", Ms(static_cast<double>(offsets_ns)) * per_epoch,
        "ms");
  m.Set("runtime.stage_wall_ms",
        Ms(static_cast<double>(stage_total)) * per_epoch, "ms");
  m.Set("runtime.task_run_ms", Ms(static_cast<double>(run_total)) * per_epoch,
        "ms");
  m.Set("runtime.queue_wait_ms",
        Ms(static_cast<double>(queue_total)) * per_epoch, "ms");
  m.Set("runtime.utilization",
        per_rec(static_cast<double>(run_total),
                static_cast<double>(stage_total) * threads),
        "ratio");
  m.Set("runtime.serial_ms", Ms(serial) * per_epoch, "ms");
  m.Set("runtime.dispatch_ms",
        Ms(static_cast<double>(dispatch_total)) * per_epoch, "ms");
  m.Set("runtime.tasks_per_epoch", static_cast<double>(task_total) * per_epoch,
        "count");
  for (int fam = 0; fam < kNumFamilies; ++fam) {
    m.Set(kFamilyMetric[fam], Ms(family_run[fam]) * per_epoch, "ms");
  }
  m.Set("physical.shuffle.bytes_per_rec", per_rec(shuffle_bytes, rows_read),
        "B/rec");
  m.Set("physical.agg.fold_skew", Median(fold_skew), "ratio");
  m.Set("state.checkpoint_ms", Ms(ckpt) * per_epoch, "ms");
  m.Set("state.entries",
        n > 0 ? static_cast<double>(epochs_in.back().state_entries) : 0,
        "count");
  m.Set("state.bytes",
        n > 0 ? static_cast<double>(epochs_in.back().state_bytes) : 0, "B");
  m.Set("wal.plan_ms", Ms(wal_plan) * per_epoch, "ms");
  m.Set("wal.commit_ms", Ms(wal_commit) * per_epoch, "ms");
  m.Set("sink.commit_ms", Ms(static_cast<double>(sink_total)) * per_epoch,
        "ms");
  m.Set("sink.ns_per_row",
        per_rec(static_cast<double>(sink_total),
                static_cast<double>(sink_rows)),
        "ns");
  m.Set("sink.rows_per_epoch", static_cast<double>(sink_rows) * per_epoch,
        "count");
  m.Set("exec.self_ms", Ms(exec_self) * per_epoch, "ms");
  m.Set("exec.trigger_wait_ms", Ms(trigger_wait) * per_epoch, "ms");
  m.Set("trace.epochs", static_cast<double>(n), "count");
  m.Set("trace.spans", static_cast<double>(spans.size()), "count");
  return m;
}

void CompareEpochRows(const std::vector<EpochInfo>& untraced,
                      const std::vector<EpochInfo>& traced, size_t n,
                      Tally* tally) {
  n = std::min({n, untraced.size(), traced.size()});
  for (size_t i = 0; i < n; ++i) {
    const EpochInfo& a = untraced[i];
    const EpochInfo& b = traced[i];
    tally->Check(a.rows_read == b.rows_read && a.rows_written == b.rows_written,
                 "traced run diverged at epoch " + std::to_string(b.epoch) +
                     ": rows_read " + std::to_string(a.rows_read) + " vs " +
                     std::to_string(b.rows_read) + ", rows_written " +
                     std::to_string(a.rows_written) + " vs " +
                     std::to_string(b.rows_written));
  }
}

}  // namespace perfbench
