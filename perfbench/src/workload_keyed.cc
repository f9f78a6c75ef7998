// keyed_durable: a per-user running count in update mode over ~500k keys
// with skewed popularity, narrow 3-column input, a checkpoint directory
// (WAL plus sharded state, fsynced every epoch) and a BusSink. Input
// arrives in fixed-size segments: the generator appends one segment, the
// query drains it (closed loop), and so on. A warm-up segment that touches
// every key once runs first, unmeasured, so the state is at full size for
// the whole measured phase. The query is dropped and restarted on the same
// checkpoint before every even-numbered segment; the oracle checks that the
// last (= largest) count emitted per key equals the reference.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "connectors/bus_connectors.h"
#include "exec/streaming_query.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace ss = sstreaming;

namespace {

constexpr int64_t kKeys = 500000;
constexpr int kInPartitions = 4;
constexpr int kOutPartitions = 4;
constexpr int kShufflePartitions = 2;
constexpr int kStateShards = 2;
constexpr int64_t kSegment = 150000;  // records appended per segment
constexpr int64_t kCap = 10000;       // max_records_per_epoch
/// Records per second of measured phase. A run processes a fixed input of
/// `seconds` x kNominalRate records (about what HEAD sustains with one
/// worker on a 4-vCPU host), so its memory and state do not depend on its
/// speed.
constexpr int64_t kNominalRate = 200000;
// Measured passes use one pool worker on the trigger thread's CPU (see
// CpuScope); the trigger thread waits while a stage runs. With more workers
// the wall-clock figures followed the neighbours' load on a shared 4-vCPU
// host. The traced run measures the whole four-thread budget (trigger +
// three workers) for runtime.speedup_4v1.
constexpr int kPoolThreads = 1;
constexpr int kFullBudgetPool = kThreadBudget - 1;
// The first set-up in a process pays for faulting in fresh memory and
// varies most; the median of five is one of the later ones.
constexpr int kSetupRepeats = 5;
/// The query is dropped and restarted before every segment whose number is
/// a positive multiple of this; a pass with drops has at least kMinDrops.
constexpr int kDropEvery = 2;
constexpr int kMinDrops = 5;
constexpr char kIn[] = "events";
constexpr char kOut[] = "counts";

using Partitioned = std::vector<std::vector<ss::Row>>;

ss::SchemaPtr EventSchema() {
  return ss::Schema::Make({{"user_id", ss::TypeId::kInt64, false},
                           {"event_time", ss::TypeId::kTimestamp, false},
                           {"amount", ss::TypeId::kInt64, false}});
}

/// The whole input of one pass and the reference count per key.
struct Input {
  Partitioned warmup;
  std::vector<Partitioned> segments;
  std::vector<int64_t> reference = std::vector<int64_t>(kKeys, 0);
};

int SegmentsFor(double seconds, bool drops) {
  int n = static_cast<int>(
      std::ceil(seconds * static_cast<double>(kNominalRate) / kSegment));
  if (drops) n = std::max(n, kDropEvery * kMinDrops + 1);
  return std::max(n, 1);
}

// Deterministic in (seed, segment count). The warm-up holds every key once
// in a seeded random order. In the segments key popularity follows u^2 for
// uniform u: the hottest 1% of the keys get 10% of the events.
Input GenerateInput(uint64_t seed, int segments) {
  Input input;
  std::vector<int64_t> keys(kKeys);
  for (int64_t k = 0; k < kKeys; ++k) keys[static_cast<size_t>(k)] = k;
  ss::Random shuffle(seed ^ 0x5DEECE66DULL);
  for (int64_t i = kKeys - 1; i > 0; --i) {
    std::swap(keys[static_cast<size_t>(i)],
              keys[static_cast<size_t>(
                  shuffle.Uniform(static_cast<uint64_t>(i + 1)))]);
  }
  input.warmup.resize(kInPartitions);
  for (int64_t i = 0; i < kKeys; ++i) {
    const int64_t key = keys[static_cast<size_t>(i)];
    ++input.reference[static_cast<size_t>(key)];
    input.warmup[static_cast<size_t>(i % kInPartitions)].push_back(
        {ss::Value::Int64(key), ss::Value::Timestamp(0), ss::Value::Int64(0)});
  }
  for (int seg = 0; seg < segments; ++seg) {
    ss::Random rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(seg));
    Partitioned rows(kInPartitions);
    for (auto& part : rows) part.reserve(kSegment / kInPartitions + 1);
    for (int64_t i = 0; i < kSegment; ++i) {
      const double u = rng.NextDouble();
      const int64_t key = std::min<int64_t>(
          kKeys - 1, static_cast<int64_t>(u * u * static_cast<double>(kKeys)));
      ++input.reference[static_cast<size_t>(key)];
      const int64_t seq = seg * kSegment + i;
      rows[static_cast<size_t>(i % kInPartitions)].push_back(
          {ss::Value::Int64(key), ss::Value::Timestamp(seq * 10),
           ss::Value::Int64(static_cast<int64_t>(rng.Uniform(1000)))});
    }
    input.segments.push_back(std::move(rows));
  }
  return input;
}

// The oracle's view of the output: the largest count seen per key (counts
// only grow, so the largest is the last), plus rows naming unknown keys.
struct Observed {
  std::vector<int64_t> max_count = std::vector<int64_t>(kKeys, 0);
  int64_t bad_rows = 0;
};

Observed ReadOutput(const ss::MessageBus& bus) {
  Observed obs;
  constexpr int64_t kChunk = 1 << 16;
  for (int p = 0; p < kOutPartitions; ++p) {
    auto end = bus.EndOffset(kOut, p);
    SS_CHECK(end.ok());
    for (int64_t start = 0; start < *end; start += kChunk) {
      auto rows = bus.Read(kOut, p, start, start + kChunk);
      SS_CHECK(rows.ok());
      for (const ss::Row& row : *rows) {
        const int64_t key = row[0].int64_value();
        if (key < 0 || key >= kKeys) {
          ++obs.bad_rows;
          continue;
        }
        int64_t& slot = obs.max_count[static_cast<size_t>(key)];
        slot = std::max(slot, row[1].int64_value());
      }
    }
  }
  return obs;
}

void CheckOutput(const Observed& obs, int64_t consumed, int64_t appended,
                 const std::vector<int64_t>& reference, Tally* tally) {
  for (int64_t key = 0; key < kKeys; ++key) {
    const int64_t want = reference[static_cast<size_t>(key)];
    const int64_t got = obs.max_count[static_cast<size_t>(key)];
    tally->Check(want == got, "keyed: user " + std::to_string(key) +
                                  " expected count " + std::to_string(want) +
                                  ", last emitted " + std::to_string(got));
  }
  for (int64_t i = 0; i < obs.bad_rows; ++i) {
    tally->Fail("keyed: output row with an unknown key");
  }
  tally->Check(consumed == appended,
               "keyed: epochs consumed " + std::to_string(consumed) +
                   " records of " + std::to_string(appended) + " appended");
}

struct Pass {
  PassStats stats;
  std::vector<EpochInfo> epochs;
  Partitioned first_segment_output;
  double gen_lag_p99_ms = 0;
  double state_disk_bytes_per_epoch = 0;
  double wal_disk_bytes_per_epoch = 0;
};

class KeyedRun {
 public:
  KeyedRun(std::string dir, int pool_threads, bool traced, Input input)
      : dir_(std::move(dir)),
        pool_(pool_threads),
        traced_pool_(&pool_),
        traced_(traced),
        input_(std::move(input)) {
    bus_.set_ingest_clock(ss::SystemClock::Default());
    SS_CHECK_OK(bus_.CreateTopic(kIn, kInPartitions));
    SS_CHECK_OK(bus_.CreateTopic(kOut, kOutPartitions));
    std::filesystem::remove_all(dir_);
  }
  ~KeyedRun() {
    query_.reset();
    std::filesystem::remove_all(dir_);
  }

  ss::Status Start() {
    query_.reset();
    ss::SourcePtr source =
        std::make_shared<ss::BusSource>(&bus_, kIn, EventSchema());
    // A restarted process has a fresh sink: its at-least-once redelivery
    // is what the last-value oracle tolerates.
    ss::SinkPtr sink = std::make_shared<ss::BusSink>(&bus_, kOut);
    if (traced_) {
      source = std::make_shared<TracedSource>(source);
      sink = std::make_shared<TracedSink>(sink);
    }
    ss::QueryOptions options;
    options.mode = ss::OutputMode::kUpdate;
    options.checkpoint_dir = dir_;
    options.num_partitions = kShufflePartitions;
    options.num_state_shards = kStateShards;
    options.max_records_per_epoch = kCap;
    options.scheduler = traced_ ? static_cast<ss::TaskScheduler*>(&traced_pool_)
                                : &pool_;
    options.query_name = "keyed_durable";
    ss::DataFrame df =
        ss::DataFrame::ReadStream(source).GroupBy({"user_id"}).Count();
    const int64_t t0 = NowNs();
    auto query = ss::StreamingQuery::Start(df, sink, options);
    if (traced_) {
      Span span;
      span.kind = SpanKind::kStart;
      span.start = t0;
      span.end = NowNs();
      SpanRecorder::Get().Record(span);
    }
    if (!query.ok()) return query.status();
    query_ = std::move(*query);
    return ss::Status::OK();
  }

  /// Warm-up, then every segment; drops and restarts before every
  /// kDropEvery-th segment when `drops`. Checks the output at the end.
  Pass Run(bool drops, Tally* tally) {
    Pass pass;
    int64_t appended = kKeys;
    int64_t consumed = 0;
    for (int p = 0; p < kInPartitions; ++p) {
      SS_CHECK_OK(
          bus_.AppendBatch(kIn, p,
                           std::move(input_.warmup[static_cast<size_t>(p)]))
              .status());
    }
    while (true) {
      auto ran = query_->ProcessOneTrigger();
      tally->Check(ran.ok(), "keyed: warm-up trigger failed");
      if (!ran.ok() || !*ran) break;
      ss::QueryProgress progress;
      query_->GetLastProgress(&progress);
      consumed += progress.rows_read;
    }
    if (traced_) SpanRecorder::Get().Reset();  // trace the measured phase only
    const int32_t me = traced_ ? SpanRecorder::Get().ThisThread() : 0;

    std::vector<double> gen_lag_ms;
    for (size_t seg = 0; seg < input_.segments.size(); ++seg) {
      const int64_t a0 = NowNs();
      for (int p = 0; p < kInPartitions; ++p) {
        SS_CHECK_OK(AppendRows(
            &bus_, kIn, p,
            std::move(input_.segments[seg][static_cast<size_t>(p)]), traced_));
      }
      gen_lag_ms.push_back(static_cast<double>(NowNs() - a0) / 1e6);
      appended += kSegment;

      bool restarted = false;
      int64_t restart_t0 = 0, restart_t1 = 0;
      if (drops && seg > 0 && seg % kDropEvery == 0) {
        query_.reset();  // the drop: no epoch is in flight
        restart_t0 = NowNs();
        ss::Status s = Start();
        restart_t1 = NowNs();
        if (!s.ok()) {
          tally->Fail("keyed: restart failed: " + s.ToString());
          break;
        }
        restarted = true;
      }

      // Latency counts from here: a restart's time is recovery_s, not
      // latency.
      const int64_t cpu0 = ProcessCpuNs();
      const int64_t drain0 = NowNs();
      Round round;
      bool failed = false;
      while (true) {
        const int64_t s = NowNs();
        auto ran = query_->ProcessOneTrigger();
        const int64_t e = NowNs();
        tally->Check(ran.ok(), "keyed: trigger failed: " +
                                   (ran.ok() ? "" : ran.status().ToString()));
        if (!ran.ok()) failed = true;
        if (!ran.ok() || !*ran) break;
        ss::QueryProgress progress;
        query_->GetLastProgress(&progress);
        EpochInfo info = EpochInfoFrom(progress);
        info.start_ns = s;
        info.end_ns = e;
        info.thread = me;
        if (traced_) {
          Span span;
          span.kind = SpanKind::kTrigger;
          span.start = s;
          span.end = e;
          span.epoch = info.epoch;
          span.rows = info.rows_read;
          SpanRecorder::Get().Record(span);
        }
        pass.epochs.push_back(info);
        round.epoch_ms.push_back(static_cast<double>(e - s) / 1e6);
        round.latency_ms.push_back(
            {static_cast<double>(e - drain0) / 1e6, info.rows_read});
        if (restarted) {
          pass.stats.restart_start_ms.push_back(
              static_cast<double>(restart_t1 - restart_t0) / 1e6);
          pass.stats.restart_first_ms.push_back(
              static_cast<double>(e - restart_t1) / 1e6);
          restarted = false;
        }
        round.records += info.rows_read;
      }
      round.wall_ns = NowNs() - drain0;
      round.cpu_ns = ProcessCpuNs() - cpu0;
      consumed += round.records;
      pass.stats.AddRound(std::move(round));
      if (failed) break;
      if (seg == 0) pass.first_segment_output = OutputRows();
    }
    pass.gen_lag_p99_ms = Quantile(gen_lag_ms, 0.99);
    const double epochs =
        static_cast<double>(std::max<size_t>(1, pass.epochs.size()));
    pass.state_disk_bytes_per_epoch =
        static_cast<double>(DirBytes(dir_ + "/state")) / epochs;
    pass.wal_disk_bytes_per_epoch =
        static_cast<double>(DirBytes(dir_ + "/wal")) / epochs;

    const Observed obs = ReadOutput(bus_);
    CheckOutput(obs, consumed, appended, input_.reference, tally);
    Tally probe;
    Observed corrupted = obs;
    ++corrupted.max_count[0];  // one output row with a wrong count
    CheckOutput(corrupted, consumed + 1, appended, input_.reference, &probe);
    ExpectSelfCheckTrips(probe, tally);
    return pass;
  }

 private:
  Partitioned OutputRows() const {
    Partitioned out;
    for (int p = 0; p < kOutPartitions; ++p) {
      auto end = bus_.EndOffset(kOut, p);
      auto rows = bus_.Read(kOut, p, 0, end.ok() ? *end : 0);
      out.push_back(rows.ok() ? std::move(*rows) : std::vector<ss::Row>());
    }
    return out;
  }

  const std::string dir_;
  ss::MessageBus bus_;
  ss::PoolScheduler pool_;
  TracedScheduler traced_pool_;
  const bool traced_;
  Input input_;
  std::unique_ptr<ss::StreamingQuery> query_;
};

std::string CheckpointDir(const RunConfig& config) {
  return config.work_dir + "/keyed-checkpoint";
}

Pass RunPass(const RunConfig& config, int pool_threads, double seconds,
             bool traced, bool drops, Tally* tally, double* start_ms) {
  CpuScope cpus(pool_threads == kPoolThreads);
  KeyedRun run(CheckpointDir(config), pool_threads, traced,
               GenerateInput(config.seed, SegmentsFor(seconds, drops)));
  const int64_t t0 = NowNs();
  SS_CHECK_OK(run.Start());
  if (start_ms != nullptr) *start_ms = static_cast<double>(NowNs() - t0) / 1e6;
  return run.Run(drops, tally);
}

}  // namespace

Outcome RunKeyedDurable(const RunConfig& config) {
  Outcome out;
  if (!config.trace) {
    CpuScope cpus(true);
    // Set-up (input generation + Start) several times; the last one runs.
    std::vector<double> setup_s;
    std::unique_ptr<KeyedRun> run;
    for (int i = 0; i < kSetupRepeats; ++i) {
      run.reset();
      const int64_t t0 = NowNs();
      run = std::make_unique<KeyedRun>(
          CheckpointDir(config), kPoolThreads, false,
          GenerateInput(config.seed, SegmentsFor(config.seconds, true)));
      SS_CHECK_OK(run->Start());
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    Pass pass = run->Run(true, &out.tally);
    ReportEndToEnd(pass.stats, setup_s, &out.metrics);
    out.notes.push_back("epochs=" + std::to_string(pass.epochs.size()));
    return out;
  }

  Pass untraced = RunPass(config, kPoolThreads, config.seconds / 2, false,
                          true, &out.tally, nullptr);
  double start_ms = 0;
  Pass traced = RunPass(config, kPoolThreads, config.seconds / 2, true, true,
                        &out.tally, &start_ms);
  std::vector<Span> spans = SpanRecorder::Get().Collect();
  SpanRecorder::Get().WriteTsv(config.work_dir + "/spans-keyed_durable.tsv");
  out.metrics = AnalyzeTrace(traced.epochs, spans, SpanRecorder::Get().Stages(),
                             kPoolThreads, kScan | kShuffle | kAggFold,
                             &out.tally, &out.notes);
  // Same program traced and untraced: identical per-epoch rows, and an
  // identical output topic after the first segment.
  CompareEpochRows(untraced.epochs, traced.epochs,
                   std::min(untraced.epochs.size(), traced.epochs.size()),
                   &out.tally);
  auto same_rows = [](const std::vector<ss::Row>& a,
                      const std::vector<ss::Row>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const ss::Row& x, const ss::Row& y) {
                        return ss::CompareRows(x, y) == 0;
                      });
  };
  out.tally.Check(std::equal(untraced.first_segment_output.begin(),
                             untraced.first_segment_output.end(),
                             traced.first_segment_output.begin(),
                             traced.first_segment_output.end(), same_rows),
                  "keyed: traced and untraced sink output differ");
  Pass full = RunPass(config, kFullBudgetPool, config.seconds / 4, false,
                      false, &out.tally, nullptr);
  ReportPassComparison(untraced.stats, traced.stats, full.stats,
                       &out.metrics);
  out.metrics.Set("exec.start_ms", start_ms, "ms");
  out.metrics.Set("gen.lag_p99_ms", traced.gen_lag_p99_ms, "ms");
  out.metrics.Set("state.disk_bytes_per_epoch",
                  traced.state_disk_bytes_per_epoch, "B");
  out.metrics.Set("wal.disk_bytes_per_epoch", traced.wal_disk_bytes_per_epoch,
                  "B");
  return out;
}

}  // namespace perfbench
