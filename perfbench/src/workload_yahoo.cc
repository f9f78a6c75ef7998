// yahoo_drain: the paper's Yahoo query draining a pre-loaded 8-partition
// backlog, closed loop, the way Fig. 6 measures maximum throughput. Each
// round starts a fresh query on the backlog and triggers epochs (capped at
// kCap records) until it is drained; rounds repeat until the measured phase
// is over. Every round's MemorySink table is checked against
// YahooReferenceCounts.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "connectors/bus_connectors.h"
#include "connectors/memory.h"
#include "exec/streaming_query.h"
#include "trace.h"
#include "workloads.h"
#include "workloads/yahoo.h"

namespace perfbench {

namespace ss = sstreaming;

namespace {

constexpr int64_t kEvents = 2000000;
constexpr int kPartitions = 8;
// 20 epochs per round. A cap of 40k gave 50 epochs per round, each paying
// the per-epoch costs (planning, one hand-off per stage), and its wall time
// followed the host's load far more than its CPU time did.
constexpr int64_t kCap = 100000;
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
constexpr char kTopic[] = "events";

using Counts = std::map<std::pair<int64_t, int64_t>, int64_t>;

struct Input {
  std::unique_ptr<ss::MessageBus> bus;
  std::vector<ss::Row> campaigns;
};

Input Generate(uint64_t seed) {
  ss::YahooConfig config;
  config.num_partitions = kPartitions;
  config.num_events = kEvents;
  config.seed = seed;
  Input input;
  input.bus = std::make_unique<ss::MessageBus>();
  input.bus->set_ingest_clock(ss::SystemClock::Default());
  auto campaigns = ss::GenerateYahooData(input.bus.get(), kTopic, config);
  SS_CHECK(campaigns.ok()) << campaigns.status().ToString();
  input.campaigns = std::move(*campaigns);
  return input;
}

ss::QueryOptions Options(ss::TaskScheduler* scheduler) {
  ss::QueryOptions options;
  options.mode = ss::OutputMode::kUpdate;
  options.num_partitions = kPartitions;
  options.max_records_per_epoch = kCap;
  options.scheduler = scheduler;
  options.query_name = "yahoo_drain";
  return options;
}

Counts Reference(const Input& input) {
  Counts total;
  constexpr int64_t kChunk = 1 << 16;
  for (int p = 0; p < kPartitions; ++p) {
    auto end = input.bus->EndOffset(kTopic, p);
    SS_CHECK(end.ok());
    for (int64_t start = 0; start < *end; start += kChunk) {
      auto rows = input.bus->Read(kTopic, p, start, start + kChunk);
      SS_CHECK(rows.ok());
      for (const auto& [key, n] :
           ss::YahooReferenceCounts(*rows, input.campaigns)) {
        total[key] += n;
      }
    }
  }
  return total;
}

Counts SinkCounts(const ss::MemorySink& sink) {
  Counts got;
  for (const ss::Row& row : sink.Snapshot()) {
    // (window_start, window_end, campaign_id, count)
    got[{row[2].int64_value(), row[0].int64_value() / 1000000}] =
        row[3].int64_value();
  }
  return got;
}

void CheckRound(const Counts& got, int64_t consumed, const Counts& want,
                Tally* tally) {
  for (const auto& [key, n] : want) {
    auto it = got.find(key);
    tally->Check(it != got.end() && it->second == n,
                 "yahoo: campaign " + std::to_string(key.first) + " window " +
                     std::to_string(key.second) + " expected " +
                     std::to_string(n) + ", got " +
                     (it == got.end() ? "nothing"
                                      : std::to_string(it->second)));
  }
  for (const auto& [key, n] : got) {
    if (want.count(key) == 0) {
      tally->Fail("yahoo: unexpected campaign " + std::to_string(key.first) +
                  " window " + std::to_string(key.second));
    }
  }
  tally->Check(consumed == kEvents,
               "yahoo: a drain consumed " + std::to_string(consumed) +
                   " records of " + std::to_string(kEvents));
}

struct Pass {
  PassStats stats;
  std::vector<EpochInfo> epochs;       // traced passes only
  std::vector<EpochInfo> first_round;  // per-epoch rows of round one
  Counts first_counts;
  int rounds = 0;
  int64_t projected_reads = 0;
  int64_t full_reads = 0;
};

// Drains the backlog round after round for at least `seconds` of measured
// time. The measured clock covers the trigger calls only; Start and the
// oracle run outside it.
Pass Drain(const Input& input, const Counts& want, int pool_threads,
           double seconds, bool traced, Tally* tally) {
  CpuScope cpus(pool_threads == kPoolThreads);
  ss::PoolScheduler pool(pool_threads);
  TracedScheduler traced_pool(&pool);
  ss::TaskScheduler* scheduler =
      traced ? static_cast<ss::TaskScheduler*>(&traced_pool) : &pool;
  SpanRecorder& recorder = SpanRecorder::Get();
  const int32_t me = traced ? recorder.ThisThread() : 0;
  Pass pass;
  while (pass.rounds == 0 ||
         static_cast<double>(pass.stats.WallNs()) < seconds * 1e9) {
    ss::SourcePtr source =
        std::make_shared<ss::BusSource>(input.bus.get(), kTopic,
                                        ss::YahooEventSchema());
    std::shared_ptr<TracedSource> traced_source;
    if (traced) {
      traced_source = std::make_shared<TracedSource>(source);
      source = traced_source;
    }
    auto memory = std::make_shared<ss::MemorySink>();
    ss::SinkPtr sink = memory;
    if (traced) sink = std::make_shared<TracedSink>(memory);

    const int64_t t0 = NowNs();
    auto query = ss::StreamingQuery::Start(
        ss::YahooQuery(source, input.campaigns), sink, Options(scheduler));
    const int64_t t1 = NowNs();
    if (!query.ok()) {
      tally->Fail("yahoo: Start failed: " + query.status().ToString());
      break;
    }
    if (traced) {
      Span span;
      span.kind = SpanKind::kStart;
      span.start = t0;
      span.end = t1;
      recorder.Record(span);
    }
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t round_start = NowNs();
    Round round;
    bool first = true;
    while (true) {
      const int64_t s = NowNs();
      auto ran = (*query)->ProcessOneTrigger();
      const int64_t e = NowNs();
      tally->Check(ran.ok(), "yahoo: trigger failed: " +
                                 (ran.ok() ? "" : ran.status().ToString()));
      if (!ran.ok() || !*ran) break;
      ss::QueryProgress progress;
      (*query)->GetLastProgress(&progress);
      EpochInfo info = EpochInfoFrom(progress);
      info.start_ns = s;
      info.end_ns = e;
      info.thread = me;
      if (traced) {
        Span span;
        span.kind = SpanKind::kTrigger;
        span.start = s;
        span.end = e;
        span.epoch = info.epoch;
        span.rows = info.rows_read;
        recorder.Record(span);
        pass.epochs.push_back(info);
      }
      if (pass.rounds == 0) pass.first_round.push_back(info);
      round.epoch_ms.push_back(static_cast<double>(e - s) / 1e6);
      round.latency_ms.push_back(
          {static_cast<double>(e - round_start) / 1e6, info.rows_read});
      if (first) {
        pass.stats.restart_start_ms.push_back(static_cast<double>(t1 - t0) /
                                              1e6);
        pass.stats.restart_first_ms.push_back(static_cast<double>(e - t1) /
                                              1e6);
        first = false;
      }
      round.records += info.rows_read;
    }
    round.wall_ns = NowNs() - round_start;
    round.cpu_ns = ProcessCpuNs() - cpu0;
    const int64_t consumed = round.records;
    pass.stats.AddRound(std::move(round));
    if (traced_source != nullptr) {
      pass.projected_reads += traced_source->projected_reads();
      pass.full_reads += traced_source->full_reads();
    }

    Counts got = SinkCounts(*memory);
    CheckRound(got, consumed, want, tally);
    if (pass.rounds == 0) {
      Tally probe;
      Counts corrupted = got;
      if (!corrupted.empty()) corrupted.begin()->second += 1;
      CheckRound(corrupted, consumed + 1, want, &probe);
      ExpectSelfCheckTrips(probe, tally);
      pass.first_counts = std::move(got);
    }
    ++pass.rounds;
  }
  return pass;
}

}  // namespace

Outcome RunYahooDrain(const RunConfig& config) {
  Outcome out;
  CpuScope cpus(true);
  // Set-up: generate the backlog and start the query, several times.
  std::vector<double> setup_s;
  double start_ms = 0;
  Input input;
  for (int i = 0; i < kSetupRepeats; ++i) {
    input = Input();
    const int64_t t0 = NowNs();
    input = Generate(config.seed);
    ss::PoolScheduler pool(kPoolThreads);
    const int64_t t1 = NowNs();
    auto query = ss::StreamingQuery::Start(
        ss::YahooQuery(std::make_shared<ss::BusSource>(
                           input.bus.get(), kTopic, ss::YahooEventSchema()),
                       input.campaigns),
        std::make_shared<ss::MemorySink>(), Options(&pool));
    const int64_t t2 = NowNs();
    SS_CHECK(query.ok()) << query.status().ToString();
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    start_ms = static_cast<double>(t2 - t1) / 1e6;
  }
  const Counts want = Reference(input);

  if (!config.trace) {
    Pass pass = Drain(input, want, kPoolThreads, config.seconds, false,
                      &out.tally);
    ReportEndToEnd(pass.stats, setup_s, &out.metrics);
    out.notes.push_back(
        "rounds=" + std::to_string(pass.rounds) +
        " epochs=" + std::to_string(pass.stats.epochs));
    return out;
  }

  Pass untraced = Drain(input, want, kPoolThreads, config.seconds / 2, false,
                        &out.tally);
  SpanRecorder::Get().Reset();
  Pass traced = Drain(input, want, kPoolThreads, config.seconds / 2, true,
                      &out.tally);
  std::vector<Span> spans = SpanRecorder::Get().Collect();
  SpanRecorder::Get().WriteTsv(config.work_dir + "/spans-yahoo_drain.tsv");
  out.metrics = AnalyzeTrace(traced.epochs, spans, SpanRecorder::Get().Stages(),
                             kPoolThreads,
                             kScan | kPipeline | kJoin | kShuffle | kAggFold,
                             &out.tally, &out.notes);
  // The traced run must be the same program: same per-epoch rows, same
  // sink table, and projection pushdown still taken.
  CompareEpochRows(untraced.first_round, traced.first_round,
                   untraced.first_round.size(), &out.tally);
  out.tally.Check(untraced.first_round.size() == traced.first_round.size() &&
                      untraced.first_counts == traced.first_counts,
                  "yahoo: traced and untraced sink output differ");
  out.tally.Check(traced.projected_reads > 0 && traced.full_reads == 0,
                  "yahoo: the traced source lost projection pushdown");
  Pass full = Drain(input, want, kFullBudgetPool, config.seconds / 4, false,
                    &out.tally);
  ReportPassComparison(untraced.stats, traced.stats, full.stats,
                       &out.metrics);
  out.metrics.Set("exec.start_ms", start_ms, "ms");
  out.metrics.Set("gen.lag_p99_ms", 0, "ms");
  out.metrics.Set("state.disk_bytes_per_epoch", 0, "B");
  out.metrics.Set("wal.disk_bytes_per_epoch", 0, "B");
  return out;
}

}  // namespace perfbench
