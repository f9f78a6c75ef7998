// Measurement helpers shared by the workloads: clocks, process CPU and
// peak RSS, order statistics, the metric list a run reports, and the
// oracle tally that turns wrong output into failures.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Threads one workload process may keep busy: generator + trigger + pool.
/// A constant (recorded in the output), never read from the host.
inline constexpr int kThreadBudget = 4;

/// Command-line settings every workload receives.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (checkpoints, span dumps).
  std::string work_dir;
};

/// Monotonic nanoseconds (the engine's own clock, common/clock.h).
int64_t NowNs();
/// User+sys CPU of the whole process, nanoseconds (getrusage).
int64_t ProcessCpuNs();
/// Peak resident set (VmHWM) of this process, MB.
double PeakRssMb();
/// Total bytes of the regular files under `dir` (0 when absent).
int64_t DirBytes(const std::string& dir);

/// While alive, confines the calling thread, and every thread it creates, to
/// one CPU (the highest-numbered CPU it may run on) or, with `one_cpu`
/// false, to every CPU the process started with. The measured passes run the
/// trigger thread and their one pool worker on one CPU: a stage hand-off is
/// then a local context switch rather than a wake-up of another, possibly
/// idle, vCPU whose latency follows the host's load.
class CpuScope {
 public:
  explicit CpuScope(bool one_cpu);
  ~CpuScope();
  CpuScope(const CpuScope&) = delete;
  CpuScope& operator=(const CpuScope&) = delete;

 private:
  std::vector<int> previous_;
};

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty vector.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Quantile of values given with integer weights (each value counts
/// `weight` times), e.g. one latency per epoch weighted by its records.
double WeightedQuantile(std::vector<std::pair<double, int64_t>> v, double q);

/// An ordered list of named metrics with units.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Correctness bookkeeping: every checked trigger, record or key counts as
/// attempted; each wrong one as failed. Keeps the first few messages.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void Check(bool ok, const std::string& what);
  void Fail(const std::string& what) { Check(false, what); }
};

/// The oracle self-check: the workload corrupted one output row and one
/// consumed offset in a copy of its observed output and re-ran its checker
/// into `probe`; exactly those two must fail.
void ExpectSelfCheckTrips(const Tally& probe, Tally* tally);

/// One round of a measured phase: input that became available all at once
/// (a pre-loaded backlog, an appended segment) and the epochs that drained
/// it.
struct Round {
  int64_t records = 0;  // input records consumed by committed epochs
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;   // engine CPU (load generation excluded)
  std::vector<double> epoch_ms;
  /// Per epoch: (time from the input becoming available to its commit,
  /// records it consumed).
  std::vector<std::pair<double, int64_t>> latency_ms;

  double Rps() const;
  double CpuNsPerRec() const;
};

/// Raw measurements of one measured phase.
struct PassStats {
  int64_t epochs = 0;
  std::vector<Round> rounds;
  /// Per (re)start: Start call, and Start return to first commit.
  std::vector<double> restart_start_ms;
  std::vector<double> restart_first_ms;

  void AddRound(Round round);
  /// Sum of the rounds' wall time.
  int64_t WallNs() const;
  /// The slow quartile over rounds (see ReportEndToEnd) of throughput, and
  /// of CPU time per record.
  double RoundRps() const;
  double RoundCpuNsPerRec() const;
};

/// Sets every end-to-end metric from an untraced pass and the set-up times.
/// A wall-clock figure is taken per round, or per start for recovery_s, and
/// reported at its slow quartile over the run: the lower quartile of
/// throughput, the upper quartile of times and of CPU time per record.
void ReportEndToEnd(const PassStats& pass, const std::vector<double>& setup_s,
                    Metrics* metrics);

/// Sets the per-layer metrics that compare passes: tracing overhead (CPU per
/// record, traced vs untraced), the speedup of the whole thread budget over
/// the measured one-worker configuration, and the two halves of a restart.
void ReportPassComparison(const PassStats& untraced, const PassStats& traced,
                          const PassStats& full_budget, Metrics* metrics);

/// What one workload run reports.
struct Outcome {
  Tally tally;
  Metrics metrics;
  /// Human-readable extra facts printed before the result line.
  std::vector<std::string> notes;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
