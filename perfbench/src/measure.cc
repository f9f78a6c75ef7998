#include "measure.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "common/clock.h"

namespace perfbench {

namespace {

int64_t RusageNs(int who) {
  struct rusage ru {};
  getrusage(who, &ru);
  auto ns = [](const struct timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

}  // namespace

int64_t NowNs() { return sstreaming::MonotonicNanos(); }

int64_t ProcessCpuNs() { return RusageNs(RUSAGE_SELF); }

namespace {

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void SetAllowedCpus(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);  // best effort: a hint, not a must
}

}  // namespace

CpuScope::CpuScope(bool one_cpu) : previous_(AllowedCpus()) {
  static const std::vector<int> process_cpus = AllowedCpus();
  if (one_cpu && !previous_.empty()) {
    SetAllowedCpus({previous_.back()});
  } else {
    SetAllowedCpus(process_cpus);
  }
}

CpuScope::~CpuScope() { SetAllowedCpus(previous_); }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

int64_t DirBytes(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return 0;
  int64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += static_cast<int64_t>(it->file_size(ec));
    }
  }
  return total;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  size_t idx = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

double WeightedQuantile(std::vector<std::pair<double, int64_t>> v, double q) {
  int64_t total = 0;
  for (const auto& [value, weight] : v) total += weight;
  if (total == 0) return 0;
  std::sort(v.begin(), v.end());
  int64_t rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(total)));
  rank = std::max<int64_t>(rank, 1);
  int64_t seen = 0;
  for (const auto& [value, weight] : v) {
    seen += weight;
    if (seen >= rank) return value;
  }
  return v.back().first;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

void Tally::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

void ExpectSelfCheckTrips(const Tally& probe, Tally* tally) {
  tally->Check(probe.failed == 2,
               "oracle self-check: one corrupted row and one corrupted offset "
               "gave " + std::to_string(probe.failed) +
                   " failure(s), expected 2");
}

double Round::Rps() const {
  return wall_ns > 0 ? static_cast<double>(records) * 1e9 /
                           static_cast<double>(wall_ns)
                     : 0;
}

double Round::CpuNsPerRec() const {
  return records > 0
             ? static_cast<double>(cpu_ns) / static_cast<double>(records)
             : 0;
}

void PassStats::AddRound(Round round) {
  epochs += static_cast<int64_t>(round.epoch_ms.size());
  rounds.push_back(std::move(round));
}

int64_t PassStats::WallNs() const {
  int64_t total = 0;
  for (const Round& r : rounds) total += r.wall_ns;
  return total;
}

double PassStats::RoundRps() const {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(r.Rps());
  return Quantile(v, 0.25);
}

double PassStats::RoundCpuNsPerRec() const {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(r.CpuNsPerRec());
  return Quantile(v, 0.75);
}

void ReportEndToEnd(const PassStats& pass, const std::vector<double>& setup_s,
                    Metrics* m) {
  std::vector<double> recovery_s;
  for (size_t i = 0; i < pass.restart_start_ms.size(); ++i) {
    recovery_s.push_back(
        (pass.restart_start_ms[i] + pass.restart_first_ms[i]) / 1e3);
  }
  // On a shared host the rounds of one run alternate between a steady
  // level and bursts in which neighbours leave the machine idle and the
  // same work runs up to 1.6x faster. The slow quartile tracks the steady
  // level; a median moves with the share of bursts in the run.
  std::vector<double> epoch_p50, epoch_p95, latency_p50, latency_p99;
  for (const Round& round : pass.rounds) {
    epoch_p50.push_back(Quantile(round.epoch_ms, 0.50));
    epoch_p95.push_back(Quantile(round.epoch_ms, 0.95));
    latency_p50.push_back(WeightedQuantile(round.latency_ms, 0.50));
    latency_p99.push_back(WeightedQuantile(round.latency_ms, 0.99));
  }
  m->Set("setup_s", Median(setup_s), "s");
  m->Set("throughput_rps", pass.RoundRps(), "rec/s");
  m->Set("cpu_ns_per_rec", pass.RoundCpuNsPerRec(), "ns");
  m->Set("epoch_p50_ms", Quantile(epoch_p50, 0.75), "ms");
  m->Set("epoch_p95_ms", Quantile(epoch_p95, 0.75), "ms");
  m->Set("latency_p50_ms", Quantile(latency_p50, 0.75), "ms");
  m->Set("latency_p99_ms", Quantile(latency_p99, 0.75), "ms");
  m->Set("recovery_s", Quantile(recovery_s, 0.75), "s");
  m->Set("rss_peak_mb", PeakRssMb(), "MB");
}

void ReportPassComparison(const PassStats& untraced, const PassStats& traced,
                          const PassStats& full_budget, Metrics* m) {
  const double base = untraced.RoundCpuNsPerRec();
  m->Set("trace.overhead_pct",
         base > 0 ? (traced.RoundCpuNsPerRec() / base - 1.0) * 100.0 : 0,
         "%");
  const double one = untraced.RoundRps();
  m->Set("runtime.speedup_4v1", one > 0 ? full_budget.RoundRps() / one : 0,
         "ratio");
  m->Set("exec.restart_start_ms", Median(traced.restart_start_ms), "ms");
  m->Set("exec.restart_first_epoch_ms", Median(traced.restart_first_ms), "ms");
}

}  // namespace perfbench
