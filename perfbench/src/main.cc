// perfbench: one workload run of the wall-clock benchmark.
//
//   perfbench --workload yahoo_drain|keyed_durable --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--commit ID]
//
// Prints a provenance line, one line per note, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics", "provenance"}.
// perfbench/run.py builds this binary and trims that line to the declared
// metrics.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace ss = sstreaming;

const char* BuildType() {
#ifdef PERFBENCH_BUILD_TYPE
  if (PERFBENCH_BUILD_TYPE[0] != '\0') return PERFBENCH_BUILD_TYPE;
#endif
  return "unknown";
}

bool IsOptimizedBuild() {
  return std::strcmp(BuildType(), "Release") == 0 ||
         std::strcmp(BuildType(), "RelWithDebInfo") == 0;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--commit ID]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string workload, commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        config.trace = value == "1";
        have_trace = value == "0" || value == "1";
      } else if (flag == "--work-dir") {
        config.work_dir = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || workload.empty() || !have_seed || !have_seconds ||
      !have_trace || config.work_dir.empty() || config.seconds <= 0) {
    return Usage("missing or malformed arguments");
  }
  if (!IsOptimizedBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 BuildType());
    return 3;
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return Usage(("cannot create work dir " + config.work_dir).c_str());

  Outcome out;
  const int64_t t0 = NowNs();
  if (workload == "yahoo_drain") {
    out = RunYahooDrain(config);
  } else if (workload == "keyed_durable") {
    out = RunKeyedDurable(config);
  } else {
    return Usage(("unknown workload " + workload).c_str());
  }
  const double run_s = static_cast<double>(NowNs() - t0) / 1e9;

  ss::Json provenance = ss::Json::Object();
  provenance.Set("workload", ss::Json::Str(workload));
  provenance.Set("build_type", ss::Json::Str(BuildType()));
  provenance.Set("thread_budget", ss::Json::Int(kThreadBudget));
  provenance.Set("nproc", ss::Json::Int(sysconf(_SC_NPROCESSORS_ONLN)));
  provenance.Set("seed", ss::Json::Int(static_cast<int64_t>(config.seed)));
  provenance.Set("commit", ss::Json::Str(commit));
  provenance.Set("trace", ss::Json::Bool(config.trace));
  provenance.Set("measured_phase_s", ss::Json::Double(config.seconds));
  provenance.Set("run_s", ss::Json::Double(run_s));
  const double error_rate =
      out.tally.attempted > 0 ? static_cast<double>(out.tally.failed) /
                                    static_cast<double>(out.tally.attempted)
                              : 1.0;
  provenance.Set("error_rate", ss::Json::Double(error_rate));

  for (const std::string& note : out.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& error : out.tally.errors) {
    std::printf("FAILED: %s\n", error.c_str());
  }
  ss::Json metrics = ss::Json::Object();
  for (const auto& [name, value_unit] : out.metrics.items()) {
    std::printf("%-32s %16.6f %s\n", name.c_str(), value_unit.first,
                value_unit.second.c_str());
    ss::Json metric = ss::Json::Object();
    metric.Set("value", ss::Json::Double(value_unit.first));
    metric.Set("unit", ss::Json::Str(value_unit.second));
    metrics.Set(name, std::move(metric));
  }
  ss::Json result = ss::Json::Object();
  result.Set("correct", ss::Json::Bool(out.tally.failed == 0 &&
                                       out.tally.attempted > 0));
  result.Set("attempted", ss::Json::Int(out.tally.attempted));
  result.Set("failed", ss::Json::Int(out.tally.failed));
  result.Set("metrics", std::move(metrics));
  result.Set("provenance", std::move(provenance));
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
