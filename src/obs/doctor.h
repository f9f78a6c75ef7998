#ifndef SSTREAMING_OBS_DOCTOR_H_
#define SSTREAMING_OBS_DOCTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "obs/progress.h"

namespace sstreaming {

/// One ranked verdict from the bottleneck doctor: what is limiting the
/// query, the numeric evidence, and a concrete next step.
struct DoctorFinding {
  /// Stable verdict id: "sink-bound", "source-starved",
  /// "scheduler-saturated", "stateful-shard-skew", "watermark-lagging",
  /// or "state-growth" (docs/OBSERVABILITY.md catalogues each with its
  /// evidence fields and thresholds).
  std::string verdict;
  /// Severity/confidence in [0, 1]; findings are ranked by it.
  double score = 0;
  /// One sentence with the numbers ("sink commit is 82% of processing
  /// time").
  std::string summary;
  /// A concrete action ("salt the hot key", "widen the trigger
  /// interval", ...).
  std::string suggestion;
  /// The numeric inputs the rule fired on (verdict-specific keys).
  Json evidence = Json::Object();

  Json ToJson() const;
};

/// The doctor's diagnosis for one query over a window of recent epochs.
struct DoctorReport {
  std::string query;
  int64_t epochs_examined = 0;
  int64_t first_epoch = 0;
  int64_t last_epoch = 0;
  /// Ranked, highest score first. Empty = nothing crossed a threshold.
  std::vector<DoctorFinding> findings;

  /// The headline: the top finding's verdict, or "healthy".
  std::string top_verdict() const {
    return findings.empty() ? "healthy" : findings.front().verdict;
  }

  /// {"query", "epochsExamined", "firstEpoch", "lastEpoch", "topVerdict",
  ///  "findings": [...]} — the /queries/<id>/doctor payload and the
  /// "doctor" history event body.
  Json ToJson() const;
  /// Multi-line human rendering (ssctl doctor).
  std::string Render() const;
};

/// Everything the rule engine looks at. Online (the HTTP endpoint, the
/// termination event) and offline (`ssctl doctor` over a checkpoint's
/// _history) both reduce to this struct, and the rules consume only the
/// progress window — so the two paths produce identical verdicts from the
/// same epochs (tested).
struct DoctorInput {
  std::string query_name;
  /// Recent per-epoch progress, chronological. The rules examine the last
  /// 32 entries.
  std::vector<QueryProgress> window;
  /// Scheduler parallelism, for the saturation suggestion (0 = unknown).
  int scheduler_parallelism = 0;
};

/// Runs every rule over `input` and returns the ranked report.
DoctorReport Diagnose(const DoctorInput& input);

/// Offline doctor: rebuilds the progress window from a checkpoint's durable
/// history (`<dir>/_history/events.jsonl`) and diagnoses it — the engine
/// behind `ssctl doctor <checkpoint_dir>`. NotFound when the dir has no
/// history.
Result<DoctorReport> DiagnoseHistory(const std::string& checkpoint_dir);

}  // namespace sstreaming

#endif  // SSTREAMING_OBS_DOCTOR_H_
