// The benchmark workloads. Each runs in two modes: untraced (stock
// engine objects only; reports the end-to-end metrics) and traced (reports
// the per-layer metrics, plus the untraced/traced overhead and the
// single-thread baseline). See README.md for what each one stresses.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "measure.h"

namespace perfbench {

/// Fig. 6 methodology: closed-loop drains of a pre-loaded Yahoo backlog.
Outcome RunYahooDrain(const RunConfig& config);

/// Per-user running count over ~500k skewed keys with a durable checkpoint,
/// dropped and recovered mid-run.
Outcome RunKeyedDurable(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
