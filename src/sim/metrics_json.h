// JSON serialization of the simulator's metrics types.
//
// The benchmark harness emits one schema-versioned JSON document per
// benchmark run (docs/benchmarking.md); these converters produce the
// "metrics" subtree: response time, all Counters fields, and per-phase
// per-node cpu/disk seconds so a phase-level regression is attributable
// to the node and phase that caused it.
#ifndef GAMMA_SIM_METRICS_JSON_H_
#define GAMMA_SIM_METRICS_JSON_H_

#include "common/json.h"
#include "sim/metrics.h"

namespace gammadb::sim {

/// Version of the benchmark JSON document layout. Bump when a field is
/// renamed or removed (additions are backward compatible — bench_diff
/// ignores metrics missing from the baseline).
inline constexpr int kMetricsSchemaVersion = 1;

/// Every kCounterFields entry of an engaged group (kCore always), keyed
/// by name in table order, plus the derived short_circuit_fraction.
JsonValue CountersToJson(const Counters& counters);

/// Phase label, scheduler/ring/elapsed seconds, and per-node
/// {cpu_seconds, disk_seconds} indexed by node id. With
/// `include_attribution` each node additionally carries an
/// "attribution" object (nonzero cost categories only,
/// sim/metrics.h CostCategoryName keys) and the phase a "ring"
/// decomposition; off by default so existing baselines stay
/// byte-identical.
JsonValue PhaseRecordToJson(const PhaseRecord& phase,
                            bool include_attribution = false);

/// Full RunMetrics: response_seconds, aggregate cpu/disk seconds,
/// counters, and the phase list. With `include_attribution`, phases
/// carry per-node attribution and the document gains an
/// "attribution_totals" object summing every category over the run.
JsonValue RunMetricsToJson(const RunMetrics& metrics,
                           bool include_attribution = false);

}  // namespace gammadb::sim

#endif  // GAMMA_SIM_METRICS_JSON_H_
