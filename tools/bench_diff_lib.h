// Comparison engine behind tools/bench_diff: walks a baseline and a
// candidate benchmark JSON document (the schema emitted by
// bench/common/harness via --json, see docs/benchmarking.md) and
// classifies every leaf-level difference. Split from the binary so the
// pass/regress/missing-metric logic is unit-testable.
#ifndef GAMMA_TOOLS_BENCH_DIFF_LIB_H_
#define GAMMA_TOOLS_BENCH_DIFF_LIB_H_

#include <string>
#include <vector>

#include "common/json.h"

namespace gammadb::tools {

struct DiffOptions {
  /// Relative tolerance for time metrics (keys ending in "seconds"): a
  /// candidate value above baseline * (1 + tolerance) is a regression.
  double seconds_tolerance = 0.05;
};

enum class DiffKind {
  kRegression,   // time metric above tolerance, or counter drift
  kImprovement,  // time metric below baseline by more than tolerance
  kInfo,         // non-gated difference
  kMissing,      // metric present in baseline, absent in candidate
  kExtra,        // metric present in candidate, absent in baseline
};

struct DiffEntry {
  DiffKind kind;
  std::string path;     // e.g. "runs[3].metrics.response_seconds"
  std::string message;  // human-readable delta description
};

struct DiffReport {
  std::vector<DiffEntry> entries;
  int compared_metrics = 0;

  int CountOf(DiffKind kind) const;
  int regressions() const { return CountOf(DiffKind::kRegression); }
  int missing() const { return CountOf(DiffKind::kMissing); }
  int extras() const { return CountOf(DiffKind::kExtra); }
  /// The CI gate: regressions, missing metrics, or candidate-only
  /// metrics fail the build (an extra key means the baseline is stale —
  /// refresh it deliberately rather than letting new metrics go
  /// ungated; see docs/skew.md).
  bool Passed() const {
    return regressions() == 0 && missing() == 0 && extras() == 0;
  }
};

/// RFC 6901 JSON-pointer form of a dotted diff path:
/// "runs[3].metrics.response_seconds" -> "/runs/3/metrics/response_seconds"
/// ("~" and "/" inside keys are escaped as "~0" / "~1"). Error messages
/// use this form so the offending location can be pasted into any
/// JSON-pointer-aware tool.
std::string JsonPointerOf(const std::string& path);

/// Compares every metric of `baseline` against `candidate`. Metrics
/// present only in the baseline are kMissing; metrics present only in
/// the candidate are kExtra — both fail the gate, so schema growth
/// always comes with a baseline refresh.
/// Host metrics ("real_seconds", "wall_seconds", "threads",
/// "num_threads") describe the machine running the benchmark, not the
/// simulated workload: they are always kInfo, never gated or missing.
///
/// Documents with different "schema_version" values (or with the key on
/// only one side) are not comparable runs: the report then holds a
/// single kRegression entry naming the offending JSON pointer
/// ("/schema_version") and both values, and the metric walk is skipped
/// so the mismatch is not buried under hundreds of follow-on diffs.
DiffReport DiffBenchJson(const JsonValue& baseline, const JsonValue& candidate,
                         const DiffOptions& options);

/// Formats the report for the console: one line per entry plus a
/// summary line.
std::string FormatReport(const DiffReport& report);

}  // namespace gammadb::tools

#endif  // GAMMA_TOOLS_BENCH_DIFF_LIB_H_
