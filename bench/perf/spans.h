// Host-time measurement for perf_suite: the host clocks and the in-memory
// span log of the traced run (README.md, "Traced run").
//
// spans.cc is the only file of the benchmark that reads the host clocks.
// Host time never reaches the simulator: the benchmark only reads the
// clocks around calls into the public APIs of src/.
#ifndef GAMMA_BENCH_PERF_SPANS_H_
#define GAMMA_BENCH_PERF_SPANS_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace gammadb::perf {

/// Seconds on the host's monotonic clock, from an arbitrary epoch.
double NowSeconds();

/// CPU seconds used so far by all threads of this process, user and
/// system (CLOCK_PROCESS_CPUTIME_ID). Time a thread spends blocked, such
/// as an executor worker waiting for its next phase, is not counted.
double CpuSeconds();

/// One timed interval. `parent` indexes the enclosing span (-1 for a
/// root); every span of one replay pass carries that pass's `join_id`.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int join_id = 0;
};

/// Nested spans, kept in memory and written out when the run ends.
/// Main thread only: spans bracket whole Machine::RunOnNodes rounds,
/// never the node tasks inside them, so siblings never overlap.
class SpanLog {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int Open(std::string name, int join_id);
  /// Closes the innermost open span, which must be `index`.
  void Close(int index);
  /// Records an interval measured elsewhere as a closed child of the
  /// innermost open span.
  void Add(std::string name, int join_id, double start, double end);

  /// Sum of the self times (duration minus the time covered by direct
  /// children) of the spans named `name` in pass `join_id`.
  double SelfSecondsOf(const std::string& name, int join_id) const;

  /// Writes {"spans": [{name, start_s, end_s, parent, join_id}, ...]}
  /// with times relative to the first span's start.
  Status WriteJson(const std::string& path) const;

 private:
  void Finish(int index, double end);
  double SelfSeconds(int index) const;

  std::vector<Span> spans_;
  std::vector<double> child_seconds_;  // parallel to spans_
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int join_id)
      : log_(log), index_(log->Open(std::move(name), join_id)) {}
  ~ScopedSpan() { log_->Close(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace gammadb::perf

#endif  // GAMMA_BENCH_PERF_SPANS_H_
