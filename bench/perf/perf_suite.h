// perf_suite: the host-time benchmark (README.md). Declarations shared by
// the end-to-end run (perf_suite.cc) and the traced per-layer run
// (layers.cc).
#ifndef GAMMA_BENCH_PERF_PERF_SUITE_H_
#define GAMMA_BENCH_PERF_PERF_SUITE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gamma/catalog.h"
#include "join/driver.h"
#include "sim/machine.h"

namespace gammadb::perf {

/// One join of a workload's pass.
struct Shape {
  join::Algorithm algorithm;
  double memory_ratio;
};

/// A fixed workload: joinABprime on the local configuration (8 disk
/// nodes), issued in a closed loop by one client.
struct Workload {
  std::string name;
  uint32_t outer_tuples;
  uint32_t inner_tuples;
  /// Join on the declustering attribute unique1 (else on unique2).
  bool hpja;
  int threads;
  /// The joins of one pass, issued in this order.
  std::vector<Shape> shapes;
  std::optional<int> num_buckets;
  double memory_slack = 0.35;
};

/// The workload called `name`, at full scale or, with `smoke`, at
/// 10k x 1k. Returns nullopt for an unknown name.
std::optional<Workload> FindWorkload(const std::string& name, bool smoke);

/// A machine with the workload's dataset loaded.
struct Env {
  std::unique_ptr<sim::Machine> machine;
  db::Catalog catalog;  // destroyed before the machine it points into
  db::StoredRelation* outer = nullptr;
  db::StoredRelation* inner = nullptr;
};

sim::MachineConfig MachineConfigFor(const Workload& workload);

/// The join attribute: unique1 for HPJA workloads, else unique2.
int JoinField(const Workload& workload);

/// The JoinSpec of one shape, storing its result as `result_name`.
join::JoinSpec SpecFor(const Workload& workload, const Shape& shape,
                       const std::string& result_name);

/// What the checked verification join of one shape established; every
/// later join of that shape must reproduce it.
struct Verified {
  join::JoinStats stats;
  sim::RunMetrics metrics;
  /// ht_overflows of each disk node (indexed like DiskNodeIds()).
  std::vector<int64_t> node_overflows;
};

/// Tallies checked operations (joins, replays) and the failed ones. A
/// failed check is counted and reported on stderr; it never aborts.
class Checker {
 public:
  /// Starts one checked operation.
  void Begin() {
    ++attempted_;
    current_failed_ = false;
  }
  /// Records a failed check when `ok` is false, counting the current
  /// operation as failed once however many of its checks fail. Returns
  /// `ok`.
  bool Expect(bool ok, const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t reported_ = 0;
  bool current_failed_ = false;
};

/// Host-clock start and end of a timed call (spans.h NowSeconds()), and
/// the CPU seconds all threads of the process used during it.
struct Interval {
  double start = 0;
  double end = 0;
  double cpu = 0;
  double seconds() const { return end - start; }
};

/// Runs one join of `shape` and checks the returned Status, the result
/// cardinality and, once `verified` is known, the simulated response
/// time. Drops the result relation.
/// `timed`, when non-null, receives the interval and CPU time of the
/// ExecuteJoin call alone. Returns the output when every check passed.
std::optional<join::JoinOutput> RunCheckedJoin(Env& env,
                                               const Workload& workload,
                                               const Shape& shape,
                                               const Verified* verified,
                                               Checker* checker,
                                               Interval* timed = nullptr);

/// Runs the checked verification join of every shape: a capture_results
/// join whose digest must equal the benchmark-local reference digest.
std::vector<Verified> VerifyShapes(Env& env, const Workload& workload,
                                   Checker* checker);

/// Makes glibc keep every freed page in the process (no mmap'ed chunks,
/// no trimming), so every set-up and join after the first reuses memory
/// the process already holds. Called once, before anything is
/// allocated. Left to itself, glibc sometimes keeps freed pages and
/// sometimes returns them, in stretches that last many joins; returning
/// them all before each join instead makes every join pay for page
/// faults, whose cost on a shared VM moves with the host and doubled the
/// sweep's run-to-run spread (README.md, "Why the heap keeps its pages").
void KeepFreedMemory();

/// Median and linearly interpolated quantile of unsorted samples.
double Quantile(std::vector<double> samples, double q);

/// The calibration kernel: fixed, benchmark-local work whose time moves
/// only with the host, never with the code under test. One thread, in
/// three parts: it copies 208-byte records (a Wisconsin tuple) from
/// random offsets of a 64 MiB region, builds and probes a 2 MiB
/// open-addressing hash table (half the kernel's time), and runs a
/// dependent chain of Mix64 calls. On a shared host the joins' speed
/// moves with other tenants' memory traffic, cache pressure and the core
/// clock, and each part moves with one of them; a join's CPU time
/// divided by the kernel's time around it is steady where raw seconds
/// are not (README.md, "Why CPU time, in kernel units").
class Calibration {
 public:
  Calibration();

  /// Runs the kernel kRepeats times; returns the fastest run's wall
  /// seconds, which is less noisy than any one run.
  double Run();

 private:
  static constexpr int kRepeats = 3;
  double RunOnce();

  std::vector<uint8_t> region_;
  std::vector<uint8_t> sink_;
  std::vector<uint64_t> table_;
};

/// A metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints one "name value unit" line.
void PrintMetric(const Metric& m);

/// The traced run (--trace-layers): replays the workload's layers
/// through their public functions and returns the per-layer metrics.
/// Spans are written to `spans_path` unless it is empty.
std::vector<Metric> RunTracedLayers(const Workload& workload, uint64_t seed,
                                    const std::string& spans_path,
                                    Checker* checker);

}  // namespace gammadb::perf

#endif  // GAMMA_BENCH_PERF_PERF_SUITE_H_
