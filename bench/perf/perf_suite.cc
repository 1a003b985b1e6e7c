// perf_suite: the repository's host-time benchmark (README.md).
//
//   perf_suite --workload <name> [--seed N] [--seconds S] [--smoke]
//              [--trace-layers [--spans <path>]]
//
// Without --trace-layers it runs the workload's joins in a closed loop
// (one client; each join is issued after the previous one returns) for
// --seconds of wall time, times every join::ExecuteJoin call, checks
// every answer and prints the end-to-end metrics. With --trace-layers it
// instead replays the workload's layers from outside (layers.cc) and
// prints the per-layer metrics. Either way the last line of standard
// output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include "perf/perf_suite.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "common/hash.h"
#include "common/json.h"
#include "common/strings.h"
#include "join/digest.h"
#include "perf/spans.h"
#include "testing/oracle.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::perf {

namespace {

constexpr char kResultName[] = "perf_result";
/// setup_s is the median of at least kMinSetups constructions, and of as
/// many more as fit in kSetupSeconds (a short set-up is noisy).
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 40;
constexpr double kSetupSeconds = 2.0;
/// setup_s converts set-up time from kernel units back to seconds at this
/// kernel time: the median of Calibration::Run() on the quiet 4-vCPU
/// Xeon VM the benchmark was developed on (README.md).
constexpr double kReferenceKernelSeconds = 0.008;
/// The loop runs past --seconds until it has kMinSamples joins, but
/// never past kMinSamplesSeconds for that reason alone.
constexpr size_t kMinSamples = 100;
constexpr double kMinSamplesSeconds = 30;
/// Bounds a run on a slow machine well inside the 180 s a run may take.
constexpr double kMaxLoopSeconds = 120;
constexpr int kMaxReportedFailures = 10;

std::unique_ptr<Env> LoadEnv(const Workload& workload, uint64_t seed) {
  auto env = std::make_unique<Env>();
  env->machine = std::make_unique<sim::Machine>(MachineConfigFor(workload));
  wisconsin::DatasetOptions options;
  options.outer_cardinality = workload.outer_tuples;
  options.inner_cardinality = workload.inner_tuples;
  options.seed = seed;
  auto loaded =
      wisconsin::LoadJoinABprime(*env->machine, env->catalog, options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "loading joinABprime failed: %s\n",
                 loaded.status().ToString().c_str());
    return nullptr;
  }
  env->outer = loaded->outer;
  env->inner = loaded->inner;
  return env;
}

/// The benchmark-local reference: an O(|R| + |S|) hash join of the
/// stored relations on `field`, digested exactly as the engines digest
/// their results. Reads with the uncharged Peek paths.
join::ResultDigest ReferenceDigest(const db::StoredRelation& inner,
                                   const db::StoredRelation& outer,
                                   int field) {
  const auto key_field = static_cast<size_t>(field);
  const std::vector<storage::Tuple> r = inner.PeekAllTuples();
  std::unordered_multimap<int32_t, size_t> by_key;
  by_key.reserve(r.size());
  for (size_t i = 0; i < r.size(); ++i) {
    by_key.emplace(r[i].GetInt32(inner.schema(), key_field), i);
  }
  join::DigestAccumulator acc;
  // Fragment by fragment, so the outer relation is never copied whole.
  for (size_t f = 0; f < outer.num_fragments(); ++f) {
    for (const storage::Tuple& s : outer.fragment(f).PeekAll()) {
      const int32_t key = s.GetInt32(outer.schema(), key_field);
      const auto [begin, end] = by_key.equal_range(key);
      for (auto it = begin; it != end; ++it) {
        const storage::Tuple& match = r[it->second];
        acc.AddPair(key, match.data(), match.size(), s.data(), s.size());
      }
    }
  }
  return acc.digest();
}

/// Checks the reference digest itself against the nested-loop oracle,
/// at 10k x 1k where the oracle's O(|R| * |S|) cost is small.
void CheckReferenceAgainstOracle(uint64_t seed, Checker* checker) {
  Workload small;
  small.name = "oracle_check";
  small.outer_tuples = 10000;
  small.inner_tuples = 1000;
  small.hpja = true;
  small.threads = 1;
  const std::unique_ptr<Env> env = LoadEnv(small, seed);
  for (const int field :
       {wisconsin::fields::kUnique1, wisconsin::fields::kUnique2}) {
    checker->Begin();
    if (!checker->Expect(env != nullptr, "load the oracle-check dataset")) {
      continue;
    }
    join::JoinSpec spec;
    spec.inner_relation = env->inner->name();
    spec.outer_relation = env->outer->name();
    spec.inner_field = field;
    spec.outer_field = field;
    const auto oracle = testing::OracleJoinDigest(env->catalog, spec);
    checker->Expect(
        oracle.ok() &&
            *oracle == ReferenceDigest(*env->inner, *env->outer, field),
        StrFormat("reference digest equals the oracle on field %d", field));
  }
}

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The q-quantile of each shape's join times, averaged over the shapes.
/// A sweep's 36 shapes take from ~6 ms to ~70 ms, and a quantile of the
/// pooled times jumps between those clusters from run to run; each
/// shape's own quantile does not.
double MeanOfQuantiles(const std::vector<std::vector<double>>& per_shape,
                       double q) {
  double sum = 0;
  for (const std::vector<double>& samples : per_shape) {
    sum += Quantile(samples, q);
  }
  return sum / static_cast<double>(per_shape.size());
}

std::vector<double> IntegralBucketRatios() {
  return {1.0,       1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0, 1.0 / 5.0,
          1.0 / 6.0, 1.0 / 7.0, 1.0 / 8.0, 1.0 / 10.0};
}

/// The untraced run: setup, verification, warm-up, then the closed loop.
/// Every gated time is CPU time of the whole process divided by the
/// calibration kernel's time around it (README.md, "Why CPU time, in
/// kernel units"); the wall-clock versions are printed beside them.
std::vector<Metric> RunEndToEnd(const Workload& workload, uint64_t seed,
                                double seconds, Checker* checker) {
  Calibration calibration;
  calibration.Run();  // first touch of its memory

  // setup_s: the median of fresh constructions; the last one is kept.
  // The kernel runs between them, as it does between passes below.
  std::vector<double> setup_wall;
  std::vector<double> setup_calib;
  double setup_total = 0;
  double kernel_before = calibration.Run();
  std::unique_ptr<Env> env;
  while (setup_wall.size() < kMinSetups ||
         (setup_total < kSetupSeconds && setup_wall.size() < kMaxSetups)) {
    env.reset();
    const double cpu_start = CpuSeconds();
    const double start = NowSeconds();
    env = LoadEnv(workload, seed);
    const double took = NowSeconds() - start;
    const double cpu = CpuSeconds() - cpu_start;
    if (env == nullptr) return {};
    const double kernel_after = calibration.Run();
    setup_wall.push_back(took);
    setup_calib.push_back(cpu / ((kernel_before + kernel_after) / 2));
    kernel_before = kernel_after;
    setup_total += took;
  }

  const std::vector<Verified> verified = VerifyShapes(*env, workload, checker);

  // Warm-up: two joins, or one pass when a pass has several joins.
  const int warm_passes = workload.shapes.size() == 1 ? 2 : 1;
  for (int pass = 0; pass < warm_passes; ++pass) {
    for (size_t s = 0; s < workload.shapes.size(); ++s) {
      RunCheckedJoin(*env, workload, workload.shapes[s], &verified[s],
                     checker);
    }
  }

  // The closed loop, in whole passes so every shape of a sweep is
  // sampled equally, and at least kMinSamples joins so ten lie beyond
  // the 90th percentile. The calibration kernel runs between passes;
  // each join, and each pass as a whole, is divided by the mean of the
  // kernel times around its pass.
  const size_t shapes = workload.shapes.size();
  std::vector<std::vector<double>> seconds_per_join(shapes);  // [shape]
  std::vector<std::vector<double>> calib_per_join(shapes);
  std::vector<double> kernel_seconds = {calibration.Run()};
  size_t joins = 0;
  double loop_seconds = 0;  // the passes, without the kernel runs
  double loop_calib = 0;
  const double start = NowSeconds();
  double elapsed = 0;
  do {
    std::vector<Interval> pass_joins(shapes);
    const double pass_start = NowSeconds();
    const double pass_cpu_start = CpuSeconds();
    for (size_t s = 0; s < shapes; ++s) {
      RunCheckedJoin(*env, workload, workload.shapes[s], &verified[s],
                     checker, &pass_joins[s]);
    }
    // The joins and the checks and result drops between them.
    const double pass_cpu = CpuSeconds() - pass_cpu_start;
    loop_seconds += NowSeconds() - pass_start;
    kernel_seconds.push_back(calibration.Run());
    const double kernel =
        (kernel_seconds[kernel_seconds.size() - 2] + kernel_seconds.back()) / 2;
    for (size_t s = 0; s < shapes; ++s) {
      seconds_per_join[s].push_back(pass_joins[s].seconds());
      calib_per_join[s].push_back(pass_joins[s].cpu / kernel);
    }
    joins += shapes;
    loop_calib += pass_cpu / kernel;
    elapsed = NowSeconds() - start;
  } while ((elapsed < seconds ||
            (joins < kMinSamples && elapsed < kMinSamplesSeconds)) &&
           elapsed < kMaxLoopSeconds);

  const double tuples =
      (static_cast<double>(workload.outer_tuples) + workload.inner_tuples) *
      static_cast<double>(joins);
  std::fprintf(stdout, "%s: %zu timed joins in %.3f s (seed %llu)\n",
               workload.name.c_str(), joins, elapsed,
               static_cast<unsigned long long>(seed));
  // Wall-clock seconds, for reading beside the drift canary; they are
  // not gated (README.md).
  PrintMetric({"join_s_p50", MeanOfQuantiles(seconds_per_join, 0.5), "s"});
  PrintMetric({"join_s_p90", MeanOfQuantiles(seconds_per_join, 0.9), "s"});
  PrintMetric({"tuples_per_s", tuples / loop_seconds, "tuples/s"});
  PrintMetric({"setup_wall_s", Quantile(setup_wall, 0.5), "s"});
  PrintMetric({"bench.calib_s", Quantile(kernel_seconds, 0.5), "s"});
  return {
      {"join_cpu_p50_calib", MeanOfQuantiles(calib_per_join, 0.5), "calib"},
      {"join_cpu_p90_calib", MeanOfQuantiles(calib_per_join, 0.9), "calib"},
      // Closed-loop throughput: everything the loop did between kernel
      // runs, result drops and checks included.
      {"tuples_per_cpu_calib", tuples / loop_calib, "tuples/calib"},
      {"setup_s", Quantile(setup_calib, 0.5) * kReferenceKernelSeconds, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

[[noreturn]] void Usage(const char* argv0, const std::string& error) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload <name> [--seed N] [--seconds S] "
               "[--smoke] [--trace-layers [--spans <path>]]\n"
               "workloads: probe_1m_t1 spill_1m_t4 sortmerge_1m_t4 "
               "sweep_100k_t4\n",
               error.c_str(), argv0);
  std::exit(2);
}

}  // namespace

std::optional<Workload> FindWorkload(const std::string& name, bool smoke) {
  const uint32_t large_outer = smoke ? 10000 : 1000000;
  const uint32_t large_inner = smoke ? 1000 : 100000;
  Workload w;
  w.name = name;
  w.outer_tuples = large_outer;
  w.inner_tuples = large_inner;
  w.hpja = true;
  w.threads = 4;
  if (name == "probe_1m_t1") {
    w.threads = 1;
    w.shapes = {{join::Algorithm::kSimpleHash, 1.0}};
  } else if (name == "spill_1m_t4") {
    w.hpja = false;
    w.shapes = {{join::Algorithm::kHybridHash, 0.6}};
    w.num_buckets = 1;
    w.memory_slack = 0.08;
  } else if (name == "sortmerge_1m_t4") {
    w.shapes = {{join::Algorithm::kSortMerge, 0.5}};
  } else if (name == "sweep_100k_t4") {
    w.outer_tuples = smoke ? 10000 : 100000;
    w.inner_tuples = smoke ? 1000 : 10000;
    // The Figure 5 matrix, in the paper's series order.
    for (const join::Algorithm algorithm :
         {join::Algorithm::kHybridHash, join::Algorithm::kGraceHash,
          join::Algorithm::kSimpleHash, join::Algorithm::kSortMerge}) {
      for (const double ratio : IntegralBucketRatios()) {
        w.shapes.push_back({algorithm, ratio});
      }
    }
  } else {
    return std::nullopt;
  }
  return w;
}

int JoinField(const Workload& workload) {
  return workload.hpja ? wisconsin::fields::kUnique1
                       : wisconsin::fields::kUnique2;
}

sim::MachineConfig MachineConfigFor(const Workload& workload) {
  sim::MachineConfig config;
  config.num_disk_nodes = 8;
  config.num_diskless_nodes = 0;
  config.num_threads = workload.threads;
  return config;
}

join::JoinSpec SpecFor(const Workload& workload, const Shape& shape,
                       const std::string& result_name) {
  join::JoinSpec spec;
  spec.inner_relation = "Bprime";
  spec.outer_relation = "A";
  spec.inner_field = JoinField(workload);
  spec.outer_field = JoinField(workload);
  spec.algorithm = shape.algorithm;
  spec.memory_ratio = shape.memory_ratio;
  spec.memory_slack = workload.memory_slack;
  spec.num_buckets = workload.num_buckets;
  spec.result_name = result_name;
  return spec;
}

bool Checker::Expect(bool ok, const std::string& what) {
  if (ok) return true;
  if (!current_failed_) ++failed_;
  current_failed_ = true;
  if (++reported_ <= kMaxReportedFailures) {
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  return false;
}

std::optional<join::JoinOutput> RunCheckedJoin(Env& env,
                                               const Workload& workload,
                                               const Shape& shape,
                                               const Verified* verified,
                                               Checker* checker,
                                               Interval* timed) {
  checker->Begin();
  const join::JoinSpec spec = SpecFor(workload, shape, kResultName);
  const double cpu_start = CpuSeconds();
  const double start = NowSeconds();
  Result<join::JoinOutput> out =
      join::ExecuteJoin(*env.machine, env.catalog, spec);
  if (timed != nullptr) {
    *timed = {start, NowSeconds(), CpuSeconds() - cpu_start};
  }
  if (!checker->Expect(out.ok(), "ExecuteJoin returned " +
                                     out.status().ToString())) {
    return std::nullopt;
  }
  bool ok = checker->Expect(out->stats.result_tuples == workload.inner_tuples,
                            "result cardinality");
  if (verified != nullptr) {
    ok = checker->Expect(out->metrics.response_seconds ==
                             verified->metrics.response_seconds,
                         "simulated response time differs from the "
                         "verification join's") &&
         ok;
  }
  ok = checker->Expect(env.catalog.Drop(spec.result_name).ok(),
                       "drop the result relation") &&
       ok;
  if (!ok) return std::nullopt;
  return std::move(out).value();
}

std::vector<Verified> VerifyShapes(Env& env, const Workload& workload,
                                   Checker* checker) {
  const join::ResultDigest reference =
      ReferenceDigest(*env.inner, *env.outer, JoinField(workload));
  std::vector<Verified> verified(workload.shapes.size());
  for (size_t s = 0; s < workload.shapes.size(); ++s) {
    checker->Begin();
    join::JoinSpec spec = SpecFor(workload, workload.shapes[s], kResultName);
    spec.capture_results = true;
    auto out = join::ExecuteJoin(*env.machine, env.catalog, spec);
    const std::string label =
        StrFormat("%s at memory ratio %.3f",
                  join::AlgorithmName(workload.shapes[s].algorithm),
                  workload.shapes[s].memory_ratio);
    if (!checker->Expect(out.ok(), label + ": " + out.status().ToString())) {
      continue;
    }
    checker->Expect(out->result_digest.has_value() &&
                        *out->result_digest == reference,
                    label + ": result digest differs from the reference");
    checker->Expect(out->stats.result_tuples == workload.inner_tuples,
                    label + ": result cardinality");
    checker->Expect(env.catalog.Drop(spec.result_name).ok(),
                    label + ": drop the result relation");
    verified[s].stats = out->stats;
    verified[s].metrics = out->metrics;
    for (const int id : env.machine->DiskNodeIds()) {
      verified[s].node_overflows.push_back(
          env.machine->node(id).counters().ht_overflows);
    }
  }
  return verified;
}

void KeepFreedMemory() {
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

Calibration::Calibration()
    : region_(size_t{64} << 20, 1),
      sink_(size_t{208} << 12, 0),
      table_(size_t{1} << 18, 0) {}

double Calibration::RunOnce() {
  constexpr size_t kRecord = 208;
  constexpr int kCopies = 25000;
  constexpr uint64_t kKeys = 100000;  // 38% of the table's slots
  constexpr int kChain = 375000;
  const size_t slots = sink_.size() / kRecord;
  const size_t mask = table_.size() - 1;
  const double start = NowSeconds();
  uint64_t x = 0;
  for (int i = 0; i < kCopies; ++i) {
    x = Mix64(x + static_cast<uint64_t>(i));
    std::memcpy(&sink_[kRecord * (static_cast<size_t>(i) % slots)],
                &region_[x % (region_.size() - kRecord)], kRecord);
  }
  std::fill(table_.begin(), table_.end(), 0);
  for (uint64_t key = 1; key <= kKeys; ++key) {
    size_t slot = Mix64(key) & mask;
    while (table_[slot] != 0) slot = (slot + 1) & mask;
    table_[slot] = key;
  }
  // Probe every key and as many absent ones: half the probes hit.
  uint64_t hits = 0;
  for (uint64_t key = 1; key <= 2 * kKeys; ++key) {
    for (size_t slot = Mix64(key) & mask; table_[slot] != 0;
         slot = (slot + 1) & mask) {
      if (table_[slot] == key) {
        ++hits;
        break;
      }
    }
  }
  for (int i = 0; i < kChain; ++i) x = Mix64(x + static_cast<uint64_t>(i));
  sink_[0] = static_cast<uint8_t>(x + hits);  // keeps the results live
  return NowSeconds() - start;
}

double Calibration::Run() {
  double fastest = RunOnce();
  for (int i = 1; i < kRepeats; ++i) fastest = std::min(fastest, RunOnce());
  return fastest;
}

void PrintMetric(const Metric& m) {
  std::fprintf(stdout, "%-28s %16.9g %s\n", m.name.c_str(), m.value,
               m.unit.c_str());
}

}  // namespace gammadb::perf

int main(int argc, char** argv) {
  using gammadb::perf::Metric;
  std::string workload_name;
  std::string spans_path;
  int64_t seed = 42;
  double seconds = 20;
  bool smoke = false;
  bool trace_layers = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        gammadb::perf::Usage(argv[0], std::string(flag) + " needs a value");
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload_name = value("--workload");
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (!gammadb::ParseInt64(value("--seed"), &seed) || seed < 0) {
        gammadb::perf::Usage(argv[0], "--seed needs a non-negative integer");
      }
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      if (!gammadb::ParseDouble(value("--seconds"), &seconds) ||
          !(seconds >= 0)) {
        gammadb::perf::Usage(argv[0], "--seconds needs a non-negative number");
      }
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--trace-layers") == 0) {
      trace_layers = true;
    } else if (std::strcmp(argv[i], "--spans") == 0) {
      spans_path = value("--spans");
    } else {
      gammadb::perf::Usage(argv[0],
                           std::string("unknown flag ") + argv[i]);
    }
  }
  const auto workload = gammadb::perf::FindWorkload(workload_name, smoke);
  if (!workload.has_value()) {
    gammadb::perf::Usage(argv[0], "unknown workload '" + workload_name + "'");
  }

  gammadb::perf::KeepFreedMemory();
  gammadb::perf::Checker checker;
  gammadb::perf::CheckReferenceAgainstOracle(static_cast<uint64_t>(seed),
                                             &checker);
  std::vector<Metric> metrics =
      trace_layers
          ? gammadb::perf::RunTracedLayers(*workload,
                                           static_cast<uint64_t>(seed),
                                           spans_path, &checker)
          : gammadb::perf::RunEndToEnd(*workload, static_cast<uint64_t>(seed),
                                       seconds, &checker);
  if (metrics.empty()) return 1;  // set-up failed; no result to report

  const double failed_frac = static_cast<double>(checker.failed()) /
                             static_cast<double>(checker.attempted());
  for (const Metric& m : metrics) gammadb::perf::PrintMetric(m);
  gammadb::perf::PrintMetric({"failed_frac", failed_frac, "ratio"});

  gammadb::JsonValue result = gammadb::JsonValue::MakeObject();
  result.Set("correct", checker.failed() == 0);
  result.Set("attempted", checker.attempted());
  result.Set("failed", checker.failed());
  gammadb::JsonValue values = gammadb::JsonValue::MakeObject();
  for (const Metric& m : metrics) {
    gammadb::JsonValue entry = gammadb::JsonValue::MakeObject();
    entry.Set("value", m.value);
    entry.Set("unit", m.unit);
    values.Set(m.name, std::move(entry));
  }
  result.Set("metrics", std::move(values));
  std::fprintf(stdout, "%s\n", result.Dump().c_str());
  return 0;
}
