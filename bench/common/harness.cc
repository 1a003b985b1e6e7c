#include "common/harness.h"

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>

#include "common/logging.h"
#include "common/strings.h"
#include "sim/metrics_json.h"
#include "sim/trace.h"

namespace gammadb::bench {

namespace {

/// Threads per simulated machine when no override is given: one per
/// hardware thread, clamped to the paper's largest node count.
int DefaultBenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 1;
  return static_cast<int>(hw > 16 ? 16 : hw);
}

/// Process-wide benchmark state set up by InitBench().
struct BenchState {
  std::string benchmark_name;
  std::string json_path;                  // "" = JSON output disabled
  std::string trace_path;                 // "" = tracing disabled
  bool attribution = false;               // per-run attribution in JSON
  std::optional<uint32_t> outer_override;
  std::optional<uint32_t> inner_override;
  int threads = DefaultBenchThreads();
  JsonValue doc = JsonValue::MakeObject();
  sim::Tracer tracer;
};

BenchState& State() {
  static BenchState state;
  return state;
}

bool JsonEnabled() { return !State().json_path.empty(); }

/// The process-wide tracer when --trace / GAMMA_BENCH_TRACE is active,
/// else nullptr. Workload machines attach themselves to it.
sim::Tracer* BenchTracer() {
  BenchState& state = State();
  return state.trace_path.empty() ? nullptr : &state.tracer;
}

void WriteBenchTrace() {
  BenchState& state = State();
  if (state.trace_path.empty()) return;
  Status status = state.tracer.WriteFile(state.trace_path);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", state.trace_path.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "wrote trace JSON to %s\n", state.trace_path.c_str());
}

void WriteBenchJson() {
  BenchState& state = State();
  if (state.json_path.empty()) return;
  Status status = WriteJsonFile(state.json_path, state.doc);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", state.json_path.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "wrote benchmark JSON to %s\n",
               state.json_path.c_str());
}

[[noreturn]] void Usage(const char* argv0, const std::string& error) {
  std::fprintf(stderr,
               "%s\nusage: %s [--json <path>] [--trace <path>] "
               "[--attribution] [--smoke] [--outer <n>] "
               "[--inner <n>] [--threads <n>]\n",
               error.c_str(), argv0);
  std::exit(2);
}

/// Checked numeric flag parsing: atoi-style silent zeros are exactly
/// how "--threads x" used to become a zero-thread run, and an unbounded
/// value wraps when cast to the option's narrower type. Rejects
/// non-numeric values and anything outside [min_value, max_value] with
/// a usage error.
int64_t ParseIntFlag(const char* argv0, const char* flag, const char* text,
                     int64_t min_value, int64_t max_value) {
  int64_t value = 0;
  if (!ParseInt64(text, &value)) {
    Usage(argv0, StrFormat("%s: '%s' is not an integer", flag, text));
  }
  if (value < min_value) {
    Usage(argv0, StrFormat("%s: %lld is below the minimum %lld", flag,
                           static_cast<long long>(value),
                           static_cast<long long>(min_value)));
  }
  if (value > max_value) {
    Usage(argv0, StrFormat("%s: %lld is above the maximum %lld", flag,
                           static_cast<long long>(value),
                           static_cast<long long>(max_value)));
  }
  return value;
}

JsonValue MachineConfigToJson(const sim::MachineConfig& config) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("num_disk_nodes", config.num_disk_nodes);
  out.Set("num_diskless_nodes", config.num_diskless_nodes);
  out.Set("num_threads", config.num_threads);
  return out;
}

/// The run's "stats" object; its operation counts come from the counters.
JsonValue JoinStatsToJson(const join::JoinOutput& output) {
  const join::JoinStats& stats = output.stats;
  const sim::Counters& counters = output.metrics.counters;
  JsonValue out = JsonValue::MakeObject();
  out.Set("num_buckets", stats.num_buckets);
  out.Set("overflow_levels", stats.overflow_levels);
  out.Set("overflow_events", counters.ht_overflows);
  out.Set("avg_chain_length", stats.avg_chain_length);
  out.Set("max_chain_length", stats.max_chain_length);
  out.Set("inner_sort_passes", stats.inner_sort_passes);
  out.Set("outer_sort_passes", stats.outer_sort_passes);
  out.Set("result_tuples", stats.result_tuples);
  out.Set("filter_drops", counters.filter_drops);
  // Rebalance keys appear only when a plan actually fired, so every
  // skew-free baseline document keeps its exact bytes.
  for (const sim::CounterField& field : sim::kCounterFields) {
    if (field.group == sim::CounterGroup::kRebalance &&
        counters.Engaged(field.group)) {
      out.Set(field.name, counters.*field.member);
    }
  }
  // Overflow-path keys likewise appear only when overflow machinery
  // actually engaged, keeping no-overflow baselines byte-identical
  // (docs/overflow.md).
  if (stats.nested_loop_fallbacks > 0) {
    out.Set("nested_loop_fallbacks", stats.nested_loop_fallbacks);
    out.Set("nested_loop_passes", stats.nested_loop_passes);
  }
  if (stats.spill_bytes > 0 || stats.refill_bytes > 0) {
    out.Set("spill_bytes", stats.spill_bytes);
    out.Set("refill_bytes", stats.refill_bytes);
  }
  return out;
}

/// Appends one executed join to the document's "runs" array: enough
/// spec fields to identify the run plus the full metrics tree.
/// `real_seconds` is the measured host wall-clock time of the join —
/// informational only (bench_diff never gates it), it tracks how fast
/// the simulator itself runs at the configured thread count.
void RecordJoinRun(const join::JoinSpec& spec, const join::JoinOutput& output,
                   double real_seconds) {
  if (!JsonEnabled()) return;
  JsonValue run = JsonValue::MakeObject();
  run.Set("algorithm", join::AlgorithmName(spec.algorithm));
  run.Set("inner_relation", spec.inner_relation);
  run.Set("outer_relation", spec.outer_relation);
  run.Set("inner_field", spec.inner_field);
  run.Set("outer_field", spec.outer_field);
  run.Set("memory_ratio", spec.memory_ratio);
  run.Set("bit_filters", spec.use_bit_filters);
  run.Set("forming_bit_filters", spec.use_forming_bit_filters);
  run.Set("remote_join_nodes", !spec.join_nodes.empty());
  if (spec.adaptive_repartition) run.Set("adaptive_repartition", true);
  run.Set("response_seconds", output.response_seconds());
  run.Set("real_seconds", real_seconds);
  run.Set("threads", State().threads);
  run.Set("stats", JoinStatsToJson(output));
  run.Set("metrics",
          sim::RunMetricsToJson(output.metrics, State().attribution));
  JsonValue* runs = State().doc.Find("runs");
  GAMMA_CHECK(runs != nullptr);
  runs->Append(std::move(run));
}

/// Executes `spec`, aborting on error (benchmark context), drops its
/// result relation and records the run with its host wall-clock time.
join::JoinOutput ExecuteAndRecord(sim::Machine& machine, db::Catalog& catalog,
                                  const join::JoinSpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  auto output = join::ExecuteJoin(machine, catalog, spec);
  const std::chrono::duration<double> real =
      std::chrono::steady_clock::now() - start;
  GAMMA_CHECK(output.ok()) << output.status().ToString();
  GAMMA_CHECK_OK(catalog.Drop(spec.result_name));
  RecordJoinRun(spec, *output, real.count());
  return std::move(output).value();
}

void RecordWorkload(const sim::MachineConfig& machine_config,
                    const WorkloadOptions& options) {
  if (!JsonEnabled()) return;
  JsonValue workload = JsonValue::MakeObject();
  workload.Set("machine", MachineConfigToJson(machine_config));
  JsonValue opts = JsonValue::MakeObject();
  opts.Set("hpja", options.hpja);
  opts.Set("with_normal", options.with_normal);
  opts.Set("outer_cardinality", options.outer_cardinality);
  opts.Set("inner_cardinality", options.inner_cardinality);
  opts.Set("seed", static_cast<int64_t>(options.seed));
  workload.Set("options", std::move(opts));
  JsonValue* workloads = State().doc.Find("workloads");
  GAMMA_CHECK(workloads != nullptr);
  workloads->Append(std::move(workload));
}

/// Applies --smoke / --outer / --inner to a workload's options.
void ApplyScaleOverrides(WorkloadOptions& options) {
  if (options.fixed_scale) return;
  const BenchState& state = State();
  if (state.outer_override) options.outer_cardinality = *state.outer_override;
  if (state.inner_override) options.inner_cardinality = *state.inner_override;
}

}  // namespace

void InitBench(int argc, char** argv, const std::string& benchmark_name) {
  BenchState& state = State();
  state.benchmark_name = benchmark_name;
  if (const char* env = std::getenv("GAMMA_BENCH_JSON");
      env != nullptr && env[0] != '\0') {
    state.json_path = env;
  }
  if (const char* env = std::getenv("GAMMA_BENCH_THREADS");
      env != nullptr && env[0] != '\0') {
    state.threads = static_cast<int>(
        ParseIntFlag(argv[0], "GAMMA_BENCH_THREADS", env, 1, INT_MAX));
  }
  if (const char* env = std::getenv("GAMMA_BENCH_TRACE");
      env != nullptr && env[0] != '\0') {
    state.trace_path = env;
  }
  const auto next_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) Usage(argv[0], StrFormat("%s requires a value", flag));
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      state.json_path = next_value(i, "--json");
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      state.json_path = arg + 7;
    } else if (std::strcmp(arg, "--trace") == 0) {
      state.trace_path = next_value(i, "--trace");
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      state.trace_path = arg + 8;
    } else if (std::strcmp(arg, "--attribution") == 0) {
      state.attribution = true;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      state.outer_override = 10000;
      state.inner_override = 1000;
    } else if (std::strcmp(arg, "--outer") == 0) {
      state.outer_override = static_cast<uint32_t>(ParseIntFlag(
          argv[0], "--outer", next_value(i, "--outer"), 1, UINT32_MAX));
    } else if (std::strcmp(arg, "--inner") == 0) {
      state.inner_override = static_cast<uint32_t>(ParseIntFlag(
          argv[0], "--inner", next_value(i, "--inner"), 1, UINT32_MAX));
    } else if (std::strcmp(arg, "--threads") == 0) {
      state.threads = static_cast<int>(ParseIntFlag(
          argv[0], "--threads", next_value(i, "--threads"), 1, INT_MAX));
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      state.threads = static_cast<int>(
          ParseIntFlag(argv[0], "--threads", arg + 10, 1, INT_MAX));
    } else {
      Usage(argv[0], StrFormat("unknown flag '%s'", arg));
    }
  }
  if (JsonEnabled()) {
    state.doc.Set("schema_version", sim::kMetricsSchemaVersion);
    state.doc.Set("benchmark", benchmark_name);
    state.doc.Set("smoke", BenchScaleOverridden());
    state.doc.Set("threads", state.threads);
    state.doc.Set("workloads", JsonValue::MakeArray());
    state.doc.Set("runs", JsonValue::MakeArray());
    state.doc.Set("figures", JsonValue::MakeArray());
    std::atexit(WriteBenchJson);
  }
  if (!state.trace_path.empty()) std::atexit(WriteBenchTrace);
}

bool BenchScaleOverridden() {
  return State().outer_override.has_value() ||
         State().inner_override.has_value();
}

int BenchThreads() { return State().threads; }

size_t ExpectedJoinABprimeResult() {
  return State().inner_override.value_or(10000);
}

void RecordBenchExtra(const std::string& key, JsonValue value) {
  if (!JsonEnabled()) return;
  State().doc.Set(key, std::move(value));
}

sim::MachineConfig LocalConfig() {
  sim::MachineConfig config;
  config.num_disk_nodes = 8;
  config.num_diskless_nodes = 0;
  config.num_threads = BenchThreads();
  return config;
}

sim::MachineConfig RemoteConfig() {
  sim::MachineConfig config = LocalConfig();
  config.num_diskless_nodes = 8;
  return config;
}

std::vector<double> IntegralBucketRatios() {
  return {1.0,       1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0, 1.0 / 5.0,
          1.0 / 6.0, 1.0 / 7.0, 1.0 / 8.0, 1.0 / 10.0};
}

Workload::Workload(sim::MachineConfig machine_config,
                   const WorkloadOptions& options)
    : options_(options), machine_(std::make_unique<sim::Machine>(machine_config)) {
  if (sim::Tracer* tracer = BenchTracer()) {
    machine_->set_tracer(tracer, State().benchmark_name);
  }
  ApplyScaleOverrides(options_);
  RecordWorkload(machine_config, options_);
  wisconsin::DatasetOptions dataset;
  dataset.outer_cardinality = options_.outer_cardinality;
  dataset.inner_cardinality = options_.inner_cardinality;
  dataset.seed = options_.seed;
  dataset.with_normal_attr = options_.with_normal;
  dataset.strategy = options_.strategy;
  dataset.partition_field = options_.partition_field;
  auto loaded = wisconsin::LoadJoinABprime(*machine_, catalog_, dataset);
  GAMMA_CHECK(loaded.ok()) << loaded.status().ToString();
}

join::JoinOutput Workload::RunCustom(
    join::Algorithm algorithm, double memory_ratio, bool bit_filters,
    bool remote_join_nodes,
    const std::function<void(join::JoinSpec&)>& mutate) {
  join::JoinSpec spec;
  spec.inner_relation = "Bprime";
  spec.outer_relation = "A";
  const int default_field = options_.hpja ? wisconsin::fields::kUnique1
                                          : wisconsin::fields::kUnique2;
  spec.inner_field = default_field;
  spec.outer_field = default_field;
  spec.algorithm = algorithm;
  spec.memory_ratio = memory_ratio;
  spec.use_bit_filters = bit_filters;
  if (remote_join_nodes) {
    spec.join_nodes = machine_->DisklessNodeIds();
    GAMMA_CHECK(!spec.join_nodes.empty())
        << "remote join requested on a machine without diskless nodes";
  }
  spec.result_name = "bench_result_" + std::to_string(run_counter_++);
  if (mutate) mutate(spec);
  return ExecuteAndRecord(*machine_, catalog_, spec);
}

join::JoinOutput Workload::Run(join::Algorithm algorithm, double memory_ratio,
                               bool bit_filters, bool remote_join_nodes,
                               int inner_field, int outer_field) {
  // HPJA joins use the declustering attribute (unique1); non-HPJA joins
  // use unique2, whose value distribution is identical.
  return RunCustom(algorithm, memory_ratio, bit_filters, remote_join_nodes,
                   [&](join::JoinSpec& spec) {
                     if (inner_field >= 0) spec.inner_field = inner_field;
                     if (outer_field >= 0) spec.outer_field = outer_field;
                   });
}

void PrintFigure(const std::string& title,
                 const std::vector<std::string>& series_names,
                 const std::vector<double>& ratios,
                 const std::vector<std::vector<double>>& seconds_by_series) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-8s", "ratio");
  for (const auto& name : series_names) std::printf("%14s", name.c_str());
  std::printf("\n");
  for (size_t row = 0; row < ratios.size(); ++row) {
    std::printf("%-8.3f", ratios[row]);
    for (const auto& series : seconds_by_series) {
      std::printf("%14.2f", series[row]);
    }
    std::printf("\n");
  }
  std::fflush(stdout);

  if (!JsonEnabled()) return;
  JsonValue figure = JsonValue::MakeObject();
  figure.Set("title", title);
  JsonValue names = JsonValue::MakeArray();
  for (const auto& name : series_names) names.Append(name);
  figure.Set("series", std::move(names));
  JsonValue ratio_values = JsonValue::MakeArray();
  for (double ratio : ratios) ratio_values.Append(ratio);
  figure.Set("ratios", std::move(ratio_values));
  JsonValue table = JsonValue::MakeArray();
  for (const auto& series : seconds_by_series) {
    JsonValue column = JsonValue::MakeArray();
    for (double v : series) column.Append(v);
    table.Append(std::move(column));
  }
  // Key ends in "seconds" so bench_diff applies the time-metric
  // tolerance to every nested value.
  figure.Set("series_seconds", std::move(table));
  JsonValue* figures = State().doc.Find("figures");
  GAMMA_CHECK(figures != nullptr);
  figures->Append(std::move(figure));
}

void RunFilterComparisonFigure(const std::string& title,
                               join::Algorithm algorithm) {
  WorkloadOptions options;
  options.hpja = true;
  Workload workload(LocalConfig(), options);

  const std::vector<double> ratios = IntegralBucketRatios();
  std::vector<double> without, with, drops;
  for (double ratio : ratios) {
    auto plain = workload.Run(algorithm, ratio, /*bit_filters=*/false,
                              /*remote_join_nodes=*/false);
    auto filtered = workload.Run(algorithm, ratio, /*bit_filters=*/true,
                                 /*remote_join_nodes=*/false);
    CheckResultCount(plain, ExpectedJoinABprimeResult());
    CheckResultCount(filtered, ExpectedJoinABprimeResult());
    without.push_back(plain.response_seconds());
    with.push_back(filtered.response_seconds());
    drops.push_back(
        static_cast<double>(filtered.metrics.counters.filter_drops));
  }
  PrintFigure(title, {"NoFilter", "BitFilter", "TuplesDropped"}, ratios,
              {without, with, drops});
}

void CheckResultCount(const join::JoinOutput& output, size_t expected) {
  GAMMA_CHECK_EQ(output.stats.result_tuples, expected)
      << "benchmark join produced the wrong result cardinality";
}

const char* SkewBench::JoinTypeName(JoinType type) {
  switch (type) {
    case JoinType::kUU:
      return "UU";
    case JoinType::kNU:
      return "NU";
    case JoinType::kUN:
      return "UN";
    case JoinType::kNN:
      return "NN";
  }
  return "?";
}

SkewBench::SkewBench() : machine_(std::make_unique<sim::Machine>(LocalConfig())) {
  if (sim::Tracer* tracer = BenchTracer()) {
    machine_->set_tracer(tracer, State().benchmark_name + " skew");
  }
  wisconsin::GenOptions gen;
  gen.cardinality = 100000;
  gen.seed = 42;
  gen.with_normal_attr = true;
  const auto outer_tuples = wisconsin::Generate(gen);
  const auto inner_tuples =
      wisconsin::SampleWithoutReplacement(outer_tuples, 10000, 43);

  const auto load = [&](const std::string& name,
                        const std::vector<storage::Tuple>& tuples,
                        int partition_field) {
    auto rel = catalog_.Create(*machine_, name, wisconsin::WisconsinSchema());
    GAMMA_CHECK(rel.ok()) << rel.status().ToString();
    db::LoadOptions options;
    options.strategy = db::PartitionStrategy::kRangeUniform;
    options.partition_field = partition_field;
    GAMMA_CHECK_OK(db::LoadRelation(*rel, tuples, options));
  };
  load("A_u", outer_tuples, wisconsin::fields::kUnique1);
  load("A_n", outer_tuples, wisconsin::fields::kNormal);
  load("B_u", inner_tuples, wisconsin::fields::kUnique1);
  load("B_n", inner_tuples, wisconsin::fields::kNormal);
}

join::JoinOutput SkewBench::Run(join::Algorithm algorithm, JoinType type,
                                double memory_ratio, bool bit_filters) {
  join::JoinSpec spec;
  const bool inner_normal = type == JoinType::kNU || type == JoinType::kNN;
  const bool outer_normal = type == JoinType::kUN || type == JoinType::kNN;
  spec.inner_relation = inner_normal ? "B_n" : "B_u";
  spec.outer_relation = outer_normal ? "A_n" : "A_u";
  spec.inner_field = inner_normal ? wisconsin::fields::kNormal
                                  : wisconsin::fields::kUnique1;
  spec.outer_field = outer_normal ? wisconsin::fields::kNormal
                                  : wisconsin::fields::kUnique1;
  spec.algorithm = algorithm;
  spec.memory_ratio = memory_ratio;
  spec.use_bit_filters = bit_filters;
  if (algorithm == join::Algorithm::kGraceHash && inner_normal) {
    // Paper Section 4.4: Grace runs skewed-inner joins with one extra
    // bucket so no memory overflow occurs.
    auto inner = catalog_.Get(spec.inner_relation);
    GAMMA_CHECK(inner.ok());
    const auto memory_bytes = static_cast<uint64_t>(
        memory_ratio * static_cast<double>((*inner)->total_bytes()));
    spec.num_buckets =
        join::OptimizerBucketCount((*inner)->total_bytes(), memory_bytes) + 1;
  }
  spec.result_name = "skew_result_" + std::to_string(run_counter_++);
  return ExecuteAndRecord(*machine_, catalog_, spec);
}

ZipfBench::ZipfBench(double theta)
    : machine_(std::make_unique<sim::Machine>(LocalConfig())) {
  if (sim::Tracer* tracer = BenchTracer()) {
    machine_->set_tracer(tracer, State().benchmark_name + " zipf");
  }
  const uint32_t outer_n = State().outer_override.value_or(20000);
  const uint32_t inner_n = State().inner_override.value_or(2000);
  wisconsin::GenOptions gen;
  gen.cardinality = outer_n;
  gen.seed = 42;
  gen.with_zipf_attr = true;
  gen.zipf_theta = theta;
  const auto outer_tuples = wisconsin::Generate(gen);
  const auto inner_tuples =
      wisconsin::SampleWithoutReplacement(outer_tuples, inner_n, 43);
  const auto load = [&](const std::string& name,
                        const std::vector<storage::Tuple>& tuples) {
    auto rel = catalog_.Create(*machine_, name, wisconsin::WisconsinSchema());
    GAMMA_CHECK(rel.ok()) << rel.status().ToString();
    db::LoadOptions options;
    options.strategy = db::PartitionStrategy::kRangeUniform;
    options.partition_field = wisconsin::fields::kNormal;
    GAMMA_CHECK_OK(db::LoadRelation(*rel, tuples, options));
  };
  load("A_z", outer_tuples);
  load("B_z", inner_tuples);
}

join::JoinOutput ZipfBench::Run(join::Algorithm algorithm, bool adaptive,
                                double memory_ratio, bool bit_filters) {
  join::JoinSpec spec;
  spec.inner_relation = "B_z";
  spec.outer_relation = "A_z";
  spec.inner_field = wisconsin::fields::kNormal;
  spec.outer_field = wisconsin::fields::kNormal;
  spec.algorithm = algorithm;
  spec.memory_ratio = memory_ratio;
  spec.use_bit_filters = bit_filters;
  spec.adaptive_repartition = adaptive;
  spec.result_name = "zipf_result_" + std::to_string(run_counter_++);
  return ExecuteAndRecord(*machine_, catalog_, spec);
}

}  // namespace gammadb::bench
