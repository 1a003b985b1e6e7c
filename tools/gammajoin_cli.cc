// gammajoin_cli: run one configurable parallel-join experiment from the
// command line and print the full execution report.
//
//   $ gammajoin_cli --algorithm=hybrid --ratio=0.5 --filters
//   $ gammajoin_cli --algorithm=sort-merge --outer=50000 --skew
//   $ gammajoin_cli --algorithm=grace --remote --diskless=8 --phases
//
// Flags (all optional):
//   --algorithm=NAME   hybrid | grace | simple | sort-merge   [hybrid]
//   --ratio=R          aggregate memory / |inner|             [1.0]
//   --outer=N          outer relation cardinality             [100000]
//   --inner=N          inner relation cardinality             [outer/10]
//   --disks=N          processors with disks                  [8]
//   --diskless=N       diskless processors                    [0]
//   --remote           join on the diskless processors
//   --filters          2 KB bit-vector filters
//   --forming-filters  also filter the bucket-forming phases
//   --non-hpja         join on unique2 (not the declustering attribute)
//   --skew             normally distributed inner join attribute
//   --buckets=N        override the optimizer's bucket count
//   --seed=N           workload seed                          [42]
//   --threads=N        executor threads                       [1]
//   --phases           print the per-phase time breakdown
//   --attribution      print the cost-attribution table (where every
//                      simulated second went, by cost-model primitive)
//   --trace=FILE       write a simulated-time Chrome trace_event JSON
//                      (open in Perfetto; see docs/tracing.md)
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/strings.h"
#include "gamma/catalog.h"
#include "gamma/loader.h"
#include "join/driver.h"
#include "sim/machine.h"
#include "sim/trace.h"
#include "wisconsin/wisconsin.h"

using namespace gammadb;

namespace {

struct Options {
  join::Algorithm algorithm = join::Algorithm::kHybridHash;
  double ratio = 1.0;
  uint32_t outer = 100000;
  uint32_t inner = 0;  // 0 = outer/10
  int disks = 8;
  int diskless = 0;
  bool remote = false;
  bool filters = false;
  bool forming_filters = false;
  bool non_hpja = false;
  bool skew = false;
  int buckets = 0;  // 0 = optimizer
  uint64_t seed = 42;
  int threads = 1;
  bool phases = false;
  bool attribution = false;
  std::string trace_path;
};

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--algorithm=hybrid|grace|simple|sort-merge] "
               "[--ratio=R]\n  [--outer=N] [--inner=N] [--disks=N] "
               "[--diskless=N] [--remote] [--filters]\n  "
               "[--forming-filters] [--non-hpja] [--skew] [--buckets=N] "
               "[--seed=N]\n  [--threads=N] [--phases] [--attribution] "
               "[--trace=FILE]\n",
               argv0);
  return 2;
}

/// Checked parsing for numeric flag values: rejects non-numeric text
/// and values outside [min_value, max_value] instead of silently reading
/// them as 0 or wrapping them into the option's narrower type.
bool ParseIntValue(const char* flag, const char* text, int64_t min_value,
                   int64_t max_value, int64_t* out) {
  if (!ParseInt64(text, out)) {
    std::fprintf(stderr, "%s: '%s' is not an integer\n", flag, text);
    return false;
  }
  if (*out < min_value) {
    std::fprintf(stderr, "%s: %lld is below the minimum %lld\n", flag,
                 static_cast<long long>(*out),
                 static_cast<long long>(min_value));
    return false;
  }
  if (*out > max_value) {
    std::fprintf(stderr, "%s: %lld is above the maximum %lld\n", flag,
                 static_cast<long long>(*out),
                 static_cast<long long>(max_value));
    return false;
  }
  return true;
}

bool ParseDoubleValue(const char* flag, const char* text, double* out) {
  if (!ParseDouble(text, out) || *out <= 0) {
    std::fprintf(stderr, "%s: '%s' is not a positive number\n", flag, text);
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (ParseFlag(argv[i], "--algorithm", &v) && v != nullptr) {
      const std::string name = v;
      if (name == "hybrid") {
        options->algorithm = join::Algorithm::kHybridHash;
      } else if (name == "grace") {
        options->algorithm = join::Algorithm::kGraceHash;
      } else if (name == "simple") {
        options->algorithm = join::Algorithm::kSimpleHash;
      } else if (name == "sort-merge") {
        options->algorithm = join::Algorithm::kSortMerge;
      } else {
        std::fprintf(stderr, "unknown algorithm '%s'\n", v);
        return false;
      }
    } else if (ParseFlag(argv[i], "--ratio", &v) && v != nullptr) {
      if (!ParseDoubleValue("--ratio", v, &options->ratio)) return false;
    } else if (ParseFlag(argv[i], "--outer", &v) && v != nullptr) {
      int64_t n = 0;
      if (!ParseIntValue("--outer", v, 1, UINT32_MAX, &n)) return false;
      options->outer = static_cast<uint32_t>(n);
    } else if (ParseFlag(argv[i], "--inner", &v) && v != nullptr) {
      int64_t n = 0;
      if (!ParseIntValue("--inner", v, 1, UINT32_MAX, &n)) return false;
      options->inner = static_cast<uint32_t>(n);
    } else if (ParseFlag(argv[i], "--disks", &v) && v != nullptr) {
      int64_t n = 0;
      if (!ParseIntValue("--disks", v, 1, INT_MAX, &n)) return false;
      options->disks = static_cast<int>(n);
    } else if (ParseFlag(argv[i], "--diskless", &v) && v != nullptr) {
      int64_t n = 0;
      if (!ParseIntValue("--diskless", v, 0, INT_MAX, &n)) return false;
      options->diskless = static_cast<int>(n);
    } else if (ParseFlag(argv[i], "--buckets", &v) && v != nullptr) {
      int64_t n = 0;
      if (!ParseIntValue("--buckets", v, 1, INT_MAX, &n)) return false;
      options->buckets = static_cast<int>(n);
    } else if (ParseFlag(argv[i], "--seed", &v) && v != nullptr) {
      int64_t n = 0;
      if (!ParseIntValue("--seed", v, 0, INT64_MAX, &n)) return false;
      options->seed = static_cast<uint64_t>(n);
    } else if (ParseFlag(argv[i], "--threads", &v) && v != nullptr) {
      int64_t n = 0;
      if (!ParseIntValue("--threads", v, 1, INT_MAX, &n)) return false;
      options->threads = static_cast<int>(n);
    } else if (ParseFlag(argv[i], "--trace", &v) && v != nullptr) {
      options->trace_path = v;
    } else if (ParseFlag(argv[i], "--attribution", &v)) {
      options->attribution = true;
    } else if (ParseFlag(argv[i], "--remote", &v)) {
      options->remote = true;
    } else if (ParseFlag(argv[i], "--filters", &v)) {
      options->filters = true;
    } else if (ParseFlag(argv[i], "--forming-filters", &v)) {
      options->forming_filters = true;
    } else if (ParseFlag(argv[i], "--non-hpja", &v)) {
      options->non_hpja = true;
    } else if (ParseFlag(argv[i], "--skew", &v)) {
      options->skew = true;
    } else if (ParseFlag(argv[i], "--phases", &v)) {
      options->phases = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return false;
    }
  }
  if (options->inner == 0) options->inner = options->outer / 10;
  if (options->remote && options->diskless == 0) options->diskless = 8;
  // sim::Machine counts its nodes in an int.
  const int64_t nodes =
      static_cast<int64_t>(options->disks) + options->diskless;
  if (nodes > INT_MAX) {
    std::fprintf(stderr, "--disks + --diskless: %lld is above the maximum %d\n",
                 static_cast<long long>(nodes), INT_MAX);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage(argv[0]);

  sim::MachineConfig config;
  config.num_disk_nodes = options.disks;
  config.num_diskless_nodes = options.diskless;
  config.num_threads = options.threads;
  sim::Machine machine(config);
  sim::Tracer tracer;
  if (!options.trace_path.empty()) {
    machine.set_tracer(&tracer, "gammajoin_cli");
  }
  db::Catalog catalog;

  wisconsin::DatasetOptions dataset;
  dataset.outer_cardinality = options.outer;
  dataset.inner_cardinality = options.inner;
  dataset.seed = options.seed;
  dataset.with_normal_attr = options.skew;
  if (options.skew) {
    dataset.strategy = db::PartitionStrategy::kRangeUniform;
    dataset.partition_field = wisconsin::fields::kNormal;
  }
  auto loaded = wisconsin::LoadJoinABprime(machine, catalog, dataset);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }

  join::JoinSpec spec;
  spec.inner_relation = "Bprime";
  spec.outer_relation = "A";
  spec.inner_field = options.skew
                         ? wisconsin::fields::kNormal
                         : (options.non_hpja ? wisconsin::fields::kUnique2
                                             : wisconsin::fields::kUnique1);
  spec.outer_field = options.non_hpja && !options.skew
                         ? wisconsin::fields::kUnique2
                         : wisconsin::fields::kUnique1;
  spec.algorithm = options.algorithm;
  spec.memory_ratio = options.ratio;
  spec.use_bit_filters = options.filters;
  spec.use_forming_bit_filters = options.forming_filters;
  if (options.buckets > 0) spec.num_buckets = options.buckets;
  if (options.remote) spec.join_nodes = machine.DisklessNodeIds();

  auto output = join::ExecuteJoin(machine, catalog, spec);
  if (!output.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 output.status().ToString().c_str());
    return 1;
  }

  const auto& c = output->metrics.counters;
  std::printf("algorithm:         %s\n", join::AlgorithmName(spec.algorithm));
  std::printf("configuration:     %d disk + %d diskless nodes, join %s\n",
              options.disks, options.diskless,
              options.remote ? "remote" : "local");
  std::printf("workload:          %s x %s tuples%s%s\n",
              WithThousandsSeparators(options.outer).c_str(),
              WithThousandsSeparators(options.inner).c_str(),
              options.non_hpja ? ", non-HPJA" : ", HPJA",
              options.skew ? ", skewed inner" : "");
  std::printf("memory ratio:      %.3f\n", options.ratio);
  std::printf("response time:     %.2f simulated seconds\n",
              output->response_seconds());
  std::printf("result tuples:     %s\n",
              WithThousandsSeparators(
                  static_cast<int64_t>(output->stats.result_tuples))
                  .c_str());
  std::printf("buckets:           %d\n", output->stats.num_buckets);
  std::printf("overflow events:   %lld (depth %d)\n",
              (long long)c.ht_overflows,
              output->stats.overflow_levels);
  std::printf("pages read/write:  %s / %s\n",
              WithThousandsSeparators(c.pages_read).c_str(),
              WithThousandsSeparators(c.pages_written).c_str());
  std::printf("short-circuited:   %.1f%% of %s routed tuples\n",
              100 * c.ShortCircuitFraction(),
              WithThousandsSeparators(c.tuples_sent_local +
                                      c.tuples_sent_remote)
                  .c_str());
  if (options.filters) {
    std::printf("filter drops:      %s\n",
                WithThousandsSeparators(c.filter_drops).c_str());
  }
  if (output->stats.avg_chain_length > 0) {
    std::printf("hash chains:       %.2f avg, %d max\n",
                output->stats.avg_chain_length,
                output->stats.max_chain_length);
  }
  if (options.phases) {
    std::printf("\nphases:\n");
    for (const auto& phase : output->metrics.phases) {
      std::printf("  %-28s %8.2f s\n", phase.label.c_str(),
                  phase.elapsed_seconds);
    }
  }
  if (options.attribution) {
    // Where the simulated seconds went, summed over all nodes and
    // phases, by cost-model primitive (docs/tracing.md).
    double by_category[sim::kNumCostCategories] = {};
    double total = 0;
    for (const auto& phase : output->metrics.phases) {
      for (const auto& usage : phase.usage) {
        for (size_t cat = 0; cat < sim::kNumCostCategories; ++cat) {
          by_category[cat] += usage.by_category[cat];
          total += usage.by_category[cat];
        }
      }
    }
    std::printf("\ncost attribution (all nodes, %.2f charged seconds):\n",
                total);
    for (size_t cat = 0; cat < sim::kNumCostCategories; ++cat) {
      if (by_category[cat] == 0) continue;
      std::printf("  %-16s %10.2f s  %5.1f%%\n",
                  sim::CostCategoryName(static_cast<sim::CostCategory>(cat)),
                  by_category[cat], 100 * by_category[cat] / total);
    }
  }
  if (!options.trace_path.empty()) {
    Status status = tracer.WriteFile(options.trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote trace JSON to %s\n",
                 options.trace_path.c_str());
  }
  return 0;
}
