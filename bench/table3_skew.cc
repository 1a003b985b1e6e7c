// Table 3 (Section 4.4): joinABprime under non-uniform join-attribute
// distributions. XY = inner/outer distribution, U = uniform (unique1),
// N = normal(50000, 750). Response times at 100% and 17% memory, with
// and without bit filters.
//
// Expected shape: NU hurts the hash joins (uneven distribution plus
// duplicate chains; overflow resolution at 17%) but HELPS sort-merge
// (the skewed inner lets the merge stop before reading all of the
// outer relation); UN is close to UU; Hybrid handles UN well. NN is
// reported only by its exploded cardinality, as in the paper.
// With `--zipf <theta>` an extra section compares static vs adaptive
// repartitioning (docs/skew.md) on a Zipf(theta) join-attribute
// distribution for all four algorithms.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/harness.h"
#include "common/logging.h"
#include "common/strings.h"

using gammadb::bench::SkewBench;
using gammadb::bench::ZipfBench;
using gammadb::join::Algorithm;

namespace {

/// Extracts `--zipf <theta>` / `--zipf=<theta>` from argv (InitBench
/// aborts on flags it does not know, so this runs first).
std::optional<double> TakeZipfFlag(int& argc, char** argv) {
  std::optional<double> theta;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--zipf") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--zipf requires a value\n");
        std::exit(2);
      }
      value = argv[++i];
    } else if (std::strncmp(argv[i], "--zipf=", 7) == 0) {
      value = argv[i] + 7;
    }
    if (value == nullptr) {
      argv[out++] = argv[i];
      continue;
    }
    double parsed = 0.0;
    if (!gammadb::ParseDouble(value, &parsed) || parsed < 0) {
      std::fprintf(stderr, "--zipf: '%s' is not a valid theta\n", value);
      std::exit(2);
    }
    theta = parsed;
  }
  argc = out;
  return theta;
}

void RunZipfSection(double theta) {
  const Algorithm algorithms[] = {Algorithm::kHybridHash,
                                  Algorithm::kGraceHash,
                                  Algorithm::kSortMerge,
                                  Algorithm::kSimpleHash};
  const char* names[] = {"Hybrid", "Grace", "Sort-Merge", "Simple"};
  ZipfBench bench(theta);
  std::printf("\nZipf(%.2f) join: static vs adaptive repartitioning\n", theta);
  std::printf("%-12s%14s%14s%14s\n", "Algorithm", "Static", "Adaptive",
              "MovedTuples");
  for (size_t a = 0; a < 4; ++a) {
    const auto fixed = bench.Run(algorithms[a], /*adaptive=*/false);
    const auto adaptive = bench.Run(algorithms[a], /*adaptive=*/true);
    GAMMA_CHECK_EQ(fixed.stats.result_tuples, adaptive.stats.result_tuples);
    std::printf("%-12s%14.2f%14.2f%14lld\n", names[a],
                fixed.response_seconds(), adaptive.response_seconds(),
                static_cast<long long>(
                    adaptive.metrics.counters.rebalance_moved_tuples));
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<double> zipf_theta = TakeZipfFlag(argc, argv);
  gammadb::bench::InitBench(argc, argv, "table3_skew");
  SkewBench bench;

  const Algorithm algorithms[] = {Algorithm::kHybridHash,
                                  Algorithm::kGraceHash,
                                  Algorithm::kSortMerge,
                                  Algorithm::kSimpleHash};
  const char* names[] = {"Hybrid", "Grace", "Sort-Merge", "Simple"};
  const SkewBench::JoinType types[] = {SkewBench::JoinType::kUU,
                                       SkewBench::JoinType::kNU,
                                       SkewBench::JoinType::kUN};

  for (bool filters : {false, true}) {
    std::printf("\nTable 3 (%s bit filters): response seconds\n",
                filters ? "with" : "without");
    std::printf("%-12s", "Algorithm");
    for (double mem : {1.0, 0.17}) {
      for (auto type : types) {
        std::printf("%9s@%-3.0f%%", SkewBench::JoinTypeName(type), mem * 100);
      }
    }
    std::printf("\n");
    for (size_t a = 0; a < 4; ++a) {
      std::printf("%-12s", names[a]);
      for (double mem : {1.0, 0.17}) {
        for (auto type : types) {
          auto out = bench.Run(algorithms[a], type, mem, filters);
          std::printf("%14.2f", out.response_seconds());
          std::fflush(stdout);
        }
      }
      std::printf("\n");
    }
  }

  // Observations the paper reports alongside Table 3.
  auto nu = bench.Run(Algorithm::kHybridHash, SkewBench::JoinType::kNU, 1.0,
                      false);
  std::printf("\nNU result tuples: %zu (paper: 10,000)\n",
              nu.stats.result_tuples);
  std::printf("NU hash chains: average %.1f, max %d (paper: 3.3 avg, 16 max)\n",
              nu.stats.avg_chain_length, nu.stats.max_chain_length);
  auto un = bench.Run(Algorithm::kHybridHash, SkewBench::JoinType::kUN, 1.0,
                      false);
  std::printf("UN result tuples: %zu (paper: 10,036)\n",
              un.stats.result_tuples);
  auto nn = bench.Run(Algorithm::kHybridHash, SkewBench::JoinType::kNN, 1.0,
                      false);
  std::printf("NN result tuples: %zu (paper: 368,474 — not comparable, "
              "excluded from the table)\n",
              nn.stats.result_tuples);

  if (zipf_theta) RunZipfSection(*zipf_theta);
  return 0;
}
