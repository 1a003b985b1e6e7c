// Extension: skew-aware adaptive repartitioning (docs/skew.md) — not a
// paper figure. Both join columns follow a Zipf(theta) distribution, so
// under static hash partitioning the heaviest values pile onto a few
// join processors and the phase time is the hot node's time. The
// adaptive runs histogram the building relation, install a weighted
// split table that spreads/replicates the heavy hash bins, and must
// beat the static runs for ALL FOUR algorithms once the skew is real
// (theta >= 1.0). theta 0 is uniform: the plan never fires there and
// the static/adaptive columns must agree exactly.
#include <string>
#include <vector>

#include "common/harness.h"
#include "common/logging.h"

using gammadb::bench::ZipfBench;
using gammadb::join::Algorithm;

int main(int argc, char** argv) {
  gammadb::bench::InitBench(argc, argv, "ext_skew_adaptive");

  const Algorithm algorithms[] = {Algorithm::kHybridHash,
                                  Algorithm::kGraceHash,
                                  Algorithm::kSortMerge,
                                  Algorithm::kSimpleHash};
  const char* names[] = {"Hybrid", "Grace", "SortMerge", "Simple"};
  const std::vector<double> thetas = {0.0, 0.5, 1.0};

  std::vector<std::string> series;
  for (const char* name : names) {
    series.push_back(std::string(name) + "-static");
    series.push_back(std::string(name) + "-adapt");
  }
  std::vector<std::vector<double>> seconds(series.size());

  for (double theta : thetas) {
    ZipfBench bench(theta);
    for (size_t a = 0; a < 4; ++a) {
      const auto fixed = bench.Run(algorithms[a], /*adaptive=*/false);
      const auto adaptive = bench.Run(algorithms[a], /*adaptive=*/true);
      // Correctness first: replication must not duplicate or drop
      // result tuples.
      GAMMA_CHECK_EQ(fixed.stats.result_tuples, adaptive.stats.result_tuples)
          << names[a] << " theta=" << theta;
      if (theta >= 1.0) {
        GAMMA_CHECK_GT(adaptive.metrics.counters.rebalance_plans, 0)
            << names[a] << " theta=" << theta
            << ": expected a rebalance plan to fire";
        GAMMA_CHECK_LT(adaptive.response_seconds(), fixed.response_seconds())
            << names[a] << " theta=" << theta
            << ": adaptive must beat static under real skew";
      }
      seconds[2 * a].push_back(fixed.response_seconds());
      seconds[2 * a + 1].push_back(adaptive.response_seconds());
    }
  }

  gammadb::bench::PrintFigure(
      "Adaptive repartitioning under Zipf(theta) skew: response seconds",
      series, thetas, seconds);
  return 0;
}
