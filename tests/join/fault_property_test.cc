// Property: a *random* seeded FaultPlan never changes a join's result —
// only its metrics. This is the generative counterpart of the explicit
// fault matrix (tests/integration/fault_recovery_test.cc): whatever
// combination of transient disk errors, packet faults and node crashes
// a seed draws, recovery must be invisible in the data.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gamma/catalog.h"
#include "join/driver.h"
#include "sim/fault.h"
#include "sim/machine.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

constexpr int kNumNodes = 4;

/// Runs joinABprime with `plan` armed after the load (nullptr = fault
/// free); returns the canonical result rows and the run's metrics.
void RunJoin(join::Algorithm algorithm, const sim::FaultPlan* plan,
             std::vector<std::string>* rows, sim::RunMetrics* metrics) {
  sim::Machine machine(testing::SmallConfig(kNumNodes));
  db::Catalog catalog;

  wisconsin::DatasetOptions options;
  options.outer_cardinality = 1000;
  options.inner_cardinality = 100;
  options.seed = 71;
  options.partition_field = wisconsin::fields::kUnique2;
  auto loaded = wisconsin::LoadJoinABprime(machine, catalog, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  if (plan != nullptr) machine.ArmFaults(*plan);

  join::JoinSpec spec;
  spec.inner_relation = "Bprime";
  spec.outer_relation = "A";
  spec.algorithm = algorithm;
  spec.use_bit_filters = true;
  spec.result_name = "result";
  auto output = join::ExecuteJoin(machine, catalog, spec);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  *metrics = output->metrics;
  auto rel = catalog.Get("result");
  ASSERT_TRUE(rel.ok());
  *rows = testing::Canonical((*rel)->PeekAllTuples());
}

TEST(FaultPropertyTest, RandomPlansNeverChangeJoinResults) {
  const join::Algorithm algorithms[] = {
      join::Algorithm::kSortMerge, join::Algorithm::kSimpleHash,
      join::Algorithm::kGraceHash, join::Algorithm::kHybridHash};

  // One fault-free reference per algorithm.
  std::vector<std::string> reference[4];
  for (int a = 0; a < 4; ++a) {
    sim::RunMetrics metrics;
    RunJoin(algorithms[a], nullptr, &reference[a], &metrics);
    if (HasFatalFailure()) return;
    ASSERT_FALSE(reference[a].empty());
    ASSERT_FALSE(metrics.counters.Engaged(sim::CounterGroup::kFault));
  }

  sim::FaultPlan::RandomOptions options;
  options.num_nodes = kNumNodes;
  // Small horizons so most drawn events actually fire against the
  // 1000 x 100 workload (events past the end of the run are legal but
  // test nothing).
  options.io_horizon = 40;
  options.packet_horizon = 20;
  options.phase_horizon = 3;

  int plans_with_faults = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    // Rotate algorithms so twelve seeds cover all four.
    const join::Algorithm algorithm = algorithms[seed % 4];
    SCOPED_TRACE("seed " + std::to_string(seed) + " / " +
                 join::AlgorithmName(algorithm));
    const sim::FaultPlan plan = sim::FaultPlan::Random(seed, options);
    ASSERT_FALSE(plan.empty());

    std::vector<std::string> rows;
    sim::RunMetrics metrics;
    RunJoin(algorithm, &plan, &rows, &metrics);
    if (HasFatalFailure()) return;

    EXPECT_EQ(rows, reference[seed % 4]);
    if (metrics.counters.Engaged(sim::CounterGroup::kFault)) {
      ++plans_with_faults;
    }
  }
  // The property is vacuous if the random plans never engage the fault
  // machinery at all.
  EXPECT_GE(plans_with_faults, 6);
}

}  // namespace
}  // namespace gammadb
