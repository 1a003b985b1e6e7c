// The executor determinism contract (DESIGN.md): RunMetrics is a pure
// function of the query plan, never of the thread count. Every join
// algorithm, with and without HPJA declustering and under
// overflow-inducing memory pressure, must produce byte-identical
// metrics JSON at 1, 4 and 8 executor threads.
//
// This is what lets one checked-in serial baseline gate threaded CI
// runs (tools/bench_diff), and what makes pooled execution safe as the
// default for tests and benchmarks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gamma/catalog.h"
#include "join/driver.h"
#include "sim/machine.h"
#include "sim/metrics_json.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

struct Scenario {
  const char* name;
  bool hpja;             // partition field == join attribute?
  double memory_ratio;   // joining memory / |R|
  double memory_slack;   // 0 forces hash-table overflow at low ratios
};

const Scenario kScenarios[] = {
    {"hpja", true, 1.0, 0.35},
    {"non_hpja", false, 1.0, 0.35},
    {"overflow", true, 0.15, 0.0},
};

/// Runs joinABprime under `scenario` with `threads` executor threads
/// and returns the serialized RunMetrics JSON plus the canonical result
/// rows. A non-null `faults` is armed after the load (fault ordinals
/// count query events).
void RunScenario(const Scenario& scenario, join::Algorithm algorithm,
                 int threads, std::string* metrics_json,
                 std::vector<std::string>* result_rows,
                 const sim::FaultPlan* faults = nullptr) {
  sim::MachineConfig config = testing::SmallConfig(4);
  config.num_threads = threads;
  sim::Machine machine(config);
  db::Catalog catalog;

  wisconsin::DatasetOptions options;
  options.outer_cardinality = 2000;
  options.inner_cardinality = 200;
  options.seed = 71;
  options.partition_field = scenario.hpja ? wisconsin::fields::kUnique1
                                          : wisconsin::fields::kUnique2;
  auto loaded = wisconsin::LoadJoinABprime(machine, catalog, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  if (faults != nullptr) machine.ArmFaults(*faults);

  join::JoinSpec spec;
  spec.inner_relation = "Bprime";
  spec.outer_relation = "A";
  spec.algorithm = algorithm;
  spec.memory_ratio = scenario.memory_ratio;
  spec.memory_slack = scenario.memory_slack;
  spec.use_bit_filters = true;
  spec.result_name = "result";
  auto output = join::ExecuteJoin(machine, catalog, spec);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  *metrics_json = sim::RunMetricsToJson(output->metrics).Dump();
  auto rel = catalog.Get("result");
  ASSERT_TRUE(rel.ok());
  *result_rows = testing::Canonical((*rel)->PeekAllTuples());
}

TEST(DeterminismTest, MetricsJsonIsThreadCountInvariant) {
  for (join::Algorithm algorithm :
       {join::Algorithm::kSortMerge, join::Algorithm::kSimpleHash,
        join::Algorithm::kGraceHash, join::Algorithm::kHybridHash}) {
    for (const Scenario& scenario : kScenarios) {
      SCOPED_TRACE(std::string(join::AlgorithmName(algorithm)) + " / " +
                   scenario.name);
      std::string serial_json;
      std::vector<std::string> serial_rows;
      RunScenario(scenario, algorithm, 1, &serial_json, &serial_rows);
      if (HasFatalFailure()) return;
      EXPECT_FALSE(serial_rows.empty());
      for (int threads : {4, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::string pooled_json;
        std::vector<std::string> pooled_rows;
        RunScenario(scenario, algorithm, threads, &pooled_json, &pooled_rows);
        if (HasFatalFailure()) return;
        EXPECT_EQ(serial_json, pooled_json);
        EXPECT_EQ(serial_rows, pooled_rows);
      }
    }
  }
}

/// Fault injection composes with the determinism contract: with a fixed
/// FaultPlan armed, the metrics JSON — retry counts, retransmissions,
/// crash recovery time and all — is still byte-identical at 1, 4 and 8
/// executor threads. Faults are keyed on counted events, never on
/// thread interleaving.
TEST(DeterminismTest, FaultedMetricsJsonIsThreadCountInvariant) {
  sim::FaultPlan plan;
  // One of each class, including a crash on the first phase so every
  // algorithm takes an operator restart.
  plan.AddPeriodic(sim::FaultKind::kDiskReadTransient, 1, /*period=*/3,
                   /*count=*/2);
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kDiskWriteTransient;
  e.node = 2;
  e.ordinal = 1;
  plan.Add(e);
  e.kind = sim::FaultKind::kPacketLoss;
  e.node = 0;
  e.ordinal = 2;
  plan.Add(e);
  e.kind = sim::FaultKind::kPacketDuplicate;
  e.node = 3;
  e.ordinal = 1;
  plan.Add(e);
  e.kind = sim::FaultKind::kNodeCrash;
  e.node = 1;
  e.ordinal = 1;
  e.phase_label = "";
  plan.Add(e);

  const Scenario& scenario = kScenarios[1];  // non-HPJA: remote packets
  for (join::Algorithm algorithm :
       {join::Algorithm::kSortMerge, join::Algorithm::kSimpleHash,
        join::Algorithm::kGraceHash, join::Algorithm::kHybridHash}) {
    SCOPED_TRACE(join::AlgorithmName(algorithm));
    std::string serial_json;
    std::vector<std::string> serial_rows;
    RunScenario(scenario, algorithm, 1, &serial_json, &serial_rows, &plan);
    if (HasFatalFailure()) return;
    EXPECT_FALSE(serial_rows.empty());
    // The plan must actually engage the machinery it claims to test.
    EXPECT_NE(serial_json.find("\"operator_restarts\""), std::string::npos);
    EXPECT_NE(serial_json.find("\"io_retries\""), std::string::npos);
    for (int threads : {4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      std::string pooled_json;
      std::vector<std::string> pooled_rows;
      RunScenario(scenario, algorithm, threads, &pooled_json, &pooled_rows,
                  &plan);
      if (HasFatalFailure()) return;
      EXPECT_EQ(serial_json, pooled_json);
      EXPECT_EQ(serial_rows, pooled_rows);
    }
  }
}

/// The overflow scenario must actually exercise the eviction path —
/// otherwise the matrix above silently loses its hardest case.
TEST(DeterminismTest, OverflowScenarioDoesOverflow) {
  sim::MachineConfig config = testing::SmallConfig(4);
  sim::Machine machine(config);
  db::Catalog catalog;
  wisconsin::DatasetOptions options;
  options.outer_cardinality = 2000;
  options.inner_cardinality = 200;
  options.seed = 71;
  auto loaded = wisconsin::LoadJoinABprime(machine, catalog, options);
  ASSERT_TRUE(loaded.ok());

  join::JoinSpec spec;
  spec.inner_relation = "Bprime";
  spec.outer_relation = "A";
  spec.algorithm = join::Algorithm::kSimpleHash;
  spec.memory_ratio = 0.15;
  spec.memory_slack = 0.0;
  spec.use_bit_filters = true;
  spec.result_name = "result";
  auto output = join::ExecuteJoin(machine, catalog, spec);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_GT(output->metrics.counters.ht_overflows, 0);
}

}  // namespace
}  // namespace gammadb
