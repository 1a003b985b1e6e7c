#include "sim/machine.h"

#include <gtest/gtest.h>
#include "testing/status_matchers.h"

namespace gammadb::sim {
namespace {

TEST(MachineTest, NodeTopology) {
  Machine machine(MachineConfig{8, 8, CostModel{}, 1});
  EXPECT_EQ(machine.num_nodes(), 16);
  EXPECT_EQ(machine.DiskNodeIds(), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(machine.DisklessNodeIds(),
            (std::vector<int>{8, 9, 10, 11, 12, 13, 14, 15}));
  for (int id = 0; id < 8; ++id) EXPECT_TRUE(machine.node(id).has_disk());
  for (int id = 8; id < 16; ++id) EXPECT_FALSE(machine.node(id).has_disk());
}

TEST(MachineTest, DiskIndexOfMapsDiskNodesAndRejectsDisklessOnes) {
  Machine machine(MachineConfig{4, 2, CostModel{}, 1});
  const std::vector<int> disks = machine.DiskNodeIds();
  for (size_t i = 0; i < disks.size(); ++i) {
    EXPECT_EQ(machine.DiskIndexOf(disks[i]), i);
  }
  EXPECT_DEATH(machine.DiskIndexOf(4), "not a disk node");
  EXPECT_DEATH(machine.DiskIndexOf(-1), "not a disk node");
}

TEST(MachineTest, PhaseElapsedIsSlowestNode) {
  Machine machine(MachineConfig{3, 0, CostModel{}, 1});
  machine.BeginPhase("p");
  machine.node(0).ChargeCpu(1.0, CostCategory::kOther);
  machine.node(1).ChargeCpu(5.0, CostCategory::kOther);
  machine.node(2).ChargeCpu(2.0, CostCategory::kOther);
  GAMMA_ASSERT_OK(machine.EndPhase());
  EXPECT_DOUBLE_EQ(machine.response_seconds(), 5.0);
}

TEST(MachineTest, CpuAndDiskOverlapWithinANode) {
  Machine machine(MachineConfig{1, 0, CostModel{}, 1});
  machine.BeginPhase("p");
  machine.node(0).ChargeCpu(3.0, CostCategory::kOther);
  machine.node(0).ChargeDisk(7.0, CostCategory::kDiskSeq);  // overlapped: max, not sum
  GAMMA_ASSERT_OK(machine.EndPhase());
  EXPECT_DOUBLE_EQ(machine.response_seconds(), 7.0);
}

TEST(MachineTest, PhasesAreSerial) {
  Machine machine(MachineConfig{2, 0, CostModel{}, 1});
  machine.BeginPhase("a");
  machine.node(0).ChargeCpu(2.0, CostCategory::kOther);
  GAMMA_ASSERT_OK(machine.EndPhase());
  machine.BeginPhase("b");
  machine.node(1).ChargeCpu(3.0, CostCategory::kOther);
  GAMMA_ASSERT_OK(machine.EndPhase());
  EXPECT_DOUBLE_EQ(machine.response_seconds(), 5.0);
  const RunMetrics m = machine.Metrics();
  ASSERT_EQ(m.phases.size(), 2u);
  EXPECT_EQ(m.phases[0].label, "a");
  EXPECT_DOUBLE_EQ(m.phases[1].elapsed_seconds, 3.0);
}

TEST(MachineTest, SchedulerTimeSerializesOnTopOfNodeWork) {
  Machine machine(MachineConfig{1, 0, CostModel{}, 1});
  machine.BeginPhase("p");
  machine.node(0).ChargeCpu(1.0, CostCategory::kOther);
  machine.ChargeScheduler(0.5, 4);
  GAMMA_ASSERT_OK(machine.EndPhase());
  EXPECT_DOUBLE_EQ(machine.response_seconds(), 1.5);
  EXPECT_EQ(machine.Metrics().counters.control_messages, 4);
}

TEST(MachineTest, ResetMetricsClearsEverything) {
  Machine machine(MachineConfig{1, 0, CostModel{}, 1});
  machine.BeginPhase("p");
  machine.node(0).ChargeCpu(1.0, CostCategory::kOther);
  ++machine.node(0).counters().ht_inserts;
  GAMMA_ASSERT_OK(machine.EndPhase());
  machine.ResetMetrics();
  EXPECT_DOUBLE_EQ(machine.response_seconds(), 0.0);
  const RunMetrics m = machine.Metrics();
  EXPECT_TRUE(m.phases.empty());
  EXPECT_EQ(m.counters.ht_inserts, 0);
}

TEST(MachineTest, RunOnNodesVisitsExactlyTheGivenNodes) {
  Machine machine(MachineConfig{4, 0, CostModel{}, 1});
  std::vector<int> visited;
  machine.RunOnNodes({1, 3}, [&](Node& n) { visited.push_back(n.id()); });
  EXPECT_EQ(visited, (std::vector<int>{1, 3}));
}

TEST(MachineTest, MetricsMergeNodeCounters) {
  Machine machine(MachineConfig{2, 0, CostModel{}, 1});
  machine.node(0).counters().ht_inserts = 5;
  machine.node(1).counters().ht_inserts = 7;
  machine.node(1).counters().result_tuples = 3;
  const RunMetrics m = machine.Metrics();
  EXPECT_EQ(m.counters.ht_inserts, 12);
  EXPECT_EQ(m.counters.result_tuples, 3);

  // Every registered counter either node books reaches the merged
  // metrics, whichever group it belongs to.
  machine.ResetMetrics();
  int64_t value = 1;
  for (const CounterField& field : kCounterFields) {
    machine.node(0).counters().*field.member = value;
    machine.node(1).counters().*field.member = 100 * value++;
  }
  const Counters merged = machine.Metrics().counters;
  value = 1;
  for (const CounterField& field : kCounterFields) {
    EXPECT_EQ(merged.*field.member, 101 * value++) << field.name;
  }
}

}  // namespace
}  // namespace gammadb::sim
