#include "gamma/rebalance.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/histogram.h"
#include "gamma/bucket_analyzer.h"
#include "gamma/split_table.h"
#include "sim/machine.h"
#include "testing/skew_util.h"
#include "testing/status_matchers.h"

namespace gammadb::db {
namespace {

constexpr uint64_t kTupleBytes = 8;
constexpr uint64_t kNoCap = UINT64_MAX;

/// num_processes x num_bins count matrix filled with `base`.
std::vector<std::vector<uint64_t>> UniformCounts(size_t num_processes,
                                                 size_t num_bins,
                                                 uint64_t base) {
  return std::vector<std::vector<uint64_t>>(
      num_processes, std::vector<uint64_t>(num_bins, base));
}

TEST(LoadImbalanceTest, DegenerateInputsAreZero) {
  EXPECT_EQ(LoadImbalance({}), 0.0);
  EXPECT_EQ(LoadImbalance({0.0, 0.0, 0.0}), 0.0);
}

TEST(LoadImbalanceTest, UniformLoadIsOne) {
  EXPECT_DOUBLE_EQ(LoadImbalance({5.0, 5.0, 5.0, 5.0}), 1.0);
}

TEST(LoadImbalanceTest, MaxOverMean) {
  // max 3 over mean 1.5.
  EXPECT_DOUBLE_EQ(LoadImbalance({3.0, 1.0, 1.0, 1.0}), 2.0);
}

TEST(RebalancePlanTest, UniformCountsProduceNoPlan) {
  const auto counts = UniformCounts(4, 8, 100);
  const RebalancePlan plan =
      ComputeRebalancePlan(counts, kTupleBytes, kNoCap, RebalanceOptions{});
  EXPECT_FALSE(plan.active);
  EXPECT_EQ(plan.overridden_bins, 0);
  EXPECT_EQ(plan.DestinationsFor(0), nullptr);
}

TEST(RebalancePlanTest, FewerThanTwoProcessesNeverPlan) {
  const auto counts = UniformCounts(1, 8, 1000);
  EXPECT_FALSE(ComputeRebalancePlan(counts, kTupleBytes, kNoCap,
                                    RebalanceOptions{})
                   .active);
}

TEST(RebalancePlanTest, EmptyRelationProducesNoPlan) {
  const auto counts = UniformCounts(4, 8, 0);
  EXPECT_FALSE(ComputeRebalancePlan(counts, kTupleBytes, kNoCap,
                                    RebalanceOptions{})
                   .active);
}

TEST(RebalancePlanTest, SkewAcrossBinsButBalancedAcrossProcessesNoPlan) {
  // Bin 0 is globally heavy but every process holds an equal share of
  // it: static routing is already balanced, so no plan.
  auto counts = UniformCounts(4, 8, 10);
  for (size_t p = 0; p < 4; ++p) counts[p][0] = 150;
  EXPECT_FALSE(ComputeRebalancePlan(counts, kTupleBytes, kNoCap,
                                    RebalanceOptions{})
                   .active);
}

TEST(RebalancePlanTest, SingleHeavyBinIsReplicated) {
  // One process holds a heavy-hitter bin: the quadratic duplicate-key
  // model wants the probe stream split, so the bin is replicated, not
  // merely consolidated.
  auto counts = UniformCounts(4, 8, 10);
  counts[0][0] = 2000;
  const RebalancePlan plan =
      ComputeRebalancePlan(counts, kTupleBytes, kNoCap, RebalanceOptions{});
  ASSERT_TRUE(plan.active);
  EXPECT_EQ(plan.num_bins, 8u);
  EXPECT_EQ(plan.shift, 61);  // bin = top 3 bits
  EXPECT_EQ(plan.overridden_bins, 1);
  EXPECT_EQ(plan.replicated_bins, 1);
  ASSERT_FALSE(plan.destinations[0].empty());
  EXPECT_GT(plan.destinations[0].size(), 1u);
  // Destination lists are sorted (determinism contract).
  for (size_t i = 1; i < plan.destinations[0].size(); ++i) {
    EXPECT_LT(plan.destinations[0][i - 1], plan.destinations[0][i]);
  }
  // Only the heavy bin is overridden.
  for (uint32_t b = 1; b < 8; ++b) EXPECT_TRUE(plan.destinations[b].empty());
  // DestinationsFor routes by the top bits: hash 0 is in bin 0.
  EXPECT_NE(plan.DestinationsFor(0), nullptr);
  EXPECT_EQ(plan.DestinationsFor(UINT64_MAX), nullptr);  // bin 7: static
}

TEST(RebalancePlanTest, ConsolidationWorseThanStaticIsRejected) {
  // max_replicas = 1 forbids splitting the probe stream; moving the
  // whole bin to one process cannot beat leaving it where it is, so the
  // plan must deactivate rather than churn tuples for nothing.
  auto counts = UniformCounts(4, 8, 10);
  counts[0][0] = 2000;
  RebalanceOptions options;
  options.max_replicas = 1;
  const RebalancePlan plan =
      ComputeRebalancePlan(counts, kTupleBytes, kNoCap, options);
  EXPECT_FALSE(plan.active);
  EXPECT_EQ(plan.overridden_bins, 0);
}

TEST(RebalancePlanTest, CapacityBlocksInfeasibleMigration) {
  // No destination can absorb the heavy bin's bytes: the bin keeps its
  // static route and the plan deactivates (the overflow protocol owns
  // memory pressure, docs/skew.md).
  auto counts = UniformCounts(4, 8, 10);
  counts[0][0] = 2000;
  const uint64_t capacity = 100 * kTupleBytes;  // < 2030 tuples' bytes
  const RebalancePlan plan = ComputeRebalancePlan(counts, kTupleBytes,
                                                  capacity, RebalanceOptions{});
  EXPECT_FALSE(plan.active);
  EXPECT_EQ(plan.overridden_bins, 0);
}

TEST(RebalancePlanTest, ImbalanceThresholdGates) {
  auto counts = UniformCounts(4, 8, 10);
  counts[0][0] = 2000;
  RebalanceOptions lax;
  lax.imbalance_threshold = 100.0;  // imbalance ~4x is below this
  EXPECT_FALSE(
      ComputeRebalancePlan(counts, kTupleBytes, kNoCap, lax).active);
}

TEST(RebalancePlanTest, DeterministicForIdenticalInputs) {
  auto counts = UniformCounts(4, 16, 7);
  counts[1][3] = 900;
  counts[2][12] = 1500;
  const RebalancePlan a =
      ComputeRebalancePlan(counts, kTupleBytes, kNoCap, RebalanceOptions{});
  const RebalancePlan b =
      ComputeRebalancePlan(counts, kTupleBytes, kNoCap, RebalanceOptions{});
  EXPECT_EQ(a.active, b.active);
  EXPECT_EQ(a.destinations, b.destinations);
  EXPECT_EQ(a.overridden_bins, b.overridden_bins);
  EXPECT_EQ(a.replicated_bins, b.replicated_bins);
}

TEST(RebalancePlanTest, SerializedBytesCountsOneEntryPerDestination) {
  auto counts = UniformCounts(4, 8, 10);
  counts[0][0] = 2000;
  const RebalancePlan plan =
      ComputeRebalancePlan(counts, kTupleBytes, kNoCap, RebalanceOptions{});
  ASSERT_TRUE(plan.active);
  uint64_t entries = 0;
  for (const auto& d : plan.destinations) entries += d.size();
  EXPECT_GT(entries, 0u);
  EXPECT_EQ(plan.SerializedBytes(), SplitTable::SerializedBytesFor(entries));
  EXPECT_EQ(RebalancePlan{}.SerializedBytes(), 0u);
}

TEST(RebalancePlanTest, RouteProbeSpreadsReplicatedBinsPerProducer) {
  // Four bins (top two hash bits): bin 1 replicated over processes
  // {1, 2, 3}, bin 3 dedicated to process 0, bins 0 and 2 static.
  RebalancePlan plan;
  plan.active = true;
  plan.num_bins = 4;
  plan.shift = 62;
  plan.destinations = {{}, {1, 2, 3}, {}, {0}};
  plan.Install(3);
  const uint64_t replicated = (uint64_t{1} << 62) + 5;
  const uint64_t dedicated = (uint64_t{3} << 62) + 5;
  const uint64_t untouched = (uint64_t{2} << 62) + 5;

  // Each producer's cursor starts at its own index and advances only
  // with its own probes: producer 0 cycles 1, 2, 3, 1; producer 2
  // starts at the third destination.
  for (size_t expected : {1u, 2u, 3u, 1u}) {
    EXPECT_EQ(plan.RouteProbe(0, replicated, 7), expected);
  }
  EXPECT_EQ(plan.RouteProbe(2, replicated, 7), 3u);
  EXPECT_EQ(plan.RouteProbe(2, replicated, 7), 1u);
  EXPECT_EQ(plan.RouteProbe(1, replicated, 7), 2u);

  // A dedicated bin always goes to its one destination; a bin without
  // an override keeps the caller's static route.
  EXPECT_EQ(plan.RouteProbe(1, dedicated, 7), 0u);
  EXPECT_EQ(plan.RouteProbe(0, untouched, 5), 5u);
  EXPECT_EQ(plan.RouteProbe(0, 5, 6), 6u);  // bin 0

  // An inactive plan routes everything statically.
  plan.active = false;
  EXPECT_EQ(plan.RouteProbe(0, replicated, 4), 4u);
}

TEST(GatherBinCountsTest, CopiesEachProcessHistogramAndChargesItsSite) {
  sim::Machine machine(sim::MachineConfig{2, 0, sim::CostModel{}, 1});
  // Three processes; node 0 hosts processes 0 and 2.
  const std::vector<int> process_nodes = {0, 1, 0};
  std::vector<HashHistogram> hists(3, HashHistogram(8));
  for (size_t p = 0; p < hists.size(); ++p) {
    for (uint64_t k = 0; k <= p; ++k) hists[p].Add(k << 61);
  }
  machine.BeginPhase("gather");
  const std::vector<std::vector<uint64_t>> counts = GatherBinCounts(
      machine, process_nodes,
      [&](size_t p) -> const HashHistogram& { return hists[p]; });
  const double node0_cpu = machine.node(0).phase_usage().cpu_seconds;
  const double node1_cpu = machine.node(1).phase_usage().cpu_seconds;
  GAMMA_ASSERT_OK(machine.EndPhase());

  ASSERT_EQ(counts.size(), 3u);
  for (size_t p = 0; p < counts.size(); ++p) {
    ASSERT_EQ(counts[p].size(), 8u);
    for (uint32_t b = 0; b < 8; ++b) {
      EXPECT_EQ(counts[p][b], hists[p].bin_count(b)) << p << "/" << b;
    }
  }
  // One compare per bin scanned, booked on the hosting node.
  const double per_hist = 8 * machine.cost().cpu_compare_seconds;
  EXPECT_DOUBLE_EQ(node0_cpu, 2 * per_hist);
  EXPECT_DOUBLE_EQ(node1_cpu, per_hist);
}

/// Buckets `keys` the way a join process histogram would: top hash
/// bits pick the bin, low bits (mod) pick the process.
std::vector<std::vector<uint64_t>> CountsFromKeys(
    const std::vector<int32_t>& keys, size_t num_processes,
    uint32_t num_bins) {
  uint32_t shift = 64;
  for (uint32_t b = num_bins; b > 1; b >>= 1) --shift;
  auto counts = UniformCounts(num_processes, num_bins, 0);
  for (int32_t key : keys) {
    const uint64_t hash = HashJoinAttribute(key);
    ++counts[hash % num_processes][hash >> shift];
  }
  return counts;
}

TEST(RebalancePlanTest, ZipfKeysFireAPlanOnlyWhenSkewed) {
  // Zipf(1.0): one hot key dominates one bin of one process.
  const auto skewed = CountsFromKeys(
      testing::ZipfKeys(4000, 2000, /*theta=*/1.0, /*seed=*/5), 4, 256);
  EXPECT_TRUE(
      ComputeRebalancePlan(skewed, kTupleBytes, kNoCap, RebalanceOptions{})
          .active);

  // Zipf(0) is uniform: the imbalance gate declines.
  const auto uniform = CountsFromKeys(
      testing::ZipfKeys(4000, 2000, /*theta=*/0.0, /*seed=*/5), 4, 256);
  EXPECT_FALSE(
      ComputeRebalancePlan(uniform, kTupleBytes, kNoCap, RebalanceOptions{})
          .active);
}

TEST(RebalancePlanTest, HeavyHitterBinIsReplicatedAcrossProcesses) {
  // Half of all draws are one key: its bin carries a quadratic penalty
  // no single process should absorb alone.
  const auto counts = CountsFromKeys(
      testing::HeavyHitterKeys(4000, 2000, /*heavy_key=*/7,
                               /*heavy_fraction=*/0.5, /*seed=*/9),
      4, 256);
  const RebalancePlan plan =
      ComputeRebalancePlan(counts, kTupleBytes, kNoCap, RebalanceOptions{});
  ASSERT_TRUE(plan.active);
  const uint64_t hash = HashJoinAttribute(7);
  const std::vector<int>* dests = plan.DestinationsFor(hash);
  ASSERT_NE(dests, nullptr);
  EXPECT_GT(dests->size(), 1u);
  EXPECT_GE(plan.replicated_bins, 1u);
}

}  // namespace
}  // namespace gammadb::db
