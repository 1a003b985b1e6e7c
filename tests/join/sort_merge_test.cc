// Sort-merge-specific behaviour: merge-pass staircase, duplicate
// handling on both sides, and the early-termination I/O saving that
// drives the paper's Table 3 NU result.
#include <gtest/gtest.h>

#include "gamma/catalog.h"
#include "gamma/loader.h"
#include "join/driver.h"
#include "sim/machine.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::join {
namespace {

class SortMergeJoinTest : public ::testing::Test {
 protected:
  SortMergeJoinTest() : machine_(testing::SmallConfig(4)) {}

  void LoadStandard(uint32_t outer = 4000, uint32_t inner = 400) {
    wisconsin::DatasetOptions options;
    options.outer_cardinality = outer;
    options.inner_cardinality = inner;
    options.seed = 31;
    auto loaded = wisconsin::LoadJoinABprime(machine_, catalog_, options);
    GAMMA_CHECK(loaded.ok());
  }

  JoinOutput MustJoin(const std::function<void(JoinSpec&)>& mutate) {
    JoinSpec spec;
    spec.inner_relation = "Bprime";
    spec.outer_relation = "A";
    spec.algorithm = Algorithm::kSortMerge;
    spec.result_name = "sm_result";
    mutate(spec);
    auto output = ExecuteJoin(machine_, catalog_, spec);
    GAMMA_CHECK(output.ok()) << output.status().ToString();
    GAMMA_CHECK_OK(catalog_.Drop("sm_result"));
    return std::move(output).value();
  }

  sim::Machine machine_;
  db::Catalog catalog_;
};

TEST_F(SortMergeJoinTest, MergePassesStepWithMemory) {
  LoadStandard();
  // Explicit budgets: at this reduced scale ratios of the tiny inner
  // relation would clamp to the 3-page sort minimum on both sides.
  auto roomy = MustJoin(
      [](JoinSpec& s) { s.memory_bytes = 4ull * 64 * 8192; });  // 64 p/node
  auto tight = MustJoin(
      [](JoinSpec& s) { s.memory_bytes = 4ull * 3 * 8192; });  // 3 p/node
  EXPECT_EQ(roomy.stats.result_tuples, 400u);
  EXPECT_EQ(tight.stats.result_tuples, 400u);
  EXPECT_GE(tight.stats.outer_sort_passes, roomy.stats.outer_sort_passes);
  EXPECT_GT(tight.stats.outer_sort_passes, 0);
  EXPECT_GT(tight.metrics.counters.pages_written,
            roomy.metrics.counters.pages_written);
}

TEST_F(SortMergeJoinTest, EarlyTerminationSkipsOuterTail) {
  // Inner join values confined to the bottom 10% of the outer domain:
  // once the sorted inner stream is exhausted the merge must stop, so
  // the full-domain run reads measurably more than the confined run.
  LoadStandard(4000, 400);

  // Build a second inner relation whose unique1 values are all < 400.
  wisconsin::GenOptions gen;
  gen.cardinality = 4000;
  gen.seed = 31;
  auto outer_tuples = wisconsin::Generate(gen);
  std::vector<storage::Tuple> low;
  const auto schema = wisconsin::WisconsinSchema();
  for (const auto& t : outer_tuples) {
    if (t.GetInt32(schema, wisconsin::fields::kUnique1) < 400) {
      low.push_back(t);
    }
  }
  ASSERT_EQ(low.size(), 400u);
  auto rel = catalog_.Create(machine_, "LowInner", schema);
  ASSERT_TRUE(rel.ok());
  db::LoadOptions load;
  load.strategy = db::PartitionStrategy::kHashed;
  load.partition_field = wisconsin::fields::kUnique1;
  ASSERT_TRUE(db::LoadRelation(*rel, low, load).ok());

  auto spread = MustJoin([](JoinSpec& s) { s.memory_ratio = 0.5; });
  auto confined = MustJoin([](JoinSpec& s) {
    s.inner_relation = "LowInner";
    s.memory_ratio = 0.5;
  });
  EXPECT_EQ(spread.stats.result_tuples, 400u);
  EXPECT_EQ(confined.stats.result_tuples, 400u);
  // The confined inner ends the merge after ~10% of the outer stream.
  EXPECT_LT(confined.metrics.counters.pages_read,
            spread.metrics.counters.pages_read);
  EXPECT_LT(confined.response_seconds(), spread.response_seconds());
}

TEST_F(SortMergeJoinTest, DuplicatesOnBothSides) {
  // Join on a 10-value attribute: every inner tuple matches 1/10th of
  // the outer relation; inner duplicate groups must be buffered and
  // re-joined for every matching outer tuple.
  LoadStandard(600, 60);
  auto inner_rel = catalog_.Get("Bprime");
  auto outer_rel = catalog_.Get("A");
  ASSERT_TRUE(inner_rel.ok() && outer_rel.ok());
  const auto expected = testing::ReferenceJoin(
      (*inner_rel)->PeekAllTuples(), (*inner_rel)->schema(),
      wisconsin::fields::kTen, (*outer_rel)->PeekAllTuples(),
      (*outer_rel)->schema(), wisconsin::fields::kTen);

  JoinSpec spec;
  spec.inner_relation = "Bprime";
  spec.outer_relation = "A";
  spec.inner_field = wisconsin::fields::kTen;
  spec.outer_field = wisconsin::fields::kTen;
  spec.algorithm = Algorithm::kSortMerge;
  spec.memory_ratio = 0.4;
  spec.result_name = "dup_result";
  auto output = ExecuteJoin(machine_, catalog_, spec);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  auto result_rel = catalog_.Get("dup_result");
  ASSERT_TRUE(result_rel.ok());
  EXPECT_EQ(testing::Canonical((*result_rel)->PeekAllTuples()),
            testing::Canonical(expected));
  EXPECT_EQ(output->stats.result_tuples, expected.size());
}

TEST_F(SortMergeJoinTest, FilterSavesSortAndMergeWork) {
  LoadStandard();
  auto plain = MustJoin([](JoinSpec& s) { s.memory_ratio = 0.25; });
  auto filtered = MustJoin([](JoinSpec& s) {
    s.memory_ratio = 0.25;
    s.use_bit_filters = true;
  });
  EXPECT_EQ(filtered.stats.result_tuples, 400u);
  EXPECT_GT(filtered.metrics.counters.filter_drops, 0);
  // Eliminated outer tuples are never written to the temp files.
  EXPECT_LT(filtered.metrics.counters.pages_written,
            plain.metrics.counters.pages_written);
  EXPECT_LT(filtered.response_seconds(), plain.response_seconds());
}

TEST(SortMergeBudgetTest, HugeBudgetSortsInMemoryAtAnyThreadCount) {
  // A budget far above the input must sort in memory, like ratio 1000
  // does, and allocate no more than the input: ratio 1e7 asks for
  // ~31.7M sort pages per node, and 2^32 pages per node must not wrap
  // to the 3-page minimum.
  for (const int threads : {1, 4, 8}) {
    SCOPED_TRACE(threads);
    sim::MachineConfig config = testing::SmallConfig(8);
    config.num_threads = threads;
    sim::Machine machine(config);
    db::Catalog catalog;
    wisconsin::DatasetOptions options;
    options.outer_cardinality = 10000;
    options.inner_cardinality = 1000;
    ASSERT_TRUE(wisconsin::LoadJoinABprime(machine, catalog, options).ok());
    const auto join = [&](const std::function<void(JoinSpec&)>& mutate) {
      JoinSpec spec;
      spec.inner_relation = "Bprime";
      spec.outer_relation = "A";
      spec.algorithm = Algorithm::kSortMerge;
      spec.result_name = "sm_result";
      mutate(spec);
      auto output = ExecuteJoin(machine, catalog, spec);
      GAMMA_CHECK(output.ok()) << output.status().ToString();
      GAMMA_CHECK_OK(catalog.Drop("sm_result"));
      return std::move(output).value();
    };
    const JoinOutput reference =
        join([](JoinSpec& s) { s.memory_ratio = 1000; });
    const uint64_t pages_2_32 =
        (uint64_t{1} << 32) * machine.cost().page_bytes * 8;
    for (const JoinOutput& output :
         {reference, join([](JoinSpec& s) { s.memory_ratio = 1e7; }),
          join([&](JoinSpec& s) { s.memory_bytes = pages_2_32; })}) {
      EXPECT_EQ(output.stats.result_tuples, 1000u);
      EXPECT_EQ(output.stats.inner_sort_passes, 0);
      EXPECT_EQ(output.stats.outer_sort_passes, 0);
      EXPECT_EQ(output.response_seconds(), reference.response_seconds());
    }
  }
}

}  // namespace
}  // namespace gammadb::join
