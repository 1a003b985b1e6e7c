// Tests of the Simple-hash overflow machinery as observed through whole
// joins: recursion depth, hash-function changes, eviction accounting.
#include <gtest/gtest.h>

#include "gamma/catalog.h"
#include "join/driver.h"
#include "sim/machine.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::join {
namespace {

class OverflowTest : public ::testing::Test {
 protected:
  OverflowTest() : machine_(testing::SmallConfig(4)) {
    wisconsin::DatasetOptions options;
    options.outer_cardinality = 4000;
    options.inner_cardinality = 1000;
    options.seed = 5;
    auto loaded = wisconsin::LoadJoinABprime(machine_, catalog_, options);
    GAMMA_CHECK(loaded.ok());
  }

  JoinOutput MustJoin(const std::function<void(JoinSpec&)>& mutate) {
    JoinSpec spec;
    spec.inner_relation = "Bprime";
    spec.outer_relation = "A";
    spec.algorithm = Algorithm::kSimpleHash;
    spec.result_name = "result";
    mutate(spec);
    auto output = ExecuteJoin(machine_, catalog_, spec);
    GAMMA_CHECK(output.ok()) << output.status().ToString();
    GAMMA_CHECK_OK(catalog_.Drop("result"));
    return std::move(output).value();
  }

  sim::Machine machine_;
  db::Catalog catalog_;
};

TEST_F(OverflowTest, NoOverflowAtFullMemory) {
  auto output = MustJoin([](JoinSpec& spec) { spec.memory_ratio = 1.0; });
  EXPECT_EQ(output.metrics.counters.ht_overflows, 0);
  EXPECT_EQ(output.stats.overflow_levels, 0);
  EXPECT_EQ(output.stats.result_tuples, 1000u);
}

TEST_F(OverflowTest, OverflowTriggersBelowCapacity) {
  auto output = MustJoin([](JoinSpec& spec) { spec.memory_ratio = 0.5; });
  EXPECT_GT(output.metrics.counters.ht_overflows, 0);
  EXPECT_GE(output.stats.overflow_levels, 1);
  EXPECT_EQ(output.stats.result_tuples, 1000u);
}

TEST_F(OverflowTest, RecursionDeepensAsMemoryShrinks) {
  auto half = MustJoin([](JoinSpec& spec) { spec.memory_ratio = 0.5; });
  auto tiny = MustJoin([](JoinSpec& spec) { spec.memory_ratio = 0.1; });
  EXPECT_GT(tiny.stats.overflow_levels, half.stats.overflow_levels);
  EXPECT_GT(tiny.metrics.counters.ht_overflows,
            half.metrics.counters.ht_overflows);
  EXPECT_EQ(tiny.stats.result_tuples, 1000u);
  // Repeated re-reading shows in the I/O counters.
  EXPECT_GT(tiny.metrics.counters.pages_written,
            half.metrics.counters.pages_written);
}

TEST_F(OverflowTest, OverflowJoinsUseRemixedHashFunctions) {
  // The changed hash function after overflow must spread the overflow
  // partition across all join nodes: every node should insert tuples at
  // every level, i.e. the total inserted exceeds |R| (re-inserts) and
  // the join still completes with the right answer.
  auto output = MustJoin([](JoinSpec& spec) { spec.memory_ratio = 0.25; });
  EXPECT_EQ(output.stats.result_tuples, 1000u);
  EXPECT_GT(output.metrics.counters.ht_inserts, 1000);
}

TEST_F(OverflowTest, HybridBucketZeroOverflowResolved) {
  JoinSpec spec;
  auto output = MustJoin([](JoinSpec& s) {
    s.algorithm = Algorithm::kHybridHash;
    s.memory_ratio = 0.8;
    s.num_buckets = 1;       // optimistic: force bucket-0 overflow
    s.memory_slack = 0.0;
  });
  EXPECT_GT(output.metrics.counters.ht_overflows, 0);
  EXPECT_EQ(output.stats.result_tuples, 1000u);
}

TEST_F(OverflowTest, GraceBucketOverflowResolved) {
  auto output = MustJoin([](JoinSpec& s) {
    s.algorithm = Algorithm::kGraceHash;
    s.memory_ratio = 0.5;
    s.num_buckets = 1;       // bucket bigger than memory
    s.memory_slack = 0.0;
  });
  EXPECT_GT(output.metrics.counters.ht_overflows, 0);
  EXPECT_EQ(output.stats.result_tuples, 1000u);
}

TEST_F(OverflowTest, TinyMemoryStillCorrect) {
  auto output = MustJoin([](JoinSpec& spec) { spec.memory_ratio = 0.03; });
  EXPECT_EQ(output.stats.result_tuples, 1000u);
  EXPECT_GE(output.stats.overflow_levels, 2);
}

}  // namespace
}  // namespace gammadb::join
