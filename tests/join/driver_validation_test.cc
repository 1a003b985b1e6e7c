// Error handling of the join driver: every invalid spec must come back
// as a Status, never a crash, and never leave a result relation behind.
#include <gtest/gtest.h>

#include <limits>

#include "gamma/catalog.h"
#include "join/driver.h"
#include "sim/machine.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::join {
namespace {

class DriverValidationTest : public ::testing::Test {
 protected:
  DriverValidationTest() : machine_(testing::SmallConfig(4, 2)) {
    wisconsin::DatasetOptions options;
    options.outer_cardinality = 1000;
    options.inner_cardinality = 100;
    auto loaded = wisconsin::LoadJoinABprime(machine_, catalog_, options);
    GAMMA_CHECK(loaded.ok());
  }

  JoinSpec ValidSpec() {
    JoinSpec spec;
    spec.inner_relation = "Bprime";
    spec.outer_relation = "A";
    return spec;
  }

  sim::Machine machine_;
  db::Catalog catalog_;
};

TEST_F(DriverValidationTest, UnknownRelation) {
  JoinSpec spec = ValidSpec();
  spec.inner_relation = "nope";
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kNotFound);
}

TEST_F(DriverValidationTest, BadJoinField) {
  JoinSpec spec = ValidSpec();
  spec.inner_field = 99;
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kInvalidArgument);
  spec = ValidSpec();
  spec.outer_field = wisconsin::fields::kStringU1;  // not int32
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DriverValidationTest, BadJoinNodes) {
  JoinSpec spec = ValidSpec();
  // Duplicate ids are LEGAL (two join processes on one node).
  spec.join_nodes = {0, 0};
  spec.result_name = "two_procs";
  auto two = ExecuteJoin(machine_, catalog_, spec);
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  EXPECT_EQ(two->stats.result_tuples, 100u);
  EXPECT_TRUE(catalog_.Drop("two_procs").ok());
  spec.result_name.clear();
  spec.join_nodes = {99};
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.join_nodes = {-1};
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DriverValidationTest, SortMergeRejectsDisklessJoiners) {
  JoinSpec spec = ValidSpec();
  spec.algorithm = Algorithm::kSortMerge;
  spec.join_nodes = machine_.DisklessNodeIds();
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DriverValidationTest, ZeroMemory) {
  JoinSpec spec = ValidSpec();
  spec.memory_ratio = 0.0;
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DriverValidationTest, UnrepresentableMemoryInputs) {
  // None of these yields a budget with a defined conversion to bytes.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double ratio : {nan, -0.5, inf, 1e30}) {
    JoinSpec spec = ValidSpec();
    spec.memory_ratio = ratio;
    spec.result_name = "should_not_exist";
    EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
              StatusCode::kInvalidArgument)
        << "memory_ratio " << ratio;
    EXPECT_FALSE(catalog_.Get("should_not_exist").ok());
  }
  for (double slack : {nan, -2.0, -0.5, inf}) {
    JoinSpec spec = ValidSpec();
    spec.memory_slack = slack;
    spec.result_name = "should_not_exist";
    EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
              StatusCode::kInvalidArgument)
        << "memory_slack " << slack;
    EXPECT_FALSE(catalog_.Get("should_not_exist").ok());
  }
  // One join process with the largest explicit budget plus slack.
  JoinSpec spec = ValidSpec();
  spec.memory_bytes = std::numeric_limits<uint64_t>::max();
  spec.join_nodes = {0};
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DriverValidationTest, CapacityBelowOneTuple) {
  JoinSpec spec = ValidSpec();
  spec.memory_bytes = 100;  // < 208 bytes per node
  spec.memory_slack = 0.0;
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DriverValidationTest, ResultNameCollision) {
  JoinSpec spec = ValidSpec();
  spec.result_name = "A";  // already exists
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DriverValidationTest, ExplicitMemoryBytesOverridesRatio) {
  // Each ratio would be invalid alone.
  for (double ratio : {0.0, std::numeric_limits<double>::quiet_NaN()}) {
    JoinSpec spec = ValidSpec();
    spec.memory_ratio = ratio;
    spec.memory_bytes = 100u * 208u;  // 100 tuples aggregate
    auto output = ExecuteJoin(machine_, catalog_, spec);
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    EXPECT_EQ(output->stats.result_tuples, 100u);
    EXPECT_TRUE(catalog_.Drop(output->result_relation).ok());
  }
}

TEST_F(DriverValidationTest, FailedRunLeavesNoResultRelation) {
  JoinSpec spec = ValidSpec();
  spec.inner_field = 99;
  spec.result_name = "should_not_exist";
  EXPECT_FALSE(ExecuteJoin(machine_, catalog_, spec).ok());
  EXPECT_FALSE(catalog_.Get("should_not_exist").ok());
}

TEST_F(DriverValidationTest, RelationsNotDeclusteredOverEveryDisk) {
  // The fixture's relations are declustered over 4 disks; a machine
  // with 8 disk nodes cannot scan them with one producer per disk.
  sim::Machine wide(testing::SmallConfig(8));
  for (Algorithm algorithm :
       {Algorithm::kSortMerge, Algorithm::kSimpleHash, Algorithm::kGraceHash,
        Algorithm::kHybridHash}) {
    JoinSpec spec = ValidSpec();
    spec.algorithm = algorithm;
    spec.result_name = "should_not_exist";
    const auto output = ExecuteJoin(wide, catalog_, spec);
    EXPECT_EQ(output.status().code(), StatusCode::kInvalidArgument)
        << AlgorithmName(algorithm) << ": " << output.status().ToString();
    EXPECT_FALSE(catalog_.Get("should_not_exist").ok());
  }
}

TEST_F(DriverValidationTest, BucketCountAboveInnerTuples) {
  // Every bucket costs a fragment file per disk and phases of its own,
  // so a request is bounded by the 100 stored inner tuples, for every
  // algorithm.
  for (Algorithm algorithm :
       {Algorithm::kSortMerge, Algorithm::kSimpleHash, Algorithm::kGraceHash,
        Algorithm::kHybridHash}) {
    for (int buckets : {101, std::numeric_limits<int>::max()}) {
      JoinSpec spec = ValidSpec();
      spec.algorithm = algorithm;
      spec.num_buckets = buckets;
      spec.result_name = "should_not_exist";
      EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
                StatusCode::kInvalidArgument)
          << AlgorithmName(algorithm) << " with " << buckets << " buckets";
      EXPECT_FALSE(catalog_.Get("should_not_exist").ok());
    }
  }
  JoinSpec spec = ValidSpec();
  spec.algorithm = Algorithm::kGraceHash;
  spec.num_buckets = 100;
  auto at_bound = ExecuteJoin(machine_, catalog_, spec);
  ASSERT_TRUE(at_bound.ok()) << at_bound.status().ToString();
  EXPECT_EQ(at_bound->stats.num_buckets, 100);
  EXPECT_EQ(at_bound->stats.result_tuples, 100u);
  EXPECT_TRUE(catalog_.Drop(at_bound->result_relation).ok());

  // The optimizer's own count is capped the same way: a 10^8-tuple
  // estimate against 10^6 bytes would ask for 20,798 buckets.
  spec.num_buckets.reset();
  spec.estimated_inner_tuples = 100000000;
  spec.memory_bytes = 1000000;
  auto estimated = ExecuteJoin(machine_, catalog_, spec);
  ASSERT_TRUE(estimated.ok()) << estimated.status().ToString();
  EXPECT_EQ(estimated->stats.num_buckets, 100);
  EXPECT_EQ(estimated->stats.result_tuples, 100u);
}

TEST_F(DriverValidationTest, OptimizerBucketCountFormula) {
  EXPECT_EQ(OptimizerBucketCount(1000, 1000), 1);
  EXPECT_EQ(OptimizerBucketCount(1000, 500), 2);
  EXPECT_EQ(OptimizerBucketCount(1001, 500), 3);
  EXPECT_EQ(OptimizerBucketCount(0, 500), 1);
  // Floating-point ratio tolerance: 1/3 of 2,080,000 truncated.
  EXPECT_EQ(OptimizerBucketCount(2080000, 693333), 3);
  // A count beyond int saturates instead of wrapping.
  EXPECT_EQ(OptimizerBucketCount(uint64_t{1} << 62, 1),
            std::numeric_limits<int>::max());
}

TEST_F(DriverValidationTest, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kSortMerge), "sort-merge");
  EXPECT_STREQ(AlgorithmName(Algorithm::kSimpleHash), "simple-hash");
  EXPECT_STREQ(AlgorithmName(Algorithm::kGraceHash), "grace-hash");
  EXPECT_STREQ(AlgorithmName(Algorithm::kHybridHash), "hybrid-hash");
}

}  // namespace
}  // namespace gammadb::join
