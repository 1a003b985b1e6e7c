#include "gamma/loader.h"

#include <gtest/gtest.h>

#include "common/hash.h"
#include "sim/fault.h"
#include "sim/machine.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::db {
namespace {

class LoaderTest : public ::testing::Test {
 protected:
  LoaderTest() : machine_(sim::MachineConfig{4, 0, sim::CostModel{}, 1}) {}

  StoredRelation* CreateAndLoad(const LoadOptions& options, uint32_t n = 4000) {
    auto rel = catalog_.Create(machine_, "r" + std::to_string(counter_++),
                               wisconsin::WisconsinSchema());
    EXPECT_TRUE(rel.ok());
    wisconsin::GenOptions gen;
    gen.cardinality = n;
    gen.seed = 3;
    auto status = LoadRelation(*rel, wisconsin::Generate(gen), options);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return *rel;
  }

  sim::Machine machine_;
  Catalog catalog_;
  int counter_ = 0;
};

TEST_F(LoaderTest, RoundRobinBalancesExactly) {
  LoadOptions options;
  options.strategy = PartitionStrategy::kRoundRobin;
  StoredRelation* rel = CreateAndLoad(options);
  for (size_t i = 0; i < rel->num_fragments(); ++i) {
    EXPECT_EQ(rel->fragment(i).tuple_count(), 1000u);
  }
}

TEST_F(LoaderTest, HashedPlacementMatchesModRule) {
  LoadOptions options;
  options.strategy = PartitionStrategy::kHashed;
  options.partition_field = wisconsin::fields::kUnique1;
  StoredRelation* rel = CreateAndLoad(options);
  // Every tuple must live on site hash(unique1) mod 4 — the invariant
  // HPJA short-circuiting depends on.
  const auto& schema = rel->schema();
  for (size_t frag = 0; frag < rel->num_fragments(); ++frag) {
    for (const auto& t : rel->fragment(frag).PeekAll()) {
      const int32_t key =
          t.GetInt32(schema, wisconsin::fields::kUnique1);
      EXPECT_EQ(HashJoinAttribute(key, options.hash_seed) % 4, frag);
    }
  }
  EXPECT_EQ(rel->total_tuples(), 4000u);
}

TEST_F(LoaderTest, RangeUserRespectsBoundaries) {
  LoadOptions options;
  options.strategy = PartitionStrategy::kRangeUser;
  options.partition_field = wisconsin::fields::kUnique1;
  options.range_boundaries = {999, 1999, 2999};
  StoredRelation* rel = CreateAndLoad(options);
  const auto& schema = rel->schema();
  const int32_t los[] = {0, 1000, 2000, 3000};
  const int32_t his[] = {999, 1999, 2999, 3999};
  for (size_t frag = 0; frag < 4; ++frag) {
    EXPECT_EQ(rel->fragment(frag).tuple_count(), 1000u);
    for (const auto& t : rel->fragment(frag).PeekAll()) {
      const int32_t key = t.GetInt32(schema, wisconsin::fields::kUnique1);
      EXPECT_GE(key, los[frag]);
      EXPECT_LE(key, his[frag]);
    }
  }
}

TEST_F(LoaderTest, RangeUniformEqualizesSkewedData) {
  // Normal-distributed partitioning attribute: range-uniform must still
  // give every site an equal share (the paper's skew-experiment setup).
  auto rel = catalog_.Create(machine_, "skewed", wisconsin::WisconsinSchema());
  ASSERT_TRUE(rel.ok());
  wisconsin::GenOptions gen;
  gen.cardinality = 4000;
  gen.with_normal_attr = true;
  gen.normal_mean = 2000;
  gen.normal_stddev = 100;
  gen.normal_max = 3999;
  LoadOptions options;
  options.strategy = PartitionStrategy::kRangeUniform;
  options.partition_field = wisconsin::fields::kNormal;
  ASSERT_TRUE(LoadRelation(*rel, wisconsin::Generate(gen), options).ok());
  for (size_t frag = 0; frag < 4; ++frag) {
    EXPECT_NEAR((*rel)->fragment(frag).tuple_count(), 1000u, 60u);
  }
}

TEST_F(LoaderTest, UniformRangeBoundariesQuantiles) {
  std::vector<int32_t> values;
  for (int32_t v = 0; v < 100; ++v) values.push_back(v);
  const auto boundaries = UniformRangeBoundaries(values, 4);
  EXPECT_EQ(boundaries, (std::vector<int32_t>{24, 49, 74}));
  EXPECT_TRUE(UniformRangeBoundaries(values, 1).empty());
}

TEST_F(LoaderTest, RejectsNonEmptyRelation) {
  LoadOptions options;
  StoredRelation* rel = CreateAndLoad(options, 100);
  wisconsin::GenOptions gen;
  gen.cardinality = 10;
  auto status = LoadRelation(rel, wisconsin::Generate(gen), options);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(LoaderTest, RejectsBadPartitionField) {
  auto rel = catalog_.Create(machine_, "bad", wisconsin::WisconsinSchema());
  ASSERT_TRUE(rel.ok());
  wisconsin::GenOptions gen;
  gen.cardinality = 10;
  const auto tuples = wisconsin::Generate(gen);
  LoadOptions options;
  options.partition_field = 99;
  EXPECT_EQ(LoadRelation(*rel, tuples, options).code(),
            StatusCode::kInvalidArgument);
  options.partition_field = wisconsin::fields::kStringU1;  // not int32
  EXPECT_EQ(LoadRelation(*rel, tuples, options).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LoaderTest, RejectsBadRangeBoundaries) {
  auto rel = catalog_.Create(machine_, "bad2", wisconsin::WisconsinSchema());
  ASSERT_TRUE(rel.ok());
  wisconsin::GenOptions gen;
  gen.cardinality = 10;
  const auto tuples = wisconsin::Generate(gen);
  LoadOptions options;
  options.strategy = PartitionStrategy::kRangeUser;
  options.range_boundaries = {5, 3, 8};  // not ascending (and 3 needed)
  EXPECT_EQ(LoadRelation(*rel, tuples, options).code(),
            StatusCode::kInvalidArgument);
  options.range_boundaries = {5};  // wrong count
  EXPECT_EQ(LoadRelation(*rel, tuples, options).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LoaderTest, HardWriteFaultReturnsUnavailable) {
  // A page write that exhausts the disk's retry budget is returned to
  // the caller, never aborted on.
  sim::FaultPlan plan;
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kDiskWriteTransient;
  e.node = 0;
  e.ordinal = 1;
  e.repeat = sim::Disk::kMaxIoAttempts;
  plan.Add(e);
  machine_.ArmFaults(plan);

  auto rel = catalog_.Create(machine_, "faulty", wisconsin::WisconsinSchema());
  ASSERT_TRUE(rel.ok());
  wisconsin::GenOptions gen;
  gen.cardinality = 400;
  const Status status = LoadRelation(*rel, wisconsin::Generate(gen),
                                     LoadOptions{});
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  EXPECT_EQ(machine_.node(0).counters().disk_write_faults,
            sim::Disk::kMaxIoAttempts);
}

}  // namespace
}  // namespace gammadb::db
