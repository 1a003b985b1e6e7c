// Tests of the hardened overflow path (docs/overflow.md): level-mixed
// hash seeds, the bounded-recursion matrix across all three hash
// algorithms and thread counts, and the deterministic nested-loop
// fallback on unsplittable (all-one-key) builds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hash.h"
#include "gamma/catalog.h"
#include "gamma/loader.h"
#include "join/driver.h"
#include "join/hash_engine.h"
#include "sim/machine.h"
#include "sim/metrics_json.h"
#include "storage/schema.h"
#include "testing/oracle.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::join {
namespace {

TEST(OverflowLevelSeedTest, LevelsYieldDistinctSeeds) {
  // Every recursion level must hash with a seed unrelated to every
  // other level's; the old `base + level` derivation collapsed onto
  // shifted copies of the level-0 hash multiset (hash_engine.cc).
  const uint64_t base = kDefaultHashSeed;
  EXPECT_EQ(HashJoinEngine::OverflowLevelSeed(base, 0), base);
  std::vector<uint64_t> seeds;
  for (int level = 0; level <= 16; ++level) {
    seeds.push_back(HashJoinEngine::OverflowLevelSeed(base, level));
  }
  for (size_t a = 0; a < seeds.size(); ++a) {
    for (size_t b = a + 1; b < seeds.size(); ++b) {
      EXPECT_NE(seeds[a], seeds[b]) << "levels " << a << " and " << b;
    }
    // And none may degenerate to the additive family the fix removed.
    if (a > 0) {
      EXPECT_NE(seeds[a], base + a);
    }
  }
}

struct MatrixRun {
  JoinOutput output;
  ResultDigest oracle;
  std::string metrics_json;
};

MatrixRun RunOverflowMatrix(Algorithm algorithm, int threads) {
  sim::MachineConfig config = testing::SmallConfig(4);
  config.num_threads = threads;
  sim::Machine machine(config);
  db::Catalog catalog;
  auto loaded = wisconsin::LoadJoinABprime(machine, catalog,
                                           testing::ABprimeDataset());
  GAMMA_CHECK(loaded.ok());

  // Starved enough that every hash algorithm recurses at least twice.
  JoinSpec spec = testing::ABprimeSpec(algorithm, 0.03);
  spec.num_buckets = 1;  // Grace/Hybrid: one over-memory bucket
  spec.memory_slack = 0.0;

  MatrixRun run;
  auto oracle = testing::OracleJoinDigest(catalog, spec);
  GAMMA_CHECK(oracle.ok());
  run.oracle = *oracle;
  auto output = ExecuteJoin(machine, catalog, spec);
  GAMMA_CHECK(output.ok()) << output.status().ToString();
  run.output = std::move(output).value();
  run.metrics_json = sim::RunMetricsToJson(run.output.metrics).Dump();
  return run;
}

TEST(OverflowRecursionMatrixTest, DeepRecursionIsCorrectAndDeterministic) {
  // For each hash algorithm: a config whose overflow recursion reaches
  // at least two levels must (a) produce the oracle's exact result
  // multiset, (b) emit byte-identical metrics JSON at 1, 4 and 8
  // executor threads (the determinism contract, DESIGN.md), and (c)
  // refill exactly the bytes it spilled, with the same spill total at
  // every thread count (probe-side producers spool on behalf of join
  // processes on other nodes; the broker entry they book must be their
  // own, or concurrent tasks race on one counter).
  for (Algorithm algorithm : {Algorithm::kSimpleHash, Algorithm::kGraceHash,
                              Algorithm::kHybridHash}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    const MatrixRun serial = RunOverflowMatrix(algorithm, 1);
    EXPECT_GE(serial.output.stats.overflow_levels, 2);
    ASSERT_TRUE(serial.output.result_digest.has_value());
    EXPECT_EQ(*serial.output.result_digest, serial.oracle);
    EXPECT_GT(serial.output.stats.spill_bytes, 0);
    EXPECT_EQ(serial.output.stats.spill_bytes,
              serial.output.stats.refill_bytes);
    for (int threads : {4, 8}) {
      SCOPED_TRACE(threads);
      const MatrixRun threaded = RunOverflowMatrix(algorithm, threads);
      EXPECT_EQ(threaded.metrics_json, serial.metrics_json);
      ASSERT_TRUE(threaded.output.result_digest.has_value());
      EXPECT_EQ(*threaded.output.result_digest, serial.oracle);
      EXPECT_EQ(threaded.output.stats.spill_bytes,
                serial.output.stats.spill_bytes);
      EXPECT_EQ(threaded.output.stats.spill_bytes,
                threaded.output.stats.refill_bytes);
    }
  }
}

class NestedLoopFallbackTest : public ::testing::Test {
 protected:
  NestedLoopFallbackTest() : machine_(testing::SmallConfig(4)) {}

  /// Loads R (inner) and S (outer) where EVERY tuple carries the same
  /// join key — the partition no rehash can split.
  void LoadOneKeyRelations(size_t inner_tuples, size_t outer_tuples) {
    const storage::Schema schema({storage::Field::Int32("key"),
                                  storage::Field::Int32("val")});
    const auto make = [&](size_t n) {
      std::vector<storage::Tuple> tuples;
      for (size_t i = 0; i < n; ++i) {
        storage::Tuple t(schema.tuple_bytes());
        t.SetInt32(schema, 0, 7);
        t.SetInt32(schema, 1, static_cast<int32_t>(i));
        tuples.push_back(std::move(t));
      }
      return tuples;
    };
    auto inner = catalog_.Create(machine_, "R", schema);
    auto outer = catalog_.Create(machine_, "S", schema);
    GAMMA_CHECK(inner.ok() && outer.ok());
    db::LoadOptions options;
    options.strategy = db::PartitionStrategy::kRoundRobin;
    GAMMA_CHECK_OK(db::LoadRelation(*inner, make(inner_tuples), options));
    GAMMA_CHECK_OK(db::LoadRelation(*outer, make(outer_tuples), options));
  }

  JoinOutput MustJoin(const std::function<void(JoinSpec&)>& mutate) {
    JoinSpec spec;
    spec.inner_relation = "R";
    spec.outer_relation = "S";
    spec.algorithm = Algorithm::kSimpleHash;
    spec.result_name = "result";
    spec.capture_results = true;
    mutate(spec);
    auto oracle = testing::OracleJoinDigest(catalog_, spec);
    GAMMA_CHECK(oracle.ok());
    auto output = ExecuteJoin(machine_, catalog_, spec);
    GAMMA_CHECK(output.ok()) << output.status().ToString();
    GAMMA_CHECK(output->result_digest.has_value());
    EXPECT_EQ(*output->result_digest, *oracle);
    GAMMA_CHECK_OK(catalog_.Drop("result"));
    return std::move(output).value();
  }

  sim::Machine machine_;
  db::Catalog catalog_;
};

TEST_F(NestedLoopFallbackTest, AllOneKeyBuildDegradesAndStaysCorrect) {
  // 200 identical keys against a budget of ~10 tuples per node: the
  // overflow partition can never shrink, so recursion must hand off to
  // the nested-loop fallback after one stuck level instead of failing.
  LoadOneKeyRelations(200, 300);
  auto output = MustJoin([](JoinSpec& spec) {
    spec.memory_bytes = 8u * 40;  // ~10 tuples of 8 bytes per node
    spec.memory_slack = 0.0;
  });
  EXPECT_GE(output.stats.nested_loop_fallbacks, 1);
  EXPECT_GT(output.stats.nested_loop_passes, 1);
  EXPECT_EQ(output.stats.result_tuples, 200u * 300u);
}

TEST_F(NestedLoopFallbackTest, ZeroMaxLevelsSkipsRecursionEntirely) {
  // max_overflow_levels = 0: the first overflow goes straight to the
  // fallback — no repartition level ever executes.
  LoadOneKeyRelations(100, 100);
  auto output = MustJoin([](JoinSpec& spec) {
    spec.memory_bytes = 8u * 40;
    spec.memory_slack = 0.0;
    spec.max_overflow_levels = 0;
  });
  EXPECT_EQ(output.stats.overflow_levels, 0);
  EXPECT_GE(output.stats.nested_loop_fallbacks, 1);
  EXPECT_EQ(output.stats.result_tuples, 100u * 100u);
}

TEST_F(NestedLoopFallbackTest, DepthCapTriggersFallbackOnSplittableKeys) {
  // Splittable keys but a shallow cap: recursion runs its budget of
  // levels, then the fallback finishes whatever is left.
  LoadOneKeyRelations(0, 0);  // placeholder relations, replaced below
  GAMMA_CHECK_OK(catalog_.Drop("R"));
  GAMMA_CHECK_OK(catalog_.Drop("S"));
  auto loaded = wisconsin::LoadJoinABprime(machine_, catalog_,
                                           testing::ABprimeDataset());
  GAMMA_CHECK(loaded.ok());
  JoinSpec spec = testing::ABprimeSpec(Algorithm::kSimpleHash, 0.03);
  spec.memory_slack = 0.0;
  spec.max_overflow_levels = 1;
  auto oracle = testing::OracleJoinDigest(catalog_, spec);
  GAMMA_CHECK(oracle.ok());
  auto output = ExecuteJoin(machine_, catalog_, spec);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_LE(output->stats.overflow_levels, 1);
  EXPECT_GE(output->stats.nested_loop_fallbacks, 1);
  ASSERT_TRUE(output->result_digest.has_value());
  EXPECT_EQ(*output->result_digest, *oracle);
}

TEST_F(NestedLoopFallbackTest, InvalidDepthCapRejected) {
  LoadOneKeyRelations(4, 4);
  JoinSpec spec;
  spec.inner_relation = "R";
  spec.outer_relation = "S";
  spec.max_overflow_levels = -1;
  auto output = ExecuteJoin(machine_, catalog_, spec);
  EXPECT_FALSE(output.ok());
  EXPECT_EQ(output.status().code(), StatusCode::kInvalidArgument);
}

TEST(SharedNodeOverflowTest, CoResidentProcessesShareTheNodeBudget) {
  // Two join processes pinned onto each of two nodes (Appendix A's
  // several-processes-per-processor remedy) under overflow pressure:
  // admission goes through the shared per-node broker budget and the
  // result multiset still matches the oracle.
  sim::Machine machine(testing::SmallConfig(4));
  db::Catalog catalog;
  auto loaded = wisconsin::LoadJoinABprime(machine, catalog,
                                           testing::ABprimeDataset());
  GAMMA_CHECK(loaded.ok());
  JoinSpec spec = testing::ABprimeSpec(Algorithm::kSimpleHash, 0.05);
  spec.join_nodes = {0, 0, 1, 1};
  spec.memory_slack = 0.0;
  auto oracle = testing::OracleJoinDigest(catalog, spec);
  GAMMA_CHECK(oracle.ok());
  auto output = ExecuteJoin(machine, catalog, spec);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_GT(output->metrics.counters.ht_overflows, 0);
  ASSERT_TRUE(output->result_digest.has_value());
  EXPECT_EQ(*output->result_digest, *oracle);
}

}  // namespace
}  // namespace gammadb::join
