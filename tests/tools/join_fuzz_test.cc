// Tests for the differential fuzzer library behind tools/join_fuzz:
// generator determinism, repro-line round-trips, shrinker convergence on
// a synthetically injected mismatch, and regression configs the fuzzer
// found in real engine code.
#include <gtest/gtest.h>

#include <string>

#include "testing/fuzz.h"

namespace gammadb::testing {
namespace {

TEST(FuzzConfig, ReproLineRoundTrips) {
  FuzzConfig config;
  config.data_seed = 780923712;
  config.algorithm = join::Algorithm::kSimpleHash;
  config.threads = 4;
  config.inner_tuples = 250;
  config.outer_tuples = 4;
  config.key_domain = 5;
  config.zipf_theta = 1.0;
  config.sel_pct = 60;
  config.memory_pct = 35;
  config.zero_slack = true;
  config.hpja = true;
  config.remote = true;
  config.procs = 3;
  config.bit_filters = true;
  config.forming_bit_filters = true;
  config.adaptive_repartition = true;
  config.fault_seed = 17;
  config.inject_mismatch = true;

  const std::string line = config.ToReproString();
  EXPECT_NE(line.find(" procs=3 "), std::string::npos) << line;
  const Result<FuzzConfig> parsed = FuzzConfig::FromReproString(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->procs, 3);
  EXPECT_EQ(parsed->ToReproString(), line);
}

TEST(FuzzConfig, RejectsMalformedReproLines) {
  EXPECT_FALSE(FuzzConfig::FromReproString("").ok());
  EXPECT_FALSE(FuzzConfig::FromReproString("not a repro line").ok());
  EXPECT_FALSE(FuzzConfig::FromReproString("algo=quantum threads=1").ok());
  EXPECT_FALSE(FuzzConfig::FromReproString("algo=sort-merge threads=zero").ok());
  EXPECT_FALSE(FuzzConfig::FromReproString("algo=grace-hash procs=0").ok());
}

TEST(RandomConfig, DeterministicPerSeed) {
  for (uint64_t seed : {1ULL, 42ULL, 20260808ULL}) {
    EXPECT_EQ(RandomConfig(seed).ToReproString(),
              RandomConfig(seed).ToReproString())
        << "seed " << seed;
  }
  EXPECT_NE(RandomConfig(1).ToReproString(), RandomConfig(2).ToReproString());
}

TEST(RandomConfig, SeededBatchMatchesOracle) {
  // A fast in-process slice of what tools/join_fuzz runs at scale (the
  // join_fuzz_smoke ctest covers a bigger batch through the binary).
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const FuzzConfig config = RandomConfig(seed);
    const Result<FuzzRunResult> run = RunFuzzConfig(config);
    ASSERT_TRUE(run.ok()) << config.ToReproString() << "\n  "
                          << run.status().ToString();
    EXPECT_TRUE(run->ok()) << config.ToReproString() << "\n  engine "
                           << run->engine.ToString() << "\n  oracle "
                           << run->oracle.ToString();
  }
}

TEST(ShrinkFailure, ConvergesToMinimalInjectedMismatch) {
  // The injected-mismatch hook only fires for bit_filters && inner>=2 &&
  // outer>=32, so a correct greedy shrinker must land exactly on that
  // boundary with every other axis at its minimum.
  FuzzConfig failing;
  failing.data_seed = 7;
  failing.algorithm = join::Algorithm::kHybridHash;
  failing.threads = 8;
  failing.inner_tuples = 40;
  failing.outer_tuples = 400;
  failing.key_domain = 10;
  failing.zipf_theta = 0.5;
  failing.memory_pct = 35;
  failing.hpja = true;
  failing.procs = 3;
  failing.bit_filters = true;
  failing.adaptive_repartition = true;
  failing.inject_mismatch = true;

  const Result<FuzzRunResult> original = RunFuzzConfig(failing);
  ASSERT_TRUE(original.ok());
  ASSERT_FALSE(original->ok()) << "injected mismatch did not fire";

  const ShrinkResult shrunk = ShrinkFailure(failing);
  ASSERT_TRUE(shrunk.reproduced);
  EXPECT_GT(shrunk.runs, 0);
  const FuzzConfig& m = shrunk.config;
  EXPECT_EQ(m.inner_tuples, 2u);
  EXPECT_EQ(m.outer_tuples, 32u);
  EXPECT_TRUE(m.bit_filters);
  EXPECT_EQ(m.algorithm, join::Algorithm::kSortMerge);
  EXPECT_EQ(m.threads, 1);
  EXPECT_EQ(m.procs, 1);
  EXPECT_EQ(m.key_domain, 1u);
  EXPECT_EQ(m.zipf_theta, 0.0);
  EXPECT_EQ(m.memory_pct, 100);
  EXPECT_FALSE(m.hpja);
  EXPECT_FALSE(m.adaptive_repartition);

  // The shrunk config still fails, and its repro line round-trips to a
  // config that fails the same way.
  const Result<FuzzConfig> reparsed =
      FuzzConfig::FromReproString(m.ToReproString());
  ASSERT_TRUE(reparsed.ok());
  const Result<FuzzRunResult> rerun = RunFuzzConfig(*reparsed);
  ASSERT_TRUE(rerun.ok());
  EXPECT_FALSE(rerun->ok());
}

TEST(RegressionConfigs, RebalanceCapacityOverflow) {
  // Found by the fuzzer (batch seed 42, config seed 92): the rebalance
  // planner freed every heavy bin's resident bytes up front, so a heavy
  // bin that later found no destination returned to a process whose
  // space had already been promised to migrated bins, overflowing the
  // hash table mid-migration.
  const Result<FuzzConfig> config = FuzzConfig::FromReproString(
      "algo=simple-hash threads=4 inner=250 outer=4 domain=5 theta=1.000 "
      "sel=100 mem=100 slack0=0 hpja=0 remote=1 bf=0 fbf=0 adapt=1 faults=0 "
      "data=780923712 inject=0");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const Result<FuzzRunResult> run = RunFuzzConfig(*config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->ok()) << "engine " << run->engine.ToString() << "\n  oracle "
                         << run->oracle.ToString();
}

}  // namespace
}  // namespace gammadb::testing
