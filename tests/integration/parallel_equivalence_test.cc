// Executor-parallelism equivalence: running the simulated nodes on a
// real thread pool must not change the simulation.
//
// The per-(src, dst) exchange lanes (sim/exchange.h) make tuple arrival
// order a pure function of the query plan, so metrics and results are
// bit-identical between the serial and multi-threaded executors even
// when hash-table overflow makes eviction cutoffs depend on arrival
// order. tests/sim/determinism_test.cc covers the full algorithm x
// scenario x thread-count matrix at the metrics-JSON level; the digest
// checks here additionally pin the result MULTISET to the same contract
// (docs/testing.md).
#include <gtest/gtest.h>

#include "gamma/catalog.h"
#include "join/driver.h"
#include "sim/machine.h"
#include "testing/oracle.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

struct RunArtifacts {
  join::JoinOutput output;
  std::vector<std::string> rows;
  /// Digest recomputed from the stored result relation — must agree
  /// with the digest the engines streamed out during execution.
  join::ResultDigest stored_digest;
};

RunArtifacts RunWith(int threads, join::Algorithm algorithm, double ratio) {
  sim::MachineConfig config = testing::SmallConfig(4);
  config.num_threads = threads;
  sim::Machine machine(config);
  db::Catalog catalog;
  auto loaded =
      wisconsin::LoadJoinABprime(machine, catalog, testing::ABprimeDataset());
  GAMMA_CHECK(loaded.ok());

  const join::JoinSpec spec = testing::ABprimeSpec(algorithm, ratio);
  auto output = join::ExecuteJoin(machine, catalog, spec);
  GAMMA_CHECK(output.ok()) << output.status().ToString();

  RunArtifacts artifacts;
  artifacts.output = std::move(output).value();
  auto rel = catalog.Get("result");
  GAMMA_CHECK(rel.ok());
  artifacts.rows = testing::Canonical((*rel)->PeekAllTuples());
  auto inner = catalog.Get(spec.inner_relation);
  GAMMA_CHECK(inner.ok());
  artifacts.stored_digest = testing::DigestStoredResult(
      **rel, (*inner)->schema(), spec.inner_field);
  return artifacts;
}

void ExpectSameDigest(const RunArtifacts& serial, const RunArtifacts& run,
                      join::Algorithm algorithm, int threads) {
  ASSERT_TRUE(serial.output.result_digest.has_value());
  ASSERT_TRUE(run.output.result_digest.has_value());
  EXPECT_EQ(*run.output.result_digest, *serial.output.result_digest)
      << join::AlgorithmName(algorithm) << " threads=" << threads;
  EXPECT_EQ(run.stored_digest, *run.output.result_digest)
      << join::AlgorithmName(algorithm) << " threads=" << threads
      << ": stored relation disagrees with the captured digest";
}

TEST(ParallelEquivalenceTest, NoOverflowRunsAreBitIdentical) {
  for (join::Algorithm algorithm :
       {join::Algorithm::kSortMerge, join::Algorithm::kGraceHash,
        join::Algorithm::kHybridHash}) {
    const RunArtifacts serial = RunWith(1, algorithm, 1.0);
    const RunArtifacts parallel = RunWith(4, algorithm, 1.0);
    EXPECT_DOUBLE_EQ(serial.output.response_seconds(),
                     parallel.output.response_seconds())
        << join::AlgorithmName(algorithm);
    EXPECT_EQ(serial.output.metrics.counters.pages_read,
              parallel.output.metrics.counters.pages_read);
    EXPECT_EQ(serial.output.metrics.counters.packets_remote,
              parallel.output.metrics.counters.packets_remote);
    EXPECT_EQ(serial.output.metrics.counters.bytes_local,
              parallel.output.metrics.counters.bytes_local);
    EXPECT_EQ(serial.output.metrics.counters.filter_drops,
              parallel.output.metrics.counters.filter_drops);
    EXPECT_EQ(serial.rows, parallel.rows);
    ExpectSameDigest(serial, parallel, algorithm, 4);
  }
}

TEST(ParallelEquivalenceTest, OverflowRunsAreBitIdentical) {
  for (join::Algorithm algorithm :
       {join::Algorithm::kSimpleHash, join::Algorithm::kHybridHash}) {
    const RunArtifacts serial = RunWith(1, algorithm, 0.2);
    const RunArtifacts parallel = RunWith(4, algorithm, 0.2);
    EXPECT_EQ(serial.output.stats.result_tuples, 300u);
    EXPECT_DOUBLE_EQ(serial.output.response_seconds(),
                     parallel.output.response_seconds())
        << join::AlgorithmName(algorithm);
    EXPECT_EQ(serial.output.metrics.counters.pages_read,
              parallel.output.metrics.counters.pages_read);
    EXPECT_EQ(serial.output.metrics.counters.pages_written,
              parallel.output.metrics.counters.pages_written);
    EXPECT_EQ(serial.output.metrics.counters.ht_overflows,
              parallel.output.metrics.counters.ht_overflows);
    EXPECT_EQ(serial.rows, parallel.rows) << join::AlgorithmName(algorithm);
    ExpectSameDigest(serial, parallel, algorithm, 4);
  }
}

TEST(ParallelEquivalenceTest, ResultDigestsIdenticalAcrossThreadCounts) {
  // All four algorithms, in the overflow region, at 1/4/8 executor
  // threads: the captured digest is a pure function of the plan.
  for (join::Algorithm algorithm :
       {join::Algorithm::kSortMerge, join::Algorithm::kSimpleHash,
        join::Algorithm::kGraceHash, join::Algorithm::kHybridHash}) {
    const RunArtifacts serial = RunWith(1, algorithm, 0.3);
    for (int threads : {4, 8}) {
      const RunArtifacts pooled = RunWith(threads, algorithm, 0.3);
      ExpectSameDigest(serial, pooled, algorithm, threads);
      EXPECT_EQ(pooled.rows, serial.rows)
          << join::AlgorithmName(algorithm) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace gammadb
