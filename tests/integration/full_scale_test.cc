// Full-benchmark-scale integration tests: the exact joinABprime setup
// of the paper (100,000 x 10,000 tuples, 8 disk nodes), each algorithm
// verified for result cardinality and determinism.
#include <gtest/gtest.h>

#include "common/harness.h"
#include "gamma/catalog.h"
#include "join/driver.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

class FullScaleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench::WorkloadOptions options;
    options.hpja = true;
    workload_ = new bench::Workload(bench::LocalConfig(), options);
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }
  static bench::Workload* workload_;
};

bench::Workload* FullScaleTest::workload_ = nullptr;

TEST_F(FullScaleTest, AllAlgorithmsProduceTenThousandResults) {
  for (join::Algorithm algorithm :
       {join::Algorithm::kSortMerge, join::Algorithm::kSimpleHash,
        join::Algorithm::kGraceHash, join::Algorithm::kHybridHash}) {
    auto output = workload_->Run(algorithm, 0.5, false, false);
    EXPECT_EQ(output.stats.result_tuples, 10000u)
        << join::AlgorithmName(algorithm);
    EXPECT_GT(output.response_seconds(), 0);
  }
}

TEST_F(FullScaleTest, RunsAreDeterministic) {
  auto a = workload_->Run(join::Algorithm::kHybridHash, 0.25, true, false);
  auto b = workload_->Run(join::Algorithm::kHybridHash, 0.25, true, false);
  EXPECT_DOUBLE_EQ(a.response_seconds(), b.response_seconds());
  EXPECT_EQ(a.metrics.counters.pages_read, b.metrics.counters.pages_read);
  EXPECT_EQ(a.metrics.counters.packets_remote,
            b.metrics.counters.packets_remote);
  EXPECT_EQ(a.metrics.counters.filter_drops, b.metrics.counters.filter_drops);
}

TEST_F(FullScaleTest, PaperScaleSanity) {
  auto output = workload_->Run(join::Algorithm::kHybridHash, 1.0, false,
                               false);
  // One in-memory bucket: reads A + Bprime once (~2,824 data pages),
  // writes only the ~4.2 MB result.
  EXPECT_NEAR(static_cast<double>(output.metrics.counters.pages_read),
              2824.0, 64.0);
  EXPECT_NEAR(static_cast<double>(output.metrics.counters.pages_written),
              540.0, 40.0);
  // Response lands in the paper's magnitude band (tens of seconds).
  EXPECT_GT(output.response_seconds(), 20.0);
  EXPECT_LT(output.response_seconds(), 200.0);
}

TEST_F(FullScaleTest, BucketCountsMatchRatios) {
  for (int buckets = 1; buckets <= 8; ++buckets) {
    auto output = workload_->Run(join::Algorithm::kGraceHash,
                                 1.0 / buckets, false, false);
    EXPECT_EQ(output.stats.num_buckets, buckets);
    EXPECT_EQ(output.metrics.counters.ht_overflows, 0) << buckets;
  }
}

TEST_F(FullScaleTest, GraceIoConservation) {
  // Grace's defining property: both relations are written back to disk
  // during bucket-forming and read again during bucket-joining. At full
  // benchmark scale: Bprime = 257 data pages, A = 2,565, result = 527
  // (416-byte result tuples, 19/page), plus per-fragment partial pages.
  auto output = workload_->Run(join::Algorithm::kGraceHash, 0.25, false,
                               false);
  ASSERT_EQ(output.metrics.counters.ht_overflows, 0);
  const auto& c = output.metrics.counters;
  const int64_t data_pages = 257 + 2565;
  const int64_t result_pages = 527;
  // Written: both relations staged once + the stored result. 4 buckets
  // x 8 disks x 2 relations of partial-page slop.
  EXPECT_GE(c.pages_written, data_pages + result_pages);
  EXPECT_LE(c.pages_written, data_pages + result_pages + 2 * 64 + 8);
  // Read: the base relations once + every staged bucket page once.
  const int64_t staged = c.pages_written - result_pages;
  EXPECT_GE(c.pages_read, data_pages + staged);
  EXPECT_LE(c.pages_read, data_pages + staged + 80);
}

TEST_F(FullScaleTest, HybridStagesExactlyTheStoredFraction) {
  // At N buckets, Hybrid stages (N-1)/N of both relations; the written
  // page counts must track that fraction (plus the constant result).
  auto two = workload_->Run(join::Algorithm::kHybridHash, 0.5, false, false);
  auto four = workload_->Run(join::Algorithm::kHybridHash, 0.25, false,
                             false);
  const double staged_two =
      static_cast<double>(two.metrics.counters.pages_written - 527);
  const double staged_four =
      static_cast<double>(four.metrics.counters.pages_written - 527);
  const double total_data = 257 + 2565;
  EXPECT_NEAR(staged_two, 0.5 * total_data, 90);
  EXPECT_NEAR(staged_four, 0.75 * total_data, 90);
}

}  // namespace
}  // namespace gammadb
