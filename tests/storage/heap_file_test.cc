#include "storage/heap_file.h"

#include <gtest/gtest.h>

#include "sim/machine.h"
#include "storage/schema.h"
#include "testing/status_matchers.h"

namespace gammadb::storage {
namespace {

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest()
      : machine_(sim::MachineConfig{1, 0, sim::CostModel{}, 1}),
        schema_({Field::Int32("k"), Field::Char("pad", 200)}) {}

  Tuple MakeTuple(int32_t k) {
    Tuple t(schema_.tuple_bytes());
    t.SetInt32(schema_, 0, k);
    t.SetChars(schema_, 1, "pad");
    return t;
  }

  sim::Machine machine_;
  Schema schema_;  // 204 bytes -> 40 tuples per 8 KB page
};

TEST_F(HeapFileTest, AppendScanRoundTrip) {
  HeapFile file(&machine_.node(0), &schema_, "t");
  machine_.BeginPhase("w");
  for (int32_t i = 0; i < 1000; ++i) GAMMA_ASSERT_OK(file.Append(MakeTuple(i)));
  GAMMA_ASSERT_OK(file.FlushAppends());
  GAMMA_ASSERT_OK(machine_.EndPhase());
  EXPECT_EQ(file.tuple_count(), 1000u);
  EXPECT_EQ(file.page_count(), (1000 + 39) / 40);

  machine_.BeginPhase("r");
  auto scanner = file.Scan();
  TupleBlock block;
  int32_t expected = 0;
  while (scanner.NextBlock(&block)) {
    for (size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(schema_.GetInt32(block.view(i).data, 0), expected++);
    }
  }
  EXPECT_EQ(expected, 1000);
  GAMMA_ASSERT_OK(machine_.EndPhase());
  EXPECT_EQ(machine_.node(0).counters().pages_read,
            static_cast<int64_t>(file.page_count()));
}

TEST_F(HeapFileTest, FlushIsIdempotentAndPartialPageStored) {
  HeapFile file(&machine_.node(0), &schema_, "t");
  machine_.BeginPhase("w");
  GAMMA_ASSERT_OK(file.Append(MakeTuple(7)));
  GAMMA_ASSERT_OK(file.FlushAppends());
  GAMMA_ASSERT_OK(file.FlushAppends());
  GAMMA_ASSERT_OK(machine_.EndPhase());
  EXPECT_EQ(file.page_count(), 1u);
  EXPECT_EQ(file.PeekAll().size(), 1u);
}

TEST_F(HeapFileTest, EarlyAbandonedScanChargesOnlyPagesReached) {
  HeapFile file(&machine_.node(0), &schema_, "t");
  machine_.BeginPhase("w");
  for (int32_t i = 0; i < 400; ++i) GAMMA_ASSERT_OK(file.Append(MakeTuple(i)));  // 10 pages
  GAMMA_ASSERT_OK(file.FlushAppends());
  GAMMA_ASSERT_OK(machine_.EndPhase());

  machine_.BeginPhase("r");
  auto scanner = file.Scan();
  TupleBlock block;
  for (size_t seen = 0; seen < 45; seen += block.size()) {  // 2 pages
    ASSERT_TRUE(scanner.NextBlock(&block));
  }
  GAMMA_ASSERT_OK(machine_.EndPhase());
  EXPECT_EQ(machine_.node(0).counters().pages_read, 2);
  EXPECT_EQ(scanner.pages_read(), 2u);
}

TEST_F(HeapFileTest, FreeReturnsPagesToDisk) {
  HeapFile file(&machine_.node(0), &schema_, "t");
  machine_.BeginPhase("w");
  for (int32_t i = 0; i < 100; ++i) GAMMA_ASSERT_OK(file.Append(MakeTuple(i)));
  GAMMA_ASSERT_OK(file.FlushAppends());
  GAMMA_ASSERT_OK(machine_.EndPhase());
  const size_t live_before = machine_.node(0).disk().live_pages();
  file.Free();
  EXPECT_EQ(machine_.node(0).disk().live_pages(),
            live_before - 3);  // 100/40 -> 3 pages
  EXPECT_EQ(file.tuple_count(), 0u);
  EXPECT_EQ(file.page_count(), 0u);
}

TEST_F(HeapFileTest, PeekAllDoesNotCharge) {
  HeapFile file(&machine_.node(0), &schema_, "t");
  machine_.BeginPhase("w");
  for (int32_t i = 0; i < 50; ++i) GAMMA_ASSERT_OK(file.Append(MakeTuple(i)));
  GAMMA_ASSERT_OK(file.FlushAppends());
  GAMMA_ASSERT_OK(machine_.EndPhase());
  machine_.ResetMetrics();
  machine_.BeginPhase("peek");
  EXPECT_EQ(file.PeekAll().size(), 50u);
  EXPECT_EQ(machine_.node(0).phase_usage().cpu_seconds, 0.0);
  GAMMA_ASSERT_OK(machine_.EndPhase());
  EXPECT_EQ(machine_.Metrics().counters.pages_read, 0);
}

TEST_F(HeapFileTest, DataBytesMatchesCount) {
  HeapFile file(&machine_.node(0), &schema_, "t");
  machine_.BeginPhase("w");
  for (int32_t i = 0; i < 10; ++i) GAMMA_ASSERT_OK(file.Append(MakeTuple(i)));
  GAMMA_ASSERT_OK(file.FlushAppends());
  GAMMA_ASSERT_OK(machine_.EndPhase());
  EXPECT_EQ(file.data_bytes(), 10u * schema_.tuple_bytes());
}

TEST_F(HeapFileTest, EmptyFileScansNothing) {
  HeapFile file(&machine_.node(0), &schema_, "t");
  GAMMA_ASSERT_OK(file.FlushAppends());
  machine_.BeginPhase("r");
  auto scanner = file.Scan();
  TupleBlock block;
  EXPECT_FALSE(scanner.NextBlock(&block));
  GAMMA_ASSERT_OK(machine_.EndPhase());
}


// --- Fault injection: converted Status I/O paths (docs/fault_injection.md) --

TEST_F(HeapFileTest, AppendSurvivesHardWriteFaultViaRetry) {
  // A write burst that exhausts the retry budget fails the Append, but
  // the page image stays buffered: once the scheduled faults are
  // consumed, FlushAppends lands the same page and no data is lost.
  sim::FaultPlan plan;
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kDiskWriteTransient;
  e.ordinal = 1;
  e.repeat = sim::Disk::kMaxIoAttempts;
  plan.Add(e);
  machine_.ArmFaults(plan);

  HeapFile file(&machine_.node(0), &schema_, "t");
  machine_.BeginPhase("w");
  Status first_failure;
  for (int32_t i = 0; i < 41; ++i) {  // 40 tuples/page: one page write
    const Status st = file.Append(MakeTuple(i));
    if (!st.ok() && first_failure.ok()) first_failure = st;
  }
  Status flush = file.FlushAppends();
  for (int i = 0; !flush.ok() && i < 3; ++i) flush = file.FlushAppends();
  machine_.EndPhase().IgnoreError();

  EXPECT_EQ(first_failure.code(), StatusCode::kUnavailable);
  ASSERT_TRUE(flush.ok()) << flush.ToString();
  EXPECT_EQ(file.tuple_count(), 41u);

  machine_.BeginPhase("r");
  auto scanner = file.Scan();
  TupleBlock block;
  int32_t expected = 0;
  while (scanner.NextBlock(&block)) {
    for (size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(schema_.GetInt32(block.view(i).data, 0), expected++);
    }
  }
  EXPECT_EQ(expected, 41);
  EXPECT_TRUE(scanner.status().ok());
  machine_.EndPhase().IgnoreError();

  const sim::Counters& c = machine_.node(0).counters();
  EXPECT_EQ(c.disk_write_faults, sim::Disk::kMaxIoAttempts);
  EXPECT_EQ(c.io_retries, sim::Disk::kMaxIoAttempts - 1);
}

TEST_F(HeapFileTest, ScannerSurfacesHardReadFault) {
  HeapFile file(&machine_.node(0), &schema_, "t");
  machine_.BeginPhase("w");
  for (int32_t i = 0; i < 200; ++i) {  // 5 pages
    ASSERT_TRUE(file.Append(MakeTuple(i)).ok());
  }
  ASSERT_TRUE(file.FlushAppends().ok());
  machine_.EndPhase().IgnoreError();

  sim::FaultPlan plan;
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kDiskReadTransient;
  e.ordinal = 1;  // counters start at zero on arming
  e.repeat = sim::Disk::kMaxIoAttempts;
  plan.Add(e);
  machine_.ArmFaults(plan);

  machine_.BeginPhase("r");
  auto scanner = file.Scan();
  TupleBlock block;
  size_t seen = 0;
  while (scanner.NextBlock(&block)) seen += block.size();
  machine_.EndPhase().IgnoreError();
  EXPECT_EQ(seen, 0u);  // stopped by the failed first page, not EOF
  EXPECT_EQ(scanner.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace gammadb::storage
