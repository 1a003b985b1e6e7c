#include "storage/external_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/random.h"
#include "sim/machine.h"
#include "storage/schema.h"
#include "testing/status_matchers.h"

namespace gammadb::storage {
namespace {

class ExternalSortTest : public ::testing::Test {
 protected:
  ExternalSortTest()
      : machine_(sim::MachineConfig{1, 0, sim::CostModel{}, 1}),
        schema_({Field::Int32("k"), Field::Char("pad", 200)}) {}

  Tuple MakeTuple(int32_t k) {
    Tuple t(schema_.tuple_bytes());
    t.SetInt32(schema_, 0, k);
    return t;
  }

  std::vector<int32_t> SortValues(std::vector<int32_t> values,
                                  uint32_t memory_pages,
                                  ExternalSort* sort_out = nullptr) {
    machine_.BeginPhase("sort");
    ExternalSort sort(&machine_.node(0), &schema_, 0, memory_pages);
    for (int32_t v : values) GAMMA_EXPECT_OK(sort.Add(MakeTuple(v)));
    GAMMA_EXPECT_OK(sort.FinishInput());
    std::vector<int32_t> out;
    auto stream = sort.OpenStream();
    Tuple t;
    while (stream->Next(&t)) out.push_back(t.GetInt32(schema_, 0));
    GAMMA_EXPECT_OK(machine_.EndPhase());
    if (sort_out != nullptr) {
      // Note: runs are freed by the sort's destructor.
    }
    return out;
  }

  sim::Machine machine_;
  Schema schema_;  // 40 tuples / page
};

TEST_F(ExternalSortTest, InMemorySortWhenInputFits) {
  machine_.BeginPhase("p");
  ExternalSort sort(&machine_.node(0), &schema_, 0, 8);
  for (int32_t v : {5, 1, 4, 2, 3}) GAMMA_ASSERT_OK(sort.Add(MakeTuple(v)));
  GAMMA_ASSERT_OK(sort.FinishInput());
  EXPECT_EQ(sort.run_count(), 0u);  // no spill
  auto stream = sort.OpenStream();
  Tuple t;
  std::vector<int32_t> out;
  while (stream->Next(&t)) out.push_back(t.GetInt32(schema_, 0));
  GAMMA_ASSERT_OK(machine_.EndPhase());
  EXPECT_EQ(out, (std::vector<int32_t>{1, 2, 3, 4, 5}));
  // In-memory sort touches no disk.
  EXPECT_EQ(machine_.Metrics().counters.pages_written, 0);
}

TEST_F(ExternalSortTest, InMemoryOrderAndChargeMatchTupleSort) {
  // Run formation sorts {key, slot} entries, not tuples. std::sort's
  // moves depend only on its comparator's answers, so the entry sort
  // must leave equal keys in the tuple sort's order and make the same
  // number of comparator calls.
  const Schema schema(
      {Field::Int32("k"), Field::Int32("ordinal"), Field::Char("pad", 200)});
  for (int n : {0, 1, 17, 500, 5000}) {
    SCOPED_TRACE(n);
    Rng rng(static_cast<uint64_t>(n) + 11);
    std::vector<Tuple> input;
    for (int i = 0; i < n; ++i) {
      Tuple t(schema.tuple_bytes());
      t.SetInt32(schema, 0, static_cast<int32_t>(rng.Uniform(7)));
      t.SetInt32(schema, 1, i);
      input.push_back(t);
    }
    std::vector<Tuple> expected = input;
    size_t compares = 0;
    std::sort(expected.begin(), expected.end(),
              [&](const Tuple& a, const Tuple& b) {
                ++compares;
                return a.GetInt32(schema, 0) < b.GetInt32(schema, 0);
              });

    machine_.BeginPhase("sort");
    ExternalSort sort(&machine_.node(0), &schema, 0, /*memory_pages=*/256);
    for (const Tuple& t : input) GAMMA_ASSERT_OK(sort.Add(t));
    GAMMA_ASSERT_OK(sort.FinishInput());
    ASSERT_EQ(sort.run_count(), 0u);  // in memory
    std::vector<Tuple> output;
    auto stream = sort.OpenStream();
    Tuple t;
    while (stream->Next(&t)) output.push_back(t);
    GAMMA_ASSERT_OK(machine_.EndPhase());

    const auto key_and_ordinal = [&schema](const std::vector<Tuple>& tuples) {
      std::vector<std::pair<int32_t, int32_t>> pairs;
      for (const Tuple& u : tuples) {
        pairs.emplace_back(u.GetInt32(schema, 0), u.GetInt32(schema, 1));
      }
      return pairs;
    };
    EXPECT_EQ(key_and_ordinal(output), key_and_ordinal(expected));
    EXPECT_TRUE(output == expected);  // byte for byte
    const sim::RunMetrics metrics = machine_.Metrics();
    const sim::NodeUsage& usage = metrics.phases.back().usage[0];
    EXPECT_EQ(usage.by_category[static_cast<size_t>(
                  sim::CostCategory::kSortCompare)],
              static_cast<double>(compares) *
                  machine_.cost().cpu_sort_compare_seconds);
  }
}

TEST_F(ExternalSortTest, ExternalSortProducesSortedOutput) {
  Rng rng(4);
  std::vector<int32_t> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(static_cast<int32_t>(rng.Uniform(100000)));
  }
  auto expected = values;
  std::sort(expected.begin(), expected.end());
  // 3 memory pages = 120-tuple buffer: heavily external.
  EXPECT_EQ(SortValues(values, 3), expected);
}

TEST_F(ExternalSortTest, DuplicatesSurvive) {
  std::vector<int32_t> values(500, 7);
  values.push_back(3);
  values.push_back(9);
  const auto out = SortValues(values, 3);
  ASSERT_EQ(out.size(), 502u);
  EXPECT_EQ(out.front(), 3);
  EXPECT_EQ(out.back(), 9);
  EXPECT_EQ(std::count(out.begin(), out.end(), 7), 500);
}

TEST_F(ExternalSortTest, IntermediatePassesStepWithMemory) {
  Rng rng(5);
  std::vector<int32_t> values;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(static_cast<int32_t>(rng.Uniform(1000000)));
  }
  // Plenty of memory: single-pass mergeable, zero intermediate passes.
  machine_.BeginPhase("a");
  ExternalSort big(&machine_.node(0), &schema_, 0, 32);
  for (int32_t v : values) GAMMA_ASSERT_OK(big.Add(MakeTuple(v)));
  GAMMA_ASSERT_OK(big.FinishInput());
  GAMMA_ASSERT_OK(machine_.EndPhase());
  EXPECT_EQ(big.intermediate_passes(), 0);

  // Tiny memory: must merge intermediately.
  machine_.BeginPhase("b");
  ExternalSort small(&machine_.node(0), &schema_, 0, 3);
  for (int32_t v : values) GAMMA_ASSERT_OK(small.Add(MakeTuple(v)));
  GAMMA_ASSERT_OK(small.FinishInput());
  GAMMA_ASSERT_OK(machine_.EndPhase());
  EXPECT_GT(small.intermediate_passes(), 0);
  EXPECT_GT(small.intermediate_merged_tuples(), 0u);
  // Still 2-way mergeable at the end.
  EXPECT_LE(small.run_count(), 2u);
}

TEST_F(ExternalSortTest, AlreadySortedAndReverseSortedInputs) {
  std::vector<int32_t> ascending, descending;
  for (int32_t i = 0; i < 3000; ++i) {
    ascending.push_back(i);
    descending.push_back(2999 - i);
  }
  EXPECT_EQ(SortValues(ascending, 4), ascending);
  EXPECT_EQ(SortValues(descending, 4), ascending);
}

TEST_F(ExternalSortTest, EmptyInput) {
  machine_.BeginPhase("p");
  ExternalSort sort(&machine_.node(0), &schema_, 0, 4);
  GAMMA_ASSERT_OK(sort.FinishInput());
  auto stream = sort.OpenStream();
  Tuple t;
  EXPECT_FALSE(stream->Next(&t));
  GAMMA_ASSERT_OK(machine_.EndPhase());
}

TEST_F(ExternalSortTest, NegativeKeysSortCorrectly) {
  EXPECT_EQ(SortValues({3, -1, 0, -100, 50}, 3),
            (std::vector<int32_t>{-100, -1, 0, 3, 50}));
}

TEST_F(ExternalSortTest, RunsFreedOnDestruction) {
  const size_t live_before = machine_.node(0).disk().live_pages();
  {
    machine_.BeginPhase("p");
    ExternalSort sort(&machine_.node(0), &schema_, 0, 3);
    Rng rng(6);
    for (int i = 0; i < 2000; ++i) {
      GAMMA_ASSERT_OK(sort.Add(MakeTuple(static_cast<int32_t>(rng.Uniform(1000)))));
    }
    GAMMA_ASSERT_OK(sort.FinishInput());
    GAMMA_ASSERT_OK(machine_.EndPhase());
    EXPECT_GT(machine_.node(0).disk().live_pages(), live_before);
  }
  EXPECT_EQ(machine_.node(0).disk().live_pages(), live_before);
}


// --- Fault injection: converted Status I/O paths (docs/fault_injection.md) --

TEST_F(ExternalSortTest, SpillWriteFailurePropagatesAndLeaksNothing) {
  sim::FaultPlan plan;
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kDiskWriteTransient;
  e.ordinal = 1;
  e.repeat = sim::Disk::kMaxIoAttempts;
  plan.Add(e);
  machine_.ArmFaults(plan);

  machine_.BeginPhase("sort");
  {
    ExternalSort sort(&machine_.node(0), &schema_, 0, 3);  // 120-tuple buffer
    Status first_failure;
    for (int32_t i = 0; i < 500 && first_failure.ok(); ++i) {
      first_failure = sort.Add(MakeTuple(i));
    }
    EXPECT_EQ(first_failure.code(), StatusCode::kUnavailable);
  }
  machine_.EndPhase().IgnoreError();
  // The failed spill and the sort destructor released every page.
  EXPECT_EQ(machine_.node(0).disk().live_pages(), 0u);
}

TEST_F(ExternalSortTest, IntermediateMergeReadFaultPropagatesAndLeaksNothing) {
  // 500 tuples in 3 pages: five 120-tuple runs and a fan-in of 2, so
  // FinishInput merges (reading its runs through page views) before
  // any stream opens. Run formation reads nothing, so every faulted
  // read ordinal falls in an intermediate merge.
  for (const uint64_t ordinal : {1u, 2u, 5u, 9u}) {
    SCOPED_TRACE(ordinal);
    sim::Machine machine(sim::MachineConfig{1, 0, sim::CostModel{}, 1});
    sim::FaultPlan plan;
    sim::FaultEvent e;
    e.kind = sim::FaultKind::kDiskReadTransient;
    e.ordinal = ordinal;
    e.repeat = sim::Disk::kMaxIoAttempts;
    plan.Add(e);
    machine.ArmFaults(plan);

    machine.BeginPhase("sort");
    {
      ExternalSort sort(&machine.node(0), &schema_, 0, 3);
      for (int32_t i = 0; i < 500; ++i) {
        GAMMA_ASSERT_OK(sort.Add(MakeTuple(499 - i)));
      }
      EXPECT_EQ(sort.FinishInput().code(), StatusCode::kUnavailable);
    }
    machine.EndPhase().IgnoreError();
    // The failed merge's output and every input run were released.
    EXPECT_EQ(machine.node(0).disk().live_pages(), 0u);
  }
}

TEST_F(ExternalSortTest, StreamSurfacesHardReadFaultDuringMerge) {
  machine_.BeginPhase("sort");
  ExternalSort sort(&machine_.node(0), &schema_, 0, 3);
  for (int32_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(sort.Add(MakeTuple(i)).ok());
  }
  ASSERT_TRUE(sort.FinishInput().ok());
  ASSERT_GT(sort.run_count(), 0u);  // actually external
  machine_.EndPhase().IgnoreError();

  sim::FaultPlan plan;
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kDiskReadTransient;
  e.ordinal = 1;
  e.repeat = sim::Disk::kMaxIoAttempts;
  plan.Add(e);
  machine_.ArmFaults(plan);

  machine_.BeginPhase("merge");
  auto stream = sort.OpenStream();
  Tuple t;
  int32_t seen = 0;
  while (stream->Next(&t)) ++seen;
  machine_.EndPhase().IgnoreError();
  EXPECT_LT(seen, 500);
  EXPECT_EQ(stream->status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace gammadb::storage
