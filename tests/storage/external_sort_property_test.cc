// Parameterized property sweep for the external sort: over memory
// budgets, input sizes and value distributions, the output must equal
// the reference sort and the I/O accounting must balance.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/random.h"
#include "sim/machine.h"
#include "storage/external_sort.h"
#include "testing/status_matchers.h"

namespace gammadb::storage {
namespace {

enum class Distribution { kUniform, kSorted, kReversed, kFewDistinct,
                          kAllEqual };

const char* DistributionName(Distribution d) {
  switch (d) {
    case Distribution::kUniform:
      return "uniform";
    case Distribution::kSorted:
      return "sorted";
    case Distribution::kReversed:
      return "reversed";
    case Distribution::kFewDistinct:
      return "fewdistinct";
    case Distribution::kAllEqual:
      return "allequal";
  }
  return "?";
}

using SortParam = std::tuple<uint32_t /*memory_pages*/, int /*n*/,
                             Distribution>;

class ExternalSortPropertyTest : public ::testing::TestWithParam<SortParam> {
 protected:
  ExternalSortPropertyTest()
      : machine_(sim::MachineConfig{1, 0, sim::CostModel{}, 1}),
        schema_({Field::Int32("k"), Field::Int32("ordinal"),
                 Field::Char("pad", 56)}) {}

  sim::Machine machine_;
  Schema schema_;
};

std::string SortParamName(const ::testing::TestParamInfo<SortParam>& info) {
  const auto& [pages, n, dist] = info.param;
  return std::string(DistributionName(dist)) + "_p" + std::to_string(pages) +
         "_n" + std::to_string(n);
}

TEST_P(ExternalSortPropertyTest, MatchesReferenceSort) {
  const auto& [memory_pages, n, distribution] = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 31 + memory_pages);
  std::vector<int32_t> values(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    switch (distribution) {
      case Distribution::kUniform:
        values[static_cast<size_t>(i)] =
            static_cast<int32_t>(rng.Uniform(1u << 30));
        break;
      case Distribution::kSorted:
        values[static_cast<size_t>(i)] = i;
        break;
      case Distribution::kReversed:
        values[static_cast<size_t>(i)] = n - i;
        break;
      case Distribution::kFewDistinct:
        values[static_cast<size_t>(i)] =
            static_cast<int32_t>(rng.Uniform(7));
        break;
      case Distribution::kAllEqual:
        values[static_cast<size_t>(i)] = 42;
        break;
    }
  }

  machine_.BeginPhase("sort");
  ExternalSort sort(&machine_.node(0), &schema_, 0, memory_pages);
  // Each tuple carries its input ordinal, so a sort that paired a key
  // with another record's payload would show.
  std::vector<std::pair<int32_t, int32_t>> input;
  input.reserve(values.size());
  for (int32_t v : values) {
    const auto ordinal = static_cast<int32_t>(input.size());
    input.emplace_back(v, ordinal);
    Tuple t(schema_.tuple_bytes());
    t.SetInt32(schema_, 0, v);
    t.SetInt32(schema_, 1, ordinal);
    GAMMA_ASSERT_OK(sort.Add(t));
  }
  GAMMA_ASSERT_OK(sort.FinishInput());
  std::vector<std::pair<int32_t, int32_t>> output;
  output.reserve(values.size());
  auto stream = sort.OpenStream();
  Tuple t;
  while (stream->Next(&t)) {
    output.emplace_back(t.GetInt32(schema_, 0), t.GetInt32(schema_, 1));
  }
  GAMMA_ASSERT_OK(machine_.EndPhase());

  // Keys ascend, and the (key, ordinal) pairs are the input's.
  EXPECT_TRUE(std::is_sorted(
      output.begin(), output.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  std::vector<std::pair<int32_t, int32_t>> sorted_output = output;
  std::sort(sorted_output.begin(), sorted_output.end());
  std::sort(input.begin(), input.end());
  EXPECT_EQ(sorted_output, input);

  // I/O balance: every page written for runs/merges is read back
  // exactly once (runs are read once during merges or the final
  // stream); an in-memory sort does no I/O at all.
  const auto& c = machine_.node(0).counters();
  EXPECT_EQ(c.pages_read, c.pages_written);
  if (sort.run_count() == 0) {
    EXPECT_EQ(c.pages_written, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExternalSortPropertyTest,
    ::testing::Combine(::testing::Values(3u, 4u, 8u, 32u),
                       ::testing::Values(0, 1, 500, 5000),
                       ::testing::Values(Distribution::kUniform,
                                         Distribution::kSorted,
                                         Distribution::kReversed,
                                         Distribution::kFewDistinct,
                                         Distribution::kAllEqual)),
    SortParamName);

}  // namespace
}  // namespace gammadb::storage
