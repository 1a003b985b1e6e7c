#include "wisconsin/wisconsin.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "testing/test_util.h"

namespace gammadb::wisconsin {
namespace {

TEST(WisconsinTest, GeneratorProducesPermutations) {
  GenOptions options;
  options.cardinality = 5000;
  const auto tuples = Generate(options);
  ASSERT_EQ(tuples.size(), 5000u);
  const auto schema = WisconsinSchema();
  std::set<int32_t> u1, u2;
  for (const auto& t : tuples) {
    u1.insert(t.GetInt32(schema, fields::kUnique1));
    u2.insert(t.GetInt32(schema, fields::kUnique2));
  }
  EXPECT_EQ(u1.size(), 5000u);
  EXPECT_EQ(u2.size(), 5000u);
  EXPECT_EQ(*u1.begin(), 0);
  EXPECT_EQ(*u1.rbegin(), 4999);
}

TEST(WisconsinTest, DerivedColumnsFollowUnique1) {
  GenOptions options;
  options.cardinality = 1000;
  const auto tuples = Generate(options);
  const auto schema = WisconsinSchema();
  for (const auto& t : tuples) {
    const int32_t u1 = t.GetInt32(schema, fields::kUnique1);
    EXPECT_EQ(t.GetInt32(schema, fields::kTwo), u1 % 2);
    EXPECT_EQ(t.GetInt32(schema, fields::kFour), u1 % 4);
    EXPECT_EQ(t.GetInt32(schema, fields::kTen), u1 % 10);
    EXPECT_EQ(t.GetInt32(schema, fields::kTwenty), u1 % 20);
    EXPECT_EQ(t.GetInt32(schema, fields::kOnePercent), u1 % 100);
    EXPECT_EQ(t.GetInt32(schema, fields::kTenPercent), u1 % 10);
    EXPECT_EQ(t.GetInt32(schema, fields::kTwentyPercent), u1 % 5);
    EXPECT_EQ(t.GetInt32(schema, fields::kFiftyPercent), u1 % 2);
    EXPECT_EQ(t.GetInt32(schema, fields::kEvenOnePercent), (u1 % 100) * 2);
    EXPECT_EQ(t.GetInt32(schema, fields::kOddOnePercent), (u1 % 100) * 2 + 1);
  }
}

TEST(WisconsinTest, DeterministicBySeed) {
  GenOptions options;
  options.cardinality = 200;
  options.seed = 99;
  const auto a = Generate(options);
  const auto b = Generate(options);
  EXPECT_EQ(testing::Canonical(a), testing::Canonical(b));
  options.seed = 100;
  const auto c = Generate(options);
  EXPECT_NE(testing::Canonical(a), testing::Canonical(c));
}

TEST(WisconsinTest, NormalAttributeMatchesPaperParameters) {
  GenOptions options;
  options.cardinality = 100000;
  options.with_normal_attr = true;
  const auto tuples = Generate(options);
  const auto schema = WisconsinSchema();
  double sum = 0, sum_sq = 0;
  int32_t max_value = 0;
  int64_t in_tight_range = 0;
  for (const auto& t : tuples) {
    const int32_t v = t.GetInt32(schema, fields::kNormal);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 99999);
    sum += v;
    sum_sq += static_cast<double>(v) * v;
    max_value = std::max(max_value, v);
    if (v >= 50000 && v <= 50243) ++in_tight_range;
  }
  const double mean = sum / 100000;
  const double stddev = std::sqrt(sum_sq / 100000 - mean * mean);
  EXPECT_NEAR(mean, 50000, 20);
  EXPECT_NEAR(stddev, 750, 15);
  // Paper: "12,500 tuples had join attribute values in the range of
  // 50,000 to 50,243" and the maximum value was 53,071.
  EXPECT_NEAR(in_tight_range, 12500, 600);
  EXPECT_NEAR(max_value, 53071, 500);
}

TEST(WisconsinTest, DuplicateStatisticsMatchPaper) {
  GenOptions options;
  options.cardinality = 100000;
  options.with_normal_attr = true;
  const auto tuples = Generate(options);
  const auto schema = WisconsinSchema();
  std::map<int32_t, int> counts;
  for (const auto& t : tuples) {
    ++counts[t.GetInt32(schema, fields::kNormal)];
  }
  int max_count = 0;
  for (const auto& [value, count] : counts) {
    max_count = std::max(max_count, count);
  }
  // Paper: "no single attribute value occurred in more than 77 tuples".
  EXPECT_GT(max_count, 40);
  EXPECT_LT(max_count, 110);
}

TEST(WisconsinTest, SampleWithoutReplacementSubset) {
  GenOptions options;
  options.cardinality = 2000;
  const auto tuples = Generate(options);
  const auto sample = SampleWithoutReplacement(tuples, 200, 7);
  ASSERT_EQ(sample.size(), 200u);
  const auto schema = WisconsinSchema();
  std::set<int32_t> keys;
  for (const auto& t : sample) {
    keys.insert(t.GetInt32(schema, fields::kUnique1));
  }
  EXPECT_EQ(keys.size(), 200u);  // distinct rows
}

TEST(WisconsinTest, LoadJoinABprimeCreatesBothRelations) {
  sim::Machine machine(testing::SmallConfig(4));
  db::Catalog catalog;
  DatasetOptions options;
  options.outer_cardinality = 2000;
  options.inner_cardinality = 200;
  auto loaded = LoadJoinABprime(machine, catalog, options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->outer->total_tuples(), 2000u);
  EXPECT_EQ(loaded->inner->total_tuples(), 200u);
  // Inner tuples are a subset of outer tuples.
  const auto outer_rows = testing::Canonical(loaded->outer->PeekAllTuples());
  for (const auto& row : testing::Canonical(loaded->inner->PeekAllTuples())) {
    EXPECT_TRUE(std::binary_search(outer_rows.begin(), outer_rows.end(), row));
  }
}

TEST(WisconsinTest, LoadJoinABprimeRejectsInnerLargerThanOuter) {
  sim::Machine machine(testing::SmallConfig(4));
  db::Catalog catalog;
  DatasetOptions options;
  options.outer_cardinality = 1000;
  options.inner_cardinality = 2000;
  auto loaded = LoadJoinABprime(machine, catalog, options);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(catalog.Names().empty());
}

TEST(WisconsinTest, StringsEncodeTheKey) {
  GenOptions options;
  options.cardinality = 100;
  const auto tuples = Generate(options);
  const auto schema = WisconsinSchema();
  std::set<std::string> strings;
  for (const auto& t : tuples) {
    const auto s = t.GetChars(schema, fields::kStringU1);
    EXPECT_EQ(s.size(), 52u);
    strings.emplace(s);
  }
  EXPECT_EQ(strings.size(), 100u);  // unique per unique1
}

}  // namespace
}  // namespace gammadb::wisconsin
