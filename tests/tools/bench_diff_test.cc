#include "bench_diff_lib.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace gammadb::tools {
namespace {

JsonValue Doc(const std::string& text) {
  auto parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *parsed;
}

constexpr const char* kBaseline = R"({
  "schema_version": 1,
  "benchmark": "fig05",
  "runs": [
    {"algorithm": "Hybrid", "response_seconds": 10.0,
     "metrics": {"counters": {"pages_read": 100}}},
    {"algorithm": "Grace", "response_seconds": 20.0,
     "metrics": {"counters": {"pages_read": 200}}}
  ]
})";

TEST(BenchDiffTest, IdenticalDocumentsPass) {
  const DiffReport report =
      DiffBenchJson(Doc(kBaseline), Doc(kBaseline), DiffOptions{});
  EXPECT_TRUE(report.Passed());
  EXPECT_EQ(report.regressions(), 0);
  EXPECT_EQ(report.missing(), 0);
  EXPECT_GT(report.compared_metrics, 0);
}

TEST(BenchDiffTest, ResponseTimeWithinTolerancePasses) {
  JsonValue candidate = Doc(kBaseline);
  candidate.Find("runs")->AsArray()[0].Set("response_seconds", 10.4);
  DiffOptions options;
  options.seconds_tolerance = 0.05;
  const DiffReport report =
      DiffBenchJson(Doc(kBaseline), candidate, options);
  EXPECT_TRUE(report.Passed());
}

TEST(BenchDiffTest, ResponseTimeRegressionBeyondToleranceFails) {
  JsonValue candidate = Doc(kBaseline);
  candidate.Find("runs")->AsArray()[0].Set("response_seconds", 11.0);
  DiffOptions options;
  options.seconds_tolerance = 0.05;
  const DiffReport report =
      DiffBenchJson(Doc(kBaseline), candidate, options);
  EXPECT_FALSE(report.Passed());
  EXPECT_EQ(report.regressions(), 1);
  ASSERT_FALSE(report.entries.empty());
  EXPECT_EQ(report.entries[0].path, "runs[0].response_seconds");
}

TEST(BenchDiffTest, ToleranceIsConfigurable) {
  JsonValue candidate = Doc(kBaseline);
  candidate.Find("runs")->AsArray()[0].Set("response_seconds", 11.0);
  DiffOptions options;
  options.seconds_tolerance = 0.25;  // +10% now within tolerance
  EXPECT_TRUE(DiffBenchJson(Doc(kBaseline), candidate, options).Passed());
}

TEST(BenchDiffTest, ImprovementPasses) {
  JsonValue candidate = Doc(kBaseline);
  candidate.Find("runs")->AsArray()[0].Set("response_seconds", 5.0);
  const DiffReport report =
      DiffBenchJson(Doc(kBaseline), candidate, DiffOptions{});
  EXPECT_TRUE(report.Passed());
  EXPECT_EQ(report.CountOf(DiffKind::kImprovement), 1);
}

TEST(BenchDiffTest, MissingMetricFails) {
  JsonValue candidate = Doc(kBaseline);
  // Drop the counters object from the second run.
  JsonValue& run = candidate.Find("runs")->AsArray()[1];
  run.Find("metrics")->AsObject().clear();
  const DiffReport report =
      DiffBenchJson(Doc(kBaseline), candidate, DiffOptions{});
  EXPECT_FALSE(report.Passed());
  EXPECT_EQ(report.missing(), 1);
  EXPECT_EQ(report.entries[0].path, "runs[1].metrics.counters");
}

// A candidate-only metric means the baseline predates a schema change:
// it must fail the gate (otherwise new metrics would ship ungated) and
// name every new key so the refresh is a deliberate, reviewable step.
TEST(BenchDiffTest, ExtraCandidateMetricsFail) {
  JsonValue candidate = Doc(kBaseline);
  candidate.Set("new_top_level_metric", 7);
  candidate.Find("runs")->AsArray()[0].Set("new_per_run_metric", 1.5);
  const DiffReport report =
      DiffBenchJson(Doc(kBaseline), candidate, DiffOptions{});
  EXPECT_FALSE(report.Passed());
  EXPECT_EQ(report.regressions(), 0);
  EXPECT_EQ(report.extras(), 2);
  const std::string text = FormatReport(report);
  EXPECT_NE(text.find("EXTRA"), std::string::npos);
  EXPECT_NE(text.find("new_top_level_metric"), std::string::npos);
  EXPECT_NE(text.find("runs[0].new_per_run_metric"), std::string::npos);
  EXPECT_NE(text.find("2 extra"), std::string::npos);
}

TEST(BenchDiffTest, ExtraHostMetricIsInformational) {
  // A baseline recorded before host metrics existed must not fail when
  // the candidate carries them.
  JsonValue baseline = Doc(R"({"runs": [{"response_seconds": 10.0}]})");
  JsonValue candidate = Doc(
      R"({"runs": [{"response_seconds": 10.0, "real_seconds": 3.0,
          "threads": 8}]})");
  const DiffReport report =
      DiffBenchJson(baseline, candidate, DiffOptions{});
  EXPECT_TRUE(report.Passed()) << FormatReport(report);
  EXPECT_EQ(report.extras(), 0);
  EXPECT_GT(report.CountOf(DiffKind::kInfo), 0);
}

TEST(BenchDiffTest, StrictCounterDriftFails) {
  JsonValue candidate = Doc(kBaseline);
  candidate.Find("runs")
      ->AsArray()[0]
      .Find("metrics")
      ->Find("counters")
      ->Set("pages_read", 101);
  EXPECT_FALSE(
      DiffBenchJson(Doc(kBaseline), candidate, DiffOptions{}).Passed());
}

TEST(BenchDiffTest, ConfigIdentityMismatchFails) {
  JsonValue candidate = Doc(kBaseline);
  candidate.Set("benchmark", "fig06");
  EXPECT_FALSE(
      DiffBenchJson(Doc(kBaseline), candidate, DiffOptions{}).Passed());
}

TEST(BenchDiffTest, ArrayLengthChangeFails) {
  JsonValue candidate = Doc(kBaseline);
  candidate.Find("runs")->AsArray().pop_back();
  EXPECT_FALSE(
      DiffBenchJson(Doc(kBaseline), candidate, DiffOptions{}).Passed());
}

TEST(BenchDiffTest, ZeroBaselineDoesNotDivideByZero) {
  JsonValue baseline = Doc(R"({"idle_seconds": 0.0})");
  JsonValue candidate = Doc(R"({"idle_seconds": 1.0})");
  const DiffReport report =
      DiffBenchJson(baseline, candidate, DiffOptions{});
  EXPECT_FALSE(report.Passed());  // 0 -> 1s is a huge relative regression
}

TEST(BenchDiffTest, NestedFigureSecondsAreTimeMetrics) {
  JsonValue baseline =
      Doc(R"({"figures": [{"series_seconds": [[10.0, 20.0]]}]})");
  JsonValue within =
      Doc(R"({"figures": [{"series_seconds": [[10.2, 20.0]]}]})");
  JsonValue beyond =
      Doc(R"({"figures": [{"series_seconds": [[15.0, 20.0]]}]})");
  EXPECT_TRUE(DiffBenchJson(baseline, within, DiffOptions{}).Passed());
  EXPECT_FALSE(DiffBenchJson(baseline, beyond, DiffOptions{}).Passed());
}

// Host metrics (wall clock, thread counts) describe the machine running
// the benchmark, not the workload: a serial baseline must gate a
// threaded candidate without noise from them.
TEST(BenchDiffTest, HostMetricsAreNeverGated) {
  JsonValue baseline = Doc(R"({
    "threads": 1,
    "runs": [{"real_seconds": 30.0, "threads": 1, "response_seconds": 10.0}],
    "workloads": [{"machine": {"num_threads": 1}}]
  })");
  JsonValue candidate = Doc(R"({
    "threads": 4,
    "runs": [{"real_seconds": 9.0, "threads": 4, "response_seconds": 10.0}],
    "workloads": [{"machine": {"num_threads": 4}}]
  })");
  const DiffReport report =
      DiffBenchJson(baseline, candidate, DiffOptions{});
  EXPECT_TRUE(report.Passed()) << FormatReport(report);
  EXPECT_GT(report.CountOf(DiffKind::kInfo), 0);
}

TEST(BenchDiffTest, MissingHostMetricIsInformational) {
  JsonValue baseline =
      Doc(R"({"real_seconds": 30.0, "num_threads": 8, "wall_seconds": 1.0})");
  JsonValue candidate = Doc(R"({})");
  const DiffReport report =
      DiffBenchJson(baseline, candidate, DiffOptions{});
  EXPECT_TRUE(report.Passed()) << FormatReport(report);
  EXPECT_EQ(report.missing(), 0);
}

TEST(BenchDiffTest, RealSecondsIsNotATimeGate) {
  // +200% on real_seconds would trip the seconds tolerance if the
  // host-metric carve-out were checked after the "seconds" suffix.
  JsonValue baseline = Doc(R"({"runs": [{"real_seconds": 10.0}]})");
  JsonValue candidate = Doc(R"({"runs": [{"real_seconds": 30.0}]})");
  EXPECT_TRUE(DiffBenchJson(baseline, candidate, DiffOptions{}).Passed());
}

TEST(BenchDiffTest, JsonPointerOfConvertsDiffPaths) {
  EXPECT_EQ(JsonPointerOf("schema_version"), "/schema_version");
  EXPECT_EQ(JsonPointerOf("runs[3].metrics.response_seconds"),
            "/runs/3/metrics/response_seconds");
  EXPECT_EQ(JsonPointerOf("series_seconds[1][3]"), "/series_seconds/1/3");
  EXPECT_EQ(JsonPointerOf("a~b.c/d"), "/a~0b/c~1d");
  EXPECT_EQ(JsonPointerOf(""), "");
}

// A schema-version mismatch means the documents are different formats:
// the report must name the offending JSON pointer and both values, and
// skip the metric walk (whose diffs would all be noise).
TEST(BenchDiffTest, SchemaVersionMismatchNamesThePointer) {
  JsonValue candidate = Doc(kBaseline);
  candidate.Set("schema_version", 2);
  const DiffReport report =
      DiffBenchJson(Doc(kBaseline), candidate, DiffOptions{});
  EXPECT_FALSE(report.Passed());
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].kind, DiffKind::kRegression);
  const std::string text = FormatReport(report);
  EXPECT_NE(text.find("/schema_version"), std::string::npos) << text;
  EXPECT_NE(text.find("baseline 1"), std::string::npos) << text;
  EXPECT_NE(text.find("candidate 2"), std::string::npos) << text;
}

TEST(BenchDiffTest, SchemaVersionAbsentOnOneSideFails) {
  JsonValue no_version = Doc(kBaseline);
  auto& members = no_version.AsObject();
  members.erase(std::remove_if(members.begin(), members.end(),
                               [](const auto& kv) {
                                 return kv.first == "schema_version";
                               }),
                members.end());
  for (const bool candidate_missing : {true, false}) {
    const JsonValue& baseline = candidate_missing ? Doc(kBaseline) : no_version;
    const JsonValue& candidate = candidate_missing ? no_version : Doc(kBaseline);
    const DiffReport report =
        DiffBenchJson(baseline, candidate, DiffOptions{});
    EXPECT_FALSE(report.Passed());
    ASSERT_EQ(report.entries.size(), 1u);
    EXPECT_NE(report.entries[0].message.find("(absent)"), std::string::npos);
    EXPECT_NE(report.entries[0].message.find("/schema_version"),
              std::string::npos);
  }
}

TEST(BenchDiffTest, MatchingSchemaVersionsStillWalkMetrics) {
  JsonValue candidate = Doc(kBaseline);
  candidate.Find("runs")->AsArray()[0].Set("response_seconds", 11.0);
  const DiffReport report =
      DiffBenchJson(Doc(kBaseline), candidate, DiffOptions{});
  EXPECT_FALSE(report.Passed());
  EXPECT_EQ(report.entries[0].path, "runs[0].response_seconds");
}

TEST(BenchDiffTest, FormatReportSummarizes) {
  JsonValue candidate = Doc(kBaseline);
  candidate.Find("runs")->AsArray()[0].Set("response_seconds", 11.0);
  const DiffReport report =
      DiffBenchJson(Doc(kBaseline), candidate, DiffOptions{});
  const std::string text = FormatReport(report);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("runs[0].response_seconds"), std::string::npos);
  EXPECT_NE(text.find("1 regressions"), std::string::npos);
}

}  // namespace
}  // namespace gammadb::tools
