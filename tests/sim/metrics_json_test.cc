#include "sim/metrics_json.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace gammadb::sim {
namespace {

Counters FilledCounters() {
  Counters c;
  c.pages_read = 1;
  c.pages_written = 2;
  c.tuples_sent_local = 3;
  c.tuples_sent_remote = 4;
  c.bytes_local = 5;
  c.bytes_remote = 6;
  c.packets_local = 7;
  c.packets_remote = 8;
  c.control_messages = 9;
  c.ht_inserts = 10;
  c.ht_probes = 11;
  c.ht_overflows = 12;
  c.filter_drops = 13;
  c.result_tuples = 14;
  return c;
}

TEST(CountersToJsonTest, EveryCountersFieldIsPresent) {
  // The serialized schema every baseline and bench_diff run depends on:
  // one key per Counters field plus the derived short-circuit fraction.
  const std::vector<std::pair<std::string, int64_t>> expected = {
      {"pages_read", 1},      {"pages_written", 2},
      {"tuples_sent_local", 3}, {"tuples_sent_remote", 4},
      {"bytes_local", 5},     {"bytes_remote", 6},
      {"packets_local", 7},   {"packets_remote", 8},
      {"control_messages", 9}, {"ht_inserts", 10},
      {"ht_probes", 11},      {"ht_overflows", 12},
      {"filter_drops", 13},   {"result_tuples", 14},
  };
  const JsonValue json = CountersToJson(FilledCounters());
  ASSERT_TRUE(json.is_object());
  for (const auto& [key, value] : expected) {
    const JsonValue* field = json.Find(key);
    ASSERT_NE(field, nullptr) << key;
    EXPECT_EQ(field->AsInt(), value) << key;
  }
  const JsonValue* fraction = json.Find("short_circuit_fraction");
  ASSERT_NE(fraction, nullptr);
  EXPECT_DOUBLE_EQ(fraction->AsDouble(), 3.0 / 7.0);
  // Nothing beyond the declared schema.
  EXPECT_EQ(json.AsObject().size(), expected.size() + 1);
}

TEST(CountersToJsonTest, FaultKeysAppearOnlyWhenFaultsEngaged) {
  // Fault-free runs must serialize byte-identically to pre-fault
  // baselines: no fault key may appear when every fault counter is zero.
  const std::vector<std::string> fault_keys = {
      "disk_read_faults",   "disk_write_faults",
      "io_retries",         "packets_lost",
      "packets_duplicated", "packets_retransmitted",
      "node_crashes",       "operator_restarts",
  };
  const JsonValue clean = CountersToJson(FilledCounters());
  for (const std::string& key : fault_keys) {
    EXPECT_EQ(clean.Find(key), nullptr) << key;
  }

  Counters faulted = FilledCounters();
  faulted.disk_read_faults = 15;
  faulted.disk_write_faults = 16;
  faulted.io_retries = 17;
  faulted.packets_lost = 18;
  faulted.packets_duplicated = 19;
  faulted.packets_retransmitted = 20;
  faulted.node_crashes = 21;
  faulted.operator_restarts = 22;
  ASSERT_TRUE(faulted.Engaged(CounterGroup::kFault));
  const JsonValue json = CountersToJson(faulted);
  int64_t expected = 15;
  for (const std::string& key : fault_keys) {
    const JsonValue* field = json.Find(key);
    ASSERT_NE(field, nullptr) << key;
    EXPECT_EQ(field->AsInt(), expected++) << key;
  }
  // All fault keys, and nothing else, joined the schema.
  EXPECT_EQ(json.AsObject().size(),
            clean.AsObject().size() + fault_keys.size());

  // A single nonzero fault counter is enough to switch the schema.
  Counters one = FilledCounters();
  one.operator_restarts = 1;
  EXPECT_NE(CountersToJson(one).Find("disk_read_faults"), nullptr);
}

TEST(CountersToJsonTest, RebalanceKeysAppearOnlyWhenRebalanceEngaged) {
  // Skew-free runs must serialize byte-identically to pre-rebalance
  // baselines, exactly like the fault keys.
  const std::vector<std::string> rebalance_keys = {
      "rebalance_plans",
      "rebalance_moved_tuples",
      "rebalance_replica_tuples",
  };
  const JsonValue clean = CountersToJson(FilledCounters());
  for (const std::string& key : rebalance_keys) {
    EXPECT_EQ(clean.Find(key), nullptr) << key;
  }

  Counters rebalanced = FilledCounters();
  rebalanced.rebalance_plans = 23;
  rebalanced.rebalance_moved_tuples = 24;
  rebalanced.rebalance_replica_tuples = 25;
  ASSERT_TRUE(rebalanced.Engaged(CounterGroup::kRebalance));
  const JsonValue json = CountersToJson(rebalanced);
  int64_t expected = 23;
  for (const std::string& key : rebalance_keys) {
    const JsonValue* field = json.Find(key);
    ASSERT_NE(field, nullptr) << key;
    EXPECT_EQ(field->AsInt(), expected++) << key;
  }
  EXPECT_EQ(json.AsObject().size(),
            clean.AsObject().size() + rebalance_keys.size());

  // A single nonzero rebalance counter is enough to switch the schema,
  // and the fault keys stay independent of it.
  Counters one = FilledCounters();
  one.rebalance_moved_tuples = 1;
  const JsonValue partial = CountersToJson(one);
  EXPECT_NE(partial.Find("rebalance_plans"), nullptr);
  EXPECT_EQ(partial.Find("disk_read_faults"), nullptr);
}

TEST(CountersToJsonTest, EachRegisteredCounterEngagesOnlyItsGroup) {
  const CounterGroup groups[] = {CounterGroup::kCore, CounterGroup::kFault,
                                 CounterGroup::kRebalance};
  const size_t core_keys = CountersToJson(Counters{}).AsObject().size();
  for (const CounterField& field : kCounterFields) {
    Counters c;
    c.*field.member = 42;
    for (CounterGroup group : groups) {
      EXPECT_EQ(c.Engaged(group), group == field.group) << field.name;
    }
    const JsonValue json = CountersToJson(c);
    const JsonValue* key = json.Find(field.name);
    ASSERT_NE(key, nullptr) << field.name;
    EXPECT_EQ(key->AsInt(), 42) << field.name;
    // A core counter adds no key; any other brings in its whole group.
    size_t added = 0;
    for (const CounterField& other : kCounterFields) {
      if (field.group != CounterGroup::kCore && other.group == field.group) {
        ++added;
      }
    }
    EXPECT_EQ(json.AsObject().size(), core_keys + added) << field.name;
  }
}

TEST(RunMetricsToJsonTest, RecoverySecondsAppearsOnlyWithFaults) {
  RunMetrics metrics;
  metrics.response_seconds = 2.0;
  metrics.counters = FilledCounters();
  EXPECT_EQ(RunMetricsToJson(metrics).Find("recovery_seconds"), nullptr);

  metrics.counters.node_crashes = 1;
  metrics.counters.operator_restarts = 1;
  metrics.recovery_seconds = 0.75;
  const JsonValue json = RunMetricsToJson(metrics);
  const JsonValue* recovery = json.Find("recovery_seconds");
  ASSERT_NE(recovery, nullptr);
  EXPECT_DOUBLE_EQ(recovery->AsDouble(), 0.75);
}

TEST(PhaseRecordToJsonTest, SerializesPerNodeUsage) {
  PhaseRecord phase;
  phase.label = "partition R / build";
  phase.sched_seconds = 0.25;
  phase.ring_seconds = 0.5;
  phase.elapsed_seconds = 2.0;
  phase.usage.push_back(NodeUsage{1.0, 2.0});
  phase.usage.push_back(NodeUsage{0.5, 0.0});

  const JsonValue json = PhaseRecordToJson(phase);
  EXPECT_EQ(json.Find("label")->AsString(), "partition R / build");
  EXPECT_DOUBLE_EQ(json.Find("sched_seconds")->AsDouble(), 0.25);
  EXPECT_DOUBLE_EQ(json.Find("ring_seconds")->AsDouble(), 0.5);
  EXPECT_DOUBLE_EQ(json.Find("elapsed_seconds")->AsDouble(), 2.0);
  const JsonValue* nodes = json.Find("nodes");
  ASSERT_NE(nodes, nullptr);
  ASSERT_EQ(nodes->AsArray().size(), 2u);
  EXPECT_DOUBLE_EQ(nodes->AsArray()[0].Find("cpu_seconds")->AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(nodes->AsArray()[0].Find("disk_seconds")->AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(nodes->AsArray()[1].Find("cpu_seconds")->AsDouble(), 0.5);
}

TEST(RunMetricsToJsonTest, SerializesResponsePhasesAndAggregates) {
  RunMetrics metrics;
  metrics.response_seconds = 12.5;
  metrics.counters = FilledCounters();
  PhaseRecord phase1;
  phase1.label = "phase1";
  phase1.usage.push_back(NodeUsage{1.0, 4.0});
  PhaseRecord phase2;
  phase2.label = "phase2";
  phase2.usage.push_back(NodeUsage{2.0, 0.5});
  metrics.phases = {phase1, phase2};

  const JsonValue json = RunMetricsToJson(metrics);
  EXPECT_DOUBLE_EQ(json.Find("response_seconds")->AsDouble(), 12.5);
  EXPECT_DOUBLE_EQ(json.Find("total_cpu_seconds")->AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(json.Find("total_disk_seconds")->AsDouble(), 4.5);
  ASSERT_NE(json.Find("counters"), nullptr);
  EXPECT_EQ(json.Find("counters")->Find("result_tuples")->AsInt(), 14);
  const JsonValue* phases = json.Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->AsArray().size(), 2u);
  EXPECT_EQ(phases->AsArray()[1].Find("label")->AsString(), "phase2");
}

TEST(RunMetricsToJsonTest, DocumentParsesBackIdentically) {
  RunMetrics metrics;
  metrics.response_seconds = 1.0 / 3.0;
  metrics.counters.pages_read = 123456789;
  PhaseRecord phase;
  phase.label = "join bucket 3";
  phase.usage.push_back(NodeUsage{0.1, 0.2});
  metrics.phases.push_back(phase);

  const JsonValue json = RunMetricsToJson(metrics);
  auto reparsed = ParseJson(json.Dump(2));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(*reparsed == json);
}

}  // namespace
}  // namespace gammadb::sim
