// Extension experiment: fault injection and recovery cost. Sweeps
// seeded fault rates (sim/fault.h) over all four join algorithms on the
// non-HPJA joinABprime workload and reports how much response time the
// retries, retransmissions and operator restarts add on top of the
// fault-free baseline.
//
// The fault plans are pure functions of the scenario (counted events,
// no randomness), so this benchmark is as deterministic as the
// fault-free ones: its metrics JSON is byte-identical at any executor
// thread count and is gated in CI against a checked-in smoke baseline.
//
// Scenarios:
//   none        fault-free baseline
//   disk-1/16   every 16th page I/O on every node fails transiently
//   disk-1/4    every 4th page I/O fails transiently
//   disk+net    disk-1/4 plus every 16th packet to each node lost (and
//               every 32nd duplicated; the sliding-window protocol
//               recovers both)
//   crash       two mid-query node crashes -> Gamma operator restarts
#include <cstdio>
#include <string>
#include <vector>

#include "common/harness.h"
#include "common/logging.h"
#include "sim/fault.h"

using gammadb::JsonValue;
using gammadb::bench::Workload;
using gammadb::join::Algorithm;
using gammadb::sim::FaultKind;
using gammadb::sim::FaultPlan;

namespace {

struct Scenario {
  const char* name;
  uint64_t disk_period;    // 0 = no disk faults
  uint64_t packet_period;  // 0 = no packet faults
  bool crashes;
};

const Scenario kScenarios[] = {
    {"none", 0, 0, false},
    {"disk-1/16", 16, 0, false},
    {"disk-1/4", 4, 0, false},
    {"disk+net", 4, 16, false},
    {"crash", 0, 0, true},
};

/// Enough periodic events to cover any plausible run length; events
/// past the end of the run simply never fire.
constexpr int kEventHorizonPerNode = 1024;

FaultPlan PlanFor(const Scenario& scenario, int num_nodes) {
  FaultPlan plan;
  for (int node = 0; node < num_nodes; ++node) {
    if (scenario.disk_period > 0) {
      plan.AddPeriodic(FaultKind::kDiskReadTransient, node,
                       scenario.disk_period, kEventHorizonPerNode);
      plan.AddPeriodic(FaultKind::kDiskWriteTransient, node,
                       scenario.disk_period, kEventHorizonPerNode);
    }
    if (scenario.packet_period > 0) {
      plan.AddPeriodic(FaultKind::kPacketLoss, node, scenario.packet_period,
                       kEventHorizonPerNode);
      plan.AddPeriodic(FaultKind::kPacketDuplicate, node,
                       2 * scenario.packet_period, kEventHorizonPerNode);
    }
  }
  if (scenario.crashes) {
    gammadb::sim::FaultEvent crash;
    crash.kind = FaultKind::kNodeCrash;
    crash.node = 3 % num_nodes;
    crash.ordinal = 2;  // second query phase
    crash.phase_label = "";
    plan.Add(crash);
    crash.node = 5 % num_nodes;
    crash.ordinal = 4;  // counts restarted phases too: a second recovery
    plan.Add(crash);
  }
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  gammadb::bench::InitBench(argc, argv, "ext_fault_recovery");

  const Algorithm algorithms[] = {Algorithm::kSortMerge,
                                  Algorithm::kSimpleHash,
                                  Algorithm::kGraceHash, Algorithm::kHybridHash};
  const char* names[] = {"Sort-Merge", "Simple", "Grace", "Hybrid"};
  constexpr int kNumScenarios = 5;

  // Non-HPJA so redistribution puts real packets on the ring (an HPJA
  // join short-circuits them and the packet scenarios would be no-ops).
  gammadb::bench::WorkloadOptions options;
  options.hpja = false;
  Workload workload(gammadb::bench::LocalConfig(), options);
  const int num_nodes = workload.machine().num_nodes();

  double seconds[kNumScenarios][4];
  double recovery[kNumScenarios][4];
  JsonValue table = JsonValue::MakeArray();

  std::printf("\nFault injection: joinABprime (non-HPJA), 0.5 memory, "
              "bit filters\n");
  std::printf("%-12s%14s%14s%12s%12s%10s\n", "scenario", "algorithm",
              "response", "recovery", "retries", "restarts");
  for (int s = 0; s < kNumScenarios; ++s) {
    const Scenario& scenario = kScenarios[s];
    const FaultPlan plan = PlanFor(scenario, num_nodes);
    for (int a = 0; a < 4; ++a) {
      // Re-arm per run: arming resets the event counters, so every run
      // sees the same fault schedule.
      if (plan.empty()) {
        workload.machine().DisarmFaults();
      } else {
        workload.machine().ArmFaults(plan);
      }
      auto out = workload.Run(algorithms[a], 0.5, true, false);
      gammadb::bench::CheckResultCount(
          out, gammadb::bench::ExpectedJoinABprimeResult());

      const gammadb::sim::Counters& c = out.metrics.counters;
      seconds[s][a] = out.response_seconds();
      recovery[s][a] = out.metrics.recovery_seconds;
      if (scenario.crashes) {
        GAMMA_CHECK_GE(c.operator_restarts, 1)
            << "crash scenario did not trigger a recovery";
        GAMMA_CHECK_GT(out.metrics.recovery_seconds, 0.0);
      } else {
        GAMMA_CHECK_EQ(c.operator_restarts, 0)
            << "transient faults must heal without a restart";
      }
      if (scenario.disk_period > 0) {
        GAMMA_CHECK_GT(c.io_retries, 0);
      }
      if (scenario.packet_period > 0) {
        GAMMA_CHECK_GT(c.packets_lost, 0);
      }
      if (s == 0) {
        GAMMA_CHECK(!c.Engaged(gammadb::sim::CounterGroup::kFault));
      }

      std::printf("%-12s%14s%14.2f%12.3f%12lld%10lld\n", scenario.name,
                  names[a], seconds[s][a], recovery[s][a],
                  static_cast<long long>(c.io_retries),
                  static_cast<long long>(c.operator_restarts));

      JsonValue row = JsonValue::MakeObject();
      row.Set("scenario", std::string(scenario.name));
      row.Set("algorithm", std::string(names[a]));
      row.Set("response_seconds", seconds[s][a]);
      row.Set("recovery_seconds", recovery[s][a]);
      row.Set("overhead_seconds", seconds[s][a] - seconds[0][a]);
      row.Set("io_retries", c.io_retries);
      row.Set("packets_retransmitted", c.packets_retransmitted);
      row.Set("packets_duplicated", c.packets_duplicated);
      row.Set("node_crashes", c.node_crashes);
      row.Set("operator_restarts", c.operator_restarts);
      table.Append(std::move(row));
    }
  }
  workload.machine().DisarmFaults();

  std::printf("\nResponse-time overhead vs fault-free (percent):\n");
  std::printf("%-12s", "scenario");
  for (const char* name : names) std::printf("%12s", name);
  std::printf("\n");
  for (int s = 1; s < kNumScenarios; ++s) {
    std::printf("%-12s", kScenarios[s].name);
    for (int a = 0; a < 4; ++a) {
      std::printf("%11.1f%%", 100.0 * (seconds[s][a] / seconds[0][a] - 1.0));
    }
    std::printf("\n");
  }

  gammadb::bench::RecordBenchExtra("fault_recovery", std::move(table));
  return 0;
}
