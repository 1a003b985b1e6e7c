// The simulated shared-nothing multiprocessor.
//
// Mirrors the paper's Gamma configuration: a set of processors, some
// with attached disks ("disk nodes") and some diskless ("join nodes" of
// the remote configuration), connected by a token ring. The machine
// owns the phase clock: algorithms bracket their work in
// BeginPhase/EndPhase, run per-node work through RunOnNodes, and the
// machine turns accumulated per-node CPU/disk time plus network traffic
// into response time.
#ifndef GAMMA_SIM_MACHINE_H_
#define GAMMA_SIM_MACHINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/cost_model.h"
#include "sim/executor.h"
#include "sim/fault.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "sim/node.h"

namespace gammadb::sim {

class Tracer;

struct MachineConfig {
  /// Processors with attached disk drives (Gamma default: 8).
  int num_disk_nodes = 8;
  /// Diskless processors available for join work.
  int num_diskless_nodes = 0;
  CostModel cost;
  /// 1 = deterministic serial execution (default); >1 = thread pool.
  int num_threads = 1;
};

class Machine {
 public:
  explicit Machine(MachineConfig config);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_disk_nodes() const { return config_.num_disk_nodes; }
  Node& node(int id) { return *nodes_[static_cast<size_t>(id)]; }
  const Node& node(int id) const { return *nodes_[static_cast<size_t>(id)]; }

  /// Ids of the nodes with attached disks, ascending ([0, num_disk_nodes)).
  std::vector<int> DiskNodeIds() const;
  /// Ids of the diskless nodes, ascending.
  std::vector<int> DisklessNodeIds() const;
  /// Position of disk node `id` in DiskNodeIds() — the index of its
  /// fragment in every declustered relation, bucket or result file.
  /// CHECK-fails on a diskless id.
  size_t DiskIndexOf(int id) const;

  Network& network() { return network_; }
  const CostModel& cost() const { return config_.cost; }
  const MachineConfig& config() const { return config_; }

  // --- Fault injection (sim/fault.h) --------------------------------------

  /// Installs a fault plan. Event counters start at zero on arming (so a
  /// plan written against query events should be armed after loading) and
  /// are monotonic thereafter — ResetMetrics does NOT reset them, which is
  /// what lets a restarted operator run past its consumed faults. Replaces
  /// any previously armed plan; an empty plan is equivalent to disarming.
  void ArmFaults(const FaultPlan& plan);

  /// Removes the armed fault plan. The machine is fault-free again.
  void DisarmFaults();

  bool faults_armed() const { return faults_ != nullptr; }

  // --- Tracing (sim/trace.h) ----------------------------------------------

  /// Attaches a tracer (nullptr detaches). The machine registers itself
  /// with `label` and thereafter records every completed phase, restart
  /// and reset. Tracing is pure observation — attaching one cannot
  /// change any metric.
  void set_tracer(Tracer* tracer, const std::string& label = "machine");

  Tracer* tracer() const { return tracer_; }
  /// This machine's trace process id (0 when no tracer is attached).
  int trace_pid() const { return trace_pid_; }
  /// Simulated time of the current query's start on the shared trace
  /// timeline. ResetMetrics advances it by the elapsed response time, so
  /// successive queries on one machine lay out end to end.
  double trace_epoch_seconds() const { return trace_epoch_seconds_; }

  // --- Phase control -----------------------------------------------------

  /// Opens a phase. Phases must not nest. If the armed fault plan
  /// schedules a node crash for this phase entry, the crash is latched
  /// here and surfaces as Status::Aborted from the matching EndPhase
  /// (the phase's work still runs — and is wasted, exactly as it would
  /// be on the real machine).
  void BeginPhase(std::string label);

  /// Adds serialized scheduler work (control messages, split-table
  /// distribution) to the current phase; counts `messages` control
  /// messages in the counters.
  void ChargeScheduler(double seconds, int64_t messages);

  /// Closes the phase: flushes network traffic, computes the phase's
  /// elapsed time (max over nodes of max(cpu, disk), then max with ring
  /// occupancy, plus scheduler seconds) and adds it to the response time.
  /// Returns Status::Aborted when a scheduled node crash fired at this
  /// phase's entry (the phase record is kept either way — its time was
  /// really spent). Callers that cannot recover may ignore the result.
  Status EndPhase();

  /// Runs `fn(node)` once for each id in `ids` (a phase sub-step); blocks
  /// until all complete.
  void RunOnNodes(const std::vector<int>& ids,
                  const std::function<void(Node&)>& fn);

  /// As RunOnNodes, for fallible work: every task runs to completion
  /// (the phase barrier is preserved) and the non-OK status of the
  /// lowest-id node, if any, is returned — the deterministic choice at
  /// any thread count.
  Status TryRunOnNodes(const std::vector<int>& ids,
                       const std::function<Status(Node&)>& fn);

  /// Records one Gamma-style operator recovery: the aborted attempt's
  /// `wasted_seconds` are accounted as recovery time (they are already
  /// part of response_seconds) and operator_restarts is incremented.
  void RecordOperatorRestart(double wasted_seconds);

  // --- Results ------------------------------------------------------------

  /// Response time accumulated since the last ResetMetrics().
  double response_seconds() const { return response_seconds_; }

  /// Snapshot of all metrics: merges per-node counters with the
  /// machine-level ones.
  RunMetrics Metrics() const;

  /// Clears response time, phases and all counters (start of a query).
  void ResetMetrics();

 private:
  MachineConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  Network network_;
  Executor executor_;
  std::unique_ptr<FaultInjector> faults_;
  Tracer* tracer_ = nullptr;
  int trace_pid_ = 0;
  double trace_epoch_seconds_ = 0;

  bool in_phase_ = false;
  std::string phase_label_;
  double phase_sched_seconds_ = 0;
  int crashed_node_ = -1;  // latched by BeginPhase, surfaced by EndPhase

  double response_seconds_ = 0;
  double recovery_seconds_ = 0;
  Counters machine_counters_;  // network + scheduler counters
  std::vector<PhaseRecord> phases_;
};

}  // namespace gammadb::sim

#endif  // GAMMA_SIM_MACHINE_H_
