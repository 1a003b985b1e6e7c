#include "sim/machine.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sim/trace.h"

namespace gammadb::sim {

Machine::Machine(MachineConfig config)
    : config_(config),
      network_(static_cast<size_t>(config.num_disk_nodes +
                                   config.num_diskless_nodes),
               &config_.cost),
      executor_(config.num_threads) {
  GAMMA_CHECK_GE(config.num_disk_nodes, 1);
  GAMMA_CHECK_GE(config.num_diskless_nodes, 0);
  const int total = config.num_disk_nodes + config.num_diskless_nodes;
  nodes_.reserve(static_cast<size_t>(total));
  for (int id = 0; id < total; ++id) {
    nodes_.push_back(std::make_unique<Node>(
        id, /*has_disk=*/id < config.num_disk_nodes, &config_.cost));
  }
}

void Machine::ArmFaults(const FaultPlan& plan) {
  GAMMA_CHECK(!in_phase_) << "cannot arm faults inside a phase";
  if (plan.empty()) {
    DisarmFaults();
    return;
  }
  faults_ = std::make_unique<FaultInjector>(plan, num_nodes());
  for (auto& node : nodes_) node->set_fault_injector(faults_.get());
  network_.set_fault_injector(faults_.get());
}

void Machine::DisarmFaults() {
  GAMMA_CHECK(!in_phase_) << "cannot disarm faults inside a phase";
  for (auto& node : nodes_) node->set_fault_injector(nullptr);
  network_.set_fault_injector(nullptr);
  faults_.reset();
  crashed_node_ = -1;
}

std::vector<int> Machine::DiskNodeIds() const {
  std::vector<int> ids(static_cast<size_t>(config_.num_disk_nodes));
  for (int i = 0; i < config_.num_disk_nodes; ++i) ids[static_cast<size_t>(i)] = i;
  return ids;
}

size_t Machine::DiskIndexOf(int id) const {
  GAMMA_CHECK(id >= 0 && id < config_.num_disk_nodes)
      << "node " << id << " is not a disk node";
  return static_cast<size_t>(id);
}

std::vector<int> Machine::DisklessNodeIds() const {
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(config_.num_diskless_nodes));
  for (int i = config_.num_disk_nodes; i < num_nodes(); ++i) ids.push_back(i);
  return ids;
}

void Machine::set_tracer(Tracer* tracer, const std::string& label) {
  GAMMA_CHECK(!in_phase_) << "cannot attach a tracer inside a phase";
  tracer_ = tracer;
  trace_pid_ = 0;
  trace_epoch_seconds_ = 0;
  if (tracer_ != nullptr) {
    trace_pid_ =
        tracer_->RegisterMachine(num_nodes(), num_disk_nodes(), label);
  }
}

void Machine::BeginPhase(std::string label) {
  GAMMA_CHECK(!in_phase_) << "phase '" << phase_label_
                          << "' still open when starting '" << label << "'";
  in_phase_ = true;
  phase_label_ = std::move(label);
  phase_sched_seconds_ = 0;
  for (auto& node : nodes_) node->ResetPhaseUsage();
  if (faults_ != nullptr) {
    const int crashed = faults_->OnPhaseEntry(phase_label_);
    if (crashed >= 0) {
      crashed_node_ = crashed;
      ++machine_counters_.node_crashes;
    }
  }
}

void Machine::ChargeScheduler(double seconds, int64_t messages) {
  GAMMA_CHECK(in_phase_);
  phase_sched_seconds_ += seconds;
  machine_counters_.control_messages += messages;
}

Status Machine::EndPhase() {
  GAMMA_CHECK(in_phase_);
  PhaseRecord record;
  record.label = std::move(phase_label_);
  record.sched_seconds = phase_sched_seconds_;

  std::vector<Node*> raw;
  raw.reserve(nodes_.size());
  for (auto& node : nodes_) raw.push_back(node.get());
  record.ring_seconds =
      network_.FlushPhase(raw, machine_counters_, &record.ring);
  GAMMA_DCHECK(std::abs(record.ring.Total() - record.ring_seconds) <=
               1e-9 * std::max(1.0, record.ring_seconds))
      << "ring attribution (" << record.ring.Total()
      << ") does not account for ring occupancy (" << record.ring_seconds
      << ") in phase '" << record.label << "'";

  record.usage.reserve(nodes_.size());
  double slowest_node = 0;
  for (auto& node : nodes_) {
    const NodeUsage& usage = node->phase_usage();
    const double charged = usage.cpu_seconds + usage.disk_seconds;
    GAMMA_DCHECK(std::abs(usage.AttributedSeconds() - charged) <=
                 1e-9 * std::max(1.0, charged))
        << "cost attribution (" << usage.AttributedSeconds()
        << ") does not account for node " << node->id() << "'s " << charged
        << " charged seconds in phase '" << record.label << "'";
    record.usage.push_back(usage);
    slowest_node = std::max(slowest_node, usage.Elapsed());
  }
  // Node work overlaps ring transfers; scheduler messages serialize.
  record.elapsed_seconds =
      std::max(slowest_node, record.ring_seconds) + record.sched_seconds;
  if (tracer_ != nullptr) {
    tracer_->RecordPhase(trace_pid_, trace_epoch_seconds_ + response_seconds_,
                         record);
  }
  response_seconds_ += record.elapsed_seconds;
  const std::string label = record.label;
  phases_.push_back(std::move(record));
  in_phase_ = false;
  if (crashed_node_ >= 0) {
    const int node = crashed_node_;
    crashed_node_ = -1;
    return Status::Aborted("node " + std::to_string(node) +
                           " crashed during phase '" + label + "'");
  }
  return Status::OK();
}

void Machine::RunOnNodes(const std::vector<int>& ids,
                         const std::function<void(Node&)>& fn) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(ids.size());
  for (int id : ids) {
    GAMMA_CHECK(id >= 0 && id < num_nodes()) << "bad node id " << id;
    Node* node = nodes_[static_cast<size_t>(id)].get();
    tasks.push_back([node, &fn] { fn(*node); });
  }
  executor_.Run(std::move(tasks));
}

Status Machine::TryRunOnNodes(const std::vector<int>& ids,
                              const std::function<Status(Node&)>& fn) {
  std::vector<Status> statuses(ids.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    GAMMA_CHECK(ids[i] >= 0 && ids[i] < num_nodes())
        << "bad node id " << ids[i];
    Node* node = nodes_[static_cast<size_t>(ids[i])].get();
    Status* slot = &statuses[i];
    tasks.push_back([node, &fn, slot] { *slot = fn(*node); });
  }
  executor_.Run(std::move(tasks));
  for (const Status& status : statuses) {
    GAMMA_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

void Machine::RecordOperatorRestart(double wasted_seconds) {
  GAMMA_CHECK(!in_phase_);
  ++machine_counters_.operator_restarts;
  recovery_seconds_ += wasted_seconds;
  if (tracer_ != nullptr) {
    const double end = trace_epoch_seconds_ + response_seconds_;
    tracer_->RecordRestart(trace_pid_, end - wasted_seconds, end);
  }
}

RunMetrics Machine::Metrics() const {
  RunMetrics m;
  m.response_seconds = response_seconds_;
  m.recovery_seconds = recovery_seconds_;
  m.phases = phases_;
  m.counters = machine_counters_;
  for (const auto& node : nodes_) m.counters += node->counters();
  return m;
}

void Machine::ResetMetrics() {
  GAMMA_CHECK(!in_phase_);
  // Keep the trace timeline contiguous across queries on one machine.
  trace_epoch_seconds_ += response_seconds_;
  response_seconds_ = 0;
  recovery_seconds_ = 0;
  machine_counters_ = Counters{};
  phases_.clear();
  for (auto& node : nodes_) {
    node->ResetCounters();
    node->ResetPhaseUsage();
  }
}

}  // namespace gammadb::sim
