// Per-node, per-phase time accounting and whole-query counters.
//
// Execution is organized as a sequence of *phases* (e.g. "partition R /
// build", "partition S / probe", "join bucket 3"). Within a phase a
// node's disk activity overlaps its CPU activity (Gamma's read-ahead and
// dataflow design), so the node's phase time is max(cpu, disk); phases
// are serial, so the query response time is the sum over phases of the
// slowest participant (plus serialized scheduler work and any residual
// ring occupancy).
#ifndef GAMMA_SIM_METRICS_H_
#define GAMMA_SIM_METRICS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace gammadb::sim {

/// Cost-model primitive a simulated-time charge is attributed to. Every
/// ChargeCpu/ChargeDisk names the primitive being paid for, so a
/// node-phase's seconds can be decomposed exactly the way the paper
/// explains its figures (protocol CPU vs. disk vs. hash-table work,
/// Sections 4-5). The breakdown is pure observability: it never feeds
/// back into any cost.
enum class CostCategory : uint8_t {
  kDiskSeq = 0,   // sequential page device time
  kIoIssue,       // CPU issuing a page I/O (buffer manager, WiSS call)
  kReadTuple,     // extracting a tuple from a page
  kWriteTuple,    // copying a tuple into an output/temp page
  kHashRoute,     // hashing the join attribute + split-table lookup
  kHtInsert,      // join hash-table insert
  kHtProbe,       // join hash-table probe (excluding chain compares)
  kCompare,       // key compares (hash chains, merge join, evict scan)
  kSortCompare,   // compares inside sort run formation / merge
  kBuildResult,   // composing a result tuple
  kPredicate,     // selection predicate evaluation
  kFilterOp,      // bit-vector-filter set/test
  kNetSend,       // remote-packet send protocol CPU
  kNetRecv,       // remote-packet receive protocol CPU
  kNetLocal,      // short-circuited (same-node) packet protocol CPU
  kReceiveTuple,  // copying a tuple out of a received packet
  kNetFault,      // injected-fault protocol work (loss detect/resend,
                  // duplicate receive path)
  kOther,         // uncategorized (should stay zero in production code)
};

inline constexpr size_t kNumCostCategories =
    static_cast<size_t>(CostCategory::kOther) + 1;

/// Stable snake_case name used in trace args and attribution JSON.
inline const char* CostCategoryName(CostCategory category) {
  switch (category) {
    case CostCategory::kDiskSeq: return "disk_seq";
    case CostCategory::kIoIssue: return "io_issue";
    case CostCategory::kReadTuple: return "read_tuple";
    case CostCategory::kWriteTuple: return "write_tuple";
    case CostCategory::kHashRoute: return "hash_route";
    case CostCategory::kHtInsert: return "ht_insert";
    case CostCategory::kHtProbe: return "ht_probe";
    case CostCategory::kCompare: return "compare";
    case CostCategory::kSortCompare: return "sort_compare";
    case CostCategory::kBuildResult: return "build_result";
    case CostCategory::kPredicate: return "predicate";
    case CostCategory::kFilterOp: return "filter_op";
    case CostCategory::kNetSend: return "net_send";
    case CostCategory::kNetRecv: return "net_recv";
    case CostCategory::kNetLocal: return "net_local";
    case CostCategory::kReceiveTuple: return "receive_tuple";
    case CostCategory::kNetFault: return "net_fault";
    case CostCategory::kOther: return "other";
  }
  return "?";
}

/// Time consumed by one node during one phase, with the same seconds
/// decomposed by cost-model primitive. The category array sums to
/// cpu_seconds + disk_seconds (within float re-association error; the
/// machine asserts the match at every phase end).
struct NodeUsage {
  double cpu_seconds = 0;
  double disk_seconds = 0;
  std::array<double, kNumCostCategories> by_category{};

  double Elapsed() const { return std::max(cpu_seconds, disk_seconds); }

  double AttributedSeconds() const {
    double total = 0;
    for (double v : by_category) total += v;
    return total;
  }
};

/// Ring-occupancy decomposition of one phase. payload_seconds is the
/// occupancy of the phase's own traffic; the fault components are the
/// extra copies injected packet faults put on the wire. The three
/// components sum to PhaseRecord::ring_seconds (within float
/// re-association error; asserted at phase end).
struct RingAttribution {
  double payload_seconds = 0;
  double retransmit_seconds = 0;  // resent copies of lost packets
  double duplicate_seconds = 0;   // second copies of duplicated packets

  double Total() const {
    return payload_seconds + retransmit_seconds + duplicate_seconds;
  }
};

/// One completed phase.
struct PhaseRecord {
  std::string label;
  std::vector<NodeUsage> usage;   // indexed by node id
  double ring_seconds = 0;        // shared-ring occupancy
  RingAttribution ring;           // ring_seconds decomposed
  double sched_seconds = 0;       // serialized scheduler work
  double elapsed_seconds = 0;     // contribution to response time
};

/// Serialization group of a counter: kCore is always serialized, the
/// others only when Engaged, so runs without faults or rebalancing keep
/// the bytes of documents recorded before those counters existed.
enum class CounterGroup : uint8_t { kCore, kFault, kRebalance };

/// Whole-query operation counters (inputs to no cost; pure observability).
struct Counters {
  int64_t pages_read = 0;
  int64_t pages_written = 0;
  int64_t tuples_sent_local = 0;    // short-circuited deliveries
  int64_t tuples_sent_remote = 0;
  int64_t bytes_local = 0;
  int64_t bytes_remote = 0;
  int64_t packets_local = 0;
  int64_t packets_remote = 0;
  int64_t control_messages = 0;
  int64_t ht_inserts = 0;
  int64_t ht_probes = 0;
  int64_t ht_overflows = 0;         // hash-table overflow events
  int64_t filter_drops = 0;         // outer tuples eliminated by bit filters
  int64_t result_tuples = 0;

  // --- CounterGroup::kFault: fault injection & recovery (sim/fault.h).
  int64_t disk_read_faults = 0;     // failed page-read attempts
  int64_t disk_write_faults = 0;    // failed page-write attempts
  int64_t io_retries = 0;           // extra attempts after transient faults
  int64_t packets_lost = 0;         // remote packets dropped by the ring
  int64_t packets_duplicated = 0;   // remote packets delivered twice
  int64_t packets_retransmitted = 0;  // sender resends after a loss
  int64_t node_crashes = 0;         // mid-phase node failures
  int64_t operator_restarts = 0;    // Gamma-style abort-and-rerun recoveries

  // --- CounterGroup::kRebalance: adaptive repartitioning (docs/skew.md).
  int64_t rebalance_plans = 0;           // override tables installed
  int64_t rebalance_moved_tuples = 0;    // residents extracted & migrated
  int64_t rebalance_replica_tuples = 0;  // extra copies from replication

  bool Engaged(CounterGroup group) const;  // any member of `group` nonzero
  Counters& operator+=(const Counters& other);

  /// Fraction of routed tuples that never crossed the ring.
  double ShortCircuitFraction() const {
    const int64_t total = tuples_sent_local + tuples_sent_remote;
    return total == 0 ? 0.0
                      : static_cast<double>(tuples_sent_local) /
                            static_cast<double>(total);
  }
};

/// kCounterFields registers every Counters field once, in serialization
/// order; merging, group engagement and JSON all iterate it.
struct CounterField {
  const char* name;
  int64_t Counters::*member;
  CounterGroup group;
};
inline constexpr CounterField kCounterFields[] = {
    {"pages_read", &Counters::pages_read, CounterGroup::kCore},
    {"pages_written", &Counters::pages_written, CounterGroup::kCore},
    {"tuples_sent_local", &Counters::tuples_sent_local, CounterGroup::kCore},
    {"tuples_sent_remote", &Counters::tuples_sent_remote, CounterGroup::kCore},
    {"bytes_local", &Counters::bytes_local, CounterGroup::kCore},
    {"bytes_remote", &Counters::bytes_remote, CounterGroup::kCore},
    {"packets_local", &Counters::packets_local, CounterGroup::kCore},
    {"packets_remote", &Counters::packets_remote, CounterGroup::kCore},
    {"control_messages", &Counters::control_messages, CounterGroup::kCore},
    {"ht_inserts", &Counters::ht_inserts, CounterGroup::kCore},
    {"ht_probes", &Counters::ht_probes, CounterGroup::kCore},
    {"ht_overflows", &Counters::ht_overflows, CounterGroup::kCore},
    {"filter_drops", &Counters::filter_drops, CounterGroup::kCore},
    {"result_tuples", &Counters::result_tuples, CounterGroup::kCore},
    {"disk_read_faults", &Counters::disk_read_faults, CounterGroup::kFault},
    {"disk_write_faults", &Counters::disk_write_faults, CounterGroup::kFault},
    {"io_retries", &Counters::io_retries, CounterGroup::kFault},
    {"packets_lost", &Counters::packets_lost, CounterGroup::kFault},
    {"packets_duplicated", &Counters::packets_duplicated, CounterGroup::kFault},
    {"packets_retransmitted", &Counters::packets_retransmitted,
     CounterGroup::kFault},
    {"node_crashes", &Counters::node_crashes, CounterGroup::kFault},
    {"operator_restarts", &Counters::operator_restarts, CounterGroup::kFault},
    {"rebalance_plans", &Counters::rebalance_plans, CounterGroup::kRebalance},
    {"rebalance_moved_tuples", &Counters::rebalance_moved_tuples,
     CounterGroup::kRebalance},
    {"rebalance_replica_tuples", &Counters::rebalance_replica_tuples,
     CounterGroup::kRebalance},
};

static_assert(sizeof(Counters) == std::size(kCounterFields) * sizeof(int64_t),
              "every Counters field needs a kCounterFields entry");

inline bool Counters::Engaged(CounterGroup group) const {
  for (const CounterField& field : kCounterFields) {
    if (field.group == group && this->*field.member != 0) return true;
  }
  return false;
}

inline Counters& Counters::operator+=(const Counters& other) {
  for (const CounterField& field : kCounterFields) {
    this->*field.member += other.*field.member;
  }
  return *this;
}

/// Full account of one simulated query execution.
struct RunMetrics {
  double response_seconds = 0;
  /// Part of response_seconds spent re-doing work after recoveries
  /// (wasted time of aborted operator attempts). 0 without faults.
  double recovery_seconds = 0;
  Counters counters;
  std::vector<PhaseRecord> phases;

  double TotalCpuSeconds() const {
    double total = 0;
    for (const auto& phase : phases) {
      for (const auto& u : phase.usage) total += u.cpu_seconds;
    }
    return total;
  }

  /// Per-node CPU busy time over the whole run, indexed by node id.
  std::vector<double> NodeCpuSeconds() const {
    std::vector<double> busy;
    for (const auto& phase : phases) {
      if (busy.size() < phase.usage.size()) busy.resize(phase.usage.size());
      for (size_t i = 0; i < phase.usage.size(); ++i) {
        busy[i] += phase.usage[i].cpu_seconds;
      }
    }
    return busy;
  }

  /// Per-node CPU utilization: busy time / response time. This is the
  /// quantity behind the paper's Section 5 observation that local joins
  /// run the processors at 100% CPU while the remote configuration
  /// leaves the disk-node CPUs at ~60%.
  std::vector<double> NodeCpuUtilization() const {
    std::vector<double> util = NodeCpuSeconds();
    if (response_seconds > 0) {
      for (double& u : util) u /= response_seconds;
    }
    return util;
  }
  double TotalDiskSeconds() const {
    double total = 0;
    for (const auto& phase : phases) {
      for (const auto& u : phase.usage) total += u.disk_seconds;
    }
    return total;
  }
};

}  // namespace gammadb::sim

#endif  // GAMMA_SIM_METRICS_H_
