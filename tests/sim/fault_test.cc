#include "sim/fault.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/status.h"
#include "sim/disk.h"
#include "sim/machine.h"

namespace gammadb::sim {
namespace {

FaultEvent Ev(FaultKind kind, int node, uint64_t ordinal, int repeat = 1,
              std::string phase_label = "") {
  FaultEvent e;
  e.kind = kind;
  e.node = node;
  e.ordinal = ordinal;
  e.repeat = repeat;
  e.phase_label = std::move(phase_label);
  return e;
}

// ---------------------------------------------------------------------------
// FaultInjector: counted-event bookkeeping.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, FiresAtExactOrdinal) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kDiskReadTransient, 0, 3));
  FaultInjector inj(plan, /*num_nodes=*/1);
  EXPECT_FALSE(inj.OnPageRead(0));
  EXPECT_FALSE(inj.OnPageRead(0));
  EXPECT_TRUE(inj.OnPageRead(0));
  EXPECT_FALSE(inj.OnPageRead(0));  // fires at most once
}

TEST(FaultInjectorTest, RepeatExpandsToConsecutiveOrdinals) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kDiskWriteTransient, 0, 2, 3));
  FaultInjector inj(plan, 1);
  EXPECT_FALSE(inj.OnPageWrite(0));
  EXPECT_TRUE(inj.OnPageWrite(0));
  EXPECT_TRUE(inj.OnPageWrite(0));
  EXPECT_TRUE(inj.OnPageWrite(0));
  EXPECT_FALSE(inj.OnPageWrite(0));
}

TEST(FaultInjectorTest, TracksArePerNodeAndPerKind) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kDiskReadTransient, 1, 1));
  FaultInjector inj(plan, 2);
  // Same ordinal on another node or another kind never fires.
  EXPECT_FALSE(inj.OnPageRead(0));
  EXPECT_FALSE(inj.OnPageWrite(1));
  EXPECT_TRUE(inj.OnPageRead(1));
}

TEST(FaultInjectorTest, AddPeriodicSchedulesMultiplesOfPeriod) {
  FaultPlan plan;
  plan.AddPeriodic(FaultKind::kDiskReadTransient, 0, /*period=*/3,
                   /*count=*/2);
  ASSERT_EQ(plan.events().size(), 2u);
  FaultInjector inj(plan, 1);
  int fired = 0;
  std::vector<int> fired_at;
  for (int i = 1; i <= 9; ++i) {
    if (inj.OnPageRead(0)) {
      ++fired;
      fired_at.push_back(i);
    }
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(fired_at, (std::vector<int>{3, 6}));
}

TEST(FaultInjectorTest, PacketFaultsCountedAgainstDeliveredRanges) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kPacketLoss, 1, 3));
  plan.Add(Ev(FaultKind::kPacketDuplicate, 1, 4));
  FaultInjector inj(plan, 2);
  FaultInjector::PacketFaults pf = inj.OnPacketsDelivered(1, 2);
  EXPECT_EQ(pf.lost, 0);
  EXPECT_EQ(pf.duplicated, 0);
  pf = inj.OnPacketsDelivered(1, 3);  // covers ordinals 3..5
  EXPECT_EQ(pf.lost, 1);
  EXPECT_EQ(pf.duplicated, 1);
  pf = inj.OnPacketsDelivered(1, 10);
  EXPECT_EQ(pf.lost, 0);
  EXPECT_EQ(pf.duplicated, 0);
}

TEST(FaultInjectorTest, CrashMatchesLabelSubstringAtOrdinal) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kNodeCrash, 2, 2, 1, "build"));
  FaultInjector inj(plan, 4);
  EXPECT_EQ(inj.OnPhaseEntry("probe S"), -1);       // no match, not counted
  EXPECT_EQ(inj.OnPhaseEntry("build R (1)"), -1);   // first match
  EXPECT_EQ(inj.OnPhaseEntry("build R (2)"), 2);    // second match: crash
  EXPECT_EQ(inj.OnPhaseEntry("build R (3)"), -1);   // fires at most once
}

TEST(FaultInjectorTest, EmptyLabelMatchesEveryPhase) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kNodeCrash, 0, 1, 1, ""));
  FaultInjector inj(plan, 1);
  EXPECT_EQ(inj.OnPhaseEntry("anything"), 0);
}

TEST(FaultPlanTest, RandomIsDeterministicPerSeed) {
  FaultPlan::RandomOptions opts;
  opts.num_nodes = 4;
  const FaultPlan a = FaultPlan::Random(17, opts);
  const FaultPlan b = FaultPlan::Random(17, opts);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_FALSE(a.empty());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
    EXPECT_EQ(a.events()[i].ordinal, b.events()[i].ordinal);
    EXPECT_EQ(a.events()[i].repeat, b.events()[i].repeat);
    EXPECT_EQ(a.events()[i].phase_label, b.events()[i].phase_label);
    EXPECT_GE(a.events()[i].node, 0);
    EXPECT_LT(a.events()[i].node, opts.num_nodes);
    EXPECT_GE(a.events()[i].ordinal, 1u);
  }
  const FaultPlan c = FaultPlan::Random(18, opts);
  bool differs = a.events().size() != c.events().size();
  for (size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = a.events()[i].kind != c.events()[i].kind ||
              a.events()[i].node != c.events()[i].node ||
              a.events()[i].ordinal != c.events()[i].ordinal;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, RandomHonorsClassToggles) {
  FaultPlan::RandomOptions opts;
  opts.disk_faults = false;
  opts.crashes = false;
  const FaultPlan plan = FaultPlan::Random(5, opts);
  for (const FaultEvent& e : plan.events()) {
    EXPECT_TRUE(e.kind == FaultKind::kPacketLoss ||
                e.kind == FaultKind::kPacketDuplicate)
        << FaultKindName(e.kind);
  }
}

// ---------------------------------------------------------------------------
// Disk: transient faults retry and self-heal; exhausted budgets are hard
// errors.
// ---------------------------------------------------------------------------

class DiskFaultTest : public ::testing::Test {
 protected:
  DiskFaultTest() : machine_(MachineConfig{2, 0, CostModel{}, 1}) {}

  Disk& disk(int n = 0) { return machine_.node(n).disk(); }
  std::vector<uint8_t> PageBuf(uint8_t fill = 0) {
    return std::vector<uint8_t>(machine_.cost().page_bytes, fill);
  }

  Machine machine_;
};

TEST_F(DiskFaultTest, TransientReadFaultRetriesAndSelfHeals) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kDiskReadTransient, 0, 1));
  machine_.ArmFaults(plan);
  EXPECT_TRUE(machine_.faults_armed());

  std::vector<uint8_t> in = PageBuf(0xAB);
  const PageId id = disk().AllocatePage();
  machine_.BeginPhase("fault io");
  ASSERT_TRUE(disk().WritePage(id, in.data()).ok());
  const uint8_t* out = nullptr;
  const Status read = disk().ReadPageRef(id, &out);
  ASSERT_TRUE(read.ok()) << read.ToString();
  // Data is never corrupted by a transient fault.
  EXPECT_EQ(std::vector<uint8_t>(out, out + in.size()), in);

  // The failed attempt plus the successful retry each paid full device
  // and issue-CPU time.
  const CostModel& cost = machine_.cost();
  const NodeUsage& usage = machine_.node(0).phase_usage();
  EXPECT_DOUBLE_EQ(usage.disk_seconds, 3 * cost.disk_seq_page_seconds);
  EXPECT_DOUBLE_EQ(usage.cpu_seconds, 3 * cost.cpu_page_io_seconds);
  machine_.EndPhase().IgnoreError();

  const Counters c = machine_.Metrics().counters;
  EXPECT_EQ(c.disk_read_faults, 1);
  EXPECT_EQ(c.disk_write_faults, 0);
  EXPECT_EQ(c.io_retries, 1);
  EXPECT_EQ(c.pages_read, 1);
  EXPECT_EQ(c.pages_written, 1);
  EXPECT_TRUE(c.Engaged(CounterGroup::kFault));
}

TEST_F(DiskFaultTest, TransientWriteFaultCountsSeparately) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kDiskWriteTransient, 0, 1));
  machine_.ArmFaults(plan);
  std::vector<uint8_t> buf = PageBuf(0x11);
  const PageId id = disk().AllocatePage();
  machine_.BeginPhase("w");
  EXPECT_TRUE(disk().WritePage(id, buf.data()).ok());
  machine_.EndPhase().IgnoreError();
  const Counters c = machine_.Metrics().counters;
  EXPECT_EQ(c.disk_write_faults, 1);
  EXPECT_EQ(c.disk_read_faults, 0);
  EXPECT_EQ(c.io_retries, 1);
  EXPECT_EQ(c.pages_written, 1);
}

TEST_F(DiskFaultTest, RepeatAtRetryBudgetBecomesHardError) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kDiskReadTransient, 0, 1, Disk::kMaxIoAttempts));
  machine_.ArmFaults(plan);
  const uint8_t* out = nullptr;
  const PageId id = disk().AllocatePage();
  machine_.BeginPhase("hard");
  const Status st = disk().ReadPageRef(id, &out);
  machine_.EndPhase().IgnoreError();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  const Counters c = machine_.Metrics().counters;
  EXPECT_EQ(c.disk_read_faults, Disk::kMaxIoAttempts);
  EXPECT_EQ(c.io_retries, Disk::kMaxIoAttempts - 1);
  EXPECT_EQ(c.pages_read, 0);  // the read never completed
}

TEST_F(DiskFaultTest, RepeatBelowBudgetStillSucceeds) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kDiskReadTransient, 0, 1, Disk::kMaxIoAttempts - 1));
  machine_.ArmFaults(plan);
  const uint8_t* out = nullptr;
  const PageId id = disk().AllocatePage();
  machine_.BeginPhase("heal");
  EXPECT_TRUE(disk().ReadPageRef(id, &out).ok());
  machine_.EndPhase().IgnoreError();
  const Counters c = machine_.Metrics().counters;
  EXPECT_EQ(c.disk_read_faults, Disk::kMaxIoAttempts - 1);
  EXPECT_EQ(c.io_retries, Disk::kMaxIoAttempts - 1);
  EXPECT_EQ(c.pages_read, 1);
}

TEST_F(DiskFaultTest, FaultCountersSurviveResetMetrics) {
  // Event counters are monotonic from ArmFaults: a fault scheduled on the
  // second read fires even when ResetMetrics runs between the reads.
  // This is what lets a restarted operator run past consumed faults.
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kDiskReadTransient, 0, 2));
  machine_.ArmFaults(plan);
  const uint8_t* out = nullptr;
  const PageId id = disk().AllocatePage();
  machine_.BeginPhase("a");
  EXPECT_TRUE(disk().ReadPageRef(id, &out).ok());
  machine_.EndPhase().IgnoreError();
  EXPECT_EQ(machine_.Metrics().counters.disk_read_faults, 0);

  machine_.ResetMetrics();
  machine_.BeginPhase("b");
  EXPECT_TRUE(disk().ReadPageRef(id, &out).ok());
  machine_.EndPhase().IgnoreError();
  const Counters c = machine_.Metrics().counters;
  EXPECT_EQ(c.disk_read_faults, 1);
  EXPECT_EQ(c.io_retries, 1);
}

TEST_F(DiskFaultTest, EmptyPlanDisarms) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kDiskReadTransient, 0, 1));
  machine_.ArmFaults(plan);
  EXPECT_TRUE(machine_.faults_armed());
  machine_.ArmFaults(FaultPlan{});
  EXPECT_FALSE(machine_.faults_armed());

  machine_.ArmFaults(plan);
  machine_.DisarmFaults();
  EXPECT_FALSE(machine_.faults_armed());
  const uint8_t* out = nullptr;
  const PageId id = disk().AllocatePage();
  machine_.BeginPhase("clean");
  EXPECT_TRUE(disk().ReadPageRef(id, &out).ok());
  machine_.EndPhase().IgnoreError();
  EXPECT_FALSE(machine_.Metrics().counters.Engaged(CounterGroup::kFault));
}

// ---------------------------------------------------------------------------
// Network: packet loss charges the sender's retransmission, duplication
// charges the receiver's discard path. Data never changes.
// ---------------------------------------------------------------------------

class NetFaultTest : public ::testing::Test {
 protected:
  NetFaultTest() : machine_(MachineConfig{2, 0, CostModel{}, 1}) {}
  Machine machine_;
};

TEST_F(NetFaultTest, PacketLossChargesSenderRetransmission) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kPacketLoss, 1, 1));
  machine_.ArmFaults(plan);
  const CostModel& cost = machine_.cost();
  machine_.BeginPhase("xfer");
  machine_.network().AccountTuple(0, 1, cost.packet_payload_bytes);
  EXPECT_TRUE(machine_.EndPhase().ok());  // loss is not an error: protocol
                                          // guarantees delivery
  const RunMetrics m = machine_.Metrics();
  EXPECT_EQ(m.counters.packets_remote, 1);
  EXPECT_EQ(m.counters.packets_lost, 1);
  EXPECT_EQ(m.counters.packets_retransmitted, 1);
  EXPECT_EQ(m.counters.packets_duplicated, 0);
  // Sender pays the original send, the loss detection, and the resend.
  EXPECT_DOUBLE_EQ(m.phases[0].usage[0].cpu_seconds,
                   2 * cost.net_remote_packet_send_cpu_seconds +
                       cost.net_retransmit_detect_cpu_seconds);
  // Receiver pays the normal receive path exactly once.
  EXPECT_DOUBLE_EQ(m.phases[0].usage[1].cpu_seconds,
                   cost.net_remote_packet_recv_cpu_seconds +
                       cost.cpu_receive_tuple_seconds);
  // The ring carried the payload twice.
  EXPECT_DOUBLE_EQ(m.phases[0].ring_seconds,
                   2 * cost.packet_payload_bytes *
                       cost.net_wire_seconds_per_byte);
}

TEST_F(NetFaultTest, PacketDuplicateChargesReceiverDiscard) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kPacketDuplicate, 1, 1));
  machine_.ArmFaults(plan);
  const CostModel& cost = machine_.cost();
  machine_.BeginPhase("xfer");
  machine_.network().AccountTuple(0, 1, cost.packet_payload_bytes);
  EXPECT_TRUE(machine_.EndPhase().ok());
  const RunMetrics m = machine_.Metrics();
  EXPECT_EQ(m.counters.packets_duplicated, 1);
  EXPECT_EQ(m.counters.packets_lost, 0);
  // Sender is untouched.
  EXPECT_DOUBLE_EQ(m.phases[0].usage[0].cpu_seconds,
                   cost.net_remote_packet_send_cpu_seconds);
  // Receiver pays one extra receive path; the duplicate is discarded by
  // sequence number before per-tuple processing.
  EXPECT_DOUBLE_EQ(m.phases[0].usage[1].cpu_seconds,
                   2 * cost.net_remote_packet_recv_cpu_seconds +
                       cost.cpu_receive_tuple_seconds);
  EXPECT_DOUBLE_EQ(m.phases[0].ring_seconds,
                   2 * cost.packet_payload_bytes *
                       cost.net_wire_seconds_per_byte);
}

// Regression: a faulted *tail* packet carries only the cell's residual
// bytes, so its extra wire copy must be charged at the actual payload,
// not a full packet_payload_bytes (the old code overcharged the ring by
// nearly a full packet per tail fault).
TEST_F(NetFaultTest, PacketLossOnPartialTailChargesActualPayload) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kPacketLoss, 1, 2));  // second packet = the tail
  machine_.ArmFaults(plan);
  const CostModel& cost = machine_.cost();
  const uint64_t bytes = cost.packet_payload_bytes + 1;  // tail carries 1 byte
  machine_.BeginPhase("xfer");
  machine_.network().AccountBytes(0, 1, bytes);
  EXPECT_TRUE(machine_.EndPhase().ok());
  const RunMetrics m = machine_.Metrics();
  EXPECT_EQ(m.counters.packets_remote, 2);
  EXPECT_EQ(m.counters.packets_lost, 1);
  EXPECT_EQ(m.counters.packets_retransmitted, 1);
  const double wire = cost.net_wire_seconds_per_byte;
  // Payload once, plus the 1-byte tail resent — not a full extra packet.
  EXPECT_DOUBLE_EQ(m.phases[0].ring_seconds,
                   static_cast<double>(bytes) * wire + 1 * wire);
  EXPECT_DOUBLE_EQ(m.phases[0].ring.payload_seconds,
                   static_cast<double>(bytes) * wire);
  EXPECT_DOUBLE_EQ(m.phases[0].ring.retransmit_seconds, 1 * wire);
  EXPECT_DOUBLE_EQ(m.phases[0].ring.duplicate_seconds, 0.0);
}

TEST_F(NetFaultTest, PacketLossBeforeTailStillChargesFullPayload) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kPacketLoss, 1, 1));  // first packet is full
  machine_.ArmFaults(plan);
  const CostModel& cost = machine_.cost();
  const uint64_t bytes = cost.packet_payload_bytes + 1;
  machine_.BeginPhase("xfer");
  machine_.network().AccountBytes(0, 1, bytes);
  EXPECT_TRUE(machine_.EndPhase().ok());
  const RunMetrics m = machine_.Metrics();
  const double wire = cost.net_wire_seconds_per_byte;
  EXPECT_DOUBLE_EQ(m.phases[0].ring.retransmit_seconds,
                   cost.packet_payload_bytes * wire);
  EXPECT_DOUBLE_EQ(m.phases[0].ring_seconds,
                   static_cast<double>(bytes) * wire +
                       cost.packet_payload_bytes * wire);
}

TEST_F(NetFaultTest, PacketDuplicateOnPartialTailChargesActualPayload) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kPacketDuplicate, 1, 3));  // tail of 3 packets
  machine_.ArmFaults(plan);
  const CostModel& cost = machine_.cost();
  const uint64_t tail = cost.packet_payload_bytes / 2;
  const uint64_t bytes = 2 * cost.packet_payload_bytes + tail;
  machine_.BeginPhase("xfer");
  machine_.network().AccountBytes(0, 1, bytes);
  EXPECT_TRUE(machine_.EndPhase().ok());
  const RunMetrics m = machine_.Metrics();
  EXPECT_EQ(m.counters.packets_remote, 3);
  EXPECT_EQ(m.counters.packets_duplicated, 1);
  const double wire = cost.net_wire_seconds_per_byte;
  EXPECT_DOUBLE_EQ(m.phases[0].ring.duplicate_seconds,
                   static_cast<double>(tail) * wire);
  EXPECT_DOUBLE_EQ(m.phases[0].ring_seconds,
                   static_cast<double>(bytes + tail) * wire);
  // The attribution identity ring == payload + retransmit + duplicate.
  EXPECT_DOUBLE_EQ(m.phases[0].ring.Total(), m.phases[0].ring_seconds);
}

TEST_F(NetFaultTest, LocalDeliveryNeverFaults) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kPacketLoss, 0, 1));
  machine_.ArmFaults(plan);
  machine_.BeginPhase("local");
  machine_.network().AccountTuple(0, 0, machine_.cost().packet_payload_bytes);
  EXPECT_TRUE(machine_.EndPhase().ok());
  const Counters c = machine_.Metrics().counters;
  EXPECT_EQ(c.packets_local, 1);
  EXPECT_EQ(c.packets_lost, 0);  // short-circuited packets never touch
                                 // the ring, so they cannot be lost
}

// ---------------------------------------------------------------------------
// Machine: node crashes abort the phase; recovery is booked explicitly.
// ---------------------------------------------------------------------------

class CrashTest : public ::testing::Test {
 protected:
  CrashTest() : machine_(MachineConfig{2, 0, CostModel{}, 1}) {}
  Machine machine_;
};

TEST_F(CrashTest, CrashAbortsMatchingPhaseOnce) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kNodeCrash, 1, 1, 1, "join"));
  machine_.ArmFaults(plan);

  machine_.BeginPhase("scan R");
  EXPECT_TRUE(machine_.EndPhase().ok());  // label does not match

  machine_.BeginPhase("join bucket 1");
  machine_.node(0).ChargeCpu(0.25, CostCategory::kOther);  // work still runs — and is wasted
  const Status st = machine_.EndPhase();
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  EXPECT_EQ(machine_.Metrics().counters.node_crashes, 1);
  EXPECT_DOUBLE_EQ(machine_.response_seconds(), 0.25);

  machine_.BeginPhase("join bucket 1");  // the restart's phase
  EXPECT_TRUE(machine_.EndPhase().ok());  // each crash fires at most once
  EXPECT_EQ(machine_.Metrics().counters.node_crashes, 1);
}

TEST_F(CrashTest, CrashOrdinalCountsMatchingEntries) {
  FaultPlan plan;
  plan.Add(Ev(FaultKind::kNodeCrash, 0, 2, 1, "probe"));
  machine_.ArmFaults(plan);
  machine_.BeginPhase("probe S (1)");
  EXPECT_TRUE(machine_.EndPhase().ok());
  machine_.BeginPhase("build R");  // not counted
  EXPECT_TRUE(machine_.EndPhase().ok());
  machine_.BeginPhase("probe S (2)");
  EXPECT_EQ(machine_.EndPhase().code(), StatusCode::kAborted);
}

TEST_F(CrashTest, RecordOperatorRestartBooksRecoveryTime) {
  machine_.BeginPhase("wasted attempt");
  machine_.node(0).ChargeCpu(1.5, CostCategory::kOther);
  machine_.EndPhase().IgnoreError();
  const double wasted = machine_.response_seconds();
  ASSERT_GT(wasted, 0.0);

  machine_.RecordOperatorRestart(wasted);
  const RunMetrics m = machine_.Metrics();
  EXPECT_EQ(m.counters.operator_restarts, 1);
  EXPECT_DOUBLE_EQ(m.recovery_seconds, wasted);
  EXPECT_TRUE(m.counters.Engaged(CounterGroup::kFault));
  // Recovery time is part of response time, not in addition to it.
  EXPECT_DOUBLE_EQ(m.response_seconds, wasted);
}

}  // namespace
}  // namespace gammadb::sim
