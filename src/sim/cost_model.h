// Calibrated cost model for the simulated Gamma configuration.
//
// The hardware being modeled (paper Section 2.1): VAX 11/750 processors
// (~0.6 MIPS), 2 MB memory each, an 80 megabit/second token ring with a
// 2 KB network packet size, and 333 MB 8" Fujitsu disk drives accessed
// through WiSS with one-page read-ahead, using 8 KB disk pages.
//
// Every constant is the simulated-seconds price of one primitive
// operation. The defaults were calibrated so that the joinABprime
// response times land in the paper's range (tens to hundreds of
// seconds); the *shapes* of all reproduced figures derive from operation
// counts, not from these constants.
#ifndef GAMMA_SIM_COST_MODEL_H_
#define GAMMA_SIM_COST_MODEL_H_

#include <cstdint>

namespace gammadb::sim {

struct CostModel {
  // --- Disk (per 8 KB page). Sequential assumes WiSS read-ahead. ---
  double disk_seq_page_seconds = 0.012;
  /// CPU consumed issuing one page I/O (buffer management, WiSS call).
  double cpu_page_io_seconds = 0.0012;

  // --- CPU, per tuple (208-byte Wisconsin tuples on a ~0.6 MIPS CPU). ---
  /// Extract a tuple from a page during a scan.
  double cpu_read_tuple_seconds = 0.00050;
  /// Copy a tuple into an output page / temporary file buffer.
  double cpu_write_tuple_seconds = 0.00035;
  /// Hash the join attribute and index a split table.
  double cpu_hash_route_seconds = 0.00100;
  /// Insert into an in-memory join hash table.
  double cpu_ht_insert_seconds = 0.00140;
  /// Probe an in-memory join hash table (excluding chain compares).
  double cpu_ht_probe_seconds = 0.00140;
  /// Compare a probe key against one hash-chain entry.
  double cpu_compare_seconds = 0.00025;
  /// Comparison inside sort run formation / merge.
  double cpu_sort_compare_seconds = 0.00050;
  /// Compose a result tuple (concatenate R and S tuples).
  double cpu_build_result_seconds = 0.00200;
  /// Evaluate a selection predicate.
  double cpu_predicate_seconds = 0.00030;
  /// Set or test one bit-vector-filter bit.
  double cpu_filter_op_seconds = 0.00018;

  // --- Network (80 Mbit token ring, 2 KB packets). ---
  //
  // The sliding-window datagram protocol (paper Section 2.2) runs in
  // software on the 0.6 MIPS CPUs, and its receive path — interrupt
  // service, reassembly, buffer copies into the destination process —
  // is far more expensive than the send path. This asymmetry is what
  // makes HPJA joins faster locally than remotely (Figure 15) while
  // non-HPJA joins, whose tuples must cross the ring anyway, benefit
  // from offloading the join CPU to diskless processors (Figure 16),
  // and why remote execution leaves the disk-node CPUs at ~60%
  // utilization (paper Section 5).
  /// Protocol CPU at the SENDER per remote packet.
  double net_remote_packet_send_cpu_seconds = 0.0050;
  /// Protocol CPU at the RECEIVER per remote packet.
  double net_remote_packet_recv_cpu_seconds = 0.0250;
  /// Per-tuple copy out of a received remote packet into the operator.
  double cpu_receive_tuple_seconds = 0.00080;
  /// Protocol CPU for a short-circuited (same-node) packet. The paper is
  /// explicit that short-circuited traffic still pays protocol cost
  /// ("the protocol cost cannot be ignored", Section 4.1).
  double net_local_packet_cpu_seconds = 0.0020;
  /// Sender CPU to detect a lost packet (window timeout / NAK handling)
  /// and queue its retransmission, on top of the normal send cost of the
  /// resent packet. Only charged under injected packet loss (sim/fault.h).
  double net_retransmit_detect_cpu_seconds = 0.0050;
  /// Ring occupancy per byte: 80 Mbit/s = 10 MB/s.
  double net_wire_seconds_per_byte = 1.0e-7;
  /// Usable payload of one network packet.
  uint32_t packet_payload_bytes = 2048;

  // --- Scheduling (scheduler process control messages). ---
  /// One control message between the scheduler and an operator process
  /// (start/commit messages; each operator phase costs two per process).
  double sched_control_message_seconds = 0.030;

  // --- Page geometry. ---
  uint32_t page_bytes = 8192;

  /// Number of scheduler packets needed to ship a split table of
  /// `table_bytes` bytes: tables larger than one packet "must be sent in
  /// pieces" (paper Section 4.1) — this is the extra rise at the scarce-
  /// memory end of the Hybrid/Grace curves.
  int SplitTablePackets(uint64_t table_bytes) const {
    if (table_bytes == 0) return 0;
    return static_cast<int>((table_bytes + packet_payload_bytes - 1) /
                            packet_payload_bytes);
  }
};

}  // namespace gammadb::sim

#endif  // GAMMA_SIM_COST_MODEL_H_
