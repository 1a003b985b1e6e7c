// Skew-aware adaptive repartitioning (extension; see docs/skew.md).
//
// The paper's Table 3 shows every algorithm degrading under data skew
// because tuples are routed by a static split table: the join process
// that receives the heavy hash values becomes the straggler that sets
// elapsed time. Run-time statistics fix this: during the building-
// relation scan every join process already maintains a HashHistogram of
// its residents (the Section 4.1 overflow histogram), so after the
// build the scheduler can gather those per-bucket counts, find the
// heavy bins, and override their routing — a heavy bin gets a dedicated
// destination or, when one process cannot absorb it, a replicated
// destination set in the spirit of the join-product-skew framework
// (build copies go to every replica, each probe tuple to exactly one,
// so every result pair is produced exactly once).
//
// Only heavy bins are overridden: the balanced bulk keeps the static
// (hash mod J) route, which keeps both the migration volume and the
// serialized override table small.
#ifndef GAMMA_GAMMA_REBALANCE_H_
#define GAMMA_GAMMA_REBALANCE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/histogram.h"
#include "sim/machine.h"

namespace gammadb::db {

/// Planner thresholds. Joins plan with the defaults; whether they plan
/// at all is JoinSpec::adaptive_repartition.
struct RebalanceOptions {
  /// Minimum (max process load / mean process load) under static
  /// routing for a plan to be worth installing.
  double imbalance_threshold = 1.2;
  /// A bin is heavy when its global count exceeds this multiple of the
  /// uniform per-bin share.
  double heavy_bin_factor = 2.0;
  /// Cap on destinations per heavy bin; 0 means up to the number of
  /// join processes.
  int max_replicas = 0;
};

/// Routing overrides for the probing phase, plus the resident migration
/// they imply. Bins are the HashHistogram bins (top log2(num_bins) hash
/// bits), orthogonal to the split table's mod indexing.
struct RebalancePlan {
  bool active = false;
  uint32_t num_bins = 0;
  int shift = 64;  // bin = hash >> shift

  /// Per-bin destination join-process indices. Empty = bin keeps its
  /// static route. Size 1 = dedicated destination; > 1 = replicated.
  std::vector<std::vector<int>> destinations;

  int overridden_bins = 0;
  int replicated_bins = 0;

  /// Per-producer, per-bin round-robin cursors spreading a replicated
  /// bin's probe tuples over its destinations (armed by Install).
  std::vector<std::vector<uint32_t>> cursors;

  uint32_t BinOf(uint64_t hash) const {
    return static_cast<uint32_t>(hash >> shift);
  }

  /// Destination set for `hash`, or nullptr when the static route
  /// applies (inactive plan or non-overridden bin).
  const std::vector<int>* DestinationsFor(uint64_t hash) const {
    if (!active) return nullptr;
    const std::vector<int>& d = destinations[BinOf(hash)];
    return d.empty() ? nullptr : &d;
  }

  /// Arms the probe-side cursors for `num_producers` producers. Each
  /// producer owns its row (no races), seeded with the producer index,
  /// so routing is identical at any thread count.
  void Install(size_t num_producers);

  /// Destination process of a probe tuple of `hash` sent by producer
  /// `producer`: an overridden bin's tuples go to exactly ONE of its
  /// destinations, chosen by this producer's round-robin cursor, so a
  /// replicated bin's probes spread evenly and every result pair is
  /// still produced exactly once. Other tuples keep `static_route`.
  size_t RouteProbe(size_t producer, uint64_t hash, size_t static_route) {
    const std::vector<int>* dests = DestinationsFor(hash);
    if (dests == nullptr) return static_route;
    uint32_t& rr = cursors[producer][BinOf(hash)];
    return static_cast<size_t>((*dests)[rr++ % dests->size()]);
  }

  /// Bytes needed to ship the override table (one split-table entry per
  /// destination of each overridden bin), charged through the scheduler
  /// like any other split-table broadcast.
  uint64_t SerializedBytes() const;
};

/// Computes a rebalance plan from per-process histogram bin counts of
/// the building relation's residents. `process_bin_counts[p][b]` is the
/// number of residents of join process p in bin b; all processes must
/// report the same power-of-two bin count. `capacity_bytes_per_process`
/// bounds migration: a plan that would overflow any destination's hash
/// table is trimmed, and deactivated if it cannot fit (tuples are
/// fixed-width, so the byte math is exact). Deterministic: depends only
/// on the counts and options.
///
/// The load model mirrors the quadratic probe cost of duplicate keys:
/// a bin holding c residents against a uniform share u costs
/// c + (c - u)^2 / u once c is past the heavy threshold, so splitting a
/// heavy bin over k replicas divides the quadratic term by k. The plan
/// activates only when heavy bins exist, static max/mean load exceeds
/// options.imbalance_threshold, and the planned max load beats the
/// static max load.
RebalancePlan ComputeRebalancePlan(
    const std::vector<std::vector<uint64_t>>& process_bin_counts,
    uint64_t bytes_per_tuple, uint64_t capacity_bytes_per_process,
    const RebalanceOptions& options);

/// Gathers the per-process histogram bin counts a plan is computed
/// from: process p runs on node `process_nodes[p]`, and each of those
/// nodes scans the `histogram(p)` of every process it hosts, charged
/// like any table scan of that length (one compare per bin).
std::vector<std::vector<uint64_t>> GatherBinCounts(
    sim::Machine& machine, const std::vector<int>& process_nodes,
    const std::function<const HashHistogram&(size_t)>& histogram);

/// The rebalance prologue both engines run inside their open rebalance
/// phase: gathers the per-process bin counts (GatherBinCounts), computes
/// a plan from them unless `keep_static`, charges the scheduler work of
/// the exchange — one statistics packet gathered from each join site,
/// plus the verdict broadcast to every join site and to the
/// `num_producers` producing sites (packetized like a split table) —
/// and, when the plan is active, counts it on the first process's node
/// and installs it for those producers.
RebalancePlan PlanRebalance(
    sim::Machine& machine, const std::vector<int>& process_nodes,
    const std::function<const HashHistogram&(size_t)>& histogram,
    uint64_t bytes_per_tuple, uint64_t capacity_bytes_per_process,
    size_t num_producers, bool keep_static);

}  // namespace gammadb::db

#endif  // GAMMA_GAMMA_REBALANCE_H_
