// Public join API: what to join, with which parallel algorithm, under
// which resource constraints — plus the execution report that comes
// back.
#ifndef GAMMA_JOIN_SPEC_H_
#define GAMMA_JOIN_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "gamma/predicate.h"
#include "join/digest.h"
#include "sim/metrics.h"

namespace gammadb::join {

enum class Algorithm {
  kSortMerge,
  kSimpleHash,
  kGraceHash,
  kHybridHash,
};

const char* AlgorithmName(Algorithm a);

struct JoinSpec {
  /// Inner (building, usually smaller) relation — the paper's R.
  std::string inner_relation;
  /// Outer (probing, larger) relation — the paper's S.
  std::string outer_relation;
  /// Join attributes (int32 fields; equality join).
  int inner_field = 0;
  int outer_field = 0;

  Algorithm algorithm = Algorithm::kHybridHash;

  /// Nodes executing the join computation. Empty = the disk nodes (the
  /// paper's "local" configuration). Sort-merge always joins at the disk
  /// nodes and rejects any other setting (paper Section 3.1).
  std::vector<int> join_nodes;

  /// Aggregate joining memory as a fraction of the inner relation's
  /// size (the x-axis of every figure in the paper).
  double memory_ratio = 1.0;
  /// Optimizer selectivity estimate: the number of inner tuples that
  /// survive inner_predicate. Bases memory_ratio and the Grace/Hybrid
  /// bucket count on the post-selection size (joinAselB-style queries).
  /// Unset = the full inner relation.
  std::optional<uint64_t> estimated_inner_tuples;
  /// Overrides memory_ratio with an absolute aggregate byte budget.
  std::optional<uint64_t> memory_bytes;
  /// Headroom multiplier on per-node hash-table capacity. Models the
  /// gap between raw tuple bytes and allocated hash-table space, and
  /// absorbs binomial placement variance: the paper states that at the
  /// plotted integral-bucket memory ratios "neither Grace or Hybrid
  /// joins ever experienced hash table overflow", which requires
  /// roughly max-cell/mean-cell headroom (~1.3 at 10 buckets x 8
  /// nodes). Set to 0 to study overflow onset (Figure 7).
  double memory_slack = 0.35;

  bool use_bit_filters = false;

  /// Extension (paper Section 4.2 / 4.4 future work): also build a bit
  /// filter over the inner relation during the BUCKET-FORMING phase of
  /// Grace/Hybrid and apply it to the outer relation's forming pass, so
  /// eliminated tuples are never written to bucket files at all. The
  /// paper predicts this "would significantly increase the performance
  /// of these algorithms"; bench/ext_forming_filters quantifies it.
  /// Requires use_bit_filters; ignored by Simple and sort-merge.
  bool use_forming_bit_filters = false;

  /// Extension (docs/skew.md): skew-aware adaptive repartitioning.
  /// After each sub-join's build the engines gather resident histogram
  /// counts and may override heavy bins' routing for the probing phase
  /// (dedicated or replicated destinations). All statistics exchange,
  /// migration and broadcast work is charged through the cost model.
  /// Works for all four algorithms; no-op on skew-free inputs.
  bool adaptive_repartition = false;

  /// Grace/Hybrid: overrides the optimizer's ceil(|R| / memory) choice.
  std::optional<int> num_buckets;
  /// Run the Appendix A bucket analyzer over the chosen bucket count.
  bool use_bucket_analyzer = true;

  /// Seed of the join hash function h; overflow resolution derives a
  /// level-distinct h', h'', ... from it (the paper's changed-hash-
  /// function rule; docs/overflow.md). Must match the loading seed for
  /// HPJA behaviour.
  uint64_t hash_seed = kDefaultHashSeed;

  /// Cap on overflow-resolution recursion depth (docs/overflow.md).
  /// A sub-join still overflowing after this many repartition levels —
  /// or one whose overflow partition stops shrinking (duplicate-heavy
  /// keys no rehash can split) — degrades to the deterministic
  /// block-nested-loop fallback instead of failing. 0 means the first
  /// overflow goes straight to the fallback; must be >= 0.
  int max_overflow_levels = 16;

  /// Selections applied by the scan operators (joinAselB etc.).
  db::PredicateList inner_predicate;
  db::PredicateList outer_predicate;

  /// Name for the stored result relation ("" = derived automatically).
  std::string result_name;

  /// Testing (docs/testing.md): stream every stored result pair into an
  /// order-insensitive multiset digest (join/digest.h), returned as
  /// JoinOutput::result_digest and compared against the independent
  /// nested-loop oracle by the correctness tests and tools/join_fuzz.
  /// Capture is pure observation: it charges no simulated cost, so with
  /// the knob OFF every metric is byte-identical to a build without the
  /// capture code, and with it ON the metrics do not change either —
  /// only the digest appears.
  bool capture_results = false;
};

/// Algorithm-level observations accompanying the time metrics. Operation
/// counts (overflow events, filter drops, rebalance work) are in
/// JoinOutput::metrics.counters.
struct JoinStats {
  int num_buckets = 1;
  /// Overflow recursion depth (0 = no hash-table overflow anywhere).
  int overflow_levels = 0;
  /// Hash-chain statistics over all build phases (paper Section 4.4
  /// reports 3.3 average / 16 maximum for the NU distribution).
  double avg_chain_length = 0;
  int max_chain_length = 0;
  /// External-sort intermediate merge passes (max over nodes).
  int inner_sort_passes = 0;
  int outer_sort_passes = 0;
  /// Stored result size (Counters::result_tuples also counts aborted runs).
  size_t result_tuples = 0;
  /// Block-nested-loop overflow fallback (docs/overflow.md): number of
  /// sub-joins that degraded, and the total resident-slice passes they
  /// ran. Zero (and unserialized) unless a fallback fired.
  int64_t nested_loop_fallbacks = 0;
  int64_t nested_loop_passes = 0;
  /// Memory-broker ledger (sim/memory_broker.h): bytes spooled out of
  /// build memory to overflow files and re-read from them by overflow
  /// resolution. Zero (and unserialized) on no-overflow runs.
  int64_t spill_bytes = 0;
  int64_t refill_bytes = 0;
};

struct JoinOutput {
  sim::RunMetrics metrics;
  JoinStats stats;
  /// Name of the stored result relation (round-robin declustered).
  std::string result_relation;
  /// Multiset digest of the result pairs; set iff
  /// JoinSpec::capture_results was on (docs/testing.md).
  std::optional<ResultDigest> result_digest;

  double response_seconds() const { return metrics.response_seconds; }
};

}  // namespace gammadb::join

#endif  // GAMMA_JOIN_SPEC_H_
