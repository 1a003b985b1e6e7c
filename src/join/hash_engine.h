// Shared execution engine for the three hash-based parallel joins
// (Simple, Grace, Hybrid).
//
// All three algorithms are compositions of the same machinery (paper
// Section 3: Simple hash "is currently used as the overflow resolution
// method for our parallel implementations of the Grace and Hybrid
// algorithms"):
//
//  * a *partition phase* routes tuples through a split table; entries
//    tagged bucket 0 flow to the join processes (hash-table build or
//    probe), entries tagged bucket >= 1 are appended to bucket fragment
//    files on the disk nodes;
//  * hash-table overflow at a join node runs the histogram/cutoff
//    eviction protocol, spooling evicted tuples to a per-node overflow
//    file on an assigned disk; producers of the outer relation are told
//    the cutoffs ("the split table is augmented with the h' functions")
//    and ship qualifying tuples straight to the S overflow files;
//  * overflow files are then joined recursively with a NEW hash
//    function per level (a level-mixed seed, docs/overflow.md) until no
//    overflow remains, the recursion depth cap is hit, or a level stops
//    shrinking — the latter two degrade to a deterministic
//    block-nested-loop sub-join over resident slices;
//  * optionally, a per-sub-join 2 KB bit filter is built from the
//    hash-table residents and applied by the outer producers.
//
// Simple = one sub-join over the whole input. Grace = bucket-forming
// partition phases, then one sub-join per stored bucket. Hybrid =
// partition phases whose bucket 0 is a live sub-join, then Grace-style
// sub-joins for the stored buckets.
#ifndef GAMMA_JOIN_HASH_ENGINE_H_
#define GAMMA_JOIN_HASH_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "gamma/bit_filter.h"
#include "gamma/catalog.h"
#include "gamma/predicate.h"
#include "gamma/rebalance.h"
#include "gamma/split_table.h"
#include "join/hash_table.h"
#include "join/repartition.h"
#include "join/spec.h"
#include "sim/exchange.h"
#include "sim/machine.h"
#include "storage/heap_file.h"
#include "storage/tuple_block.h"

namespace gammadb::join {

/// Yield callback for block-granular producers: invoked once per scan
/// block; the views are only valid for the duration of the call.
using BlockYield = std::function<void(const storage::TupleBlock&)>;

/// A per-disk-node tuple source. `scan` runs on that node's executor
/// task and must call `yield` once per block of source tuples; it
/// charges page I/O only — the per-tuple read CPU (and the predicate,
/// if any) is charged by the CONSUMER per tuple, which keeps the
/// per-tuple charge chain (read, predicate, route, filter) contiguous
/// and in scalar order even though the scan is batched. `scan` returns
/// non-OK when it hits a hard I/O error (fault injection); the phase
/// then fails and the join driver restarts the operator.
struct Producer {
  std::function<Status(sim::Node&, const BlockYield&)> scan;
  /// Optional conjunctive selection, evaluated (and charged) per tuple
  /// by the routing consumer. Null or empty means no selection.
  const db::PredicateList* predicate = nullptr;
};

/// Bucket fragment files: one heap file per (bucket, disk node), as in
/// Figure 3 of the paper ("each bucket is partitioned across all
/// available disk drives").
class BucketFileSet {
 public:
  /// Buckets are numbered 1..num_buckets (matching split-table tags);
  /// fragment d of each bucket lives on the machine's d-th disk node.
  BucketFileSet(sim::Machine* machine, const storage::Schema* schema,
                int num_buckets, const std::string& label);
  /// Frees any remaining bucket pages (abandoned mid-join by a fault).
  ~BucketFileSet();

  BucketFileSet(const BucketFileSet&) = delete;
  BucketFileSet& operator=(const BucketFileSet&) = delete;

  int num_buckets() const { return num_buckets_; }
  size_t num_disks() const { return files_.empty() ? 0 : files_[0].size(); }

  storage::HeapFile& file(int bucket, size_t disk_index);

  /// Flushes the partial pages of every fragment of `bucket`; must run
  /// on the owning nodes' tasks (the engine does this at the end of the
  /// forming phase). Fails when a flush write exhausts its retries.
  Status FlushFilesOwnedBy(int node_id);

  uint64_t BucketTuples(int bucket) const;

  void FreeBucket(int bucket);

 private:
  int num_buckets_;
  // files_[bucket-1][disk_index]
  std::vector<std::vector<std::unique_ptr<storage::HeapFile>>> files_;
};

class HashJoinEngine {
 public:
  struct Config {
    std::vector<int> join_nodes;  // node ids executing the join
    const storage::Schema* inner_schema;
    const storage::Schema* outer_schema;
    int inner_field;
    int outer_field;
    uint64_t capacity_bytes_per_node;
    bool use_bit_filters;
    /// Extension: filter the outer relation's bucket-forming pass with
    /// a filter built while the inner relation's buckets formed.
    bool use_forming_bit_filters = false;
    /// Extension: skew-aware adaptive repartitioning (docs/skew.md).
    /// When set, each sub-join gathers resident histogram counts after
    /// its build and may install a heavy-bin override table before the
    /// probing phase (MaybeRebalance).
    bool adaptive_repartition = false;
    /// Bound on overflow-resolution recursion depth before the
    /// block-nested-loop fallback engages (JoinSpec::max_overflow_levels;
    /// docs/overflow.md). Must be >= 0; 0 sends the first overflow
    /// straight to the fallback.
    int max_overflow_levels = 16;
    /// Per-node build-memory broker (sim/memory_broker.h), required:
    /// hash-table admission draws on the owning node's shared budget,
    /// and overflow spill/refill bytes are recorded on it — each on the
    /// node whose task spools or re-reads the bytes.
    sim::MemoryBroker* broker;
    db::StoredRelation* result;  // fragments parallel to the disk nodes
    JoinStats* stats;
    /// Result capture (docs/testing.md): when non-null (parallel to the
    /// disk nodes), every result record appended to fragment i is also
    /// streamed into (*capture)[i] — one accumulator per disk node, so
    /// the concurrent store tasks never share one. Adds no simulated
    /// charge anywhere.
    std::vector<DigestAccumulator>* capture = nullptr;
  };

  HashJoinEngine(sim::Machine* machine, Config config);
  /// Frees overflow files abandoned by a failed (faulted) sub-join.
  ~HashJoinEngine();

  enum class Side { kInner, kOuter };

  /// Resets per-sub-join state (hash tables, cutoffs, filter). Overflow
  /// files accumulated by the previous sub-join must already have been
  /// consumed or taken.
  void StartSubJoin();

  /// Runs one partition phase: producers (one per disk node) route
  /// tuples hashed with `seed` through `table`. Bucket-0 entries build
  /// (kInner) or probe (kOuter) the hash tables; stored-bucket entries
  /// are appended to `buckets` (required iff the table has buckets).
  /// For kInner with filters enabled, the phase ends by rebuilding the
  /// bit filter from the hash-table residents and charging its
  /// distribution.
  Status PartitionPhase(const std::string& label, const db::SplitTable& table,
                        const std::vector<Producer>& producers, uint64_t seed,
                        Side side, BucketFileSet* buckets);

  /// Adaptive repartitioning: runs between a sub-join's build and probe
  /// phases. Gathers the per-process resident histograms, computes a
  /// heavy-bin override plan (gamma/rebalance.h), migrates or
  /// replicates the overridden residents, and installs the plan for the
  /// probing phase — all inside its own charged phase whose label
  /// contains "rebalance" (fault injection can target it). A no-op
  /// returning OK when config.adaptive_repartition is false.
  Status MaybeRebalance(const std::string& label);

  /// Joins overflow files recursively with a fresh (level-mixed) hash
  /// function per level until none remain (the paper's Simple-hash
  /// overflow resolution). Bounded: a sub-join still overflowing after
  /// Config::max_overflow_levels repartitions, or whose overflow
  /// partition stops shrinking (duplicate-heavy keys no rehash can
  /// split), degrades to the deterministic block-nested-loop fallback
  /// instead of failing (docs/overflow.md).
  Status ResolveOverflows(const std::string& label, uint64_t base_seed);

  /// The level-distinct split seed used by ResolveOverflows (level 0 =
  /// the caller's seed; exposed for tests).
  static uint64_t OverflowLevelSeed(uint64_t base_seed, int level);

  /// Convenience: a full sub-join of the given producers through a
  /// plain joining split table, overflow resolution included.
  Status RunSubJoin(const std::string& label,
                    const std::vector<Producer>& build_producers,
                    const std::vector<Producer>& probe_producers,
                    uint64_t seed);

  /// Producers that scan bucket `bucket` of `files` (flushing trailing
  /// pages first).
  std::vector<Producer> BucketProducers(BucketFileSet* files, int bucket);

  /// Producers that scan the fragments of a stored relation, applying a
  /// selection predicate.
  std::vector<Producer> RelationProducers(const db::StoredRelation* relation,
                                          const db::PredicateList* predicate);

  /// Flushes the result relation's partial pages (one final phase).
  Status FinalizeResult();

 private:
  struct JoinNodeState {
    std::unique_ptr<JoinHashTable> table;
    uint64_t cutoff = UINT64_MAX;
    int host_disk_node = -1;  // disk node hosting this node's overflow files
    std::unique_ptr<storage::HeapFile> r_overflow;
    std::unique_ptr<storage::HeapFile> s_overflow;
    size_t store_rr_next = 0;  // round-robin cursor for result routing
  };

  struct OverflowMsg {
    storage::Tuple tuple;
    int32_t join_index;
    bool is_inner;
  };

  /// RoutedTuple::kind; aux is the join process index (build, probe,
  /// migrate) or the bucket number (bucket entries).
  enum RoutedKind : uint8_t {
    kBuild,
    kProbe,
    kBucketInner,
    kBucketOuter,
    kMigrate,  // rebalance: resident moving to its override destination
  };

  std::vector<int> Participants(bool with_disk_nodes) const;

  /// The overflow files of one resolution level or fallback pass, moved
  /// out of the join-process state (which then collects the next
  /// level's spills). Frees the files on scope exit, on failure too: a
  /// restarted attempt rebuilds its overflow partitions from scratch.
  struct Taken {
    explicit Taken(std::vector<JoinNodeState>& jstate);
    ~Taken();
    Taken(const Taken&) = delete;
    Taken& operator=(const Taken&) = delete;
    std::vector<std::unique_ptr<storage::HeapFile>> r, s;
  };

  /// Scans one side of `taken` at disk node `n`: every file that node
  /// hosts, in join-process order, flushing its tail and booking the
  /// refill first; calls `yield(ji, block)` for each scan block.
  Status ScanTaken(
      sim::Node& n, const Taken& taken, bool inner_side,
      const std::function<void(size_t, const storage::TupleBlock&)>& yield);

  void HandleBuildArrival(sim::Node& n, size_t ji, uint64_t hash,
                          storage::Tuple&& t);
  /// Probes a run of same-process kProbe arrivals through
  /// JoinHashTable::ProbeBatch (prefetched), `count` <= kProbeBatchMax.
  void HandleProbeBatch(sim::Node& n, size_t ji, const RoutedTuple* msgs,
                        size_t count);
  void SpoolToOverflow(sim::Node& from, size_t ji, bool is_inner,
                       storage::Tuple&& t);
  void EnsureOverflowFile(size_t ji, bool is_inner);
  /// The disk-side round of a phase: every disk node absorbs its
  /// overflow spool and result store, then flushes its `buckets`
  /// fragments (when given).
  Status DrainDiskSides(BucketFileSet* buckets);
  /// Terminal overflow resolution when recursion cannot help
  /// (docs/overflow.md): repeatedly FIFO-fills the resident tables from
  /// the remaining R overflow files (no cutoff, no eviction), probes the
  /// full remaining S against the resident slice, and re-spools both
  /// residuals for the next pass. `seed` only drives table placement and
  /// match confirmation — no repartitioning happens, so the pass count
  /// is bounded by ceil(overflow R tuples / resident capacity).
  Status NestedLoopFallback(const std::string& label, uint64_t seed);
  void BuildFilterFromResidents();
  void CollectChainStats();
  bool AnyOverflow() const;

  sim::Machine* machine_;
  Config config_;
  const std::vector<int> disks_;  // the machine's disk nodes (producers)
  sim::Exchange<RoutedTuple> exchange_;
  sim::Exchange<OverflowMsg> overflow_exchange_;
  sim::Exchange<storage::Tuple> store_exchange_;
  std::vector<JoinNodeState> jstate_;
  std::unique_ptr<db::BitFilterSet> filter_;
  /// Forming-phase filter (sliced per receiving disk site).
  std::unique_ptr<db::BitFilterSet> forming_filter_;
  int overflow_file_counter_ = 0;

  // Adaptive repartitioning plan (with its probe cursors), reset per
  // sub-join.
  db::RebalancePlan rebalance_plan_;
  /// Build-side finalization (bit filter, chain stats) postponed from
  /// PartitionPhase to MaybeRebalance so the filter reflects residency
  /// after any migration.
  bool build_finalize_deferred_ = false;

  // Chain-statistics accumulation across sub-joins.
  size_t chain_tuples_total_ = 0;
  size_t chain_slots_total_ = 0;
};

}  // namespace gammadb::join

#endif  // GAMMA_JOIN_HASH_ENGINE_H_
