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
// One Run executes all three as one phase sequence over their split
// table: partition R and S through it (its bucket-0 entries make a live
// sub-join whose overflow is resolved next), then join each stored
// bucket as a sub-join of its own. The algorithms differ only in that
// table and in their phase labels. Hybrid's table stores buckets
// 1..N-1; Simple's is Hybrid's with one bucket, a plain joining table;
// Grace's stores every bucket, so its partition phases only form them.
#ifndef GAMMA_JOIN_HASH_ENGINE_H_
#define GAMMA_JOIN_HASH_ENGINE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "gamma/bit_filter.h"
#include "gamma/catalog.h"
#include "gamma/predicate.h"
#include "gamma/rebalance.h"
#include "gamma/split_table.h"
#include "join/hash_table.h"
#include "join/plan.h"
#include "join/repartition.h"
#include "sim/exchange.h"
#include "sim/machine.h"
#include "sim/memory_broker.h"
#include "storage/heap_file.h"
#include "storage/tuple_block.h"

namespace gammadb::join {

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

  /// The fragments of `bucket`, parallel to the disk nodes.
  const std::vector<std::unique_ptr<storage::HeapFile>>& Bucket(
      int bucket) const {
    return files_[static_cast<size_t>(bucket - 1)];
  }

  void FreeBucket(int bucket);

 private:
  int num_buckets_;
  // files_[bucket-1][disk_index]
  std::vector<std::vector<std::unique_ptr<storage::HeapFile>>> files_;
};

class HashJoinEngine {
 public:
  /// Sets up `plan`'s join processes, each with its hash-table budget
  /// in a per-node build-memory broker (sim/memory_broker.h): the
  /// processes on one node draw on one shared pool, and overflow
  /// spill/refill bytes are recorded on it — each on the node whose
  /// task spools or re-reads the bytes. Statistics go to `stats`.
  HashJoinEngine(sim::Machine* machine, const JoinPlan& plan,
                 JoinStats* stats);
  /// Frees overflow files abandoned by a failed (faulted) sub-join.
  ~HashJoinEngine();

  /// Runs the plan's hash join (one attempt) and flushes the result.
  Status Run();

  /// The level-distinct split seed used by ResolveOverflows (level 0 =
  /// the caller's seed; exposed for tests).
  static uint64_t OverflowLevelSeed(uint64_t base_seed, int level);

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

  /// What one side of a partition phase scans: each disk node scans, in
  /// order, the `files` it hosts (null entries are skipped), applying
  /// `predicate` (null = no selection). A resolution level's taken
  /// overflow files (`taken`) each get their tail flushed and their
  /// bytes booked as a broker refill just before their scan.
  struct Scan {
    std::span<const std::unique_ptr<storage::HeapFile>> files;
    const db::PredicateList* predicate = nullptr;
    bool taken = false;
  };

  /// The labels of one build -> rebalance -> probe sequence.
  struct PhaseLabels {
    std::string build, rebalance, probe;
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
    /// One side's files, in join-process order, as a scan.
    Scan side(bool inner) const { return Scan{inner ? r : s, nullptr, true}; }
    std::vector<std::unique_ptr<storage::HeapFile>> r, s;
  };

  /// Scans at disk node `n` every file of `scan` it hosts, in order;
  /// calls `yield(i, block)` for each scan block of scan.files[i].
  Status ScanFiles(
      sim::Node& n, const Scan& scan,
      const std::function<void(size_t, const storage::TupleBlock&)>& yield);

  /// Resets per-sub-join state (hash tables, cutoffs, filter). Overflow
  /// files accumulated by the previous sub-join must already have been
  /// consumed or taken.
  void StartSubJoin();

  /// One build -> rebalance -> probe sequence: partition phases of `r`
  /// then `s` through `table`, hashing with `seed`. When the table has
  /// bucket-0 entries they make a fresh live sub-join, rebalanced
  /// between its two sides; stored-bucket entries are appended to
  /// `r_buckets`/`s_buckets` (required iff the table has buckets).
  Status BuildProbe(const PhaseLabels& labels, const db::SplitTable& table,
                    const Scan& r, const Scan& s, uint64_t seed,
                    BucketFileSet* r_buckets, BucketFileSet* s_buckets);

  /// Runs one partition phase: every disk node scans its `scan` files
  /// and routes the tuples hashed with `seed` through `table`. Bucket-0
  /// entries build (`inner`) or probe the hash tables; stored-bucket
  /// entries are appended to `buckets`. For the inner side with filters
  /// enabled, the phase ends by rebuilding the bit filter from the
  /// hash-table residents and charging its distribution.
  Status PartitionPhase(const std::string& label, const db::SplitTable& table,
                        const Scan& scan, uint64_t seed, bool inner,
                        BucketFileSet* buckets);

  /// Adaptive repartitioning: runs between a sub-join's build and probe
  /// phases. Gathers the per-process resident histograms, computes a
  /// heavy-bin override plan (gamma/rebalance.h), migrates or
  /// replicates the overridden residents, and installs the plan for the
  /// probing phase — all inside its own charged phase whose label
  /// contains "rebalance" (fault injection can target it). A no-op
  /// returning OK unless JoinSpec::adaptive_repartition is set.
  Status MaybeRebalance(const std::string& label);

  /// Joins overflow files recursively with a fresh (level-mixed) hash
  /// function per level until none remain (the paper's Simple-hash
  /// overflow resolution). Bounded: a sub-join still overflowing after
  /// JoinSpec::max_overflow_levels repartitions, or whose overflow
  /// partition stops shrinking (duplicate-heavy keys no rehash can
  /// split), degrades to the deterministic block-nested-loop fallback
  /// instead of failing (docs/overflow.md).
  Status ResolveOverflows(const std::string& label, uint64_t base_seed);

  void HandleBuildArrival(sim::Node& n, size_t ji, uint64_t hash,
                          storage::Tuple&& t);
  /// Probes the run of same-process kProbe arrivals starting at
  /// lane[p], at most kProbeBatchMax long, through
  /// JoinHashTable::ProbeBatch (prefetched); returns the run's length.
  size_t HandleProbeRun(sim::Node& n, const std::vector<RoutedTuple>& lane,
                        size_t p);
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
  const JoinPlan& plan_;
  JoinStats* stats_;
  const std::vector<int> disks_;  // the machine's disk nodes (producers)
  /// Declared before jstate_: the hash tables release their
  /// reservations into it on destruction.
  sim::MemoryBroker broker_;
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
