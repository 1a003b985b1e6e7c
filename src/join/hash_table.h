// In-memory join hash table with the paper's overflow machinery.
//
// Tuples live in a contiguous arena in insertion order; lookups go
// through a flat open-addressing index of {hash, arena offset, key}
// slots (linear probing), so a probe touches one or two cache lines of
// slots and only reaches into the arena for actual matches — instead
// of the pointer chase a chained layout pays per chain hop — and
// ProbeBatch() issues software prefetches for a whole batch of probes
// before the compare loop.
//
// The SIMULATED cost model is unchanged from the chained layout: the
// old chain geometry (slot count sized for ~1 tuple per slot at
// capacity, slot = remixed hash high bits) is kept as the LOGICAL
// accounting geometry. A physical home is the logical slot scaled into
// the (larger) physical index, so every entry of a logical slot lies in
// the linear-probe run of that one home; counting the run's entries
// with the same logical slot reproduces the old chain length exactly,
// and every probe charges it in compares without any side lookup.
// ComputeChainStats() still reports the old occupied/max figures. A
// hash-value histogram is maintained alongside (paper Section 4.1) so
// that, on overflow, a cutoff hash value can be chosen whose eviction
// frees a requested fraction of memory. Capacity is a byte budget: the
// aggregate joining memory divided over the join nodes.
#ifndef GAMMA_JOIN_HASH_TABLE_H_
#define GAMMA_JOIN_HASH_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/logging.h"
#include "sim/memory_broker.h"
#include "sim/node.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace gammadb::join {

class JoinHashTable {
 public:
  /// Largest batch ProbeBatch accepts (bounds its stack scratch).
  static constexpr size_t kProbeBatchMax = 64;

  /// `capacity_bytes` is the table's expected byte budget: the logical
  /// slot count is sized for ~1 tuple per slot at capacity (the charged
  /// chain geometry), the physical index for a load factor <= 1/2 at
  /// capacity. Admission is arbitrated by the node's shared `broker`
  /// budget (sim/memory_broker.h): every insert reserves its bytes from
  /// the broker and every eviction, extraction, clear or destruction
  /// releases them.
  JoinHashTable(sim::Node* node, const storage::Schema* schema,
                int key_field, uint64_t capacity_bytes,
                sim::MemoryBroker* broker);
  /// Releases any remaining broker reservation.
  ~JoinHashTable();

  /// Inserts the tuple (charging insert CPU) unless the node's broker
  /// budget would be exceeded; returns false on overflow WITHOUT
  /// inserting or consuming the tuple (the caller runs the eviction
  /// protocol and retries or redirects the still-valid tuple).
  bool Insert(storage::Tuple&& tuple, uint64_t hash);
  /// Copying convenience overload (tests, reference workloads). The
  /// byte-budget check runs BEFORE the copy so a rejected insert never
  /// pays for a wasted full tuple copy.
  bool Insert(const storage::Tuple& tuple, uint64_t hash) {
    if (!HasRoomFor(tuple.size())) return false;
    return Insert(storage::Tuple(tuple), hash);
  }

  /// Evicts every resident tuple with hash >= cutoff, charging the
  /// table-search CPU the paper blames for the overflow curve of
  /// Figure 7. Returns the evicted (hash, tuple) pairs.
  std::vector<std::pair<uint64_t, storage::Tuple>> EvictAtOrAbove(
      uint64_t cutoff);

  /// Removes and returns every resident whose hash satisfies `pred`,
  /// charging the same full-table search as an eviction scan. Used by
  /// adaptive repartitioning to migrate heavy-bin residents
  /// (gamma/rebalance.h); EvictAtOrAbove is the cutoff special case.
  template <typename Pred>
  std::vector<std::pair<uint64_t, storage::Tuple>> ExtractIf(Pred&& pred) {
    node_->ChargeCpu(static_cast<double>(entries_.size()) *
                         node_->cost().cpu_compare_seconds,
                     sim::CostCategory::kCompare);
    std::vector<std::pair<uint64_t, storage::Tuple>> extracted;
    std::vector<Entry> kept;
    kept.reserve(entries_.size());
    for (Entry& e : entries_) {
      if (pred(e.hash)) {
        ReleaseBytes(e.tuple.size());
        histogram_.Remove(e.hash);
        extracted.emplace_back(e.hash, std::move(e.tuple));
      } else {
        kept.push_back(std::move(e));
      }
    }
    entries_ = std::move(kept);
    RebuildIndex();
    return extracted;
  }

  /// Probes with an outer key (charging probe + chain-compare CPU) and
  /// invokes `fn(resident_tuple)` for every key-equal match, newest
  /// insert first (the chained layout probed its chains head-first, and
  /// match order is part of the byte-identical baseline contract).
  template <typename Fn>
  void Probe(int32_t key, uint64_t hash, Fn&& fn) const {
    node_->ChargeCpu(node_->cost().cpu_ht_probe_seconds,
                     sim::CostCategory::kHtProbe);
    ++node_->counters().ht_probes;
    match_scratch_.clear();
    const size_t compares =
        CollectCandidatesInto(hash, HomeSlot(hash), &match_scratch_);
    for (size_t i = match_scratch_.size(); i > 0; --i) {
      const Entry& e = entries_[match_scratch_[i - 1]];
      if (e.hash == hash && e.key == key) fn(e.tuple);
    }
    node_->ChargeCpu(
        static_cast<double>(compares) * node_->cost().cpu_compare_seconds,
        sim::CostCategory::kCompare);
  }

  /// Batched probe over `count` <= kProbeBatchMax outer tuples: three
  /// passes — (1) compute every probe's home and prefetch its slot
  /// line, (2) walk the (now resident) slot runs collecting candidates
  /// and charged compare counts while prefetching the candidate arena
  /// entries, (3) replay the EXACT per-probe charge sequence of Probe()
  /// in probe order, confirming each (now resident) candidate's hash
  /// and key against the arena and invoking `fn(i, resident_tuple)` for
  /// every key-equal match of probe i (newest insert first within a
  /// probe). The walk pass performs no charging, so the split cannot
  /// perturb the simulated metrics.
  template <typename Fn>
  void ProbeBatch(const int32_t* keys, const uint64_t* hashes, size_t count,
                  Fn&& fn) const {
    GAMMA_DCHECK(count <= kProbeBatchMax);
    size_t homes[kProbeBatchMax];
    for (size_t i = 0; i < count; ++i) homes[i] = HomeSlot(hashes[i]);
    for (size_t i = 0; i < count; ++i) {
      __builtin_prefetch(&slots_[homes[i]], /*rw=*/0, /*locality=*/1);
    }
    uint32_t compares[kProbeBatchMax];
    uint32_t candidate_ends[kProbeBatchMax];
    batch_scratch_.clear();
    for (size_t i = 0; i < count; ++i) {
      compares[i] = static_cast<uint32_t>(
          CollectCandidatesInto(hashes[i], homes[i], &batch_scratch_));
      candidate_ends[i] = static_cast<uint32_t>(batch_scratch_.size());
      for (size_t m = i == 0 ? 0 : candidate_ends[i - 1];
           m < candidate_ends[i]; ++m) {
        __builtin_prefetch(&entries_[batch_scratch_[m]], 0, 1);
      }
    }
    for (size_t i = 0; i < count; ++i) {
      node_->ChargeCpu(node_->cost().cpu_ht_probe_seconds,
                       sim::CostCategory::kHtProbe);
      ++node_->counters().ht_probes;
      const size_t begin = i == 0 ? 0 : candidate_ends[i - 1];
      for (size_t m = candidate_ends[i]; m > begin; --m) {
        const Entry& e = entries_[batch_scratch_[m - 1]];
        if (e.hash == hashes[i] && e.key == keys[i]) fn(i, e.tuple);
      }
      node_->ChargeCpu(static_cast<double>(compares[i]) *
                           node_->cost().cpu_compare_seconds,
                       sim::CostCategory::kCompare);
    }
  }

  /// Invokes `fn(hash)` for every resident tuple (bit-filter rebuild),
  /// in insertion order.
  template <typename Fn>
  void ForEachResidentHash(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e.hash);
  }

  size_t size() const { return entries_.size(); }
  uint64_t bytes_used() const { return bytes_used_; }
  const HashHistogram& histogram() const { return histogram_; }

  struct ChainStats {
    size_t tuples = 0;          // resident tuples
    size_t occupied_slots = 0;  // slots with at least one tuple
    int max = 0;                // longest chain

    double Average() const {
      return occupied_slots == 0
                 ? 0.0
                 : static_cast<double>(tuples) /
                       static_cast<double>(occupied_slots);
    }
  };
  /// Chain statistics over occupied LOGICAL slots (paper Section 4.4) —
  /// identical to the chained layout's figures by construction.
  ChainStats ComputeChainStats() const;

  /// Empties the table (between buckets / sub-joins). Frees no
  /// simulated memory cost — the budget is per sub-join.
  void Clear();

 private:
  struct Entry {
    uint64_t hash;
    int32_t key;
    storage::Tuple tuple;
  };
  /// One open-addressing slot: the top 32 bits of the remixed hash (the
  /// "tag" — the logical slot is its high bits, so charged compare
  /// counting never touches the arena) and the arena index of its entry
  /// (kEmptySlot when free). 8 bytes, 8 slots per cache line: half the
  /// index memory a {hash, index} slot would take, which is most of the
  /// build-side win over the chained layout.
  struct Slot {
    uint32_t tag;
    uint32_t index;
  };

  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  /// Would an insert of `n` bytes be admitted right now?
  bool HasRoomFor(uint32_t n) const {
    return n <= broker_->available(node_->id());
  }

  /// Returns resident bytes to the broker.
  void ReleaseBytes(uint32_t n) {
    bytes_used_ -= n;
    broker_->Release(node_->id(), n);
  }

  /// The stored slot tag: the remixed hash's top 32 bits. Tag equality
  /// is a 1-in-4-billion filter; a tag hit still confirms exact hash
  /// and key against the arena before matching.
  static uint32_t TagOf(uint64_t hash) {
    return static_cast<uint32_t>((hash * 0x9E3779B97F4A7C15ULL) >> 32);
  }

  /// The LOGICAL (charged) slot of a hash — the chained layout's slot
  /// function, kept verbatim so charged chain lengths and chain stats
  /// are byte-identical. Re-mixed so slot choice is independent of the
  /// routing mod; equal keys still collide (equal hash -> equal slot),
  /// forming the duplicate chains the paper measures. Always
  /// reconstructible from a tag: slot counts never exceed 2^32, so the
  /// shift keeps the logical slot inside the tag's 32 bits.
  size_t LogicalSlotOf(uint64_t hash) const {
    return (hash * 0x9E3779B97F4A7C15ULL) >> logical_shift_;
  }

  /// The PHYSICAL home: the logical slot scaled into the physical
  /// index. Every entry of a logical slot shares one home, so its whole
  /// charged chain lies within that home's linear-probe run.
  size_t HomeSlot(uint64_t hash) const {
    return LogicalSlotOf(hash) << home_shift_;
  }

  /// Walks the linear-probe run from `home` until the first empty slot,
  /// appending the arena indices of tag-equal CANDIDATES to `out` and
  /// returning the charged compare count: the number of run entries
  /// sharing the probe's logical slot, i.e. the old chain length.
  /// Candidates still need the arena hash/key confirmation (done by the
  /// caller, after prefetch). Indices come out ascending (insertion
  /// order): along a probe run every same-hash entry sits before the
  /// first empty slot, and a later insert always lands further along
  /// the run than an earlier one. Pure — charges nothing.
  size_t CollectCandidatesInto(uint64_t hash, size_t home,
                               std::vector<uint32_t>* out) const {
    const size_t mask = slots_.size() - 1;
    const uint32_t tag = TagOf(hash);
    const uint32_t logical_bits = tag >> (logical_shift_ - 32);
    size_t compares = 0;
    for (size_t s = home; slots_[s].index != kEmptySlot;
         s = (s + 1) & mask) {
      if ((slots_[s].tag >> (logical_shift_ - 32)) != logical_bits) continue;
      ++compares;
      if (slots_[s].tag == tag) out->push_back(slots_[s].index);
    }
    return compares;
  }

  /// Places arena entry `index` into the physical index.
  void InsertPhysical(uint64_t hash, uint32_t index);
  /// Rebuilds the physical index from the arena (after extraction or
  /// eviction), reinserting in ascending arena order so the match-order
  /// invariant above keeps holding.
  void RebuildIndex();
  /// Doubles the physical index when its load factor exceeds 1/2
  /// (unreachable with the default sizing; a safety valve for
  /// migration-heavy tables).
  void GrowPhysicalIfNeeded();

  sim::Node* node_;
  const storage::Schema* schema_;
  int key_field_;
  sim::MemoryBroker* broker_;
  uint64_t bytes_used_ = 0;  // this table's share of the broker's `used`
  int logical_shift_;
  size_t num_logical_slots_;
  int home_shift_;              // log2(physical slots / logical slots)
  std::vector<Slot> slots_;     // physical open-addressing index
  std::vector<Entry> entries_;  // arena, insertion order
  HashHistogram histogram_;
  /// Candidate-index scratch reused across probes (indices only, so a
  /// duplicate-heavy key costs pushes of 4 bytes, not tuple copies).
  mutable std::vector<uint32_t> match_scratch_;
  mutable std::vector<uint32_t> batch_scratch_;
};

}  // namespace gammadb::join

#endif  // GAMMA_JOIN_HASH_TABLE_H_
