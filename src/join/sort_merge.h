// Parallel sort-merge join (paper Section 3.1): hash-partition both
// relations across the disk nodes into temporary files, sort each local
// file with the WiSS sort utility, then merge-join in parallel at the
// disk sites. The join processors "always correspond exactly to the
// processors with disks".
#ifndef GAMMA_JOIN_SORT_MERGE_H_
#define GAMMA_JOIN_SORT_MERGE_H_

#include "common/status.h"
#include "gamma/catalog.h"
#include "join/spec.h"
#include "sim/machine.h"

namespace gammadb::join {

struct SortMergeParams {
  const db::StoredRelation* inner;
  const db::StoredRelation* outer;
  int inner_field;
  int outer_field;
  const db::PredicateList* inner_predicate;
  const db::PredicateList* outer_predicate;
  /// Aggregate sort/merge memory in bytes (split evenly per node; also
  /// used for the outer relation's sort — the paper varies one budget).
  uint64_t memory_bytes;
  bool use_bit_filters;
  uint64_t hash_seed;
  db::StoredRelation* result;
  /// Skew-aware adaptive repartitioning (docs/skew.md): when set, the
  /// sites histogram R' as it arrives, and a heavy-bin override plan may
  /// redistribute R' (replicating heavy bins) before it is sorted; S
  /// then routes overridden bins to the new homes.
  bool adaptive_repartition = false;
  /// Result capture (docs/testing.md): when non-null (parallel to the
  /// disk nodes), every result record appended to fragment i is also
  /// streamed into (*capture)[i]. Charges no simulated cost.
  std::vector<DigestAccumulator>* capture = nullptr;
};

Status RunSortMergeJoin(sim::Machine& machine, const SortMergeParams& params,
                        JoinStats* stats);

}  // namespace gammadb::join

#endif  // GAMMA_JOIN_SORT_MERGE_H_
