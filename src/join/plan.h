// The resolved join plan: ExecuteJoin validates a JoinSpec once into a
// JoinPlan, and both engines (hash_engine, sort_merge) read every input
// from it, so a spec knob passes through one struct on its way to them.
#ifndef GAMMA_JOIN_PLAN_H_
#define GAMMA_JOIN_PLAN_H_

#include <cstdint>
#include <vector>

#include "gamma/catalog.h"
#include "join/digest.h"
#include "join/spec.h"

namespace gammadb::join {

struct JoinPlan {
  /// The validated spec: join fields, predicates, filter and
  /// repartitioning switches, hash seed and overflow-level cap.
  const JoinSpec& spec;
  /// Fragment i of each lives on the machine's i-th disk node.
  db::StoredRelation* inner;
  db::StoredRelation* outer;
  /// One entry per join process, sorted; a node id may repeat.
  std::vector<int> join_nodes;
  /// Aggregate join memory; sort-merge splits it evenly per disk node.
  uint64_t memory_bytes;
  /// Hash-table budget of each join process, at least one inner tuple.
  uint64_t capacity_per_process;
  /// Grace/Hybrid bucket count after the optimizer and the Appendix A
  /// analyzer; 1 for Simple and sort-merge.
  int num_buckets;
  /// Result relation, fragments parallel to the disk nodes.
  db::StoredRelation* result;
  /// One result digest per disk node when capturing (docs/testing.md),
  /// else null. No simulated charge.
  std::vector<DigestAccumulator>* capture;
};

}  // namespace gammadb::join

#endif  // GAMMA_JOIN_PLAN_H_
