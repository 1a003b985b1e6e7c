// Parallel sort-merge join (paper Section 3.1): hash-partition both
// relations across the disk nodes into temporary files, sort each local
// file with the WiSS sort utility, then merge-join in parallel at the
// disk sites. The join processors "always correspond exactly to the
// processors with disks".
#ifndef GAMMA_JOIN_SORT_MERGE_H_
#define GAMMA_JOIN_SORT_MERGE_H_

#include "common/status.h"
#include "join/plan.h"
#include "sim/machine.h"

namespace gammadb::join {

/// Runs `plan`'s sort-merge join, one attempt, writing through
/// plan.result and `stats`.
Status RunSortMergeJoin(sim::Machine& machine, const JoinPlan& plan,
                        JoinStats* stats);

}  // namespace gammadb::join

#endif  // GAMMA_JOIN_SORT_MERGE_H_
