// Entry point of the join subsystem: validates a JoinSpec once into the
// JoinPlan both engines read (join/plan.h: join processes, memory
// budgets, bucket count via the optimizer and Appendix A bucket
// analyzer), runs the requested parallel join algorithm on it and
// reports metrics. The join result is stored as a new
// round-robin-declustered relation in the catalog.
#ifndef GAMMA_JOIN_DRIVER_H_
#define GAMMA_JOIN_DRIVER_H_

#include "common/status.h"
#include "gamma/catalog.h"
#include "join/spec.h"
#include "sim/machine.h"

namespace gammadb::join {

/// Executes `spec` on `machine`. Resets the machine's metrics at query
/// start; the returned metrics cover exactly this join. The result
/// relation is left in the catalog under JoinOutput::result_relation
/// (drop it to reclaim simulated disk space).
Result<JoinOutput> ExecuteJoin(sim::Machine& machine, db::Catalog& catalog,
                               const JoinSpec& spec);

/// Bucket count the optimizer picks for Grace/Hybrid: ceil(|R| /
/// aggregate memory), at least 1 and at most INT_MAX (paper Sections
/// 3.3-3.4). ExecuteJoin caps it at the stored inner tuple count before
/// the bucket analyzer runs. Exposed for tests and benches.
int OptimizerBucketCount(uint64_t inner_bytes, uint64_t memory_bytes);

}  // namespace gammadb::join

#endif  // GAMMA_JOIN_DRIVER_H_
