#include "join/driver.h"

#include <algorithm>
#include <climits>
#include <cmath>

#include "common/logging.h"
#include "gamma/bucket_analyzer.h"
#include "join/hash_engine.h"
#include "join/sort_merge.h"
#include "sim/trace.h"

namespace gammadb::join {

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kSortMerge:
      return "sort-merge";
    case Algorithm::kSimpleHash:
      return "simple-hash";
    case Algorithm::kGraceHash:
      return "grace-hash";
    case Algorithm::kHybridHash:
      return "hybrid-hash";
  }
  return "?";
}

int OptimizerBucketCount(uint64_t inner_bytes, uint64_t memory_bytes) {
  GAMMA_CHECK_GT(memory_bytes, 0u);
  if (inner_bytes == 0) return 1;
  // ceil(|R| / memory), with a 0.01% tolerance so that a memory budget
  // computed as ratio * |R| in floating point (e.g. ratio = 1/3) does
  // not round down a byte and spuriously add a bucket.
  const double exact = static_cast<double>(inner_bytes) /
                       static_cast<double>(memory_bytes);
  return std::max(1, static_cast<int>(std::min(
                         std::ceil(exact * (1.0 - 1e-4)), double{INT_MAX})));
}

namespace {

/// Upper bound on operator restarts after recoverable faults (node
/// crashes, hard I/O errors). A fault plan scheduling more consecutive
/// aborts than this surfaces the last error to the caller.
constexpr int kMaxOperatorRestarts = 8;

Status ValidateField(const db::StoredRelation* rel, int field,
                     const char* which) {
  if (field < 0 || static_cast<size_t>(field) >= rel->schema().num_fields()) {
    return Status::InvalidArgument(std::string(which) +
                                   " join field out of range");
  }
  if (rel->schema().field(static_cast<size_t>(field)).type !=
      storage::FieldType::kInt32) {
    return Status::InvalidArgument(std::string(which) +
                                   " join field must be int32");
  }
  return Status::OK();
}

}  // namespace

Result<JoinOutput> ExecuteJoin(sim::Machine& machine, db::Catalog& catalog,
                               const JoinSpec& spec) {
  GAMMA_ASSIGN_OR_RETURN(db::StoredRelation * inner,
                         catalog.Get(spec.inner_relation));
  GAMMA_ASSIGN_OR_RETURN(db::StoredRelation * outer,
                         catalog.Get(spec.outer_relation));
  GAMMA_RETURN_IF_ERROR(ValidateField(inner, spec.inner_field, "inner"));
  GAMMA_RETURN_IF_ERROR(ValidateField(outer, spec.outer_field, "outer"));
  const std::vector<int> disks = machine.DiskNodeIds();
  if (inner->num_fragments() != disks.size() ||
      outer->num_fragments() != disks.size()) {
    return Status::InvalidArgument("relations not declustered over all disks");
  }

  // One entry per join PROCESS; a node id may repeat to run several
  // join processes on one processor (Appendix A's remedy for skewed
  // split-table distributions; also the paper's intra-query-parallelism
  // future work).
  std::vector<int> join_nodes =
      spec.join_nodes.empty() ? disks : spec.join_nodes;
  std::sort(join_nodes.begin(), join_nodes.end());
  for (int id : join_nodes) {
    if (id < 0 || id >= machine.num_nodes()) {
      return Status::InvalidArgument("join node id out of range");
    }
  }
  if (spec.algorithm == Algorithm::kSortMerge && join_nodes != disks) {
    return Status::InvalidArgument(
        "sort-merge joins execute only on the processors with disks "
        "(paper Section 3.1)");
  }

  const uint64_t inner_bytes =
      spec.estimated_inner_tuples.has_value()
          ? *spec.estimated_inner_tuples * inner->schema().tuple_bytes()
          : inner->total_bytes();
  // Budgets are computed in floating point, and casting a NaN, negative
  // or >= 2^64 value to bytes is undefined.
  const auto is_byte_count = [](double b) { return b >= 0 && b < 0x1p64; };
  const double ratio_bytes =
      spec.memory_ratio * static_cast<double>(inner_bytes);
  if (!spec.memory_bytes.has_value() && !is_byte_count(ratio_bytes)) {
    return Status::InvalidArgument(
        "memory_ratio gives no join memory budget in [0, 2^64) bytes");
  }
  if (!std::isfinite(spec.memory_slack) || spec.memory_slack < 0) {
    return Status::InvalidArgument("memory_slack must be finite and >= 0");
  }
  const uint64_t memory_bytes = spec.memory_bytes.has_value()
                                    ? *spec.memory_bytes
                                    : static_cast<uint64_t>(ratio_bytes);
  if (memory_bytes == 0) {
    return Status::InvalidArgument("zero join memory");
  }

  const double capacity = static_cast<double>(memory_bytes) /
                          static_cast<double>(join_nodes.size()) *
                          (1.0 + spec.memory_slack);
  if (!is_byte_count(capacity)) {
    return Status::InvalidArgument("per-node capacity exceeds 2^64 bytes");
  }
  const uint64_t capacity_per_node = static_cast<uint64_t>(capacity);
  if (spec.algorithm != Algorithm::kSortMerge &&
      capacity_per_node < inner->schema().tuple_bytes()) {
    return Status::InvalidArgument(
        "per-node hash table capacity below one tuple");
  }
  if (spec.max_overflow_levels < 0) {
    return Status::InvalidArgument("max_overflow_levels must be >= 0");
  }

  // Every bucket costs a fragment file per disk and phases of its own
  // even when empty, so no more buckets than stored inner tuples.
  const auto max_buckets = static_cast<int>(std::min<uint64_t>(
      std::max<uint64_t>(1, inner->total_tuples()), INT_MAX));
  if (spec.num_buckets.has_value() && *spec.num_buckets > max_buckets) {
    return Status::InvalidArgument(
        "num_buckets exceeds the inner relation's tuple count");
  }
  int num_buckets = 1;
  if (spec.algorithm == Algorithm::kGraceHash ||
      spec.algorithm == Algorithm::kHybridHash) {
    num_buckets = std::max(
        1, spec.num_buckets.value_or(std::min(
               OptimizerBucketCount(inner_bytes, memory_bytes), max_buckets)));
    if (spec.use_bucket_analyzer) {
      num_buckets = db::AnalyzeBucketCount(
          spec.algorithm == Algorithm::kGraceHash
              ? db::BucketAlgorithm::kGrace
              : db::BucketAlgorithm::kHybrid,
          num_buckets, static_cast<int>(disks.size()),
          static_cast<int>(join_nodes.size()));
    }
  }

  std::string result_name = spec.result_name.empty()
                                ? spec.inner_relation + "_" +
                                      spec.outer_relation + "_join"
                                : spec.result_name;
  GAMMA_ASSIGN_OR_RETURN(
      db::StoredRelation * result,
      catalog.Create(machine, result_name,
                     storage::Schema::Concat(inner->schema(),
                                             outer->schema())));

  machine.ResetMetrics();
  JoinStats stats;

  // Result capture (docs/testing.md): one accumulator per disk node —
  // each result fragment is appended by exactly one executor task, so
  // no accumulator is shared. Pure observation; no simulated charge.
  std::vector<DigestAccumulator> capture;
  if (spec.capture_results) capture.resize(disks.size());

  // The resolved plan both engines read.
  const JoinPlan plan{spec, inner, outer, std::move(join_nodes), memory_bytes,
                      capacity_per_node, num_buckets, result,
                      spec.capture_results ? &capture : nullptr};

  // Gamma's recovery model at operator granularity: a recoverable fault
  // (node crash / hard I/O error) aborts the attempt, the partial result
  // is discarded, and the operator reruns. The wasted attempt's time is
  // already in the response clock; RecordOperatorRestart books it as
  // recovery time. Fault events fire at most once (sim/fault.h), so a
  // retried attempt runs past its consumed faults.
  Status run_status = Status::OK();
  for (int attempt = 0;; ++attempt) {
    const double attempt_start = machine.response_seconds();
    stats = JoinStats{};
    stats.num_buckets = plan.num_buckets;
    // An aborted attempt's partial result is discarded below, so its
    // partial digest must go with it.
    for (DigestAccumulator& acc : capture) acc.Reset();
    // Every attempt builds fresh engine state, writing through `result`
    // and `stats`.
    run_status = spec.algorithm == Algorithm::kSortMerge
                     ? RunSortMergeJoin(machine, plan, &stats)
                     : HashJoinEngine(&machine, plan, &stats).Run();
    if (run_status.ok()) break;
    const bool recoverable =
        run_status.code() == StatusCode::kAborted ||
        run_status.code() == StatusCode::kUnavailable;
    if (!recoverable || attempt >= kMaxOperatorRestarts) break;
    machine.RecordOperatorRestart(machine.response_seconds() - attempt_start);
    result->FreeStorage();
  }

  if (!run_status.ok()) {
    run_status.Update(catalog.Drop(result_name));
    return run_status;
  }

  JoinOutput out;
  out.metrics = machine.Metrics();
  out.stats = stats;
  out.stats.result_tuples = result->total_tuples();
  out.result_relation = result_name;
  if (spec.capture_results) {
    DigestAccumulator all;
    for (const DigestAccumulator& acc : capture) all.Merge(acc.digest());
    out.result_digest = all.digest();
  }

  if (machine.tracer() != nullptr) {
    // One query-level span over everything the join charged, on the
    // query track above the per-phase node spans.
    JsonValue args = JsonValue::MakeObject();
    args.Set("algorithm", AlgorithmName(spec.algorithm));
    args.Set("inner_relation", spec.inner_relation);
    args.Set("outer_relation", spec.outer_relation);
    args.Set("num_buckets", stats.num_buckets);
    args.Set("result_tuples", out.stats.result_tuples);
    args.Set("response_seconds", out.metrics.response_seconds);
    if (out.metrics.recovery_seconds > 0) {
      args.Set("recovery_seconds", out.metrics.recovery_seconds);
    }
    machine.tracer()->RecordQuery(
        machine.trace_pid(), machine.trace_epoch_seconds(),
        machine.trace_epoch_seconds() + out.metrics.response_seconds,
        std::string("join ") + AlgorithmName(spec.algorithm),
        std::move(args));
  }
  return out;
}

}  // namespace gammadb::join
