#include "join/driver.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.h"
#include "gamma/bucket_analyzer.h"
#include "gamma/split_table.h"
#include "join/hash_engine.h"
#include "join/sort_merge.h"
#include "sim/memory_broker.h"
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
  return std::max(1, static_cast<int>(std::ceil(exact * (1.0 - 1e-4))));
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

Status RunSimple(sim::Machine& machine, HashJoinEngine& engine,
                 const db::StoredRelation* inner,
                 const db::StoredRelation* outer, const JoinSpec& spec) {
  (void)machine;
  return engine.RunSubJoin(
      "simple", engine.RelationProducers(inner, &spec.inner_predicate),
      engine.RelationProducers(outer, &spec.outer_predicate), spec.hash_seed);
}

Status RunGrace(sim::Machine& machine, HashJoinEngine& engine,
                const db::StoredRelation* inner,
                const db::StoredRelation* outer, const JoinSpec& spec,
                int num_buckets) {
  BucketFileSet r_buckets(&machine, &inner->schema(), num_buckets, "grace.R");
  BucketFileSet s_buckets(&machine, &outer->schema(), num_buckets, "grace.S");
  const db::SplitTable table =
      db::SplitTable::GracePartitioning(machine.DiskNodeIds(), num_buckets);

  // Bucket-forming: both relations are written back to disk before any
  // joining starts (the defining property of the Grace algorithm).
  GAMMA_RETURN_IF_ERROR(engine.PartitionPhase(
      "grace form R", table,
      engine.RelationProducers(inner, &spec.inner_predicate), spec.hash_seed,
      HashJoinEngine::Side::kInner, &r_buckets));
  GAMMA_RETURN_IF_ERROR(engine.PartitionPhase(
      "grace form S", table,
      engine.RelationProducers(outer, &spec.outer_predicate), spec.hash_seed,
      HashJoinEngine::Side::kOuter, &s_buckets));

  // Bucket-joining: each bucket is an independent sub-join.
  for (int b = 1; b <= num_buckets; ++b) {
    GAMMA_RETURN_IF_ERROR(engine.RunSubJoin(
        "grace bucket " + std::to_string(b),
        engine.BucketProducers(&r_buckets, b),
        engine.BucketProducers(&s_buckets, b), spec.hash_seed));
    r_buckets.FreeBucket(b);
    s_buckets.FreeBucket(b);
  }
  return Status::OK();
}

Status RunHybrid(sim::Machine& machine, HashJoinEngine& engine,
                 const db::StoredRelation* inner,
                 const db::StoredRelation* outer, const JoinSpec& spec,
                 int num_buckets, const std::vector<int>& join_nodes) {
  BucketFileSet r_buckets(&machine, &inner->schema(), num_buckets - 1,
                          "hybrid.R");
  BucketFileSet s_buckets(&machine, &outer->schema(), num_buckets - 1,
                          "hybrid.S");
  const db::SplitTable table = db::SplitTable::HybridPartitioning(
      join_nodes, machine.DiskNodeIds(), num_buckets);
  BucketFileSet* r_files = num_buckets > 1 ? &r_buckets : nullptr;
  BucketFileSet* s_files = num_buckets > 1 ? &s_buckets : nullptr;

  // Partitioning of R overlaps with building bucket 0's hash tables;
  // partitioning of S overlaps with probing bucket 0.
  engine.StartSubJoin();
  GAMMA_RETURN_IF_ERROR(engine.PartitionPhase(
      "hybrid partition R", table,
      engine.RelationProducers(inner, &spec.inner_predicate), spec.hash_seed,
      HashJoinEngine::Side::kInner, r_files));
  // Adaptive repartitioning of bucket 0 happens before S is scanned, so
  // an overridden bin's probe tuples route straight to their new homes.
  GAMMA_RETURN_IF_ERROR(engine.MaybeRebalance("hybrid rebalance"));
  GAMMA_RETURN_IF_ERROR(engine.PartitionPhase(
      "hybrid partition S", table,
      engine.RelationProducers(outer, &spec.outer_predicate), spec.hash_seed,
      HashJoinEngine::Side::kOuter, s_files));
  GAMMA_RETURN_IF_ERROR(engine.ResolveOverflows("hybrid b0 ovfl", spec.hash_seed));

  // The stored N-1 buckets join exactly like Grace buckets.
  for (int b = 1; b <= num_buckets - 1; ++b) {
    GAMMA_RETURN_IF_ERROR(engine.RunSubJoin(
        "hybrid bucket " + std::to_string(b),
        engine.BucketProducers(&r_buckets, b),
        engine.BucketProducers(&s_buckets, b), spec.hash_seed));
    r_buckets.FreeBucket(b);
    s_buckets.FreeBucket(b);
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

  // One entry per join PROCESS; a node id may repeat to run several
  // join processes on one processor (Appendix A's remedy for skewed
  // split-table distributions; also the paper's intra-query-parallelism
  // future work).
  std::vector<int> join_nodes =
      spec.join_nodes.empty() ? machine.DiskNodeIds() : spec.join_nodes;
  std::sort(join_nodes.begin(), join_nodes.end());
  for (int id : join_nodes) {
    if (id < 0 || id >= machine.num_nodes()) {
      return Status::InvalidArgument("join node id out of range");
    }
  }
  if (spec.algorithm == Algorithm::kSortMerge &&
      join_nodes != machine.DiskNodeIds()) {
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
  std::vector<DigestAccumulator>* capture_ptr = nullptr;
  if (spec.capture_results) {
    capture.resize(machine.DiskNodeIds().size());
    capture_ptr = &capture;
  }

  // Per-node build-memory broker: every join process contributes its
  // capacity share to its node's budget, so co-resident processes draw
  // on one shared pool (sim/memory_broker.h). Rebuilt per attempt (it
  // must outlive the attempt's engine, whose hash tables release their
  // reservations on destruction).
  std::optional<sim::MemoryBroker> broker;

  // One attempt of the chosen algorithm, writing through `result` and
  // `stats`. Restartable: every attempt builds fresh engine state.
  const auto run_attempt = [&]() -> Status {
    if (spec.algorithm == Algorithm::kSortMerge) {
      SortMergeParams params{inner,
                             outer,
                             spec.inner_field,
                             spec.outer_field,
                             &spec.inner_predicate,
                             &spec.outer_predicate,
                             memory_bytes,
                             spec.use_bit_filters,
                             spec.hash_seed,
                             result};
      params.adaptive_repartition = spec.adaptive_repartition;
      params.capture = capture_ptr;
      return RunSortMergeJoin(machine, params, &stats);
    }
    broker.emplace(machine.num_nodes());
    for (int id : join_nodes) broker->AddBudget(id, capacity_per_node);

    HashJoinEngine::Config config;
    config.join_nodes = join_nodes;
    config.inner_schema = &inner->schema();
    config.outer_schema = &outer->schema();
    config.inner_field = spec.inner_field;
    config.outer_field = spec.outer_field;
    config.capacity_bytes_per_node = capacity_per_node;
    config.use_bit_filters = spec.use_bit_filters;
    config.use_forming_bit_filters = spec.use_forming_bit_filters;
    config.adaptive_repartition = spec.adaptive_repartition;
    config.max_overflow_levels = spec.max_overflow_levels;
    config.broker = &*broker;
    config.result = result;
    config.stats = &stats;
    config.capture = capture_ptr;
    HashJoinEngine engine(&machine, config);

    Status run_status;
    switch (spec.algorithm) {
      case Algorithm::kSimpleHash:
        stats.num_buckets = 1;
        run_status = RunSimple(machine, engine, inner, outer, spec);
        break;
      case Algorithm::kGraceHash:
      case Algorithm::kHybridHash: {
        int buckets = spec.num_buckets.value_or(
            OptimizerBucketCount(inner_bytes, memory_bytes));
        buckets = std::max(1, buckets);
        if (spec.use_bucket_analyzer) {
          buckets = db::AnalyzeBucketCount(
              spec.algorithm == Algorithm::kGraceHash
                  ? db::BucketAlgorithm::kGrace
                  : db::BucketAlgorithm::kHybrid,
              buckets, static_cast<int>(machine.DiskNodeIds().size()),
              static_cast<int>(join_nodes.size()));
        }
        stats.num_buckets = buckets;
        if (spec.algorithm == Algorithm::kGraceHash) {
          run_status = RunGrace(machine, engine, inner, outer, spec, buckets);
        } else {
          run_status = RunHybrid(machine, engine, inner, outer, spec, buckets,
                                 join_nodes);
        }
        break;
      }
      default:
        run_status = Status::Internal("unhandled algorithm");
    }
    GAMMA_RETURN_IF_ERROR(run_status);
    return engine.FinalizeResult();
  };

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
    // An aborted attempt's partial result is discarded below, so its
    // partial digest must go with it.
    for (DigestAccumulator& acc : capture) acc.Reset();
    run_status = run_attempt();
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
  if (broker.has_value()) {
    out.stats.spill_bytes =
        static_cast<int64_t>(broker->TotalSpillBytes());
    out.stats.refill_bytes =
        static_cast<int64_t>(broker->TotalRefillBytes());
  }
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
