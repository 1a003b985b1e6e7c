#include "gamma/update.h"

#include "common/logging.h"
#include "gamma/scheduler.h"

namespace gammadb::db {

namespace {

Status ValidateInt32Field(const storage::Schema& schema, int field,
                          const char* what) {
  if (field < 0 || static_cast<size_t>(field) >= schema.num_fields()) {
    return Status::InvalidArgument(std::string(what) + " out of range");
  }
  if (schema.field(static_cast<size_t>(field)).type !=
      storage::FieldType::kInt32) {
    return Status::InvalidArgument(std::string(what) + " must be int32");
  }
  return Status::OK();
}

/// Runs `touch` over every fragment at its disk node, one operator
/// phase, and reports rows touched + metrics.
template <typename TouchFn>
DmlOutput RunDmlPhase(sim::Machine& machine, StoredRelation* relation,
                      const char* label, const TouchFn& touch) {
  machine.ResetMetrics();
  const std::vector<int> disks = machine.DiskNodeIds();
  std::vector<size_t> touched(disks.size());
  machine.BeginPhase(label);
  ChargeOperatorPhase(machine, static_cast<int>(disks.size()), 0, 0);
  machine.RunOnNodes(disks, [&](sim::Node& n) {
    const size_t di = machine.DiskIndexOf(n.id());
    touched[di] = touch(n, relation->fragment(di));
  });
  machine.EndPhase().IgnoreError();
  // In-place rewrites stale any B+ indices.
  relation->DropIndexes();
  DmlOutput output;
  for (size_t count : touched) output.rows_touched += count;
  output.metrics = machine.Metrics();
  return output;
}

}  // namespace

Result<DmlOutput> ExecuteUpdate(sim::Machine& machine, Catalog& catalog,
                                const UpdateSpec& spec) {
  GAMMA_ASSIGN_OR_RETURN(StoredRelation * relation,
                         catalog.Get(spec.relation));
  const storage::Schema& schema = relation->schema();
  if (spec.assignments.empty()) {
    return Status::InvalidArgument("update with no assignments");
  }
  for (const Predicate& p : spec.predicate) {
    GAMMA_RETURN_IF_ERROR(ValidateInt32Field(schema, p.field, "predicate field"));
  }
  for (const Assignment& a : spec.assignments) {
    GAMMA_RETURN_IF_ERROR(ValidateInt32Field(schema, a.field, "assigned field"));
    const bool placement_sensitive =
        relation->strategy == PartitionStrategy::kHashed ||
        relation->strategy == PartitionStrategy::kRangeUser ||
        relation->strategy == PartitionStrategy::kRangeUniform;
    if (placement_sensitive && a.field == relation->partition_field) {
      return Status::InvalidArgument(
          "updating the partitioning attribute would strand the tuple on "
          "the wrong site; delete and re-insert instead");
    }
  }

  return RunDmlPhase(
      machine, relation, "update",
      [&](sim::Node& n, storage::HeapFile& fragment) {
        return fragment.UpdateInPlace([&](uint8_t* record) {
          if (!spec.predicate.empty()) {
            n.ChargeCpu(n.cost().cpu_predicate_seconds,
                        sim::CostCategory::kPredicate);
            storage::Tuple view(record, schema.tuple_bytes());
            if (!EvalAll(spec.predicate, schema, view)) {
              return storage::HeapFile::UpdateAction::kKeep;
            }
          }
          for (const Assignment& a : spec.assignments) {
            schema.SetInt32(record, static_cast<size_t>(a.field), a.value);
          }
          return storage::HeapFile::UpdateAction::kUpdated;
        });
      });
}

Result<DmlOutput> ExecuteDelete(sim::Machine& machine, Catalog& catalog,
                                const std::string& relation_name,
                                const PredicateList& predicate) {
  GAMMA_ASSIGN_OR_RETURN(StoredRelation * relation,
                         catalog.Get(relation_name));
  const storage::Schema& schema = relation->schema();
  for (const Predicate& p : predicate) {
    GAMMA_RETURN_IF_ERROR(ValidateInt32Field(schema, p.field, "predicate field"));
  }
  return RunDmlPhase(
      machine, relation, "delete",
      [&](sim::Node& n, storage::HeapFile& fragment) {
        return fragment.UpdateInPlace([&](uint8_t* record) {
          if (!predicate.empty()) {
            n.ChargeCpu(n.cost().cpu_predicate_seconds,
                        sim::CostCategory::kPredicate);
            storage::Tuple view(record, schema.tuple_bytes());
            if (!EvalAll(predicate, schema, view)) {
              return storage::HeapFile::UpdateAction::kKeep;
            }
          }
          return storage::HeapFile::UpdateAction::kDelete;
        });
      });
}

}  // namespace gammadb::db
