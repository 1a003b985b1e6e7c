#include "gamma/aggregate.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <map>

#include "common/hash.h"
#include "common/logging.h"
#include "gamma/scheduler.h"
#include "gamma/split_table.h"
#include "sim/exchange.h"

namespace gammadb::db {

const char* AggFunctionName(AggFunction f) {
  switch (f) {
    case AggFunction::kCount:
      return "count";
    case AggFunction::kSum:
      return "sum";
    case AggFunction::kMin:
      return "min";
    case AggFunction::kMax:
      return "max";
  }
  return "?";
}

namespace {

struct Partial {
  int64_t accumulator;
  int64_t count;
};

int64_t InitialAccumulator(AggFunction f) {
  switch (f) {
    case AggFunction::kMin:
      return std::numeric_limits<int64_t>::max();
    case AggFunction::kMax:
      return std::numeric_limits<int64_t>::min();
    default:
      return 0;
  }
}

void Fold(AggFunction f, Partial& p, int64_t value) {
  ++p.count;
  switch (f) {
    case AggFunction::kCount:
      ++p.accumulator;
      break;
    case AggFunction::kSum:
      p.accumulator += value;
      break;
    case AggFunction::kMin:
      p.accumulator = std::min(p.accumulator, value);
      break;
    case AggFunction::kMax:
      p.accumulator = std::max(p.accumulator, value);
      break;
  }
}

void Merge(AggFunction f, Partial& into, const Partial& from) {
  into.count += from.count;
  switch (f) {
    case AggFunction::kCount:
    case AggFunction::kSum:
      into.accumulator += from.accumulator;
      break;
    case AggFunction::kMin:
      into.accumulator = std::min(into.accumulator, from.accumulator);
      break;
    case AggFunction::kMax:
      into.accumulator = std::max(into.accumulator, from.accumulator);
      break;
  }
}

struct PartialMsg {
  int32_t group;
  int64_t accumulator;
  int64_t count;
};

constexpr uint32_t kPartialMsgBytes = 16;

}  // namespace

Result<AggregateOutput> ExecuteAggregate(sim::Machine& machine,
                                         Catalog& catalog,
                                         const AggregateSpec& spec) {
  GAMMA_ASSIGN_OR_RETURN(StoredRelation * input,
                         catalog.Get(spec.input_relation));
  const storage::Schema& in_schema = input->schema();
  const auto check_int32_field = [&](int field, const char* what) -> Status {
    if (field < 0 || static_cast<size_t>(field) >= in_schema.num_fields()) {
      return Status::InvalidArgument(std::string(what) + " out of range");
    }
    if (in_schema.field(static_cast<size_t>(field)).type !=
        storage::FieldType::kInt32) {
      return Status::InvalidArgument(std::string(what) + " must be int32");
    }
    return Status::OK();
  };
  const bool grouped = spec.group_by_field >= 0;
  if (grouped) {
    GAMMA_RETURN_IF_ERROR(check_int32_field(spec.group_by_field, "group field"));
  }
  if (spec.function != AggFunction::kCount) {
    GAMMA_RETURN_IF_ERROR(check_int32_field(spec.value_field, "value field"));
  }
  for (const Predicate& p : spec.predicate) {
    GAMMA_RETURN_IF_ERROR(check_int32_field(p.field, "predicate field"));
  }
  std::vector<int> agg_nodes =
      spec.agg_nodes.empty() ? machine.DiskNodeIds() : spec.agg_nodes;
  for (int id : agg_nodes) {
    if (id < 0 || id >= machine.num_nodes()) {
      return Status::InvalidArgument("aggregate node id out of range");
    }
  }

  std::vector<storage::Field> out_fields;
  if (grouped) out_fields.push_back(storage::Field::Int32("group_key"));
  out_fields.push_back(storage::Field::Int32("value"));
  GAMMA_ASSIGN_OR_RETURN(
      StoredRelation * output,
      catalog.Create(machine, spec.output_relation,
                     storage::Schema(out_fields)));
  const storage::Schema& out_schema = output->schema();

  machine.ResetMetrics();
  const std::vector<int> disks = machine.DiskNodeIds();
  const SplitTable agg_table = SplitTable::Joining(agg_nodes);
  sim::Exchange<PartialMsg> partial_exchange(&machine);
  sim::Exchange<storage::Tuple> store_exchange(&machine);

  // Phase 1: local partial aggregation at the disk nodes, partials
  // routed by group hash to the aggregation processes.
  machine.BeginPhase("aggregate scan " + spec.input_relation);
  ChargeOperatorPhase(machine, static_cast<int>(disks.size()),
                      static_cast<int>(agg_nodes.size()),
                      agg_table.SerializedBytes());
  machine.RunOnNodes(disks, [&](sim::Node& n) {
    const size_t di = machine.DiskIndexOf(n.id());
    std::map<int32_t, Partial> partials;
    auto scanner = input->fragment(di).Scan();
    storage::Tuple t;
    while (scanner.Next(&t)) {
      if (!spec.predicate.empty()) {
        n.ChargeCpu(n.cost().cpu_predicate_seconds,
                    sim::CostCategory::kPredicate);
        if (!EvalAll(spec.predicate, in_schema, t)) continue;
      }
      const int32_t group =
          grouped
              ? t.GetInt32(in_schema, static_cast<size_t>(spec.group_by_field))
              : 0;
      const int64_t value =
          spec.function == AggFunction::kCount
              ? 0
              : t.GetInt32(in_schema, static_cast<size_t>(spec.value_field));
      n.ChargeCpu(n.cost().cpu_aggregate_seconds,
                  sim::CostCategory::kAggregate);
      auto [it, inserted] = partials.try_emplace(
          group, Partial{InitialAccumulator(spec.function), 0});
      Fold(spec.function, it->second, value);
    }
    for (const auto& [group, partial] : partials) {
      n.ChargeCpu(n.cost().cpu_hash_route_seconds,
                  sim::CostCategory::kHashRoute);
      const int dest =
          agg_table.Route(HashJoinAttribute(group, spec.hash_seed)).node;
      partial_exchange.Send(
          n.id(), dest,
          PartialMsg{group, partial.accumulator, partial.count},
          kPartialMsgBytes);
    }
  });

  // Phase 1b (same operator phase): merge at the aggregation processes
  // and stream results to the store operators.
  std::vector<size_t> rr(agg_nodes.size());
  for (size_t i = 0; i < agg_nodes.size(); ++i) rr[i] = i;
  Status merge_status = Status::OK();
  std::mutex merge_mu;  // several pooled node tasks may report at once
  machine.RunOnNodes(agg_nodes, [&](sim::Node& n) {
    size_t ai = 0;
    for (size_t i = 0; i < agg_nodes.size(); ++i) {
      if (agg_nodes[i] == n.id()) ai = i;
    }
    std::map<int32_t, Partial> merged;
    for (const PartialMsg& m : partial_exchange.TakeInbox(n.id())) {
      n.ChargeCpu(n.cost().cpu_aggregate_seconds,
                  sim::CostCategory::kAggregate);
      auto [it, inserted] = merged.try_emplace(
          m.group, Partial{InitialAccumulator(spec.function), 0});
      Merge(spec.function, it->second, Partial{m.accumulator, m.count});
    }
    for (const auto& [group, partial] : merged) {
      if (partial.accumulator < std::numeric_limits<int32_t>::min() ||
          partial.accumulator > std::numeric_limits<int32_t>::max()) {
        std::lock_guard<std::mutex> lock(merge_mu);
        merge_status = Status::OutOfRange("aggregate exceeds int32 range");
        return;
      }
      storage::Tuple result(out_schema.tuple_bytes());
      size_t field = 0;
      if (grouped) result.SetInt32(out_schema, field++, group);
      result.SetInt32(out_schema, field,
                      static_cast<int32_t>(partial.accumulator));
      n.ChargeCpu(n.cost().cpu_write_tuple_seconds,
                  sim::CostCategory::kWriteTuple);
      const size_t dest = rr[ai]++ % disks.size();
      const uint32_t bytes = result.size();
      store_exchange.Send(n.id(), disks[dest], std::move(result), bytes);
    }
  });
  machine.RunOnNodes(disks, [&](sim::Node& n) {
    const size_t di = machine.DiskIndexOf(n.id());
    for (storage::Tuple& t : store_exchange.TakeInbox(n.id())) {
      // Non-join operators are outside the fault-injection recovery
      // scope (docs/fault_injection.md): hard write errors abort.
      GAMMA_CHECK_OK(output->fragment(di).Append(t));
    }
    GAMMA_CHECK_OK(output->fragment(di).FlushAppends());
  });
  machine.EndPhase().IgnoreError();

  if (!merge_status.ok()) {
    GAMMA_CHECK_OK(catalog.Drop(spec.output_relation));
    return merge_status;
  }

  AggregateOutput result;
  result.output_relation = spec.output_relation;
  result.groups = output->total_tuples();
  result.metrics = machine.Metrics();
  return result;
}

}  // namespace gammadb::db
