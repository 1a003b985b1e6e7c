#include "gamma/operators.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "gamma/scheduler.h"
#include "gamma/split_table.h"
#include "sim/exchange.h"

namespace gammadb::db {

Result<storage::Schema> ProjectedSchema(const storage::Schema& input,
                                        const std::vector<int>& projection) {
  if (projection.empty()) return input;
  std::vector<storage::Field> fields;
  fields.reserve(projection.size());
  for (int idx : projection) {
    if (idx < 0 || static_cast<size_t>(idx) >= input.num_fields()) {
      return Status::InvalidArgument("projection field out of range");
    }
    fields.push_back(input.field(static_cast<size_t>(idx)));
  }
  return storage::Schema(std::move(fields));
}

namespace {

/// The key range a conjunctive predicate implies for `field`
/// ([INT32_MIN, INT32_MAX] and !constrained when it implies nothing).
struct KeyRange {
  int32_t lo = INT32_MIN;
  int32_t hi = INT32_MAX;
  bool constrained = false;
};

KeyRange DeriveKeyRange(const PredicateList& predicate, int field) {
  KeyRange range;
  for (const Predicate& p : predicate) {
    if (p.field != field) continue;
    switch (p.op) {
      case Predicate::Op::kEq:
        range.lo = std::max(range.lo, p.value);
        range.hi = std::min(range.hi, p.value);
        range.constrained = true;
        break;
      case Predicate::Op::kLt:
        if (p.value > INT32_MIN) range.hi = std::min(range.hi, p.value - 1);
        range.constrained = true;
        break;
      case Predicate::Op::kLe:
        range.hi = std::min(range.hi, p.value);
        range.constrained = true;
        break;
      case Predicate::Op::kGt:
        if (p.value < INT32_MAX) range.lo = std::max(range.lo, p.value + 1);
        range.constrained = true;
        break;
      case Predicate::Op::kGe:
        range.lo = std::max(range.lo, p.value);
        range.constrained = true;
        break;
      case Predicate::Op::kNe:
        break;  // no useful bound
    }
  }
  return range;
}

/// Copies the projected fields of the record at `in` (`size` bytes)
/// into a tuple of `out_schema`. Raw-bytes input so the block-granular
/// scan path projects straight off the page image; an empty projection
/// materializes the record as-is (one copy).
storage::Tuple ProjectTuple(const storage::Schema& in_schema,
                            const uint8_t* in, uint32_t size,
                            const storage::Schema& out_schema,
                            const std::vector<int>& projection) {
  if (projection.empty()) return storage::Tuple(in, size);
  storage::Tuple out(out_schema.tuple_bytes());
  for (size_t i = 0; i < projection.size(); ++i) {
    const size_t src = static_cast<size_t>(projection[i]);
    if (in_schema.field(src).type == storage::FieldType::kInt32) {
      out.SetInt32(out_schema, i, in_schema.GetInt32(in, src));
    } else {
      out.SetChars(out_schema, i, in_schema.GetChars(in, src));
    }
  }
  return out;
}

}  // namespace

Result<SelectOutput> ExecuteSelect(sim::Machine& machine, Catalog& catalog,
                                   const SelectSpec& spec) {
  GAMMA_ASSIGN_OR_RETURN(StoredRelation * input,
                         catalog.Get(spec.input_relation));
  GAMMA_ASSIGN_OR_RETURN(storage::Schema out_schema,
                         ProjectedSchema(input->schema(), spec.projection));
  for (const Predicate& p : spec.predicate) {
    if (p.field < 0 ||
        static_cast<size_t>(p.field) >= input->schema().num_fields()) {
      return Status::InvalidArgument("predicate field out of range");
    }
  }
  if (spec.output_strategy == PartitionStrategy::kRangeUser ||
      spec.output_strategy == PartitionStrategy::kRangeUniform) {
    return Status::NotImplemented(
        "select output supports round-robin and hashed declustering");
  }
  if (spec.output_strategy == PartitionStrategy::kHashed &&
      (spec.output_partition_field < 0 ||
       static_cast<size_t>(spec.output_partition_field) >=
           out_schema.num_fields() ||
       out_schema.field(static_cast<size_t>(spec.output_partition_field))
               .type != storage::FieldType::kInt32)) {
    return Status::InvalidArgument("output partition field invalid");
  }
  GAMMA_ASSIGN_OR_RETURN(
      StoredRelation * output,
      catalog.Create(machine, spec.output_relation, out_schema));

  machine.ResetMetrics();
  const std::vector<int> disks = machine.DiskNodeIds();
  const SplitTable store_table = SplitTable::Loading(disks);
  sim::Exchange<storage::Tuple> store_exchange(&machine);

  machine.BeginPhase("select " + spec.input_relation);
  ChargeOperatorPhase(machine, static_cast<int>(disks.size()),
                      static_cast<int>(disks.size()),
                      store_table.SerializedBytes());

  std::vector<size_t> rr_cursor(disks.size());
  for (size_t i = 0; i < disks.size(); ++i) rr_cursor[i] = i;
  std::vector<size_t> input_counts(disks.size());

  // Access-path selection: use the B+ index when it bounds a predicate
  // field (key-range lookup + per-rid random fetches); otherwise a
  // sequential fragment scan.
  const KeyRange key_range =
      input->has_index() && spec.use_index
          ? DeriveKeyRange(spec.predicate, input->indexed_field())
          : KeyRange{};
  const bool via_index = key_range.constrained && key_range.lo <= key_range.hi;

  machine.RunOnNodes(disks, [&](sim::Node& n) {
    const size_t di = machine.DiskIndexOf(n.id());
    store_exchange.ReserveRow(n.id(), input->fragment(di).tuple_count());
    const auto process = [&](const uint8_t* data, uint32_t size) {
      ++input_counts[di];
      if (!spec.predicate.empty()) {
        n.ChargeCpu(n.cost().cpu_predicate_seconds,
                    sim::CostCategory::kPredicate);
        if (!EvalAll(spec.predicate, input->schema(), data)) return;
      }
      storage::Tuple projected =
          ProjectTuple(input->schema(), data, size, out_schema,
                       spec.projection);
      // compose output
      n.ChargeCpu(n.cost().cpu_write_tuple_seconds,
                  sim::CostCategory::kWriteTuple);
      size_t dest;
      switch (spec.output_strategy) {
        case PartitionStrategy::kHashed: {
          const int32_t key = projected.GetInt32(
              out_schema, static_cast<size_t>(spec.output_partition_field));
          n.ChargeCpu(n.cost().cpu_hash_route_seconds,
                      sim::CostCategory::kHashRoute);
          dest = static_cast<size_t>(HashJoinAttribute(key, spec.hash_seed) %
                                     disks.size());
          break;
        }
        default:
          dest = rr_cursor[di]++ % disks.size();
          break;
      }
      const uint32_t bytes = projected.size();
      store_exchange.Send(n.id(), disks[dest], std::move(projected), bytes);
    };
    if (via_index) {
      const storage::HeapFile& fragment = input->fragment(di);
      for (const auto& [key, rid] :
           input->fragment_index(di).RangeScan(key_range.lo, key_range.hi)) {
        const storage::Tuple t = fragment.FetchByRid(rid);
        process(t.data(), t.size());
      }
    } else {
      // Block-granular scan: the per-tuple read CPU the scalar Next()
      // charged is charged here per view, keeping the charge chain
      // (read, predicate, write, route) in scan order.
      auto scanner = input->fragment(di).Scan();
      storage::TupleBlock block;
      while (scanner.NextBlock(&block)) {
        for (size_t i = 0; i < block.size(); ++i) {
          n.ChargeCpu(n.cost().cpu_read_tuple_seconds,
                      sim::CostCategory::kReadTuple);
          const storage::TupleView v = block.view(i);
          process(v.data, v.size);
        }
      }
    }
  });
  machine.RunOnNodes(disks, [&](sim::Node& n) {
    const size_t di = machine.DiskIndexOf(n.id());
    store_exchange.DrainInboxBlocks(
        n.id(), [&](std::vector<storage::Tuple>& lane) {
          for (storage::Tuple& t : lane) {
            // Non-join operators are outside the fault-injection
            // recovery scope (docs/fault_injection.md): hard write
            // errors abort.
            GAMMA_CHECK_OK(output->fragment(di).Append(t));
          }
        });
    GAMMA_CHECK_OK(output->fragment(di).FlushAppends());
  });
  machine.EndPhase().IgnoreError();

  output->strategy = spec.output_strategy;
  output->partition_field = spec.output_strategy == PartitionStrategy::kHashed
                                ? spec.output_partition_field
                                : -1;
  output->partition_hash_seed = spec.hash_seed;

  SelectOutput result;
  result.output_relation = spec.output_relation;
  for (size_t count : input_counts) result.input_tuples += count;
  result.output_tuples = output->total_tuples();
  result.used_index = via_index;
  result.metrics = machine.Metrics();
  return result;
}

}  // namespace gammadb::db
