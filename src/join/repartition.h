// The one repartitioning operator of src/join/.
//
// All four of the paper's algorithms move tuples the same way (Sections
// 2.2 and 3): a producer scans a fragment, hashes the join attribute,
// routes the tuple through a split table, and a join or disk site
// consumes it. RouteBlock is that scan -> hash -> route -> send path for
// every partition phase: the hash engine's build, probe and
// bucket-forming phases, its nested-loop fallback's scan rounds, and
// sort-merge's R and S phases. The callers differ only in a `decide`
// step (bit filters, overflow cutoffs, rebalance overrides) and in what
// their consumers do with the arrivals. ScanBlocks is the block producer
// feeding it; EmitResult and StoreResults are the send and drain sides of
// the result store every engine shares.
#ifndef GAMMA_JOIN_REPARTITION_H_
#define GAMMA_JOIN_REPARTITION_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "gamma/catalog.h"
#include "gamma/predicate.h"
#include "gamma/split_table.h"
#include "join/digest.h"
#include "sim/exchange.h"
#include "sim/node.h"
#include "storage/heap_file.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "storage/tuple_block.h"

namespace gammadb::join {

/// A routed tuple is a VIEW, not a copy: `data` points at stable
/// serialized bytes — a simulated disk page (scans; pages are
/// individually heap-allocated and only freed after the phase that
/// routed them fully drains) or a rebalance holding area that outlives
/// both migration rounds. Shipping 32-byte views instead of owned
/// tuples is what makes the block exchange fast: lane traffic shrinks
/// ~7x for Wisconsin tuples and the payload bytes are copied exactly
/// once, at the consumer that stores them. Network accounting still
/// charges the full serialized `size` per tuple, so the simulated
/// metrics are unchanged.
struct RoutedTuple {
  const uint8_t* data;
  uint32_t size;
  uint64_t hash;
  uint8_t kind;  // caller-defined message kind
  int32_t aux;   // caller-defined: join process index or bucket number
};

/// A `decide` verdict: the destination node plus the kind/aux the
/// consumer will see. A negative node means the tuple was dropped (a
/// filter) or consumed by `decide` itself (an overflow spool).
struct Route {
  int node;
  uint8_t kind;
  int32_t aux;

  static Route Drop() { return Route{-1, 0, 0}; }
};

/// What a producer routes: the scanned relation's schema and join
/// field, the hash seed, the split table whose entry index `decide`
/// receives (null when `decide` picks destinations without one — the
/// index is then 0), and an optional conjunctive selection.
struct RouteSource {
  const storage::Schema* schema;
  int field;
  uint64_t seed;
  const db::SplitTable* table;
  const db::PredicateList* predicate;
};

/// Per-producer scratch for RouteBlock (fixed block-sized arrays plus
/// per-destination counters). One instance per producer invocation so
/// concurrent producer tasks never share it, and the per-block path
/// does no allocation.
struct RouteScratch {
  explicit RouteScratch(size_t num_nodes)
      : dest_counts(num_nodes, 0), dest_starts(num_nodes, 0) {}
  std::array<int32_t, storage::TupleBlock::kCapacity> keys;
  std::array<uint64_t, storage::TupleBlock::kCapacity> hashes;
  std::array<uint32_t, storage::TupleBlock::kCapacity> route;
  std::array<bool, storage::TupleBlock::kCapacity> pred_ok;
  // Survivors staged in scan order; pass 3 scatters them per
  // destination by index.
  std::array<RoutedTuple, storage::TupleBlock::kCapacity> staged;
  std::array<int32_t, storage::TupleBlock::kCapacity> send_dest;
  std::array<uint32_t, storage::TupleBlock::kCapacity> send_order;
  std::vector<uint32_t> dest_counts;
  std::vector<uint32_t> dest_starts;
};

/// Routes one scan block from `node` in three passes:
///  1. keys, predicate verdicts, hashes and split-table indices for the
///     whole block, charging nothing (hashing a tuple the predicate
///     later drops is harmless);
///  2. in scan order, the per-tuple charge chain — read, then
///     predicate, then hash-route — followed by
///     `decide(view, hash, entry_index) -> Route`, which charges the
///     caller's own filter work and returns a destination, or drops or
///     consumes the tuple; survivors are accounted and staged as views;
///  3. a stable counting sort of the survivors by destination, then one
///     SendBatch per destination. Within a lane the views land in scan
///     order — exactly the per-tuple Send() order — and no payload byte
///     moves until a consumer stores it.
/// The floating-point charge order is therefore the scalar per-tuple
/// path's, tuple for tuple.
template <typename Decide>
void RouteBlock(sim::Node& node, const RouteSource& source,
                const storage::TupleBlock& block,
                sim::Exchange<RoutedTuple>& exchange, RouteScratch* s,
                Decide&& decide) {
  const storage::Schema& schema = *source.schema;
  const size_t field = static_cast<size_t>(source.field);
  const size_t count = block.size();
  const bool has_pred =
      source.predicate != nullptr && !source.predicate->empty();

  for (size_t i = 0; i < count; ++i) {
    const uint8_t* data = block.view(i).data;
    s->keys[i] = schema.GetInt32(data, field);
    s->pred_ok[i] = !has_pred || db::EvalAll(*source.predicate, schema, data);
  }
  for (size_t i = 0; i < count; ++i) {
    s->hashes[i] = HashJoinAttribute(s->keys[i], source.seed);
  }
  if (source.table != nullptr) {
    source.table->RouteIndices(s->hashes.data(), count, s->route.data());
  } else {
    std::fill_n(s->route.begin(), count, 0);
  }

  size_t m = 0;
  for (size_t i = 0; i < count; ++i) {
    node.ChargeCpu(node.cost().cpu_read_tuple_seconds,
                   sim::CostCategory::kReadTuple);
    if (has_pred) {
      node.ChargeCpu(node.cost().cpu_predicate_seconds,
                     sim::CostCategory::kPredicate);
      if (!s->pred_ok[i]) continue;
    }
    node.ChargeCpu(node.cost().cpu_hash_route_seconds,
                   sim::CostCategory::kHashRoute);
    const storage::TupleView& view = block.view(i);
    const uint64_t hash = s->hashes[i];
    const Route r = decide(view, hash, s->route[i]);
    if (r.node < 0) continue;
    exchange.Account(node.id(), r.node, view.size);
    s->staged[m] = RoutedTuple{view.data, view.size, hash, r.kind, r.aux};
    s->send_dest[m] = r.node;
    ++m;
  }
  if (m == 0) return;

  std::fill(s->dest_counts.begin(), s->dest_counts.end(), 0);
  for (size_t k = 0; k < m; ++k) {
    ++s->dest_counts[static_cast<size_t>(s->send_dest[k])];
  }
  uint32_t run = 0;
  for (size_t d = 0; d < s->dest_counts.size(); ++d) {
    s->dest_starts[d] = run;
    run += s->dest_counts[d];
  }
  for (size_t k = 0; k < m; ++k) {
    s->send_order[s->dest_starts[static_cast<size_t>(s->send_dest[k])]++] =
        static_cast<uint32_t>(k);
  }
  for (size_t d = 0; d < s->dest_counts.size(); ++d) {
    const uint32_t c = s->dest_counts[d];
    if (c == 0) continue;
    const uint32_t start = s->dest_starts[d] - c;  // starts moved to ends
    exchange.SendBatch(node.id(), static_cast<int>(d), c,
                       [&](size_t k, RoutedTuple& out) {
                         out = s->staged[s->send_order[start + k]];
                       });
  }
}

/// The block producer: scans `file` at `node` and calls `yield(block)`
/// per scan block, after reserving `node`'s exchange row for the tuples
/// about to be routed. Charges page I/O only (RouteBlock charges the
/// per-tuple read). Returns the scan's I/O status.
template <typename Yield>
Status ScanBlocks(sim::Node& node, const storage::HeapFile& file,
                  sim::Exchange<RoutedTuple>& exchange, Yield&& yield) {
  exchange.ReserveRow(node.id(), file.tuple_count());
  auto scanner = file.Scan();
  storage::TupleBlock block;
  while (scanner.NextBlock(&block)) yield(block);
  return scanner.status();
}

/// Rebalance round A's send (docs/skew.md): ships a view of one
/// migrating resident from `node` to every destination process `dests`
/// of its bin (process p runs on `process_nodes[p]` and receives it as
/// `kind` with aux p), counting the tuple as moved and its extra copies
/// as replicas.
inline void SendMigrated(sim::Node& node, const storage::TupleView& view,
                         uint64_t hash, const std::vector<int>& dests,
                         const std::vector<int>& process_nodes, uint8_t kind,
                         sim::Exchange<RoutedTuple>& exchange) {
  ++node.counters().rebalance_moved_tuples;
  node.counters().rebalance_replica_tuples +=
      static_cast<int64_t>(dests.size()) - 1;
  for (int dest : dests) {
    exchange.Send(node.id(), process_nodes[static_cast<size_t>(dest)],
                  RoutedTuple{view.data, view.size, hash, kind, dest},
                  view.size);
  }
}

/// Ships one result tuple from `node` to the store operator of the next
/// disk node in its round-robin order (`*rr` is the sending process's
/// cursor), charging the result build.
inline void EmitResult(sim::Node& node, storage::Tuple result, size_t* rr,
                       const std::vector<int>& disks,
                       sim::Exchange<storage::Tuple>& store) {
  node.ChargeCpu(node.cost().cpu_build_result_seconds,
                 sim::CostCategory::kBuildResult);
  ++node.counters().result_tuples;
  const uint32_t bytes = result.size();
  store.Send(node.id(), disks[(*rr)++ % disks.size()], std::move(result),
             bytes);
}

/// The result-store drain: appends every result record delivered to
/// disk node `node` to its fragment `disk_index` of `result` (streaming
/// it into (*capture)[disk_index] first when capturing; no simulated
/// charge). Drains the whole inbox even after a failed append — the
/// exchange must be empty at the phase barrier — and returns the first
/// error.
Status StoreResults(sim::Node& node, size_t disk_index,
                    sim::Exchange<storage::Tuple>& store,
                    db::StoredRelation* result,
                    const storage::Schema& inner_schema, int inner_field,
                    std::vector<DigestAccumulator>* capture);

}  // namespace gammadb::join

#endif  // GAMMA_JOIN_REPARTITION_H_
