#include "join/sort_merge.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/logging.h"
#include "gamma/bit_filter.h"
#include "gamma/rebalance.h"
#include "gamma/scheduler.h"
#include "gamma/split_table.h"
#include "join/repartition.h"
#include "sim/exchange.h"
#include "storage/external_sort.h"
#include "storage/heap_file.h"

namespace gammadb::join {

namespace {

/// One relation's working files at one disk site: the redistributed
/// temporary file (R' or S') and, once it is sorted, its sort.
struct SideFiles {
  std::unique_ptr<storage::HeapFile> temp;
  std::unique_ptr<storage::ExternalSort> sort;
};

/// One disk node's sort-merge working state.
struct SiteState {
  SideFiles r, s;
  size_t store_rr_next = 0;

  SideFiles& side(bool inner) { return inner ? r : s; }
};

/// Streams two sorted inputs and joins them. Duplicate inner keys are
/// buffered as a group (no disk back-up needed); reading stops as soon
/// as the inner stream is exhausted, which is what lets skewed (NU)
/// inner relations skip the tail of the outer relation (paper
/// Section 4.4).
template <typename EmitFn>
void MergeJoinStreams(sim::Node& node, storage::TupleStream* r_stream,
                      storage::TupleStream* s_stream,
                      const storage::Schema& r_schema, int r_field,
                      const storage::Schema& s_schema, int s_field,
                      const EmitFn& emit) {
  const auto charge_compare = [&node] {
    node.ChargeCpu(node.cost().cpu_compare_seconds,
                   sim::CostCategory::kCompare);
  };
  storage::Tuple r, s;
  bool rv = r_stream->Next(&r);
  bool sv = s_stream->Next(&s);
  while (rv && sv) {
    const int32_t rk = r.GetInt32(r_schema, static_cast<size_t>(r_field));
    const int32_t sk = s.GetInt32(s_schema, static_cast<size_t>(s_field));
    charge_compare();
    if (rk < sk) {
      rv = r_stream->Next(&r);
    } else if (rk > sk) {
      sv = s_stream->Next(&s);
    } else {
      // Gather the inner duplicate group for this key.
      std::vector<storage::Tuple> group;
      group.push_back(r);
      while ((rv = r_stream->Next(&r))) {
        charge_compare();
        if (r.GetInt32(r_schema, static_cast<size_t>(r_field)) != rk) break;
        group.push_back(r);
      }
      // Join every outer tuple with this key against the group.
      while (sv) {
        if (s.GetInt32(s_schema, static_cast<size_t>(s_field)) != rk) break;
        for (const storage::Tuple& g : group) {
          charge_compare();
          emit(g, s);
        }
        sv = s_stream->Next(&s);
        if (sv) charge_compare();
      }
    }
  }
  // Inner exhausted: the remaining outer tuples are never read.
}

}  // namespace

Status RunSortMergeJoin(sim::Machine& machine, const JoinPlan& plan,
                        JoinStats* stats) {
  const JoinSpec& spec = plan.spec;
  const std::vector<int> disks = machine.DiskNodeIds();
  const size_t d = disks.size();
  const db::SplitTable joining = db::SplitTable::Joining(disks);

  const storage::Schema& r_schema = plan.inner->schema();
  const storage::Schema& s_schema = plan.outer->schema();

  const uint32_t page_bytes = machine.cost().page_bytes;
  // One budget sorts both relations (the paper varies one budget).
  // Clamped before the narrowing cast: a budget of 2^32 pages or more
  // per node must not wrap to the 3-page minimum.
  const auto sort_pages_per_node = static_cast<uint32_t>(std::clamp<uint64_t>(
      plan.memory_bytes / d / page_bytes, 3, UINT32_MAX));

  std::vector<SiteState> sites(d);
  for (size_t di = 0; di < d; ++di) {
    sim::Node& node = machine.node(disks[di]);
    sites[di].r.temp = std::make_unique<storage::HeapFile>(
        &node, &r_schema, "smR." + std::to_string(di));
    sites[di].s.temp = std::make_unique<storage::HeapFile>(
        &node, &s_schema, "smS." + std::to_string(di));
    sites[di].store_rr_next = di;
  }

  sim::Exchange<RoutedTuple> exchange(&machine);
  sim::Exchange<storage::Tuple> store_exchange(&machine);
  std::unique_ptr<db::BitFilterSet> filter;
  if (spec.use_bit_filters) {
    filter = std::make_unique<db::BitFilterSet>(static_cast<int>(d));
  }

  // Adaptive repartitioning (docs/skew.md): each site histograms R' as
  // it arrives (free alongside the append, like the hash tables'
  // overflow histograms); the plan computed from those counts overrides
  // heavy bins' routing for S and redistributes R' before sorting.
  const bool adaptive = spec.adaptive_repartition && d >= 2;
  std::vector<HashHistogram> site_hist(adaptive ? d : 0);
  db::RebalancePlan rebalance;

  // A receiving site's drain: stores every arrival in `file`, setting the
  // site's bit-filter slice for inner-relation tuples (the slices are
  // per-site, so the bits must live where the probes will arrive) and,
  // with `histogram`, counting them in the site's R' histogram.
  const auto absorb = [&](sim::Node& n, storage::HeapFile& file, bool inner,
                          bool histogram) -> Status {
    const size_t di = machine.DiskIndexOf(n.id());
    Status st;
    exchange.DrainInboxBlocks(n.id(), [&](std::vector<RoutedTuple>& lane) {
      for (const RoutedTuple& m : lane) {
        if (inner && filter != nullptr) {
          n.ChargeCpu(n.cost().cpu_filter_op_seconds,
                      sim::CostCategory::kFilterOp);
          filter->Set(static_cast<int>(di), m.hash);
        }
        if (histogram) site_hist[di].Add(m.hash);
        st.Update(file.AppendRecord(m.data));
      }
    });
    st.Update(file.FlushAppends());
    return st;
  };

  // Redistributes one relation into the per-site temporary files
  // through the shared RouteBlock. For a joining table the entry index
  // IS the site index; sort-merge's part of the charge chain is the
  // outer side's rebalance override and bit filter — the assembled
  // filter is applied by the producers of the outer relation, so
  // eliminated tuples are never transmitted, stored, sorted or merged.
  // Both rounds always run in full (the exchange must be drained at
  // the phase barrier even when a node failed); only the first error is
  // kept.
  const auto partition_phase = [&](const char* label, bool inner) -> Status {
    const db::StoredRelation* rel = inner ? plan.inner : plan.outer;
    const RouteSource source{
        &rel->schema(), inner ? spec.inner_field : spec.outer_field,
        spec.hash_seed, &joining,
        inner ? &spec.inner_predicate : &spec.outer_predicate};
    machine.BeginPhase(label);
    db::ChargeOperatorPhase(machine, static_cast<int>(d), static_cast<int>(d),
                            joining.SerializedBytes());
    Status phase_status = machine.TryRunOnNodes(
        disks, [&](sim::Node& n) -> Status {
          const size_t di = machine.DiskIndexOf(n.id());
          const auto decide = [&](const storage::TupleView&, uint64_t hash,
                                  uint32_t index) -> Route {
            if (inner) return Route{disks[index], 0, 0};
            const size_t site = rebalance.RouteProbe(di, hash, index);
            if (filter != nullptr) {
              n.ChargeCpu(n.cost().cpu_filter_op_seconds,
                          sim::CostCategory::kFilterOp);
              if (!filter->MayContain(static_cast<int>(site), hash)) {
                ++n.counters().filter_drops;
                return Route::Drop();
              }
            }
            return Route{disks[site], 0, 0};
          };
          RouteScratch scratch(static_cast<size_t>(machine.num_nodes()));
          return ScanBlocks(n, rel->fragment(di), exchange,
                            [&](const storage::TupleBlock& block) {
                              RouteBlock(n, source, block, exchange, &scratch,
                                         decide);
                            });
        });
    // Receivers store into the local temporary file.
    phase_status.Update(machine.TryRunOnNodes(
        disks, [&](sim::Node& n) -> Status {
          return absorb(n, *sites[machine.DiskIndexOf(n.id())].side(inner).temp,
                        inner, inner && adaptive);
        }));
    phase_status.Update(machine.EndPhase());
    return phase_status;
  };

  // Sorts every site's temporary file of one relation in parallel,
  // freeing the file once the sort has consumed it.
  const auto sort_phase = [&](const char* label, bool inner) -> Status {
    machine.BeginPhase(label);
    db::ChargeOperatorPhase(machine, static_cast<int>(d), 0, 0);
    Status sort_status = machine.TryRunOnNodes(
        disks, [&](sim::Node& n) -> Status {
          SideFiles& side = sites[machine.DiskIndexOf(n.id())].side(inner);
          side.sort = std::make_unique<storage::ExternalSort>(
              &n, inner ? &r_schema : &s_schema,
              inner ? spec.inner_field : spec.outer_field,
              sort_pages_per_node);
          GAMMA_RETURN_IF_ERROR(side.sort->AddFile(*side.temp));
          side.temp->Free();
          return side.sort->FinishInput();
        });
    sort_status.Update(machine.EndPhase());
    return sort_status;
  };

  // Phase 1b (adaptive, docs/skew.md): gather the sites' R' histograms;
  // if heavy bins make a rebalance worthwhile, rewrite R' with the
  // overridden bins migrated (replicas get a full copy) so the heavy
  // keys' merge work spreads over their destination sites. S has not
  // been read yet, so its producers route straight to the new homes.
  // Sort-merge has no hash-table byte budget, hence the unbounded
  // capacity.
  const auto rebalance_phase = [&]() -> Status {
    machine.BeginPhase("sm rebalance R");
    rebalance = db::PlanRebalance(
        machine, disks,
        [&](size_t di) -> const HashHistogram& { return site_hist[di]; },
        r_schema.tuple_bytes(), UINT64_MAX, d, /*keep_static=*/false);
    Status reb_status;
    if (rebalance.active) {
      // Round A: every site rewrites its R' through RouteBlock —
      // overridden bins ship a view to each destination, the rest land
      // in the replacement file, and `decide` consumes every tuple. An
      // honest full read + rewrite of R', charged as such. The views
      // stay valid until the old R' is freed after round B.
      std::vector<std::unique_ptr<storage::HeapFile>> keep(d);
      for (size_t di = 0; di < d; ++di) {
        keep[di] = std::make_unique<storage::HeapFile>(
            &machine.node(disks[di]), &r_schema,
            "smR.reb." + std::to_string(di));
      }
      const RouteSource source{&r_schema, spec.inner_field, spec.hash_seed,
                               nullptr, nullptr};
      reb_status = machine.TryRunOnNodes(disks, [&](sim::Node& n) -> Status {
        const size_t di = machine.DiskIndexOf(n.id());
        Status st;
        const auto decide = [&](const storage::TupleView& v, uint64_t hash,
                                uint32_t) -> Route {
          if (const auto* dests = rebalance.DestinationsFor(hash)) {
            SendMigrated(n, v, hash, *dests, disks, 0, exchange);
          } else {
            st.Update(keep[di]->AppendRecord(v.data));
          }
          return Route::Drop();
        };
        RouteScratch scratch(static_cast<size_t>(machine.num_nodes()));
        st.Update(ScanBlocks(n, *sites[di].r.temp, exchange,
                             [&](const storage::TupleBlock& block) {
                               RouteBlock(n, source, block, exchange,
                                          &scratch, decide);
                             }));
        return st;
      });
      // Round B: destinations absorb the migrated tuples, setting their
      // filter slice where the probes will now arrive.
      reb_status.Update(machine.TryRunOnNodes(
          disks, [&](sim::Node& n) -> Status {
            return absorb(n, *keep[machine.DiskIndexOf(n.id())],
                          /*inner=*/true, /*histogram=*/false);
          }));
      // The rebalanced R' replaces the static one (unconditionally, so
      // a faulted attempt's cleanup frees the right files).
      for (size_t di = 0; di < d; ++di) {
        sites[di].r.temp->Free();
        sites[di].r.temp = std::move(keep[di]);
      }
    }
    reb_status.Update(machine.EndPhase());
    return reb_status;
  };

  // Phase 5: parallel local merge join; results round-robin to the
  // store operators.
  const auto merge_phase = [&]() -> Status {
    machine.BeginPhase("sm merge join");
    db::ChargeOperatorPhase(machine, static_cast<int>(d), static_cast<int>(d),
                            0);
    Status merge_status = machine.TryRunOnNodes(
        disks, [&](sim::Node& n) -> Status {
          SiteState& site = sites[machine.DiskIndexOf(n.id())];
          auto r_stream = site.r.sort->OpenStream();
          auto s_stream = site.s.sort->OpenStream();
          MergeJoinStreams(
              n, r_stream.get(), s_stream.get(), r_schema, spec.inner_field,
              s_schema, spec.outer_field,
              [&](const storage::Tuple& r, const storage::Tuple& s) {
                EmitResult(n, storage::Tuple::Concat(r, s),
                           &site.store_rr_next, disks, store_exchange);
              });
          GAMMA_RETURN_IF_ERROR(r_stream->status());
          return s_stream->status();
        });
    merge_status.Update(machine.TryRunOnNodes(
        disks, [&](sim::Node& n) -> Status {
          const size_t di = machine.DiskIndexOf(n.id());
          Status st = StoreResults(n, di, store_exchange, plan.result,
                                   r_schema, spec.inner_field, plan.capture);
          st.Update(plan.result->fragment(di).FlushAppends());
          return st;
        }));
    merge_status.Update(machine.EndPhase());
    return merge_status;
  };

  // All join work runs inside `run` so a faulted attempt can release
  // the per-site temporaries before returning (sorts free their runs
  // via the ExternalSort destructor).
  const auto run = [&]() -> Status {
    GAMMA_RETURN_IF_ERROR(partition_phase("sm partition R", /*inner=*/true));
    if (adaptive) GAMMA_RETURN_IF_ERROR(rebalance_phase());
    GAMMA_RETURN_IF_ERROR(sort_phase("sm sort R", /*inner=*/true));
    if (filter != nullptr) {
      // Ship the assembled filter packet to the producing sites before S
      // is read.
      machine.BeginPhase("sm filter dist");
      db::ChargeFilterDistribution(machine, static_cast<int>(d),
                                   static_cast<int>(d));
      GAMMA_RETURN_IF_ERROR(machine.EndPhase());
    }
    GAMMA_RETURN_IF_ERROR(partition_phase("sm partition S", /*inner=*/false));
    GAMMA_RETURN_IF_ERROR(sort_phase("sm sort S", /*inner=*/false));
    for (const SiteState& site : sites) {
      stats->inner_sort_passes = std::max(stats->inner_sort_passes,
                                          site.r.sort->intermediate_passes());
      stats->outer_sort_passes = std::max(stats->outer_sort_passes,
                                          site.s.sort->intermediate_passes());
    }
    return merge_phase();
  };

  const Status st = run();
  if (!st.ok()) {
    // Release the temporaries a faulted attempt abandoned (Free is
    // idempotent; the temps are normally freed right after sorting).
    for (SiteState& site : sites) {
      site.r.temp->Free();
      site.s.temp->Free();
    }
  }
  return st;
}

}  // namespace gammadb::join
