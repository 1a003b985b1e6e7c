#include "join/hash_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "gamma/rebalance.h"
#include "gamma/scheduler.h"

namespace gammadb::join {

namespace {
/// Fraction of hash-table memory the overflow protocol tries to clear
/// per eviction round ("We currently try to clear 10% of the hash table
/// memory space when overflow is detected", paper Section 4.1).
constexpr double kClearFraction = 0.10;

/// Each hash algorithm's row of phase labels, in Algorithm order: the
/// name its stored buckets' files and sub-joins carry ("grace.R",
/// "grace bucket 2 build"), its partition phases, and its bucket-0
/// overflow resolution. Fault plans, traces and baselines key on every
/// label. Grace's table has no bucket 0, so its forming phases build no
/// hash table: it has no rebalance phase and nothing to resolve.
struct AlgorithmLabels {
  const char* name;
  const char* build;
  const char* rebalance;
  const char* probe;
  const char* overflow;
};
constexpr AlgorithmLabels kAlgorithmLabels[] = {
    {"simple", "simple build", "simple rebalance", "simple probe",
     "simple ovfl"},
    {"grace", "grace form R", "", "grace form S", ""},
    {"hybrid", "hybrid partition R", "hybrid rebalance", "hybrid partition S",
     "hybrid b0 ovfl"},
};
}  // namespace

// ---------------------------------------------------------------------------
// BucketFileSet
// ---------------------------------------------------------------------------

BucketFileSet::BucketFileSet(sim::Machine* machine,
                             const storage::Schema* schema, int num_buckets,
                             const std::string& label)
    : num_buckets_(num_buckets) {
  GAMMA_CHECK_GE(num_buckets, 0);
  const std::vector<int> disks = machine->DiskNodeIds();
  files_.resize(static_cast<size_t>(num_buckets));
  for (int b = 1; b <= num_buckets; ++b) {
    auto& row = files_[static_cast<size_t>(b - 1)];
    row.reserve(disks.size());
    for (int node_id : disks) {
      row.push_back(std::make_unique<storage::HeapFile>(
          &machine->node(node_id), schema,
          label + ".b" + std::to_string(b) + ".d" + std::to_string(node_id)));
    }
  }
}

BucketFileSet::~BucketFileSet() {
  for (auto& row : files_) {
    for (auto& file : row) file->Free();
  }
}

storage::HeapFile& BucketFileSet::file(int bucket, size_t disk_index) {
  GAMMA_DCHECK(bucket >= 1 && bucket <= num_buckets_);
  return *files_[static_cast<size_t>(bucket - 1)][disk_index];
}

Status BucketFileSet::FlushFilesOwnedBy(int node_id) {
  for (auto& row : files_) {
    for (auto& file : row) {
      if (file->node()->id() == node_id) {
        GAMMA_RETURN_IF_ERROR(file->FlushAppends());
      }
    }
  }
  return Status::OK();
}

uint64_t BucketFileSet::BucketTuples(int bucket) const {
  uint64_t total = 0;
  for (const auto& file : files_[static_cast<size_t>(bucket - 1)]) {
    total += file->tuple_count();
  }
  return total;
}

void BucketFileSet::FreeBucket(int bucket) {
  for (auto& file : files_[static_cast<size_t>(bucket - 1)]) file->Free();
}

// ---------------------------------------------------------------------------
// HashJoinEngine
// ---------------------------------------------------------------------------

HashJoinEngine::HashJoinEngine(sim::Machine* machine, const JoinPlan& plan,
                               JoinStats* stats)
    : machine_(machine),
      plan_(plan),
      stats_(stats),
      disks_(machine->DiskNodeIds()),
      broker_(machine->num_nodes()),
      exchange_(machine),
      overflow_exchange_(machine),
      store_exchange_(machine) {
  for (int id : plan_.join_nodes) {
    broker_.AddBudget(id, plan_.capacity_per_process);
  }
  jstate_.resize(plan_.join_nodes.size());
  // "different overflow files are assigned to different disks". A join
  // process running on a disk node spools to its own disk (for local
  // joins "the transmission of the overflow tuples are all
  // shortcircuited", Section 4.1). Diskless join processes are spread
  // over the disks no disk-resident joiner claimed (falling back to all
  // disks), with an offset that keeps the assignment unaligned with the
  // split-table mod structure — this is why Simple's HPJA and non-HPJA
  // remote curves coincide in Figure 14.
  std::vector<int> free_disks;
  for (int disk : disks_) {
    bool claimed = false;
    for (int join_id : plan_.join_nodes) {
      if (join_id == disk) claimed = true;
    }
    if (!claimed) free_disks.push_back(disk);
  }
  if (free_disks.empty()) free_disks = disks_;
  size_t next_free = 1 % free_disks.size();  // offset breaks alignment
  for (size_t ji = 0; ji < jstate_.size(); ++ji) {
    const sim::Node& join_node = machine_->node(plan_.join_nodes[ji]);
    if (join_node.has_disk()) {
      jstate_[ji].host_disk_node = join_node.id();
    } else {
      jstate_[ji].host_disk_node = free_disks[next_free];
      next_free = (next_free + 1) % free_disks.size();
    }
    jstate_[ji].store_rr_next = ji;
  }
}

HashJoinEngine::~HashJoinEngine() { const Taken abandoned(jstate_); }

std::vector<int> HashJoinEngine::Participants(bool with_disk_nodes) const {
  std::vector<int> ids = plan_.join_nodes;
  if (with_disk_nodes) {
    ids.insert(ids.end(), disks_.begin(), disks_.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void HashJoinEngine::StartSubJoin() {
  filter_.reset();
  rebalance_plan_ = db::RebalancePlan{};
  build_finalize_deferred_ = false;
  for (size_t ji = 0; ji < jstate_.size(); ++ji) {
    JoinNodeState& st = jstate_[ji];
    GAMMA_CHECK(st.r_overflow == nullptr && st.s_overflow == nullptr)
        << "StartSubJoin with unconsumed overflow files";
    st.cutoff = UINT64_MAX;
    if (st.table == nullptr) {
      st.table = std::make_unique<JoinHashTable>(
          &machine_->node(plan_.join_nodes[ji]), &plan_.inner->schema(),
          plan_.spec.inner_field, plan_.capacity_per_process, &broker_);
    } else {
      st.table->Clear();
    }
  }
}

void HashJoinEngine::EnsureOverflowFile(size_t ji, bool is_inner) {
  JoinNodeState& st = jstate_[ji];
  auto& slot = is_inner ? st.r_overflow : st.s_overflow;
  if (slot == nullptr) {
    const db::StoredRelation* rel = is_inner ? plan_.inner : plan_.outer;
    slot = std::make_unique<storage::HeapFile>(
        &machine_->node(st.host_disk_node), &rel->schema(),
        std::string(is_inner ? "ovfl-R." : "ovfl-S.") + std::to_string(ji) +
            "." + std::to_string(overflow_file_counter_));
  }
}

void HashJoinEngine::SpoolToOverflow(sim::Node& from, size_t ji,
                                     bool is_inner, storage::Tuple&& t) {
  if (is_inner) EnsureOverflowFile(ji, true);
  // (Outer overflow files are pre-created before the probe phase so that
  // concurrent producers never race on creation.)
  const uint32_t bytes = t.size();
  // Broker ledger: bytes leaving for the process's overflow file, booked
  // on the SPOOLING node — a probe-side producer spools on behalf of a
  // join process on another node, and only the spooling task may touch
  // its own node's entry (sim/memory_broker.h). Only totals are read.
  // Accounting only — the write itself is charged by the disk-side
  // drain.
  broker_.NoteSpill(from.id(), bytes);
  overflow_exchange_.Send(from.id(), jstate_[ji].host_disk_node,
                          OverflowMsg{std::move(t),
                                      static_cast<int32_t>(ji), is_inner},
                          bytes);
}

void HashJoinEngine::HandleBuildArrival(sim::Node& n, size_t ji,
                                        uint64_t hash, storage::Tuple&& t) {
  JoinNodeState& st = jstate_[ji];
  if (hash >= st.cutoff) {
    SpoolToOverflow(n, ji, /*is_inner=*/true, std::move(t));
    return;
  }
  // Insert only consumes the tuple on success; on overflow it is left
  // intact for the eviction-and-retry protocol below.
  while (!st.table->Insert(std::move(t), hash)) {
    // Overflow event: choose a cutoff clearing ~10% of memory and evict.
    ++n.counters().ht_overflows;
    const uint64_t new_cutoff =
        st.table->histogram().CutoffForFraction(kClearFraction);
    if (new_cutoff >= st.cutoff) {
      // Nothing left to evict below the current cutoff. With private
      // budgets this never happened (a failed insert implied a full,
      // non-empty table), but under the shared per-node broker a
      // co-resident process can drain the node's budget while THIS
      // table is still empty. Lower the cutoff to the arriving hash so
      // the resident-iff-below-cutoff invariant holds — the probe phase
      // relies on it to route outer tuples to the overflow file.
      st.cutoff = hash;
      for (auto& [eh, et] : st.table->EvictAtOrAbove(hash)) {
        SpoolToOverflow(n, ji, /*is_inner=*/true, std::move(et));
      }
      SpoolToOverflow(n, ji, /*is_inner=*/true, std::move(t));
      return;
    }
    st.cutoff = new_cutoff;
    for (auto& [eh, et] : st.table->EvictAtOrAbove(new_cutoff)) {
      SpoolToOverflow(n, ji, /*is_inner=*/true, std::move(et));
    }
    if (hash >= st.cutoff) {
      SpoolToOverflow(n, ji, /*is_inner=*/true, std::move(t));
      return;
    }
  }
}

size_t HashJoinEngine::HandleProbeRun(sim::Node& n,
                                      const std::vector<RoutedTuple>& lane,
                                      size_t p) {
  const RoutedTuple* msgs = &lane[p];
  size_t count = 1;
  while (p + count < lane.size() && count < JoinHashTable::kProbeBatchMax &&
         msgs[count].kind == kProbe && msgs[count].aux == msgs[0].aux) {
    ++count;
  }
  JoinNodeState& st = jstate_[static_cast<size_t>(msgs[0].aux)];
  int32_t keys[JoinHashTable::kProbeBatchMax];
  uint64_t hashes[JoinHashTable::kProbeBatchMax];
  // Key extraction is uncharged (as in the scalar probe path); hoisting
  // it out of the probe loop lets ProbeBatch prefetch every probe's
  // index line before the first compare.
  const storage::Schema& schema = plan_.outer->schema();
  const size_t field = static_cast<size_t>(plan_.spec.outer_field);
  for (size_t k = 0; k < count; ++k) {
    keys[k] = schema.GetInt32(msgs[k].data, field);
    hashes[k] = msgs[k].hash;
  }
  st.table->ProbeBatch(
      keys, hashes, count, [&](size_t k, const storage::Tuple& r) {
        EmitResult(n, storage::Tuple::Concat(r, msgs[k].data, msgs[k].size),
                   &st.store_rr_next, disks_, store_exchange_);
      });
  return count;
}

Status HashJoinEngine::DrainDiskSides(BucketFileSet* buckets) {
  // Both inboxes are always drained in full (the exchange must be empty
  // at the phase barrier even when a write fails); only the FIRST error
  // is kept, and tuples after it are dropped — the restarted attempt
  // regenerates them.
  return machine_->TryRunOnNodes(disks_, [&](sim::Node& n) -> Status {
    Status st;
    overflow_exchange_.DrainInboxBlocks(
        n.id(), [&](std::vector<OverflowMsg>& lane) {
          for (OverflowMsg& m : lane) {
            JoinNodeState& js = jstate_[static_cast<size_t>(m.join_index)];
            storage::HeapFile* file =
                m.is_inner ? js.r_overflow.get() : js.s_overflow.get();
            GAMMA_CHECK(file != nullptr);
            st.Update(file->Append(m.tuple));
          }
        });
    st.Update(StoreResults(n, machine_->DiskIndexOf(n.id()), store_exchange_,
                           plan_.result, plan_.inner->schema(),
                           plan_.spec.inner_field, plan_.capture));
    if (buckets != nullptr) st.Update(buckets->FlushFilesOwnedBy(n.id()));
    return st;
  });
}

void HashJoinEngine::BuildFilterFromResidents() {
  filter_ = std::make_unique<db::BitFilterSet>(
      static_cast<int>(plan_.join_nodes.size()));
  // Iterate PROCESSES grouped by node (a node may host several).
  machine_->RunOnNodes(Participants(false), [this](sim::Node& n) {
    for (size_t ji = 0; ji < jstate_.size(); ++ji) {
      if (plan_.join_nodes[ji] != n.id()) continue;
      jstate_[ji].table->ForEachResidentHash([&](uint64_t hash) {
        n.ChargeCpu(n.cost().cpu_filter_op_seconds,
                    sim::CostCategory::kFilterOp);
        filter_->Set(static_cast<int>(ji), hash);
      });
    }
  });
  db::ChargeFilterDistribution(*machine_,
                               static_cast<int>(plan_.join_nodes.size()),
                               static_cast<int>(disks_.size()));
}

void HashJoinEngine::CollectChainStats() {
  for (const JoinNodeState& st : jstate_) {
    const JoinHashTable::ChainStats cs = st.table->ComputeChainStats();
    chain_tuples_total_ += cs.tuples;
    chain_slots_total_ += cs.occupied_slots;
    stats_->max_chain_length = std::max(stats_->max_chain_length, cs.max);
  }
  if (chain_slots_total_ > 0) {
    stats_->avg_chain_length =
        static_cast<double>(chain_tuples_total_) /
        static_cast<double>(chain_slots_total_);
  }
}

Status HashJoinEngine::MaybeRebalance(const std::string& label) {
  if (!plan_.spec.adaptive_repartition) return Status::OK();
  const size_t num_processes = jstate_.size();
  machine_->BeginPhase(label);

  // An overflow-engaged sub-join keeps the static route: overflow files
  // were already written under the static mapping, and replicated
  // residents would reach overflow resolution twice. So does one where
  // a process holds more than its capacity share, which it can when it
  // borrowed a co-resident sibling's unused budget (sim/memory_broker.h):
  // the plan checks each destination against the per-process capacity
  // only, so filling that sibling to it would overrun the node budget.
  bool keep_static = false;
  for (const JoinNodeState& st : jstate_) {
    if (st.cutoff != UINT64_MAX ||
        st.table->bytes_used() > plan_.capacity_per_process) {
      keep_static = true;
    }
  }
  // Each join site scans its resident histogram and ships the counts to
  // the scheduler.
  rebalance_plan_ = db::PlanRebalance(
      *machine_, plan_.join_nodes,
      [this](size_t ji) -> const HashHistogram& {
        return jstate_[ji].table->histogram();
      },
      plan_.inner->schema().tuple_bytes(), plan_.capacity_per_process,
      disks_.size(), keep_static);

  if (rebalance_plan_.active) {
    // Round A: every process extracts its overridden-bin residents and
    // ships a view to each destination (possibly itself — a
    // short-circuited local delivery). The extracted tuples are parked
    // in `migrated` so the views stay valid until round B drains them;
    // replicas share one backing tuple.
    std::vector<std::vector<std::pair<uint64_t, storage::Tuple>>> migrated(
        num_processes);
    machine_->RunOnNodes(Participants(false), [&](sim::Node& n) {
      for (size_t ji = 0; ji < num_processes; ++ji) {
        if (plan_.join_nodes[ji] != n.id()) continue;
        migrated[ji] = jstate_[ji].table->ExtractIf([&](uint64_t hash) {
          return rebalance_plan_.DestinationsFor(hash) != nullptr;
        });
        for (const auto& [hash, tuple] : migrated[ji]) {
          SendMigrated(n, storage::TupleView{tuple.data(), tuple.size()},
                       hash, *rebalance_plan_.DestinationsFor(hash),
                       plan_.join_nodes, kMigrate, exchange_);
        }
      }
    });

    // Round B: destinations absorb the migrated residents. The plan's
    // feasibility math is exact (fixed-width tuples) and keeps every
    // destination within the per-process capacity; with every process
    // inside it before the plan (checked above), each node stays within
    // its budget, so an insert here cannot overflow.
    machine_->RunOnNodes(Participants(false), [&](sim::Node& n) {
      exchange_.DrainInboxBlocks(n.id(), [&](std::vector<RoutedTuple>& lane) {
        for (RoutedTuple& m : lane) {
          GAMMA_DCHECK(m.kind == kMigrate);
          JoinNodeState& st = jstate_[static_cast<size_t>(m.aux)];
          GAMMA_CHECK(st.table->Insert(storage::Tuple(m.data, m.size),
                                       m.hash))
              << "rebalance migration overflowed a hash table";
        }
      });
    });
  }

  // Deferred build-side finalization: the bit filter is built from the
  // post-migration residency (stale pre-migration bits would be false
  // NEGATIVES at the new destinations and drop results).
  if (build_finalize_deferred_) {
    build_finalize_deferred_ = false;
    if (plan_.spec.use_bit_filters) BuildFilterFromResidents();
    CollectChainStats();
  }
  return machine_->EndPhase();
}

Status HashJoinEngine::PartitionPhase(const std::string& label,
                                      const db::SplitTable& table,
                                      const Scan& scan, uint64_t seed,
                                      bool inner, BucketFileSet* buckets) {
  const bool has_stored_buckets = table.MaxBucket() > 0;
  GAMMA_DCHECK(!has_stored_buckets || buckets != nullptr);

  if (!inner) {
    // Pre-create S-overflow files for every join node whose hash table
    // overflowed (the producers ship straight to them).
    for (size_t ji = 0; ji < jstate_.size(); ++ji) {
      if (jstate_[ji].cutoff != UINT64_MAX) EnsureOverflowFile(ji, false);
    }
  } else if (has_stored_buckets && plan_.spec.use_bit_filters &&
             plan_.spec.use_forming_bit_filters) {
    forming_filter_ =
        std::make_unique<db::BitFilterSet>(static_cast<int>(disks_.size()));
  }

  machine_->BeginPhase(label);
  const int consumers =
      static_cast<int>(plan_.join_nodes.size()) +
      (has_stored_buckets ? static_cast<int>(disks_.size()) : 0);
  db::ChargeOperatorPhase(*machine_, static_cast<int>(disks_.size()),
                          consumers, table.SerializedBytes());

  // Every round runs to completion even after an error: the exchanges
  // must be fully drained at each barrier so a failed attempt leaves no
  // stale messages behind for the restarted one. Only the first error
  // is reported.
  Status phase_status;

  // Round A: producers scan blocks and route them. The engine's part of
  // the charge chain is the filter work in `decide`: the forming filter
  // on stored-bucket entries, and on the probe side the rebalance
  // override, the augmented split table's overflow cutoff and the bit
  // filter.
  const db::StoredRelation* rel = inner ? plan_.inner : plan_.outer;
  const RouteSource source{
      &rel->schema(), inner ? plan_.spec.inner_field : plan_.spec.outer_field,
      seed, &table, scan.predicate};
  phase_status.Update(machine_->TryRunOnNodes(
      disks_, [&](sim::Node& n) -> Status {
        const size_t di = machine_->DiskIndexOf(n.id());
        const auto decide = [&](const storage::TupleView& view, uint64_t hash,
                                uint32_t index) -> Route {
          const db::SplitEntry& entry = table.entry(index);
          if (entry.bucket > 0) {
            // Forming-filter extension: outer tuples failing the filter
            // built during the inner relation's bucket-forming pass are
            // dropped before they are ever transmitted or stored.
            if (!inner && forming_filter_ != nullptr) {
              n.ChargeCpu(n.cost().cpu_filter_op_seconds,
                          sim::CostCategory::kFilterOp);
              if (!forming_filter_->MayContain(
                      static_cast<int>(machine_->DiskIndexOf(entry.node)),
                      hash)) {
                ++n.counters().filter_drops;
                return Route::Drop();
              }
            }
            return Route{entry.node, inner ? kBucketInner : kBucketOuter,
                         entry.bucket};
          }
          // Bucket-0 (joining) entries occupy the first J table slots in
          // both the joining and Hybrid-partitioning layouts, so the
          // entry index IS the join PROCESS index — the paper's split
          // tables are per-process, which permits several join processes
          // on one node (Appendix A's "fifth join process" remedy).
          GAMMA_DCHECK(index < jstate_.size());
          GAMMA_DCHECK(plan_.join_nodes[index] == entry.node);
          if (inner) {
            return Route{entry.node, kBuild, static_cast<int32_t>(index)};
          }
          const size_t ji = rebalance_plan_.RouteProbe(di, hash, index);
          // The augmented split table routes overflow-range tuples
          // "directly to the S' overflow files" (Section 3.2, step 3).
          if (hash >= jstate_[ji].cutoff) {
            SpoolToOverflow(n, ji, /*is_inner=*/false, view.ToTuple());
            return Route::Drop();
          }
          if (filter_ != nullptr) {
            n.ChargeCpu(n.cost().cpu_filter_op_seconds,
                        sim::CostCategory::kFilterOp);
            if (!filter_->MayContain(static_cast<int>(ji), hash)) {
              ++n.counters().filter_drops;
              return Route::Drop();
            }
          }
          return Route{plan_.join_nodes[ji], kProbe,
                       static_cast<int32_t>(ji)};
        };
        RouteScratch scratch(static_cast<size_t>(machine_->num_nodes()));
        return ScanFiles(n, scan, [&](size_t, const storage::TupleBlock& b) {
          RouteBlock(n, source, b, exchange_, &scratch, decide);
        });
      }));

  // Round B: consumers build/probe/append, one inbox lane (= one sender
  // block) at a time. Runs of probe arrivals for the same join process
  // go through the prefetching batched probe; concatenated lane order
  // equals the old consolidated TakeInbox order, so the charge sequence
  // is unchanged.
  phase_status.Update(machine_->TryRunOnNodes(
      Participants(has_stored_buckets), [&](sim::Node& n) -> Status {
        Status st;
        exchange_.DrainInboxBlocks(n.id(), [&](std::vector<RoutedTuple>&
                                                   lane) {
          for (size_t p = 0; p < lane.size();) {
            RoutedTuple& m = lane[p];
            if (m.kind == kProbe) {
              p += HandleProbeRun(n, lane, p);
              continue;
            }
            switch (m.kind) {
              case kBuild:
                HandleBuildArrival(n, static_cast<size_t>(m.aux), m.hash,
                                   storage::Tuple(m.data, m.size));
                break;
              case kBucketInner:
                if (forming_filter_ != nullptr) {
                  // Each receiving disk site contributes its slice as
                  // inner tuples arrive to be stored.
                  n.ChargeCpu(n.cost().cpu_filter_op_seconds,
                              sim::CostCategory::kFilterOp);
                  forming_filter_->Set(
                      static_cast<int>(machine_->DiskIndexOf(n.id())),
                      m.hash);
                }
                [[fallthrough]];
              case kBucketOuter:
                st.Update(buckets->file(m.aux, machine_->DiskIndexOf(n.id()))
                              .AppendRecord(m.data));
                break;
            }
            ++p;
          }
        });
        return st;
      }));

  // End of the build side: materialize the bit filter and record chain
  // statistics before any probing happens. Pure bucket-forming tables
  // (Grace) have no immediate bucket, hence nothing resident to filter
  // ("filtering is only applied during bucket-joining", Section 4.2).
  // With adaptive repartitioning the finalization is deferred into
  // MaybeRebalance (which always runs next): the filter slices are
  // keyed by join-process index, so they must be built from the
  // residency AFTER any heavy-bin migration.
  if (inner && table.HasImmediateBucket()) {
    if (plan_.spec.adaptive_repartition) {
      build_finalize_deferred_ = true;
    } else {
      if (plan_.spec.use_bit_filters) BuildFilterFromResidents();
      CollectChainStats();
    }
  }
  if (inner && forming_filter_ != nullptr && has_stored_buckets) {
    // Gather the forming-filter slices and broadcast the packet to the
    // outer relation's producers before its forming pass starts.
    db::ChargeFilterDistribution(*machine_, static_cast<int>(disks_.size()),
                                 static_cast<int>(disks_.size()));
  }

  // Round C: disk side absorbs overflow spool, result store and bucket
  // flushes.
  phase_status.Update(DrainDiskSides(buckets));
  phase_status.Update(machine_->EndPhase());
  return phase_status;
}

bool HashJoinEngine::AnyOverflow() const {
  for (const JoinNodeState& st : jstate_) {
    if (st.r_overflow != nullptr || st.s_overflow != nullptr) return true;
  }
  return false;
}

uint64_t HashJoinEngine::OverflowLevelSeed(uint64_t base_seed, int level) {
  // "the hash function is changed after each overflow" (Section 4.1).
  // The derivation must mix the LEVEL through the full hash, not just
  // offset the seed: HashJoinAttribute is Mix64(key + seed), so a
  // `base + level` seed makes the level-L hash of key k equal the
  // level-0 hash of key k+L — over a contiguous key domain every level
  // reproduces (a one-key shift of) the level-0 hash multiset, and the
  // heavy cutoff RANGE that overflowed level 0 survives every
  // repartition. Mixing the level gives each level an unrelated hash
  // family; level 0 keeps the caller's seed so HPJA placement still
  // lines up with the loader.
  if (level == 0) return base_seed;
  return Mix64(base_seed ^
               (kDefaultHashSeed * static_cast<uint64_t>(level)));
}

HashJoinEngine::Taken::Taken(std::vector<JoinNodeState>& jstate)
    : r(jstate.size()), s(jstate.size()) {
  for (size_t ji = 0; ji < jstate.size(); ++ji) {
    r[ji] = std::move(jstate[ji].r_overflow);
    s[ji] = std::move(jstate[ji].s_overflow);
  }
}

HashJoinEngine::Taken::~Taken() {
  for (size_t ji = 0; ji < r.size(); ++ji) {
    if (r[ji] != nullptr) r[ji]->Free();
    if (s[ji] != nullptr) s[ji]->Free();
  }
}

Status HashJoinEngine::ScanFiles(
    sim::Node& n, const Scan& scan,
    const std::function<void(size_t, const storage::TupleBlock&)>& yield) {
  for (size_t i = 0; i < scan.files.size(); ++i) {
    storage::HeapFile* file = scan.files[i].get();
    if (file == nullptr || file->node()->id() != n.id()) continue;
    if (scan.taken) {
      GAMMA_RETURN_IF_ERROR(file->FlushAppends());
      broker_.NoteRefill(n.id(), file->data_bytes());
    }
    GAMMA_RETURN_IF_ERROR(ScanBlocks(
        n, *file, exchange_,
        [&](const storage::TupleBlock& block) { yield(i, block); }));
  }
  return Status::OK();
}

Status HashJoinEngine::ResolveOverflows(const std::string& label,
                                        uint64_t base_seed) {
  int level = 0;
  uint64_t prev_inner_tuples = UINT64_MAX;
  while (AnyOverflow()) {
    ++level;
    uint64_t pending_inner_tuples = 0;
    for (const JoinNodeState& js : jstate_) {
      if (js.r_overflow != nullptr) {
        pending_inner_tuples += js.r_overflow->tuple_count();
      }
    }
    // Degrade instead of failing when recursion cannot help: either the
    // depth cap is hit, or the last repartition failed to shrink the
    // inner overflow partition (all tuples share one key, or the budget
    // is smaller than one key-group) — another rehash would loop
    // forever on the same bytes.
    if (level > plan_.spec.max_overflow_levels ||
        pending_inner_tuples >= prev_inner_tuples) {
      return NestedLoopFallback(label,
                                OverflowLevelSeed(base_seed, level));
    }
    prev_inner_tuples = pending_inner_tuples;
    stats_->overflow_levels = std::max(stats_->overflow_levels, level);

    // Every disk node scans the taken files it hosts.
    const Taken taken(jstate_);
    ++overflow_file_counter_;
    const std::string tag = " L" + std::to_string(level);
    GAMMA_RETURN_IF_ERROR(BuildProbe(
        {label + " build" + tag, label + " rebalance" + tag,
         label + " probe" + tag},
        db::SplitTable::Joining(plan_.join_nodes), taken.side(true),
        taken.side(false), OverflowLevelSeed(base_seed, level), nullptr,
        nullptr));
  }
  return Status::OK();
}

Status HashJoinEngine::NestedLoopFallback(const std::string& label,
                                          uint64_t seed) {
  ++stats_->nested_loop_fallbacks;
  const size_t num_processes = jstate_.size();
  int pass = 0;
  while (AnyOverflow()) {
    ++pass;
    ++stats_->nested_loop_passes;

    const Taken taken(jstate_);
    ++overflow_file_counter_;
    StartSubJoin();
    const std::string pass_tag = " P" + std::to_string(pass);

    // One fallback phase: scans every file of `taken` on one side,
    // shipping each tuple to its join process through the routing
    // path's per-tuple read + hash charges (no split table: a fallback
    // tuple's destination is the process whose overflow file held it),
    // then drains every process's arrivals through `consume(n, lane)`.
    const auto run_phase = [&](const char* name, bool inner, RoutedKind kind,
                               const auto& consume) {
      machine_->BeginPhase(label + name + pass_tag);
      db::ChargeOperatorPhase(*machine_, static_cast<int>(disks_.size()),
                              static_cast<int>(num_processes), 0);
      const db::StoredRelation* rel = inner ? plan_.inner : plan_.outer;
      const RouteSource source{
          &rel->schema(),
          inner ? plan_.spec.inner_field : plan_.spec.outer_field, seed,
          nullptr, nullptr};
      Status st = machine_->TryRunOnNodes(disks_, [&](sim::Node& n) -> Status {
        RouteScratch scratch(static_cast<size_t>(machine_->num_nodes()));
        return ScanFiles(
            n, taken.side(inner),
            [&](size_t ji, const storage::TupleBlock& block) {
              const Route owner{plan_.join_nodes[ji], kind,
                                static_cast<int32_t>(ji)};
              RouteBlock(n, source, block, exchange_, &scratch,
                         [&](const storage::TupleView&, uint64_t, uint32_t) {
                           return owner;
                         });
            });
      });
      st.Update(machine_->TryRunOnNodes(
          Participants(false), [&](sim::Node& n) -> Status {
            exchange_.DrainInboxBlocks(
                n.id(),
                [&](std::vector<RoutedTuple>& lane) { consume(n, lane); });
            return Status::OK();
          }));
      st.Update(DrainDiskSides(nullptr));
      st.Update(machine_->EndPhase());
      return st;
    };

    // Build phase: FIFO-fill the resident tables from the remaining R
    // overflow — NO cutoff and NO eviction (the table is just the
    // resident-slice container; a slice is whatever prefix fits).
    // Rejected tuples re-spool for the next pass. One overflow event
    // per (pass, process) that could not take its whole remaining file;
    // per-process flags so concurrent consumer tasks never share a byte.
    std::vector<uint8_t> rejected(num_processes, 0);
    Status fallback_status = run_phase(
        " nl build", /*inner=*/true, kBuild,
        [&](sim::Node& n, std::vector<RoutedTuple>& lane) {
          for (RoutedTuple& m : lane) {
            const size_t ji = static_cast<size_t>(m.aux);
            storage::Tuple t(m.data, m.size);
            if (!jstate_[ji].table->Insert(std::move(t), m.hash)) {
              if (rejected[ji] == 0) {
                rejected[ji] = 1;
                ++n.counters().ht_overflows;
              }
              SpoolToOverflow(n, ji, /*is_inner=*/true, std::move(t));
            }
          }
        });
    CollectChainStats();

    // Which processes still hold un-resident R? Their S must survive
    // this pass: every probe of theirs is re-spooled after probing.
    std::vector<uint8_t> residual(num_processes, 0);
    for (size_t ji = 0; ji < num_processes; ++ji) {
      if (jstate_[ji].r_overflow != nullptr) {
        residual[ji] = 1;
        EnsureOverflowFile(ji, /*is_inner=*/false);
      }
    }

    // Probe phase: the FULL remaining S probes the resident slice. A
    // result pair (r, s) is produced in exactly one pass — the one
    // where r is resident — because slices partition the R overflow.
    if (fallback_status.ok()) {
      fallback_status = run_phase(
          " nl probe", /*inner=*/false, kProbe,
          [&](sim::Node& n, std::vector<RoutedTuple>& lane) {
            for (size_t p = 0; p < lane.size();) {
              const size_t ji = static_cast<size_t>(lane[p].aux);
              const size_t len = HandleProbeRun(n, lane, p);
              if (residual[ji] != 0) {
                for (size_t k = p; k < p + len; ++k) {
                  SpoolToOverflow(n, ji, /*is_inner=*/false,
                                  storage::Tuple(lane[k].data, lane[k].size));
                }
              }
              p += len;
            }
          });
    }
    GAMMA_RETURN_IF_ERROR(fallback_status);
  }
  return Status::OK();
}

Status HashJoinEngine::BuildProbe(const PhaseLabels& labels,
                                  const db::SplitTable& table, const Scan& r,
                                  const Scan& s, uint64_t seed,
                                  BucketFileSet* r_buckets,
                                  BucketFileSet* s_buckets) {
  const bool live = table.HasImmediateBucket();
  if (live) StartSubJoin();
  GAMMA_RETURN_IF_ERROR(
      PartitionPhase(labels.build, table, r, seed, /*inner=*/true, r_buckets));
  // Adaptive repartitioning happens before S is scanned, so an
  // overridden bin's probe tuples route straight to their new homes.
  if (live) GAMMA_RETURN_IF_ERROR(MaybeRebalance(labels.rebalance));
  return PartitionPhase(labels.probe, table, s, seed, /*inner=*/false,
                        s_buckets);
}

Status HashJoinEngine::Run() {
  const JoinSpec& spec = plan_.spec;
  const uint64_t seed = spec.hash_seed;
  // The two per-algorithm inputs: the split table — Hybrid's joins
  // bucket 0 at the join processes while it stores buckets 1..N-1 on
  // the disks, Simple's is Hybrid's with one bucket, and Grace's stores
  // every bucket — and the row of phase labels.
  const db::SplitTable table =
      spec.algorithm == Algorithm::kGraceHash
          ? db::SplitTable::GracePartitioning(disks_, plan_.num_buckets)
          : db::SplitTable::HybridPartitioning(plan_.join_nodes, disks_,
                                               plan_.num_buckets);
  GAMMA_DCHECK(spec.algorithm != Algorithm::kSortMerge);
  const AlgorithmLabels& labels =
      kAlgorithmLabels[static_cast<int>(spec.algorithm) -
                       static_cast<int>(Algorithm::kSimpleHash)];
  const std::string name = labels.name;
  const int stored = table.MaxBucket();
  BucketFileSet r_buckets(machine_, &plan_.inner->schema(), stored,
                          name + ".R");
  BucketFileSet s_buckets(machine_, &plan_.outer->schema(), stored,
                          name + ".S");

  // Partitioning R builds bucket 0's hash tables while it stores the
  // other buckets; partitioning S probes them.
  GAMMA_RETURN_IF_ERROR(BuildProbe(
      {labels.build, labels.rebalance, labels.probe}, table,
      Scan{plan_.inner->fragments(), &spec.inner_predicate},
      Scan{plan_.outer->fragments(), &spec.outer_predicate}, seed,
      &r_buckets, &s_buckets));
  GAMMA_RETURN_IF_ERROR(ResolveOverflows(labels.overflow, seed));

  // Each stored bucket is an independent sub-join.
  const db::SplitTable joining = db::SplitTable::Joining(plan_.join_nodes);
  for (int b = 1; b <= stored; ++b) {
    const std::string sub = name + " bucket " + std::to_string(b);
    GAMMA_RETURN_IF_ERROR(BuildProbe(
        {sub + " build", sub + " rebalance", sub + " probe"}, joining,
        Scan{r_buckets.Bucket(b)}, Scan{s_buckets.Bucket(b)}, seed, nullptr,
        nullptr));
    GAMMA_RETURN_IF_ERROR(ResolveOverflows(sub + " ovfl", seed));
    r_buckets.FreeBucket(b);
    s_buckets.FreeBucket(b);
  }

  // One final phase flushes the result relation's partial pages.
  machine_->BeginPhase("store flush");
  Status flush_status =
      machine_->TryRunOnNodes(disks_, [this](sim::Node& n) -> Status {
        return plan_.result->fragment(machine_->DiskIndexOf(n.id()))
            .FlushAppends();
      });
  flush_status.Update(machine_->EndPhase());
  GAMMA_RETURN_IF_ERROR(flush_status);
  stats_->spill_bytes = static_cast<int64_t>(broker_.TotalSpillBytes());
  stats_->refill_bytes = static_cast<int64_t>(broker_.TotalRefillBytes());
  return Status::OK();
}

}  // namespace gammadb::join
