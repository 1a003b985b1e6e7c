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

HashJoinEngine::HashJoinEngine(sim::Machine* machine, Config config)
    : machine_(machine),
      config_(std::move(config)),
      disks_(machine->DiskNodeIds()),
      exchange_(machine),
      overflow_exchange_(machine),
      store_exchange_(machine) {
  GAMMA_CHECK(!config_.join_nodes.empty());
  GAMMA_CHECK(config_.result != nullptr);
  GAMMA_CHECK(config_.stats != nullptr);
  jstate_.resize(config_.join_nodes.size());
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
    for (int join_id : config_.join_nodes) {
      if (join_id == disk) claimed = true;
    }
    if (!claimed) free_disks.push_back(disk);
  }
  if (free_disks.empty()) free_disks = disks_;
  size_t next_free = 1 % free_disks.size();  // offset breaks alignment
  for (size_t ji = 0; ji < jstate_.size(); ++ji) {
    const sim::Node& join_node = machine_->node(config_.join_nodes[ji]);
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
  std::vector<int> ids = config_.join_nodes;
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
          &machine_->node(config_.join_nodes[ji]), config_.inner_schema,
          config_.inner_field, config_.capacity_bytes_per_node,
          config_.broker);
    } else {
      st.table->Clear();
    }
  }
}

void HashJoinEngine::EnsureOverflowFile(size_t ji, bool is_inner) {
  JoinNodeState& st = jstate_[ji];
  auto& slot = is_inner ? st.r_overflow : st.s_overflow;
  if (slot == nullptr) {
    const storage::Schema* schema =
        is_inner ? config_.inner_schema : config_.outer_schema;
    slot = std::make_unique<storage::HeapFile>(
        &machine_->node(st.host_disk_node), schema,
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
  config_.broker->NoteSpill(from.id(), bytes);
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

void HashJoinEngine::HandleProbeBatch(sim::Node& n, size_t ji,
                                      const RoutedTuple* msgs, size_t count) {
  GAMMA_DCHECK(count <= JoinHashTable::kProbeBatchMax);
  JoinNodeState& st = jstate_[ji];
  int32_t keys[JoinHashTable::kProbeBatchMax];
  uint64_t hashes[JoinHashTable::kProbeBatchMax];
  // Key extraction is uncharged (as in the scalar probe path); hoisting
  // it out of the probe loop lets ProbeBatch prefetch every probe's
  // index line before the first compare.
  const storage::Schema& schema = *config_.outer_schema;
  const size_t field = static_cast<size_t>(config_.outer_field);
  for (size_t k = 0; k < count; ++k) {
    keys[k] = schema.GetInt32(msgs[k].data, field);
    hashes[k] = msgs[k].hash;
  }
  st.table->ProbeBatch(
      keys, hashes, count, [&](size_t k, const storage::Tuple& r) {
        EmitResult(n, storage::Tuple::Concat(r, msgs[k].data, msgs[k].size),
                   &st.store_rr_next, disks_, store_exchange_);
      });
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
                           config_.result, *config_.inner_schema,
                           config_.inner_field, config_.capture));
    if (buckets != nullptr) st.Update(buckets->FlushFilesOwnedBy(n.id()));
    return st;
  });
}

void HashJoinEngine::BuildFilterFromResidents() {
  filter_ = std::make_unique<db::BitFilterSet>(
      static_cast<int>(config_.join_nodes.size()));
  // Iterate PROCESSES grouped by node (a node may host several).
  machine_->RunOnNodes(Participants(false), [this](sim::Node& n) {
    for (size_t ji = 0; ji < jstate_.size(); ++ji) {
      if (config_.join_nodes[ji] != n.id()) continue;
      jstate_[ji].table->ForEachResidentHash([&](uint64_t hash) {
        n.ChargeCpu(n.cost().cpu_filter_op_seconds,
                    sim::CostCategory::kFilterOp);
        filter_->Set(static_cast<int>(ji), hash);
      });
    }
  });
  db::ChargeFilterDistribution(*machine_,
                               static_cast<int>(config_.join_nodes.size()),
                               static_cast<int>(disks_.size()));
}

void HashJoinEngine::CollectChainStats() {
  for (const JoinNodeState& st : jstate_) {
    const JoinHashTable::ChainStats cs = st.table->ComputeChainStats();
    chain_tuples_total_ += cs.tuples;
    chain_slots_total_ += cs.occupied_slots;
    config_.stats->max_chain_length =
        std::max(config_.stats->max_chain_length, cs.max);
  }
  if (chain_slots_total_ > 0) {
    config_.stats->avg_chain_length =
        static_cast<double>(chain_tuples_total_) /
        static_cast<double>(chain_slots_total_);
  }
}

Status HashJoinEngine::MaybeRebalance(const std::string& label) {
  if (!config_.adaptive_repartition) return Status::OK();
  const size_t num_processes = jstate_.size();
  machine_->BeginPhase(label);

  // Each join site scans its resident histogram and ships the counts to
  // the scheduler.
  const std::vector<std::vector<uint64_t>> counts = db::GatherBinCounts(
      *machine_, config_.join_nodes,
      [this](size_t ji) -> const HashHistogram& {
        return jstate_[ji].table->histogram();
      });

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
        st.table->bytes_used() > config_.capacity_bytes_per_node) {
      keep_static = true;
    }
  }
  rebalance_plan_ = db::RebalancePlan{};
  if (!keep_static) {
    rebalance_plan_ = db::ComputeRebalancePlan(
        counts, config_.inner_schema->tuple_bytes(),
        config_.capacity_bytes_per_node, db::RebalanceOptions{});
  }
  db::ChargeRebalance(*machine_, static_cast<int>(num_processes),
                      static_cast<int>(disks_.size()),
                      rebalance_plan_.SerializedBytes());

  if (rebalance_plan_.active) {
    ++machine_->node(config_.join_nodes[0]).counters().rebalance_plans;
    rebalance_plan_.Install(disks_.size());

    // Round A: every process extracts its overridden-bin residents and
    // ships a view to each destination (possibly itself — a
    // short-circuited local delivery). The extracted tuples are parked
    // in `migrated` so the views stay valid until round B drains them;
    // replicas share one backing tuple.
    std::vector<std::vector<std::pair<uint64_t, storage::Tuple>>> migrated(
        num_processes);
    machine_->RunOnNodes(Participants(false), [&](sim::Node& n) {
      for (size_t ji = 0; ji < num_processes; ++ji) {
        if (config_.join_nodes[ji] != n.id()) continue;
        migrated[ji] = jstate_[ji].table->ExtractIf([&](uint64_t hash) {
          return rebalance_plan_.DestinationsFor(hash) != nullptr;
        });
        for (const auto& [hash, tuple] : migrated[ji]) {
          const std::vector<int>& dests =
              *rebalance_plan_.DestinationsFor(hash);
          ++n.counters().rebalance_moved_tuples;
          n.counters().rebalance_replica_tuples +=
              static_cast<int64_t>(dests.size()) - 1;
          for (size_t k = 0; k < dests.size(); ++k) {
            exchange_.Send(
                n.id(), config_.join_nodes[static_cast<size_t>(dests[k])],
                RoutedTuple{tuple.data(), tuple.size(), hash, kMigrate,
                            dests[k]},
                tuple.size());
          }
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
    if (config_.use_bit_filters) BuildFilterFromResidents();
    CollectChainStats();
  }
  return machine_->EndPhase();
}

Status HashJoinEngine::PartitionPhase(const std::string& label,
                                      const db::SplitTable& table,
                                      const std::vector<Producer>& producers,
                                      uint64_t seed, Side side,
                                      BucketFileSet* buckets) {
  GAMMA_CHECK_EQ(producers.size(), disks_.size());
  const bool has_stored_buckets = table.MaxBucket() > 0;
  if (has_stored_buckets && buckets == nullptr) {
    return Status::InvalidArgument(
        "split table has stored buckets but no bucket files given");
  }

  if (side == Side::kOuter) {
    // Pre-create S-overflow files for every join node whose hash table
    // overflowed (the producers ship straight to them).
    for (size_t ji = 0; ji < jstate_.size(); ++ji) {
      if (jstate_[ji].cutoff != UINT64_MAX) EnsureOverflowFile(ji, false);
    }
  } else if (has_stored_buckets && config_.use_bit_filters &&
             config_.use_forming_bit_filters) {
    forming_filter_ =
        std::make_unique<db::BitFilterSet>(static_cast<int>(disks_.size()));
  }

  machine_->BeginPhase(label);
  const int consumers =
      static_cast<int>(config_.join_nodes.size()) +
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
  const bool inner = side == Side::kInner;
  phase_status.Update(machine_->TryRunOnNodes(
      disks_, [&](sim::Node& n) -> Status {
        const size_t di = machine_->DiskIndexOf(n.id());
        const RouteSource source{
            inner ? config_.inner_schema : config_.outer_schema,
            inner ? config_.inner_field : config_.outer_field, seed, &table,
            producers[di].predicate};
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
          GAMMA_DCHECK(config_.join_nodes[index] == entry.node);
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
          return Route{config_.join_nodes[ji], kProbe,
                       static_cast<int32_t>(ji)};
        };
        RouteScratch scratch(static_cast<size_t>(machine_->num_nodes()));
        return producers[di].scan(n, [&](const storage::TupleBlock& block) {
          RouteBlock(n, source, block, exchange_, &scratch, decide);
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
          const size_t items = lane.size();
          for (size_t p = 0; p < items;) {
            RoutedTuple& m = lane[p];
            if (m.kind == kProbe) {
              size_t len = 1;
              while (p + len < items && len < JoinHashTable::kProbeBatchMax &&
                     lane[p + len].kind == kProbe &&
                     lane[p + len].aux == m.aux) {
                ++len;
              }
              HandleProbeBatch(n, static_cast<size_t>(m.aux), &lane[p], len);
              p += len;
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
    if (config_.adaptive_repartition) {
      build_finalize_deferred_ = true;
    } else {
      if (config_.use_bit_filters) BuildFilterFromResidents();
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

Status HashJoinEngine::ScanTaken(
    sim::Node& n, const Taken& taken, bool inner_side,
    const std::function<void(size_t, const storage::TupleBlock&)>& yield) {
  for (size_t ji = 0; ji < jstate_.size(); ++ji) {
    if (jstate_[ji].host_disk_node != n.id()) continue;
    storage::HeapFile* file =
        inner_side ? taken.r[ji].get() : taken.s[ji].get();
    if (file == nullptr) continue;
    GAMMA_RETURN_IF_ERROR(file->FlushAppends());
    config_.broker->NoteRefill(n.id(), file->data_bytes());
    GAMMA_RETURN_IF_ERROR(ScanBlocks(
        n, *file, exchange_,
        [&](const storage::TupleBlock& block) { yield(ji, block); }));
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
    if (level > config_.max_overflow_levels ||
        pending_inner_tuples >= prev_inner_tuples) {
      return NestedLoopFallback(label,
                                OverflowLevelSeed(base_seed, level));
    }
    prev_inner_tuples = pending_inner_tuples;
    config_.stats->overflow_levels =
        std::max(config_.stats->overflow_levels, level);

    const Taken taken(jstate_);
    ++overflow_file_counter_;
    StartSubJoin();
    const uint64_t seed = OverflowLevelSeed(base_seed, level);
    const db::SplitTable joining = db::SplitTable::Joining(config_.join_nodes);
    // Every disk node's producer scans the taken files it hosts.
    const auto producers = [&](bool inner_side) {
      const Producer scan_taken{
          [this, &taken, inner_side](sim::Node& n, const BlockYield& yield) {
            return ScanTaken(n, taken, inner_side,
                             [&](size_t, const storage::TupleBlock& block) {
                               yield(block);
                             });
          },
          nullptr};
      return std::vector<Producer>(disks_.size(), scan_taken);
    };

    const std::string level_tag = " L" + std::to_string(level);
    GAMMA_RETURN_IF_ERROR(PartitionPhase(label + " build" + level_tag,
                                         joining, producers(true), seed,
                                         Side::kInner, nullptr));
    GAMMA_RETURN_IF_ERROR(MaybeRebalance(label + " rebalance" + level_tag));
    GAMMA_RETURN_IF_ERROR(PartitionPhase(label + " probe" + level_tag,
                                         joining, producers(false), seed,
                                         Side::kOuter, nullptr));
  }
  return Status::OK();
}

Status HashJoinEngine::NestedLoopFallback(const std::string& label,
                                          uint64_t seed) {
  ++config_.stats->nested_loop_fallbacks;
  const size_t num_processes = jstate_.size();
  int pass = 0;
  while (AnyOverflow()) {
    ++pass;
    ++config_.stats->nested_loop_passes;

    const Taken taken(jstate_);
    ++overflow_file_counter_;
    StartSubJoin();
    const std::string pass_tag = " P" + std::to_string(pass);
    Status fallback_status;

    // Scans every file of `taken` on one side, shipping each tuple to
    // its join process through the routing path's per-tuple read + hash
    // charges. No split table: a fallback tuple's destination is the
    // process whose overflow file held it.
    const auto run_scan_round = [&](bool inner_side, RoutedKind kind) {
      const RouteSource source{
          inner_side ? config_.inner_schema : config_.outer_schema,
          inner_side ? config_.inner_field : config_.outer_field, seed,
          nullptr, nullptr};
      return machine_->TryRunOnNodes(disks_, [&](sim::Node& n) -> Status {
        RouteScratch scratch(static_cast<size_t>(machine_->num_nodes()));
        return ScanTaken(
            n, taken, inner_side,
            [&](size_t ji, const storage::TupleBlock& block) {
              const Route owner{config_.join_nodes[ji], kind,
                                static_cast<int32_t>(ji)};
              RouteBlock(n, source, block, exchange_, &scratch,
                         [&](const storage::TupleView&, uint64_t, uint32_t) {
                           return owner;
                         });
            });
      });
    };

    // Build phase: FIFO-fill the resident tables from the remaining R
    // overflow — NO cutoff and NO eviction (the table is just the
    // resident-slice container; a slice is whatever prefix fits).
    // Rejected tuples re-spool for the next pass.
    machine_->BeginPhase(label + " nl build" + pass_tag);
    db::ChargeOperatorPhase(*machine_, static_cast<int>(disks_.size()),
                            static_cast<int>(num_processes), 0);
    fallback_status.Update(run_scan_round(true, kBuild));
    // One overflow event per (pass, process) that could not take its
    // whole remaining file; per-process flags so concurrent consumer
    // tasks never share a byte.
    std::vector<uint8_t> rejected(num_processes, 0);
    fallback_status.Update(machine_->TryRunOnNodes(
        Participants(false), [&](sim::Node& n) -> Status {
          exchange_.DrainInboxBlocks(
              n.id(), [&](std::vector<RoutedTuple>& lane) {
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
          return Status::OK();
        }));
    fallback_status.Update(DrainDiskSides(nullptr));
    CollectChainStats();
    fallback_status.Update(machine_->EndPhase());

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
      machine_->BeginPhase(label + " nl probe" + pass_tag);
      db::ChargeOperatorPhase(*machine_, static_cast<int>(disks_.size()),
                              static_cast<int>(num_processes), 0);
      fallback_status.Update(run_scan_round(false, kProbe));
      fallback_status.Update(machine_->TryRunOnNodes(
          Participants(false), [&](sim::Node& n) -> Status {
            exchange_.DrainInboxBlocks(
                n.id(), [&](std::vector<RoutedTuple>& lane) {
                  const size_t items = lane.size();
                  for (size_t p = 0; p < items;) {
                    const RoutedTuple& m = lane[p];
                    size_t len = 1;
                    while (p + len < items &&
                           len < JoinHashTable::kProbeBatchMax &&
                           lane[p + len].aux == m.aux) {
                      ++len;
                    }
                    const size_t ji = static_cast<size_t>(m.aux);
                    HandleProbeBatch(n, ji, &lane[p], len);
                    if (residual[ji] != 0) {
                      for (size_t k = 0; k < len; ++k) {
                        SpoolToOverflow(n, ji, /*is_inner=*/false,
                                        storage::Tuple(lane[p + k].data,
                                                       lane[p + k].size));
                      }
                    }
                    p += len;
                  }
                });
            return Status::OK();
          }));
      fallback_status.Update(DrainDiskSides(nullptr));
      fallback_status.Update(machine_->EndPhase());
    }
    GAMMA_RETURN_IF_ERROR(fallback_status);
  }
  return Status::OK();
}

Status HashJoinEngine::RunSubJoin(const std::string& label,
                                  const std::vector<Producer>& build_producers,
                                  const std::vector<Producer>& probe_producers,
                                  uint64_t seed) {
  StartSubJoin();
  const db::SplitTable joining = db::SplitTable::Joining(config_.join_nodes);
  GAMMA_RETURN_IF_ERROR(PartitionPhase(label + " build", joining,
                                     build_producers, seed, Side::kInner,
                                     nullptr));
  GAMMA_RETURN_IF_ERROR(MaybeRebalance(label + " rebalance"));
  GAMMA_RETURN_IF_ERROR(PartitionPhase(label + " probe", joining,
                                     probe_producers, seed, Side::kOuter,
                                     nullptr));
  return ResolveOverflows(label + " ovfl", seed);
}

std::vector<Producer> HashJoinEngine::BucketProducers(BucketFileSet* files,
                                                      int bucket) {
  std::vector<Producer> producers;
  producers.reserve(disks_.size());
  for (size_t di = 0; di < disks_.size(); ++di) {
    producers.push_back(Producer{
        [this, files, bucket, di](sim::Node& n, const BlockYield& yield) {
          return ScanBlocks(n, files->file(bucket, di), exchange_, yield);
        },
        nullptr});
  }
  return producers;
}

std::vector<Producer> HashJoinEngine::RelationProducers(
    const db::StoredRelation* relation, const db::PredicateList* predicate) {
  GAMMA_CHECK_EQ(relation->num_fragments(), disks_.size());
  std::vector<Producer> producers;
  producers.reserve(disks_.size());
  for (size_t di = 0; di < disks_.size(); ++di) {
    // The predicate rides on the Producer; RouteBlock evaluates and
    // charges it per tuple between the read and route charges, exactly
    // where the scalar producer loop charged it.
    producers.push_back(Producer{
        [this, relation, di](sim::Node& n, const BlockYield& yield) {
          return ScanBlocks(n, relation->fragment(di), exchange_, yield);
        },
        predicate});
  }
  return producers;
}

Status HashJoinEngine::FinalizeResult() {
  machine_->BeginPhase("store flush");
  Status flush_status =
      machine_->TryRunOnNodes(disks_, [this](sim::Node& n) -> Status {
        return config_.result->fragment(machine_->DiskIndexOf(n.id()))
            .FlushAppends();
      });
  flush_status.Update(machine_->EndPhase());
  return flush_status;
}

}  // namespace gammadb::join
