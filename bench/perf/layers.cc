// The traced run (--trace-layers): measures each layer of a workload's
// joins from outside. The workload's loaded relations are replayed
// through each layer's public functions, at the workload's thread count
// and with its split tables, budgets and overflow counts, inside nested
// spans (spans.h). A layer metric is the median over kPasses passes of
// the summed self time of that layer's spans; a pass replays every
// layer once per join of the workload's pass. Count metrics come from
// the joins' own RunMetrics / JoinStats. README.md documents every
// metric.
#include <algorithm>
#include <array>
#include <climits>
#include <cstdio>

#include "common/hash.h"
#include "gamma/loader.h"
#include "gamma/split_table.h"
#include "join/hash_table.h"
#include "perf/perf_suite.h"
#include "perf/spans.h"
#include "sim/exchange.h"
#include "sim/memory_broker.h"
#include "sim/metrics_json.h"
#include "sim/trace.h"
#include "storage/external_sort.h"
#include "storage/heap_file.h"
#include "storage/tuple_block.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::perf {

namespace {

constexpr int kPasses = 5;
/// HashJoinEngine's overflow rule (src/join/hash_engine.cc): each
/// overflow event evicts at the histogram cutoff freeing ~10% of the
/// table.
constexpr double kClearFraction = 0.10;
constexpr int kBarrierRounds = 2000;
constexpr int kChargeCalls = 1 << 22;
constexpr size_t kBlock = storage::TupleBlock::kCapacity;
constexpr size_t kInner = 0;
constexpr size_t kOuter = 1;

/// The engine's 32-byte routed view (HashJoinEngine::RoutedTuple is
/// private): what the exchange ships and what a join node receives.
struct RoutedView {
  const uint8_t* data;
  uint32_t size;
  uint64_t hash;
  uint8_t kind;
  int32_t aux;
};
static_assert(sizeof(RoutedView) == 32);

template <typename T>
using PerSide = std::array<std::vector<std::vector<T>>, 2>;  // [side][disk]

/// Layer parameters of one join of the pass.
struct LayerShape {
  db::SplitTable table;  // the join's first split table
  bool hash_join;
  /// Per-node hash-table budget times the bucket count: one replayed
  /// table holds what the bucket sub-joins hold one at a time.
  uint64_t capacity_bytes;
  uint32_t sort_pages;                  // sort-merge workspace per node
  std::vector<int64_t> overflows;       // overflow events per disk node
  std::vector<uint64_t> result_rows;    // result records per disk node
  /// Spilled records per disk node. Sized from JoinStats::refill_bytes:
  /// every spilled byte is refilled once, and spill_bytes itself is not
  /// reproducible at more than one thread (README.md, "Known issues").
  std::vector<uint64_t> spill_rows;
};

/// `total` split round-robin over `parts` (the engines' result routing).
std::vector<uint64_t> RoundRobin(uint64_t total, size_t parts) {
  std::vector<uint64_t> out(parts, total / parts);
  for (size_t i = 0; i < total % parts; ++i) ++out[i];
  return out;
}

/// The traced run's state: the loaded workload plus replay inputs that
/// are computed once, before any span opens.
class Replay {
 public:
  Replay(const Workload& workload, std::unique_ptr<Env> env, SpanLog* log,
         Checker* checker)
      : workload_(workload),
        env_(std::move(env)),
        machine_(*env_->machine),
        log_(log),
        checker_(checker),
        disks_(machine_.DiskNodeIds()),
        field_(JoinField(workload)),
        result_schema_(storage::Schema::Concat(env_->inner->schema(),
                                               env_->outer->schema())) {}

  Env& env() { return *env_; }

  /// Collects the page views, join-phase arrivals and layer shapes.
  void Prepare(const std::vector<Verified>& verified);

  /// One pass: every layer replayed for every join of the workload.
  void ReplayLayers(int pass);

  const std::vector<double>& scan_task_seconds() const { return scan_task_; }

 private:
  const db::StoredRelation& Relation(size_t side) const {
    return side == kInner ? *env_->inner : *env_->outer;
  }
  /// Tuples of both relations stored on disk node `di`.
  size_t TuplesOn(size_t di) const {
    return views_[kInner][di].size() + views_[kOuter][di].size();
  }

  void Scan(int pass);
  void Route(const LayerShape& shape, int pass);
  void ExchangeViews(int pass);
  void BuildAndProbe(const LayerShape& shape, int pass);
  void Evict(const LayerShape& shape, int pass);
  void Store(const LayerShape& shape, int pass);
  void Sort(const LayerShape& shape, int pass);
  void Barrier(int pass);
  void Charge(int pass);

  /// Grants every disk node the shape's budget, as join::ExecuteJoin does.
  void AddBudgets(const LayerShape& shape, sim::MemoryBroker* broker) const;

  const Workload& workload_;
  std::unique_ptr<Env> env_;
  sim::Machine& machine_;
  SpanLog* log_;
  Checker* checker_;
  std::vector<int> disks_;  // node id == disk index on the local config
  int field_;
  storage::Schema result_schema_;
  std::vector<LayerShape> shapes_;

  PerSide<storage::TupleView> views_;  // each fragment, in scan order
  PerSide<RoutedView> arrivals_;       // at each join node, exchange order
  PerSide<uint64_t> hashes_;           // route replay output
  PerSide<int32_t> dests_;             // route replay output
  std::vector<std::vector<uint8_t>> result_records_;  // one per disk node
  std::vector<double> scan_task_;  // per-node scan task seconds, this pass
};

void Replay::Prepare(const std::vector<Verified>& verified) {
  const size_t d = disks_.size();
  machine_.BeginPhase("perf prepare");
  for (size_t side : {kInner, kOuter}) {
    views_[side].assign(d, {});
    arrivals_[side].assign(d, {});
    hashes_[side].assign(d, {});
    dests_[side].assign(d, {});
  }
  machine_.RunOnNodes(disks_, [&](sim::Node& n) {
    const auto di = static_cast<size_t>(n.id());
    for (size_t side : {kInner, kOuter}) {
      auto scanner = Relation(side).fragment(di).Scan();
      storage::TupleBlock block;
      while (scanner.NextBlock(&block)) {
        for (size_t i = 0; i < block.size(); ++i) {
          views_[side][di].push_back(block.view(i));
        }
      }
      hashes_[side][di].resize(views_[side][di].size());
      dests_[side][di].resize(views_[side][di].size());
    }
  });
  checker_->Begin();
  checker_->Expect(machine_.EndPhase().ok(), "prepare phase");

  // Join-phase arrivals: every join routes its (sub-)join tuples with a
  // joining table over the disk nodes, whatever its first split table.
  const db::SplitTable joining = db::SplitTable::Joining(disks_);
  for (size_t side : {kInner, kOuter}) {
    const storage::Schema& schema = Relation(side).schema();
    for (size_t src = 0; src < d; ++src) {
      for (const storage::TupleView& v : views_[side][src]) {
        const uint64_t hash = HashJoinAttribute(
            schema.GetInt32(v.data, static_cast<size_t>(field_)));
        const int dest = joining.Route(hash).node;
        arrivals_[side][static_cast<size_t>(dest)].push_back(
            {v.data, v.size, hash, static_cast<uint8_t>(side), dest});
      }
    }
  }
  for (size_t di = 0; di < d; ++di) {
    std::vector<uint8_t> record(result_schema_.tuple_bytes(), 0);
    if (!arrivals_[kInner][di].empty() && !views_[kOuter][di].empty()) {
      const RoutedView& r = arrivals_[kInner][di].front();
      const storage::TupleView& s = views_[kOuter][di].front();
      std::copy(r.data, r.data + r.size, record.begin());
      std::copy(s.data, s.data + s.size, record.begin() + r.size);
    }
    result_records_.push_back(std::move(record));
  }

  const uint64_t inner_bytes = env_->inner->total_bytes();
  const uint32_t tuple_bytes = env_->inner->schema().tuple_bytes();
  for (size_t s = 0; s < workload_.shapes.size(); ++s) {
    const Shape& shape = workload_.shapes[s];
    const join::JoinStats& stats = verified[s].stats;
    const auto memory_bytes = static_cast<uint64_t>(
        shape.memory_ratio * static_cast<double>(inner_bytes));
    const int buckets = std::max(1, stats.num_buckets);
    db::SplitTable table = db::SplitTable::Joining(disks_);
    if (shape.algorithm == join::Algorithm::kGraceHash) {
      table = db::SplitTable::GracePartitioning(disks_, buckets);
    } else if (shape.algorithm == join::Algorithm::kHybridHash) {
      table = db::SplitTable::HybridPartitioning(disks_, disks_, buckets);
    }
    // The per-node budget join::ExecuteJoin computes.
    const auto capacity = static_cast<uint64_t>(
        static_cast<double>(memory_bytes) / static_cast<double>(d) *
        (1.0 + workload_.memory_slack));
    shapes_.push_back(LayerShape{
        std::move(table), shape.algorithm != join::Algorithm::kSortMerge,
        capacity * static_cast<uint64_t>(buckets),
        static_cast<uint32_t>(std::max<uint64_t>(
            3, memory_bytes / d / machine_.cost().page_bytes)),
        verified[s].node_overflows,
        RoundRobin(workload_.inner_tuples, d),
        RoundRobin(static_cast<uint64_t>(stats.refill_bytes) / tuple_bytes,
                   d)});
    shapes_.back().overflows.resize(d, 0);
  }
  machine_.ResetMetrics();
}

void Replay::ReplayLayers(int pass) {
  scan_task_.assign(disks_.size(), 0);
  machine_.BeginPhase("perf layer replay");
  for (const LayerShape& shape : shapes_) {
    Scan(pass);
    Route(shape, pass);
    ExchangeViews(pass);
    BuildAndProbe(shape, pass);
    Evict(shape, pass);
    Store(shape, pass);
    Sort(shape, pass);
  }
  Barrier(pass);
  Charge(pass);
  checker_->Begin();
  checker_->Expect(machine_.EndPhase().ok(), "layer replay phase");
  machine_.ResetMetrics();
}

void Replay::Scan(int pass) {
  const size_t d = disks_.size();
  std::vector<size_t> scanned(d, 0);
  std::vector<char> healthy(d, 1);
  {
    ScopedSpan span(log_, "storage.scan", pass);
    machine_.RunOnNodes(disks_, [&](sim::Node& n) {
      const auto di = static_cast<size_t>(n.id());
      const double start = NowSeconds();
      for (size_t side : {kInner, kOuter}) {
        auto scanner = Relation(side).fragment(di).Scan();
        storage::TupleBlock block;
        while (scanner.NextBlock(&block)) scanned[di] += block.size();
        if (!scanner.status().ok()) healthy[di] = 0;
      }
      scan_task_[di] += NowSeconds() - start;
    });
  }
  checker_->Begin();
  for (size_t di = 0; di < d; ++di) {
    checker_->Expect(healthy[di] != 0 && scanned[di] == TuplesOn(di),
                     "scan replay read every tuple of every fragment");
  }
}

void Replay::Route(const LayerShape& shape, int pass) {
  ScopedSpan span(log_, "gamma.route", pass);
  machine_.RunOnNodes(disks_, [&](sim::Node& n) {
    const auto di = static_cast<size_t>(n.id());
    std::array<uint32_t, kBlock> index;
    for (size_t side : {kInner, kOuter}) {
      const storage::Schema& schema = Relation(side).schema();
      const std::vector<storage::TupleView>& views = views_[side][di];
      uint64_t* hashes = hashes_[side][di].data();
      int32_t* dests = dests_[side][di].data();
      for (size_t begin = 0; begin < views.size(); begin += kBlock) {
        const size_t count = std::min(kBlock, views.size() - begin);
        for (size_t i = 0; i < count; ++i) {
          hashes[begin + i] = HashJoinAttribute(schema.GetInt32(
              views[begin + i].data, static_cast<size_t>(field_)));
        }
        shape.table.RouteIndices(hashes + begin, count, index.data());
        for (size_t i = 0; i < count; ++i) {
          dests[begin + i] = shape.table.entry(index[i]).node;
        }
      }
    }
  });
}

void Replay::ExchangeViews(int pass) {
  const size_t d = disks_.size();
  std::vector<uint64_t> received(d, 0);
  {
    ScopedSpan span(log_, "sim.exchange", pass);
    sim::Exchange<RoutedView> exchange(&machine_);
    machine_.RunOnNodes(disks_, [&](sim::Node& n) {
      const auto di = static_cast<size_t>(n.id());
      const int src = n.id();
      std::vector<uint32_t> counts(static_cast<size_t>(machine_.num_nodes()));
      std::vector<uint32_t> starts(counts.size());
      std::array<RoutedView, kBlock> staged;
      for (size_t side : {kInner, kOuter}) {
        const std::vector<storage::TupleView>& views = views_[side][di];
        const uint64_t* hashes = hashes_[side][di].data();
        const int32_t* dests = dests_[side][di].data();
        exchange.ReserveRow(src, views.size());
        // Per scan block, as RouteBlock does: account every tuple, then
        // counting-sort the views by destination and append each
        // destination's run with one SendBatch.
        for (size_t begin = 0; begin < views.size(); begin += kBlock) {
          const size_t count = std::min(kBlock, views.size() - begin);
          std::fill(counts.begin(), counts.end(), 0);
          for (size_t i = begin; i < begin + count; ++i) {
            exchange.Account(src, dests[i], views[i].size);
            ++counts[static_cast<size_t>(dests[i])];
          }
          uint32_t offset = 0;
          for (size_t dst = 0; dst < counts.size(); ++dst) {
            starts[dst] = offset;
            offset += counts[dst];
          }
          for (size_t i = begin; i < begin + count; ++i) {
            staged[starts[static_cast<size_t>(dests[i])]++] = {
                views[i].data, views[i].size, hashes[i],
                static_cast<uint8_t>(side), dests[i]};
          }
          offset = 0;
          for (size_t dst = 0; dst < counts.size(); ++dst) {
            if (counts[dst] == 0) continue;
            const RoutedView* run = staged.data() + offset;
            exchange.SendBatch(src, static_cast<int>(dst), counts[dst],
                               [run](size_t k, RoutedView& out) {
                                 out = run[k];
                               });
            offset += counts[dst];
          }
        }
      }
    });
    machine_.RunOnNodes(disks_, [&](sim::Node& n) {
      exchange.DrainInboxBlocks(n.id(), [&](std::vector<RoutedView>& lane) {
        received[static_cast<size_t>(n.id())] += lane.size();
      });
    });
  }
  uint64_t sent = 0;
  uint64_t total = 0;
  for (size_t di = 0; di < d; ++di) {
    sent += TuplesOn(di);
    total += received[di];
  }
  checker_->Begin();
  checker_->Expect(sent == total, "exchange replay delivered every view");
}

void Replay::AddBudgets(const LayerShape& shape,
                        sim::MemoryBroker* broker) const {
  for (const int id : disks_) broker->AddBudget(id, shape.capacity_bytes);
}

void Replay::BuildAndProbe(const LayerShape& shape, int pass) {
  const size_t d = disks_.size();
  sim::MemoryBroker broker(machine_.num_nodes());
  AddBudgets(shape, &broker);
  std::vector<std::unique_ptr<join::JoinHashTable>> tables(d);
  std::vector<uint64_t> inserted(d, 0);
  std::vector<uint64_t> matches(d, 0);
  const storage::Schema& inner_schema = env_->inner->schema();
  const storage::Schema& outer_schema = env_->outer->schema();
  {
    ScopedSpan span(log_, "join.build", pass);
    if (shape.hash_join) {
      machine_.RunOnNodes(disks_, [&](sim::Node& n) {
        const auto di = static_cast<size_t>(n.id());
        tables[di] = std::make_unique<join::JoinHashTable>(
            &n, &inner_schema, field_, shape.capacity_bytes, &broker);
        // At the workload's budget: an insert the budget rejects is
        // dropped here; the evict replay measures the overflow protocol.
        for (const RoutedView& a : arrivals_[kInner][di]) {
          if (tables[di]->Insert(storage::Tuple(a.data, a.size), a.hash)) {
            ++inserted[di];
          }
        }
      });
    }
  }
  {
    ScopedSpan span(log_, "join.probe", pass);
    if (shape.hash_join) {
      machine_.RunOnNodes(disks_, [&](sim::Node& n) {
        const auto di = static_cast<size_t>(n.id());
        const std::vector<RoutedView>& probes = arrivals_[kOuter][di];
        int32_t keys[join::JoinHashTable::kProbeBatchMax];
        uint64_t hashes[join::JoinHashTable::kProbeBatchMax];
        for (size_t begin = 0; begin < probes.size();
             begin += join::JoinHashTable::kProbeBatchMax) {
          const size_t count = std::min(join::JoinHashTable::kProbeBatchMax,
                                        probes.size() - begin);
          for (size_t k = 0; k < count; ++k) {
            keys[k] = outer_schema.GetInt32(probes[begin + k].data,
                                            static_cast<size_t>(field_));
            hashes[k] = probes[begin + k].hash;
          }
          tables[di]->ProbeBatch(
              keys, hashes, count,
              [&](size_t, const storage::Tuple&) { ++matches[di]; });
        }
      });
    }
  }
  // joinABprime: every inner tuple has exactly one outer match, on the
  // node its hash routes to, so each resident is found exactly once.
  checker_->Begin();
  for (size_t di = 0; di < d; ++di) {
    checker_->Expect(matches[di] == inserted[di],
                     "probe replay found every resident exactly once");
  }
}

void Replay::Evict(const LayerShape& shape, int pass) {
  const size_t d = disks_.size();
  sim::MemoryBroker broker(machine_.num_nodes());
  AddBudgets(shape, &broker);
  std::vector<std::unique_ptr<join::JoinHashTable>> tables(d);
  std::vector<uint64_t> evicted(d, 0);
  const storage::Schema& inner_schema = env_->inner->schema();
  const bool any = std::any_of(shape.overflows.begin(), shape.overflows.end(),
                               [](int64_t e) { return e > 0; });
  {
    ScopedSpan span(log_, "join.evict", pass);
    if (any) {
      {
        // Setup, excluded from the evict self time: fill each
        // overflowing node's table to its budget.
        ScopedSpan fill(log_, "join.evict.fill", pass);
        machine_.RunOnNodes(disks_, [&](sim::Node& n) {
          const auto di = static_cast<size_t>(n.id());
          if (shape.overflows[di] == 0) return;
          tables[di] = std::make_unique<join::JoinHashTable>(
              &n, &inner_schema, field_, shape.capacity_bytes, &broker);
          for (const RoutedView& a : arrivals_[kInner][di]) {
            if (!tables[di]->Insert(storage::Tuple(a.data, a.size), a.hash)) {
              break;
            }
          }
        });
      }
      machine_.RunOnNodes(disks_, [&](sim::Node& n) {
        const auto di = static_cast<size_t>(n.id());
        for (int64_t e = 0; e < shape.overflows[di]; ++e) {
          const uint64_t cutoff =
              tables[di]->histogram().CutoffForFraction(kClearFraction);
          evicted[di] += tables[di]->EvictAtOrAbove(cutoff).size();
        }
      });
    }
  }
  checker_->Begin();
  for (size_t di = 0; di < d; ++di) {
    checker_->Expect((shape.overflows[di] > 0) == (evicted[di] > 0),
                     "evict replay evicted on exactly the overflowing nodes");
  }
}

void Replay::Store(const LayerShape& shape, int pass) {
  const size_t d = disks_.size();
  std::vector<std::unique_ptr<storage::HeapFile>> files(2 * d);
  std::vector<char> healthy(d, 1);
  {
    ScopedSpan span(log_, "storage.store", pass);
    machine_.RunOnNodes(disks_, [&](sim::Node& n) {
      const auto di = static_cast<size_t>(n.id());
      auto& results = files[2 * di];
      auto& spills = files[2 * di + 1];
      results = std::make_unique<storage::HeapFile>(&n, &result_schema_,
                                                    "perf.result");
      spills = std::make_unique<storage::HeapFile>(
          &n, &env_->outer->schema(), "perf.spill");
      bool ok = true;
      for (uint64_t k = 0; k < shape.result_rows[di]; ++k) {
        ok = results->AppendRecord(result_records_[di].data()).ok() && ok;
      }
      ok = results->FlushAppends().ok() && ok;
      const std::vector<storage::TupleView>& source = views_[kOuter][di];
      for (uint64_t k = 0; k < shape.spill_rows[di] && !source.empty(); ++k) {
        ok = spills->AppendRecord(source[k % source.size()].data).ok() && ok;
      }
      ok = spills->FlushAppends().ok() && ok;
      if (!ok) healthy[di] = 0;
    });
  }
  checker_->Begin();
  for (size_t di = 0; di < d; ++di) {
    checker_->Expect(healthy[di] != 0 &&
                         files[2 * di]->tuple_count() == shape.result_rows[di],
                     "store replay wrote every record");
  }
  for (auto& file : files) file->Free();
}

void Replay::Sort(const LayerShape& shape, int pass) {
  const size_t d = disks_.size();
  std::vector<uint64_t> sorted(d, 0);
  std::vector<char> healthy(d, 1);
  {
    ScopedSpan span(log_, "storage.sort", pass);
    if (!shape.hash_join) {
      // The redistributed R' and S' files the sorts read. Writing them
      // is store work, so it is a storage.store span of its own.
      std::vector<std::unique_ptr<storage::HeapFile>> temps(2 * d);
      {
        ScopedSpan store(log_, "storage.store", pass);
        machine_.RunOnNodes(disks_, [&](sim::Node& n) {
          const auto di = static_cast<size_t>(n.id());
          for (size_t side : {kInner, kOuter}) {
            auto& file = temps[2 * di + side];
            file = std::make_unique<storage::HeapFile>(
                &n, &Relation(side).schema(), "perf.sort_input");
            bool ok = true;
            for (const RoutedView& a : arrivals_[side][di]) {
              ok = file->AppendRecord(a.data).ok() && ok;
            }
            if (!ok || !file->FlushAppends().ok()) healthy[di] = 0;
          }
        });
      }
      machine_.RunOnNodes(disks_, [&](sim::Node& n) {
        const auto di = static_cast<size_t>(n.id());
        for (size_t side : {kInner, kOuter}) {
          const storage::Schema& schema = Relation(side).schema();
          storage::ExternalSort sort(&n, &schema, field_, shape.sort_pages);
          bool ok = sort.AddFile(*temps[2 * di + side]).ok();
          temps[2 * di + side]->Free();
          ok = ok && sort.FinishInput().ok();
          if (!ok) {
            healthy[di] = 0;
            continue;
          }
          const std::unique_ptr<storage::TupleStream> stream =
              sort.OpenStream();
          storage::Tuple tuple;
          int32_t previous = INT32_MIN;
          while (stream->Next(&tuple)) {
            const int32_t key =
                tuple.GetInt32(schema, static_cast<size_t>(field_));
            if (key < previous) healthy[di] = 0;
            previous = key;
            ++sorted[di];
          }
          if (!stream->status().ok()) healthy[di] = 0;
        }
      });
    }
  }
  if (shape.hash_join) return;
  checker_->Begin();
  for (size_t di = 0; di < d; ++di) {
    checker_->Expect(healthy[di] != 0 &&
                         sorted[di] == arrivals_[kInner][di].size() +
                                           arrivals_[kOuter][di].size(),
                     "sort replay returned every tuple in key order");
  }
}

void Replay::Barrier(int pass) {
  ScopedSpan span(log_, "sim.barrier", pass);
  for (int round = 0; round < kBarrierRounds; ++round) {
    machine_.RunOnNodes(disks_, [](sim::Node&) {});
  }
}

void Replay::Charge(int pass) {
  sim::Node& node = machine_.node(disks_[0]);
  const double costs[2] = {node.cost().cpu_read_tuple_seconds,
                           node.cost().cpu_hash_route_seconds};
  ScopedSpan span(log_, "sim.charge", pass);
  for (int i = 0; i < kChargeCalls; ++i) {
    node.ChargeCpu(costs[i & 1], (i & 1) != 0 ? sim::CostCategory::kHashRoute
                                              : sim::CostCategory::kReadTuple);
  }
}

/// Generates and loads the dataset as wisconsin::LoadJoinABprime does,
/// timing the two steps separately.
std::unique_ptr<Env> TimedSetup(const Workload& workload, uint64_t seed,
                                SpanLog* log, int pass, Checker* checker) {
  ScopedSpan root(log, "perf.setup", pass);
  auto env = std::make_unique<Env>();
  env->machine = std::make_unique<sim::Machine>(MachineConfigFor(workload));
  std::vector<storage::Tuple> outer_tuples;
  std::vector<storage::Tuple> inner_tuples;
  {
    ScopedSpan span(log, "wisconsin.generate", pass);
    wisconsin::GenOptions gen;
    gen.cardinality = workload.outer_tuples;
    gen.seed = seed;
    outer_tuples = wisconsin::Generate(gen);
    inner_tuples = wisconsin::SampleWithoutReplacement(
        outer_tuples, workload.inner_tuples, seed + 1);
  }
  checker->Begin();
  {
    ScopedSpan span(log, "gamma.load", pass);
    auto outer = env->catalog.Create(*env->machine, "A",
                                     wisconsin::WisconsinSchema());
    auto inner = env->catalog.Create(*env->machine, "Bprime",
                                     wisconsin::WisconsinSchema());
    if (!checker->Expect(outer.ok() && inner.ok(), "create the relations")) {
      return nullptr;
    }
    const db::LoadOptions load;  // hashed on unique1, as LoadJoinABprime
    checker->Expect(db::LoadRelation(*outer, outer_tuples, load).ok() &&
                        db::LoadRelation(*inner, inner_tuples, load).ok(),
                    "load the relations");
    env->outer = *outer;
    env->inner = *inner;
  }
  return env;
}

bool SameCounts(const join::JoinOutput& out, const Verified& verified) {
  const sim::Counters& a = out.metrics.counters;
  const sim::Counters& b = verified.metrics.counters;
  return a.pages_read == b.pages_read && a.pages_written == b.pages_written &&
         a.tuples_sent_local == b.tuples_sent_local &&
         a.tuples_sent_remote == b.tuples_sent_remote &&
         a.ht_inserts == b.ht_inserts && a.ht_probes == b.ht_probes &&
         a.ht_overflows == b.ht_overflows &&
         a.result_tuples == b.result_tuples &&
         out.metrics.phases.size() == verified.metrics.phases.size() &&
         out.stats.refill_bytes == verified.stats.refill_bytes &&
         out.stats.inner_sort_passes == verified.stats.inner_sort_passes &&
         out.stats.outer_sort_passes == verified.stats.outer_sort_passes;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

std::vector<Metric> RunTracedLayers(const Workload& workload, uint64_t seed,
                                    const std::string& spans_path,
                                    Checker* checker) {
  SpanLog log;
  std::unique_ptr<Env> env;
  for (int pass = 0; pass < kPasses; ++pass) {
    env.reset();
    env = TimedSetup(workload, seed, &log, pass, checker);
    if (env == nullptr) return {};
  }
  const std::vector<Verified> verified = VerifyShapes(*env, workload, checker);
  Replay replay(workload, std::move(env), &log, checker);
  replay.Prepare(verified);
  Env& loaded = replay.env();
  const size_t shapes = workload.shapes.size();

  // Warm-up, then untraced passes: the baseline for the tracing overhead.
  for (size_t s = 0; s < shapes; ++s) {
    RunCheckedJoin(loaded, workload, workload.shapes[s], &verified[s], checker);
  }
  std::vector<double> plain;
  for (int pass = 0; pass < kPasses; ++pass) {
    double total = 0;
    for (size_t s = 0; s < shapes; ++s) {
      Interval timed;
      RunCheckedJoin(loaded, workload, workload.shapes[s], &verified[s],
                     checker, &timed);
      total += timed.seconds();
    }
    plain.push_back(total);
  }

  std::vector<double> imbalance;
  size_t output_bytes = 0;
  Calibration calibration;
  calibration.Run();  // first touch of its memory
  for (int pass = 0; pass < kPasses; ++pass) {
    ScopedSpan root(&log, "perf.pass", pass);
    {
      ScopedSpan span(&log, "bench.calib", pass);
      calibration.Run();
    }
    replay.ReplayLayers(pass);
    const std::vector<double>& tasks = replay.scan_task_seconds();
    double sum = 0;
    for (double t : tasks) sum += t;
    imbalance.push_back(
        Ratio(*std::max_element(tasks.begin(), tasks.end()),
              sum / static_cast<double>(tasks.size())));

    for (size_t s = 0; s < shapes; ++s) {
      Interval timed;
      auto out = RunCheckedJoin(loaded, workload, workload.shapes[s],
                                &verified[s], checker, &timed);
      log.Add("join.execute", pass, timed.start, timed.end);
      checker->Expect(out.has_value() && SameCounts(*out, verified[s]),
                      "counters repeat the verification join's");
      {
        ScopedSpan span(&log, "sim.metrics", pass);
        const sim::RunMetrics metrics = loaded.machine->Metrics();
        output_bytes += sim::RunMetricsToJson(metrics).AsObject().size();
      }
      // The same join with a sim::Tracer attached, then the trace
      // serialized: sim.trace_s is this join minus the untraced one
      // above, plus the Dump.
      sim::Tracer tracer;
      loaded.machine->set_tracer(&tracer, workload.name);
      RunCheckedJoin(loaded, workload, workload.shapes[s], &verified[s],
                     checker, &timed);
      loaded.machine->set_tracer(nullptr);
      log.Add("join.execute_traced", pass, timed.start, timed.end);
      {
        ScopedSpan span(&log, "sim.trace_dump", pass);
        output_bytes += tracer.Dump().size();
      }
    }
  }
  // Keeps the serialized metrics and traces observable.
  if (output_bytes == 0) std::fprintf(stderr, "empty metrics and traces\n");

  const auto median_of = [&](const std::string& name) {
    std::vector<double> values;
    for (int pass = 0; pass < kPasses; ++pass) {
      values.push_back(log.SelfSecondsOf(name, pass));
    }
    return Quantile(values, 0.5);
  };
  std::vector<double> unattributed;
  std::vector<double> executed;
  std::vector<double> traced;
  for (int pass = 0; pass < kPasses; ++pass) {
    traced.push_back(log.SelfSecondsOf("join.execute_traced", pass) -
                     log.SelfSecondsOf("join.execute", pass) +
                     log.SelfSecondsOf("sim.trace_dump", pass));
    double layers = 0;
    for (const char* name :
         {"storage.scan", "gamma.route", "sim.exchange", "join.build",
          "join.probe", "join.evict", "storage.store", "storage.sort"}) {
      layers += log.SelfSecondsOf(name, pass);
    }
    const double execute = log.SelfSecondsOf("join.execute", pass);
    executed.push_back(execute);
    unattributed.push_back(execute - layers);
  }

  // Counts: one pass of the workload's joins, from their own metrics.
  sim::Counters sum;
  int64_t phases = 0;
  int64_t spill_bytes = 0;
  int64_t refill_bytes = 0;
  int64_t sort_passes = 0;
  double response = 0;
  for (const Verified& v : verified) {
    const sim::Counters& c = v.metrics.counters;
    sum.pages_read += c.pages_read;
    sum.pages_written += c.pages_written;
    sum.tuples_sent_local += c.tuples_sent_local;
    sum.tuples_sent_remote += c.tuples_sent_remote;
    sum.ht_inserts += c.ht_inserts;
    sum.ht_probes += c.ht_probes;
    sum.ht_overflows += c.ht_overflows;
    sum.result_tuples += c.result_tuples;
    phases += static_cast<int64_t>(v.metrics.phases.size());
    spill_bytes += v.stats.spill_bytes;
    refill_bytes += v.stats.refill_bytes;
    sort_passes += v.stats.inner_sort_passes + v.stats.outer_sort_passes;
    response += v.metrics.response_seconds;
  }
  const auto count = [](int64_t v) { return static_cast<double>(v); };
  const double execute_s = Quantile(executed, 0.5);

  std::vector<Metric> metrics = {
      {"wisconsin.generate_s", median_of("wisconsin.generate"), "s"},
      {"gamma.load_s", median_of("gamma.load"), "s"},
      {"storage.scan_s", median_of("storage.scan"), "s"},
      {"storage.pages_read", count(sum.pages_read), "count"},
      {"gamma.route_s", median_of("gamma.route"), "s"},
      {"sim.exchange_s", median_of("sim.exchange"), "s"},
      {"sim.tuples_remote", count(sum.tuples_sent_remote), "count"},
      {"sim.short_circuit_frac", sum.ShortCircuitFraction(), "ratio"},
      {"join.build_s", median_of("join.build"), "s"},
      {"join.ht_inserts", count(sum.ht_inserts), "count"},
      {"join.probe_s", median_of("join.probe"), "s"},
      {"join.ht_probes", count(sum.ht_probes), "count"},
      {"join.probe_hit_ratio",
       Ratio(count(sum.result_tuples), count(sum.ht_probes)), "ratio"},
      {"join.evict_s", median_of("join.evict"), "s"},
      {"join.ht_overflows", count(sum.ht_overflows), "count"},
      {"join.spill_bytes", count(spill_bytes), "bytes"},
      {"join.refill_per_spill", Ratio(count(refill_bytes), count(spill_bytes)),
       "ratio"},
      {"storage.store_s", median_of("storage.store"), "s"},
      {"storage.pages_written", count(sum.pages_written), "count"},
      {"storage.sort_s", median_of("storage.sort"), "s"},
      {"storage.sort_passes", count(sort_passes), "count"},
      {"sim.barrier_us", median_of("sim.barrier") / kBarrierRounds * 1e6,
       "us"},
      {"sim.phases", count(phases), "count"},
      {"sim.stripe_imbalance", Quantile(imbalance, 0.5), "ratio"},
      {"sim.charge_ns", median_of("sim.charge") / kChargeCalls * 1e9, "ns"},
      {"sim.metrics_s", median_of("sim.metrics"), "s"},
      {"sim.trace_s", Quantile(traced, 0.5), "s"},
      {"join.execute_s", execute_s, "s"},
      {"join.unattributed_s", Quantile(unattributed, 0.5), "s"},
      {"sim.response_s", response, "sim_s"},
      {"bench.trace_overhead_frac",
       Ratio(execute_s, Quantile(plain, 0.5)) - 1, "ratio"},
      {"bench.calib_s", median_of("bench.calib"), "s"},
  };
  if (!spans_path.empty()) {
    checker->Begin();
    checker->Expect(log.WriteJson(spans_path).ok(),
                    "write the spans to " + spans_path);
  }
  return metrics;
}

}  // namespace gammadb::perf
