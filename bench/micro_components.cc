// Microbenchmarks (google-benchmark) for the performance-critical
// components: these measure REAL wall-clock cost of the library's data
// structures (as opposed to the simulated response times the figure
// benches report).
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/histogram.h"
#include "common/random.h"
#include "gamma/bit_filter.h"
#include "gamma/split_table.h"
#include "join/hash_table.h"
#include "sim/exchange.h"
#include "sim/machine.h"
#include "sim/memory_broker.h"
#include "storage/btree.h"
#include "storage/external_sort.h"
#include "storage/heap_file.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

sim::Machine& BenchMachine() {
  static sim::Machine* machine = [] {
    sim::MachineConfig config;
    config.num_disk_nodes = 1;
    return new sim::Machine(config);
  }();
  return *machine;
}

const storage::Schema& BenchSchema() {
  static const storage::Schema* schema =
      new storage::Schema(wisconsin::WisconsinSchema());
  return *schema;
}

std::vector<storage::Tuple> BenchTuples(uint32_t n) {
  wisconsin::GenOptions gen;
  gen.cardinality = n;
  gen.seed = 7;
  return wisconsin::Generate(gen);
}

void BM_HashTableInsert(benchmark::State& state) {
  const auto tuples = BenchTuples(static_cast<uint32_t>(state.range(0)));
  const uint64_t capacity = static_cast<uint64_t>(tuples.size()) * 208 * 2;
  for (auto _ : state) {
    sim::MemoryBroker broker(1);
    broker.AddBudget(0, capacity);
    join::JoinHashTable table(&BenchMachine().node(0), &BenchSchema(),
                              wisconsin::fields::kUnique1, capacity, &broker);
    for (const auto& t : tuples) {
      const uint64_t h = HashJoinAttribute(
          t.GetInt32(BenchSchema(), wisconsin::fields::kUnique1));
      benchmark::DoNotOptimize(table.Insert(t, h));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_HashTableInsert)->Arg(1000)->Arg(10000);

void BM_HashTableProbe(benchmark::State& state) {
  const auto tuples = BenchTuples(static_cast<uint32_t>(state.range(0)));
  const uint64_t capacity = static_cast<uint64_t>(tuples.size()) * 208 * 2;
  sim::MemoryBroker broker(1);
  broker.AddBudget(0, capacity);
  join::JoinHashTable table(&BenchMachine().node(0), &BenchSchema(),
                            wisconsin::fields::kUnique1, capacity, &broker);
  for (const auto& t : tuples) {
    table.Insert(t, HashJoinAttribute(t.GetInt32(
                        BenchSchema(), wisconsin::fields::kUnique1)));
  }
  for (auto _ : state) {
    size_t matches = 0;
    for (const auto& t : tuples) {
      const int32_t key =
          t.GetInt32(BenchSchema(), wisconsin::fields::kUnique1);
      table.Probe(key, HashJoinAttribute(key),
                  [&](const storage::Tuple&) { ++matches; });
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_HashTableProbe)->Arg(1000)->Arg(10000);

void BM_BitFilter(benchmark::State& state) {
  db::BitFilterSet filter(8);
  Rng rng(1);
  for (int i = 0; i < 1200; ++i) filter.Set(i % 8, rng.Next());
  for (auto _ : state) {
    uint64_t h = 0x1234;
    int hits = 0;
    for (int i = 0; i < 1000; ++i) {
      h = Mix64(h + 1);
      hits += filter.MayContain(static_cast<int>(h % 8), h) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_BitFilter);

void BM_SplitTableRoute(benchmark::State& state) {
  const db::SplitTable table = db::SplitTable::HybridPartitioning(
      {8, 9, 10, 11, 12, 13, 14, 15}, {0, 1, 2, 3, 4, 5, 6, 7}, 8);
  for (auto _ : state) {
    uint64_t h = 99;
    int sum = 0;
    for (int i = 0; i < 1000; ++i) {
      h = Mix64(h);
      sum += table.Route(h).node;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SplitTableRoute);

void BM_ExternalSort(benchmark::State& state) {
  const auto tuples = BenchTuples(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    storage::ExternalSort sort(&BenchMachine().node(0), &BenchSchema(),
                               wisconsin::fields::kUnique1,
                               /*memory_pages=*/8);
    for (const auto& t : tuples) GAMMA_CHECK_OK(sort.Add(t));
    GAMMA_CHECK_OK(sort.FinishInput());
    auto stream = sort.OpenStream();
    storage::Tuple t;
    size_t n = 0;
    while (stream->Next(&t)) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_ExternalSort)->Arg(2000)->Arg(20000);

void BM_HashHistogramCutoff(benchmark::State& state) {
  HashHistogram histogram;
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) histogram.Add(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram.CutoffForFraction(0.10));
  }
}
BENCHMARK(BM_HashHistogramCutoff);

void BM_WisconsinGenerate(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BenchTuples(static_cast<uint32_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WisconsinGenerate)->Arg(10000);

void BM_BPlusTreeInsert(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    storage::BPlusTree tree(&BenchMachine().node(0));
    for (int64_t i = 0; i < state.range(0); ++i) {
      tree.Insert(static_cast<int32_t>(rng.Uniform(1u << 20)),
                  static_cast<uint64_t>(i));
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(10000);

void BM_BPlusTreeSearch(benchmark::State& state) {
  storage::BPlusTree tree(&BenchMachine().node(0));
  Rng rng(6);
  for (int i = 0; i < 20000; ++i) {
    tree.Insert(static_cast<int32_t>(rng.Uniform(1u << 20)),
                static_cast<uint64_t>(i));
  }
  for (auto _ : state) {
    size_t hits = 0;
    for (int i = 0; i < 1000; ++i) {
      hits += tree.Search(static_cast<int32_t>(rng.Uniform(1u << 20))).size();
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_BPlusTreeSearch);

void BM_HeapFileAppendScan(benchmark::State& state) {
  const auto tuples = BenchTuples(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    storage::HeapFile file(&BenchMachine().node(0), &BenchSchema(), "bm");
    for (const auto& t : tuples) GAMMA_CHECK_OK(file.Append(t));
    GAMMA_CHECK_OK(file.FlushAppends());
    auto scanner = file.Scan();
    storage::Tuple t;
    size_t n = 0;
    while (scanner.Next(&t)) ++n;
    benchmark::DoNotOptimize(n);
    file.Free();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()) * 2);
}
BENCHMARK(BM_HeapFileAppendScan)->Arg(10000);

// Per-(src, dst) exchange lanes under the executor: every node sends
// its tuples round-robin, every node drains its inbox. Arg = executor
// threads, so /1 vs /4 shows the pooled send path's wall-clock gain.
void BM_ExchangeThroughput(benchmark::State& state) {
  sim::MachineConfig config;
  config.num_disk_nodes = 8;
  config.num_threads = static_cast<int>(state.range(0));
  sim::Machine machine(config);
  const std::vector<int> nodes = machine.DiskNodeIds();
  const auto tuples = BenchTuples(2000);
  std::vector<size_t> received(nodes.size());
  for (auto _ : state) {
    sim::Exchange<storage::Tuple> exchange(&machine);
    machine.RunOnNodes(nodes, [&](sim::Node& n) {
      exchange.ReserveRow(n.id(), tuples.size());
      size_t dest = static_cast<size_t>(n.id());
      for (const auto& t : tuples) {
        storage::Tuple copy = t;
        const uint32_t bytes = copy.size();
        exchange.Send(n.id(), nodes[dest++ % nodes.size()], std::move(copy),
                      bytes);
      }
    });
    machine.RunOnNodes(nodes, [&](sim::Node& n) {
      received[static_cast<size_t>(n.id())] =
          exchange.TakeInbox(n.id()).size();
    });
    benchmark::DoNotOptimize(received.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()) *
                          static_cast<int64_t>(nodes.size()));
}
BENCHMARK(BM_ExchangeThroughput)->Arg(1)->Arg(4);

// Wisconsin tuples (208 bytes) live in the small-buffer-optimized
// inline storage; join results (416 bytes) take the heap path.
void BM_TupleCopyInline(benchmark::State& state) {
  const auto tuples = BenchTuples(1000);
  for (auto _ : state) {
    for (const auto& t : tuples) {
      storage::Tuple copy = t;
      benchmark::DoNotOptimize(copy.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_TupleCopyInline);

void BM_TupleCopyHeap(benchmark::State& state) {
  const auto base = BenchTuples(1000);
  std::vector<storage::Tuple> tuples;
  tuples.reserve(base.size());
  for (const auto& t : base) tuples.push_back(storage::Tuple::Concat(t, t));
  for (auto _ : state) {
    for (const auto& t : tuples) {
      storage::Tuple copy = t;
      benchmark::DoNotOptimize(copy.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_TupleCopyHeap);

void BM_TupleMoveInline(benchmark::State& state) {
  auto pool = BenchTuples(1000);
  for (auto _ : state) {
    std::vector<storage::Tuple> sink;
    sink.reserve(pool.size());
    for (auto& t : pool) sink.push_back(std::move(t));
    pool = std::move(sink);
    benchmark::DoNotOptimize(pool.data());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TupleMoveInline);

void BM_WisconsinStringField(benchmark::State& state) {
  const auto tuples = BenchTuples(1000);
  for (auto _ : state) {
    uint64_t h = 0;
    for (const auto& t : tuples) {
      h ^= HashBytes(t.GetChars(BenchSchema(), wisconsin::fields::kStringU1));
    }
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WisconsinStringField);

}  // namespace
}  // namespace gammadb

BENCHMARK_MAIN();
