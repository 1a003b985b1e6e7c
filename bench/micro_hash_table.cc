// Microbenchmark for the cache-conscious open-addressing join hash
// table (src/join/hash_table.h): build, scalar probe, batched probe
// (the prefetching ProbeBatch the join engines' hot path uses), and
// histogram-guided eviction, at a table deliberately larger than the
// last-level cache so the prefetch distance matters.
//
// Tuple/match/eviction counts are deterministic and gated against
// bench/baselines/smoke_micro_hash.json; real_seconds and the derived
// throughputs are host metrics, reported but never gated
// (docs/performance.md).
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/harness.h"
#include "common/hash.h"
#include "common/logging.h"
#include "join/hash_table.h"
#include "sim/machine.h"
#include "sim/memory_broker.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace {

using gammadb::JsonValue;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  gammadb::bench::InitBench(argc, argv, "micro_hash_table");

  // 256k 32-byte tuples = 8 MB of arena plus the slot array: well past
  // the last-level cache of any host this runs on. Smoke scale keeps
  // the same shape in a fraction of a second.
  const size_t num_tuples =
      gammadb::bench::BenchScaleOverridden() ? 16384 : 262144;
  const size_t num_probes = 4 * num_tuples;
  // ~1 in 9 probe keys misses the table entirely.
  const size_t key_space = num_tuples + num_tuples / 8;

  gammadb::sim::Machine machine(
      gammadb::sim::MachineConfig{1, 0, gammadb::sim::CostModel{}, 1});
  const gammadb::storage::Schema schema(
      {gammadb::storage::Field::Int32("k"),
       gammadb::storage::Field::Char("pad", 28)});
  machine.BeginPhase("micro_hash_table");
  const uint64_t capacity = schema.tuple_bytes() * num_tuples;
  gammadb::sim::MemoryBroker broker(1);
  broker.AddBudget(0, capacity);
  gammadb::join::JoinHashTable table(&machine.node(0), &schema, 0, capacity,
                                     &broker);

  // --- build ---------------------------------------------------------
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < num_tuples; ++i) {
    const int32_t key = static_cast<int32_t>(i);
    gammadb::storage::Tuple t(schema.tuple_bytes());
    t.SetInt32(schema, 0, key);
    GAMMA_CHECK(table.Insert(std::move(t), gammadb::HashJoinAttribute(key)));
  }
  const double build_seconds = Seconds(start);
  GAMMA_CHECK_EQ(table.size(), num_tuples);

  // --- scalar probe --------------------------------------------------
  size_t scalar_matches = 0;
  start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < num_probes; ++i) {
    const int32_t key = static_cast<int32_t>(i % key_space);
    table.Probe(key, gammadb::HashJoinAttribute(key),
                [&](const gammadb::storage::Tuple&) { ++scalar_matches; });
  }
  const double scalar_seconds = Seconds(start);

  // --- batched probe (the engines' hot path) -------------------------
  constexpr size_t kBatch = gammadb::join::JoinHashTable::kProbeBatchMax;
  int32_t keys[kBatch];
  uint64_t hashes[kBatch];
  size_t batched_matches = 0;
  start = std::chrono::steady_clock::now();
  for (size_t base = 0; base < num_probes; base += kBatch) {
    const size_t count = std::min(kBatch, num_probes - base);
    for (size_t j = 0; j < count; ++j) {
      keys[j] = static_cast<int32_t>((base + j) % key_space);
      hashes[j] = gammadb::HashJoinAttribute(keys[j]);
    }
    table.ProbeBatch(keys, hashes, count,
                     [&](size_t, const gammadb::storage::Tuple&) {
                       ++batched_matches;
                     });
  }
  const double batched_seconds = Seconds(start);
  GAMMA_CHECK_EQ(batched_matches, scalar_matches)
      << "ProbeBatch diverged from scalar Probe";

  // --- eviction (the overflow protocol's bulk operation) -------------
  const uint64_t cutoff = table.histogram().CutoffForFraction(0.5);
  start = std::chrono::steady_clock::now();
  const auto evicted = table.EvictAtOrAbove(cutoff);
  const double evict_seconds = Seconds(start);
  GAMMA_CHECK_EQ(evicted.size() + table.size(), num_tuples);

  machine.EndPhase().IgnoreError();

  const double mt = 1e-6;  // tuples -> millions of tuples
  std::printf("\nHash-table micro: %zu tuples, %zu probes\n", num_tuples,
              num_probes);
  std::printf("%-14s%12s%14s%14s\n", "stage", "tuples", "real sec",
              "Mtuples/s");
  std::printf("%-14s%12zu%14.4f%14.1f\n", "build", num_tuples, build_seconds,
              mt * static_cast<double>(num_tuples) / build_seconds);
  std::printf("%-14s%12zu%14.4f%14.1f\n", "probe_scalar", num_probes,
              scalar_seconds,
              mt * static_cast<double>(num_probes) / scalar_seconds);
  std::printf("%-14s%12zu%14.4f%14.1f\n", "probe_batched", num_probes,
              batched_seconds,
              mt * static_cast<double>(num_probes) / batched_seconds);
  std::printf("%-14s%12zu%14.4f%14.1f\n", "evict", evicted.size(),
              evict_seconds,
              mt * static_cast<double>(evicted.size()) / evict_seconds);
  std::printf("batched/scalar probe speedup: %.2fx\n",
              scalar_seconds / batched_seconds);

  JsonValue rows = JsonValue::MakeArray();
  const auto add_row = [&rows](const char* stage, size_t tuples,
                               double seconds) {
    JsonValue row = JsonValue::MakeObject();
    row.Set("stage", JsonValue(stage));
    row.Set("tuples", JsonValue(tuples));
    row.Set("real_seconds", JsonValue(seconds));
    rows.Append(std::move(row));
  };
  add_row("build", num_tuples, build_seconds);
  add_row("probe_scalar", num_probes, scalar_seconds);
  add_row("probe_batched", num_probes, batched_seconds);
  add_row("evict", evicted.size(), evict_seconds);
  JsonValue extra = JsonValue::MakeObject();
  extra.Set("stages", std::move(rows));
  extra.Set("matches", JsonValue(scalar_matches));
  gammadb::bench::RecordBenchExtra("micro_hash_table", std::move(extra));
  return 0;
}
