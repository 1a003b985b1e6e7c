#include "join/hash_table.h"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "sim/machine.h"
#include "sim/memory_broker.h"
#include "testing/status_matchers.h"

namespace gammadb::join {
namespace {

class JoinHashTableTest : public ::testing::Test {
 protected:
  JoinHashTableTest()
      : machine_(sim::MachineConfig{1, 0, sim::CostModel{}, 1}),
        schema_({storage::Field::Int32("k"), storage::Field::Char("p", 28)}) {
    machine_.BeginPhase("test");
  }
  ~JoinHashTableTest() override {
    machine_.EndPhase().IgnoreError();  // teardown balance only
  }

  storage::Tuple MakeTuple(int32_t k) {
    storage::Tuple t(schema_.tuple_bytes());
    t.SetInt32(schema_, 0, k);
    return t;
  }

  uint64_t Hash(int32_t k) { return HashJoinAttribute(k); }

  /// A fresh broker whose node-0 budget is `budget` bytes, so a table
  /// admitting through it holds at most that many.
  sim::MemoryBroker* Broker(uint64_t budget) {
    brokers_.emplace_back(1);
    brokers_.back().AddBudget(0, budget);
    return &brokers_.back();
  }

  /// A table on node 0 with its own broker of `capacity` bytes.
  JoinHashTable Table(uint64_t capacity) {
    return JoinHashTable(&machine_.node(0), &schema_, 0, capacity,
                         Broker(capacity));
  }

  sim::Machine machine_;
  storage::Schema schema_;  // 32-byte tuples
  std::deque<sim::MemoryBroker> brokers_;  // stable addresses
};

TEST_F(JoinHashTableTest, InsertAndProbe) {
  JoinHashTable table = Table(32 * 100);
  for (int32_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(table.Insert(MakeTuple(k), Hash(k)));
  }
  EXPECT_EQ(table.size(), 50u);
  EXPECT_EQ(table.bytes_used(), 50u * 32);
  int matches = 0;
  table.Probe(25, Hash(25), [&](const storage::Tuple& t) {
    EXPECT_EQ(t.GetInt32(schema_, 0), 25);
    ++matches;
  });
  EXPECT_EQ(matches, 1);
  table.Probe(999, Hash(999), [&](const storage::Tuple&) { ++matches; });
  EXPECT_EQ(matches, 1);
}

TEST_F(JoinHashTableTest, DuplicateKeysAllMatch) {
  JoinHashTable table = Table(32 * 100);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(table.Insert(MakeTuple(5), Hash(5)));
  }
  int matches = 0;
  table.Probe(5, Hash(5), [&](const storage::Tuple&) { ++matches; });
  EXPECT_EQ(matches, 7);
  const auto chains = table.ComputeChainStats();
  EXPECT_EQ(chains.max, 7);
  EXPECT_EQ(chains.tuples, 7u);
  EXPECT_EQ(chains.occupied_slots, 1u);
  EXPECT_DOUBLE_EQ(chains.Average(), 7.0);
}

TEST_F(JoinHashTableTest, CapacityIsEnforcedInBytes) {
  JoinHashTable table = Table(32 * 10);
  for (int32_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(table.Insert(MakeTuple(k), Hash(k)));
  }
  EXPECT_FALSE(table.Insert(MakeTuple(11), Hash(11)));  // full
  EXPECT_EQ(table.size(), 10u);  // rejected tuple not inserted
}

TEST_F(JoinHashTableTest, EvictAtOrAboveRemovesExactlyTheRange) {
  JoinHashTable table = Table(32 * 1000);
  for (int32_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(table.Insert(MakeTuple(k), Hash(k)));
  }
  const uint64_t cutoff = table.histogram().CutoffForFraction(0.10);
  const auto evicted = table.EvictAtOrAbove(cutoff);
  EXPECT_GE(evicted.size(), 50u);  // at least 10%
  for (const auto& [hash, tuple] : evicted) {
    EXPECT_GE(hash, cutoff);
    EXPECT_EQ(hash, Hash(tuple.GetInt32(schema_, 0)));
  }
  EXPECT_EQ(table.size() + evicted.size(), 500u);
  EXPECT_EQ(table.bytes_used(), table.size() * 32);
  // Survivors are all below the cutoff and still probeable.
  int found = 0;
  for (int32_t k = 0; k < 500; ++k) {
    if (Hash(k) < cutoff) {
      table.Probe(k, Hash(k), [&](const storage::Tuple&) { ++found; });
    }
  }
  EXPECT_EQ(static_cast<size_t>(found), table.size());
}

TEST_F(JoinHashTableTest, InsertSucceedsAfterEviction) {
  JoinHashTable table = Table(32 * 10);
  for (int32_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(table.Insert(MakeTuple(k), Hash(k)));
  }
  ASSERT_FALSE(table.Insert(MakeTuple(100), Hash(100)));
  const uint64_t cutoff = table.histogram().CutoffForFraction(0.10);
  const auto evicted = table.EvictAtOrAbove(cutoff);
  ASSERT_GE(evicted.size(), 1u);
  EXPECT_TRUE(table.Insert(MakeTuple(100), Hash(100)));
}

TEST_F(JoinHashTableTest, ClearEmptiesEverything) {
  JoinHashTable table = Table(32 * 100);
  for (int32_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(table.Insert(MakeTuple(k), Hash(k)));
  }
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.bytes_used(), 0u);
  EXPECT_EQ(table.histogram().total(), 0u);
  int matches = 0;
  table.Probe(5, Hash(5), [&](const storage::Tuple&) { ++matches; });
  EXPECT_EQ(matches, 0);
  // Reusable after Clear.
  EXPECT_TRUE(table.Insert(MakeTuple(1), Hash(1)));
}

TEST_F(JoinHashTableTest, ProbeChargesCpu) {
  JoinHashTable table = Table(32 * 100);
  ASSERT_TRUE(table.Insert(MakeTuple(1), Hash(1)));
  const double cpu_before = machine_.node(0).phase_usage().cpu_seconds;
  table.Probe(1, Hash(1), [](const storage::Tuple&) {});
  EXPECT_GT(machine_.node(0).phase_usage().cpu_seconds, cpu_before);
  EXPECT_EQ(machine_.node(0).counters().ht_probes, 1);
  EXPECT_EQ(machine_.node(0).counters().ht_inserts, 1);
}

// Matches for a key are emitted newest-insertion-first (LIFO), the
// order the original chained layout produced by probing head-first.
TEST_F(JoinHashTableTest, ProbeEmitsMatchesNewestFirst) {
  JoinHashTable table = Table(32 * 100);
  for (int i = 0; i < 4; ++i) {
    storage::Tuple t = MakeTuple(9);
    t.SetChars(schema_, 1, std::string(1, static_cast<char>('a' + i)));
    ASSERT_TRUE(table.Insert(std::move(t), Hash(9)));
  }
  std::string order;
  table.Probe(9, Hash(9), [&](const storage::Tuple& t) {
    order += t.GetChars(schema_, 1)[0];
  });
  EXPECT_EQ(order, "dcba");
}

// ProbeBatch must be observationally identical to a scalar Probe loop:
// same matches in the same order, same CPU charges, same counters.
TEST_F(JoinHashTableTest, ProbeBatchMatchesScalarProbeExactly) {
  sim::Machine scalar_machine(sim::MachineConfig{1, 0, sim::CostModel{}, 1});
  scalar_machine.BeginPhase("test");
  JoinHashTable batched = Table(32 * 1000);
  JoinHashTable scalar(&scalar_machine.node(0), &schema_, 0, 32 * 1000,
                       Broker(32 * 1000));
  // Duplicate keys (k % 17) force multi-match probes and collisions.
  for (int32_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(batched.Insert(MakeTuple(k % 17), Hash(k % 17)));
    ASSERT_TRUE(scalar.Insert(MakeTuple(k % 17), Hash(k % 17)));
  }
  constexpr size_t kProbes = JoinHashTable::kProbeBatchMax;
  int32_t keys[kProbes];
  uint64_t hashes[kProbes];
  for (size_t i = 0; i < kProbes; ++i) {
    keys[i] = static_cast<int32_t>(i % 23);  // some keys miss (17..22)
    hashes[i] = Hash(keys[i]);
  }
  std::vector<std::pair<size_t, int32_t>> batched_matches;
  batched.ProbeBatch(keys, hashes, kProbes,
                     [&](size_t i, const storage::Tuple& t) {
                       batched_matches.emplace_back(i, t.GetInt32(schema_, 0));
                     });
  std::vector<std::pair<size_t, int32_t>> scalar_matches;
  for (size_t i = 0; i < kProbes; ++i) {
    scalar.Probe(keys[i], hashes[i], [&](const storage::Tuple& t) {
      scalar_matches.emplace_back(i, t.GetInt32(schema_, 0));
    });
  }
  EXPECT_EQ(batched_matches, scalar_matches);
  EXPECT_DOUBLE_EQ(machine_.node(0).phase_usage().cpu_seconds,
                   scalar_machine.node(0).phase_usage().cpu_seconds);
  EXPECT_EQ(machine_.node(0).counters().ht_probes,
            scalar_machine.node(0).counters().ht_probes);
  GAMMA_ASSERT_OK(scalar_machine.EndPhase());
}

TEST_F(JoinHashTableTest, ForEachResidentHashVisitsAll) {
  JoinHashTable table = Table(32 * 100);
  for (int32_t k = 0; k < 30; ++k) {
    ASSERT_TRUE(table.Insert(MakeTuple(k), Hash(k)));
  }
  size_t visited = 0;
  table.ForEachResidentHash([&](uint64_t) { ++visited; });
  EXPECT_EQ(visited, 30u);
}

}  // namespace
}  // namespace gammadb::join
