// Unit tests for the hash-join engine's building blocks (the whole
// engine is exercised end-to-end by the correctness/property suites).
#include "join/hash_engine.h"

#include <gtest/gtest.h>

#include "common/hash.h"
#include "gamma/split_table.h"
#include "sim/exchange.h"
#include "sim/machine.h"
#include "wisconsin/wisconsin.h"
#include "testing/status_matchers.h"

namespace gammadb::join {
namespace {

class BucketFileSetTest : public ::testing::Test {
 protected:
  BucketFileSetTest()
      : machine_(sim::MachineConfig{3, 0, sim::CostModel{}, 1}),
        schema_(wisconsin::WisconsinSchema()) {
    machine_.BeginPhase("test");
  }
  ~BucketFileSetTest() override {
    machine_.EndPhase().IgnoreError();  // teardown balance only
  }

  storage::Tuple MakeTuple(int32_t k) {
    storage::Tuple t(schema_.tuple_bytes());
    t.SetInt32(schema_, 0, k);
    return t;
  }

  sim::Machine machine_;
  storage::Schema schema_;
};

TEST_F(BucketFileSetTest, MatrixShape) {
  BucketFileSet files(&machine_, &schema_, 4, "t");
  EXPECT_EQ(files.num_buckets(), 4);
  EXPECT_EQ(files.num_disks(), 3u);
  // Fragment (b, d) lives on disk node d.
  for (int b = 1; b <= 4; ++b) {
    for (size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(files.file(b, d).node()->id(), static_cast<int>(d));
      EXPECT_EQ(files.file(b, d).tuple_count(), 0u);
    }
  }
}

TEST_F(BucketFileSetTest, FlushByOwnerAndCounts) {
  BucketFileSet files(&machine_, &schema_, 2, "t");
  GAMMA_ASSERT_OK(files.file(1, 0).Append(MakeTuple(1)));
  GAMMA_ASSERT_OK(files.file(1, 0).Append(MakeTuple(2)));
  GAMMA_ASSERT_OK(files.file(2, 1).Append(MakeTuple(3)));
  GAMMA_ASSERT_OK(files.FlushFilesOwnedBy(0));
  // Node 0's fragments are on disk; node 1's bucket-2 fragment is not
  // yet flushed.
  EXPECT_EQ(files.file(1, 0).page_count(), 1u);
  EXPECT_EQ(files.file(2, 1).page_count(), 0u);
  GAMMA_ASSERT_OK(files.FlushFilesOwnedBy(1));
  EXPECT_EQ(files.file(2, 1).page_count(), 1u);
  EXPECT_EQ(files.BucketTuples(1), 2u);
  EXPECT_EQ(files.BucketTuples(2), 1u);
}

TEST_F(BucketFileSetTest, FreeBucketReleasesPages) {
  BucketFileSet files(&machine_, &schema_, 1, "t");
  for (int i = 0; i < 100; ++i)
    GAMMA_ASSERT_OK(files.file(1, 0).Append(MakeTuple(i)));
  GAMMA_ASSERT_OK(files.FlushFilesOwnedBy(0));
  EXPECT_GT(machine_.node(0).disk().live_pages(), 0u);
  files.FreeBucket(1);
  EXPECT_EQ(machine_.node(0).disk().live_pages(), 0u);
  EXPECT_EQ(files.BucketTuples(1), 0u);
}

// The shared repartition operator (join/repartition.h), on the same
// three-node machine.
using RouteBlockTest = BucketFileSetTest;

TEST_F(RouteBlockTest, LaneOrderEqualsPerTupleSendOrder) {
  // One block from node 0 fanning out over all three nodes through a
  // joining split table, with every fifth tuple dropped by `decide`:
  // the batched lanes must hold exactly what per-tuple Send() would
  // have appended, in the same order.
  std::vector<storage::Tuple> tuples;
  storage::TupleBlock block;
  for (int32_t i = 0; i < 200; ++i) tuples.push_back(MakeTuple(i * 7919));
  for (const storage::Tuple& t : tuples) {
    block.push_back(storage::TupleView{t.data(), t.size()});
  }
  const db::SplitTable table = db::SplitTable::Joining({0, 1, 2});
  const RouteSource source{&schema_, 0, kDefaultHashSeed, &table, nullptr};
  size_t seen = 0;
  const auto decide = [&](const storage::TupleView&, uint64_t,
                          uint32_t index) -> Route {
    if (seen++ % 5 == 4) return Route::Drop();
    return Route{table.entry(index).node, 3, static_cast<int32_t>(index)};
  };

  sim::Exchange<RoutedTuple> batched(&machine_);
  RouteScratch scratch(static_cast<size_t>(machine_.num_nodes()));
  RouteBlock(machine_.node(0), source, block, batched, &scratch, decide);

  sim::Exchange<RoutedTuple> scalar(&machine_);
  seen = 0;
  for (size_t i = 0; i < block.size(); ++i) {
    const storage::TupleView& v = block.view(i);
    const uint64_t hash =
        HashJoinAttribute(schema_.GetInt32(v.data, 0), kDefaultHashSeed);
    uint32_t index = 0;
    table.RouteIndices(&hash, 1, &index);
    const Route r = decide(v, hash, index);
    if (r.node < 0) continue;
    scalar.Send(0, r.node, RoutedTuple{v.data, v.size, hash, r.kind, r.aux},
                v.size);
  }

  size_t destinations = 0;
  for (int dst = 0; dst < 3; ++dst) {
    const std::vector<RoutedTuple> got = batched.TakeInbox(dst);
    const std::vector<RoutedTuple> want = scalar.TakeInbox(dst);
    ASSERT_EQ(got.size(), want.size()) << "destination " << dst;
    if (!got.empty()) ++destinations;
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].data, want[k].data) << dst << "/" << k;
      EXPECT_EQ(got[k].hash, want[k].hash);
      EXPECT_EQ(got[k].kind, want[k].kind);
      EXPECT_EQ(got[k].aux, want[k].aux);
    }
  }
  EXPECT_EQ(destinations, 3u);
}

TEST_F(BucketFileSetTest, ZeroBucketsIsValid) {
  BucketFileSet files(&machine_, &schema_, 0, "t");
  EXPECT_EQ(files.num_buckets(), 0);
  EXPECT_EQ(files.num_disks(), 0u);
}

}  // namespace
}  // namespace gammadb::join
