// The Wisconsin Benchmark relations (paper Section 4; [BITT83]).
//
// Each tuple is thirteen 4-byte integers followed by three 52-byte
// strings — 208 bytes. joinABprime joins a 100,000-tuple relation
// (~20 MB) with a 10,000-tuple relation (~2 MB) into a 10,000-tuple
// result (~4 MB).
//
// For the non-uniform-distribution experiments (paper Section 4.4) the
// generator can fill the `normal` column with values drawn from
// N(50,000, 750) clamped to the 0..99,999 domain, and the inner
// relation is created by randomly sampling tuples from the outer one,
// exactly as the paper describes.
#ifndef GAMMA_WISCONSIN_WISCONSIN_H_
#define GAMMA_WISCONSIN_WISCONSIN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "gamma/catalog.h"
#include "gamma/loader.h"
#include "sim/machine.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace gammadb::wisconsin {

/// Field indices in the Wisconsin schema.
namespace fields {
inline constexpr int kUnique1 = 0;        // 0..n-1, random permutation
inline constexpr int kUnique2 = 1;        // 0..n-1, independent permutation
inline constexpr int kTwo = 2;            // unique1 mod 2
inline constexpr int kFour = 3;           // unique1 mod 4
inline constexpr int kTen = 4;            // unique1 mod 10
inline constexpr int kTwenty = 5;         // unique1 mod 20
inline constexpr int kOnePercent = 6;     // unique1 mod 100
inline constexpr int kTenPercent = 7;     // unique1 mod 10
inline constexpr int kTwentyPercent = 8;  // unique1 mod 5
inline constexpr int kFiftyPercent = 9;   // unique1 mod 2
inline constexpr int kNormal = 10;        // N(50000, 750) when enabled,
                                          // else a third permutation
                                          // (the benchmark's unique3)
inline constexpr int kEvenOnePercent = 11;  // onePercent * 2
inline constexpr int kOddOnePercent = 12;   // onePercent * 2 + 1
inline constexpr int kStringU1 = 13;        // 52 chars, derived from unique1
inline constexpr int kStringU2 = 14;        // 52 chars, derived from unique2
inline constexpr int kString4 = 15;         // 52 chars, cyclic
}  // namespace fields

/// The 208-byte Wisconsin schema.
storage::Schema WisconsinSchema();

struct GenOptions {
  uint32_t cardinality = 10000;
  uint64_t seed = 42;
  /// Fill the `normal` column from N(normal_mean, normal_stddev),
  /// rounded and clamped to [normal_min, normal_max].
  bool with_normal_attr = false;
  double normal_mean = 50000;
  double normal_stddev = 750;
  int32_t normal_min = 0;
  int32_t normal_max = 99999;
  /// Fill the `normal` column from a Zipf(zipf_theta) distribution over
  /// ranks 0..cardinality-1 instead (rank 0 is the hottest value;
  /// theta 0 degenerates to uniform). Used by the adaptive-repartition
  /// experiments (docs/skew.md). Mutually exclusive with
  /// `with_normal_attr`.
  bool with_zipf_attr = false;
  double zipf_theta = 1.0;
};

/// Generates `cardinality` Wisconsin tuples deterministically.
std::vector<storage::Tuple> Generate(const GenOptions& options);

/// `k` tuples drawn without replacement (the paper's Bprime / skewed
/// inner relations are random samples of the outer relation).
std::vector<storage::Tuple> SampleWithoutReplacement(
    const std::vector<storage::Tuple>& tuples, uint32_t k, uint64_t seed);

/// Creates and loads the joinABprime pair of relations.
struct DatasetOptions {
  std::string outer_name = "A";
  std::string inner_name = "Bprime";
  uint32_t outer_cardinality = 100000;
  uint32_t inner_cardinality = 10000;
  uint64_t seed = 42;
  bool with_normal_attr = false;
  /// See GenOptions: Zipf-distributed `normal` column for the
  /// skew-adaptive experiments.
  bool with_zipf_attr = false;
  double zipf_theta = 1.0;
  /// Declustering applied to both relations at load time.
  db::PartitionStrategy strategy = db::PartitionStrategy::kHashed;
  int partition_field = fields::kUnique1;
};

struct Dataset {
  db::StoredRelation* outer = nullptr;  // the 100k relation (S)
  db::StoredRelation* inner = nullptr;  // the 10k relation (R)
};

/// The inner relation is sampled from the outer one, so an
/// inner_cardinality above outer_cardinality is InvalidArgument (and
/// nothing is created).
Result<Dataset> LoadJoinABprime(sim::Machine& machine, db::Catalog& catalog,
                                const DatasetOptions& options);

}  // namespace gammadb::wisconsin

#endif  // GAMMA_WISCONSIN_WISCONSIN_H_
