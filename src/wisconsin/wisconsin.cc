#include "wisconsin/wisconsin.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/random.h"

namespace gammadb::wisconsin {

namespace {

/// Classic Wisconsin string: the value encoded in letters at the front,
/// padded with 'x' to 52 characters.
std::string WisconsinString(int32_t value) {
  std::string s(52, 'x');
  uint32_t v = static_cast<uint32_t>(value);
  for (int pos = 6; pos >= 0; --pos) {
    s[static_cast<size_t>(pos)] = static_cast<char>('A' + (v % 26));
    v /= 26;
  }
  return s;
}

/// Cumulative Zipf(theta) distribution over `n` ranks: weight of rank r
/// is 1/(r+1)^theta. theta == 0 is uniform.
std::vector<double> ZipfCdf(uint32_t n, double theta) {
  std::vector<double> cdf(n);
  double total = 0;
  for (uint32_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r) + 1.0, theta);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

}  // namespace

storage::Schema WisconsinSchema() {
  using storage::Field;
  return storage::Schema({
      Field::Int32("unique1"),
      Field::Int32("unique2"),
      Field::Int32("two"),
      Field::Int32("four"),
      Field::Int32("ten"),
      Field::Int32("twenty"),
      Field::Int32("onePercent"),
      Field::Int32("tenPercent"),
      Field::Int32("twentyPercent"),
      Field::Int32("fiftyPercent"),
      Field::Int32("normal"),
      Field::Int32("evenOnePercent"),
      Field::Int32("oddOnePercent"),
      Field::Char("stringu1", 52),
      Field::Char("stringu2", 52),
      Field::Char("string4", 52),
  });
}

std::vector<storage::Tuple> Generate(const GenOptions& options) {
  const storage::Schema schema = WisconsinSchema();
  GAMMA_CHECK_EQ(schema.tuple_bytes(), 208u);
  const uint32_t n = options.cardinality;
  GAMMA_CHECK(!(options.with_normal_attr && options.with_zipf_attr));
  Rng rng(options.seed);
  std::vector<double> zipf_cdf;
  if (options.with_zipf_attr && n > 0) {
    zipf_cdf = ZipfCdf(n, options.zipf_theta);
  }

  std::vector<int32_t> unique1(n), unique2(n), third(n);
  for (uint32_t i = 0; i < n; ++i) {
    unique1[i] = static_cast<int32_t>(i);
    unique2[i] = static_cast<int32_t>(i);
    third[i] = static_cast<int32_t>(i);
  }
  rng.Shuffle(unique1);
  rng.Shuffle(unique2);
  rng.Shuffle(third);

  static const char* const kFourStrings[4] = {"AAAA", "HHHH", "OOOO", "VVVV"};

  std::vector<storage::Tuple> tuples;
  tuples.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    storage::Tuple t(schema.tuple_bytes());
    const int32_t u1 = unique1[i];
    const int32_t u2 = unique2[i];
    t.SetInt32(schema, fields::kUnique1, u1);
    t.SetInt32(schema, fields::kUnique2, u2);
    t.SetInt32(schema, fields::kTwo, u1 % 2);
    t.SetInt32(schema, fields::kFour, u1 % 4);
    t.SetInt32(schema, fields::kTen, u1 % 10);
    t.SetInt32(schema, fields::kTwenty, u1 % 20);
    t.SetInt32(schema, fields::kOnePercent, u1 % 100);
    t.SetInt32(schema, fields::kTenPercent, u1 % 10);
    t.SetInt32(schema, fields::kTwentyPercent, u1 % 5);
    t.SetInt32(schema, fields::kFiftyPercent, u1 % 2);
    int32_t normal_value = third[i];
    if (options.with_zipf_attr) {
      const double u = rng.NextDouble();
      const auto it = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u);
      normal_value = static_cast<int32_t>(
          std::min<size_t>(static_cast<size_t>(it - zipf_cdf.begin()),
                           zipf_cdf.size() - 1));
    } else if (options.with_normal_attr) {
      const double draw =
          std::round(rng.NextGaussian(options.normal_mean, options.normal_stddev));
      normal_value = static_cast<int32_t>(
          std::clamp(draw, static_cast<double>(options.normal_min),
                     static_cast<double>(options.normal_max)));
    }
    t.SetInt32(schema, fields::kNormal, normal_value);
    t.SetInt32(schema, fields::kEvenOnePercent, (u1 % 100) * 2);
    t.SetInt32(schema, fields::kOddOnePercent, (u1 % 100) * 2 + 1);
    t.SetChars(schema, fields::kStringU1, WisconsinString(u1));
    t.SetChars(schema, fields::kStringU2, WisconsinString(u2));
    t.SetChars(schema, fields::kString4, kFourStrings[i % 4]);
    tuples.push_back(std::move(t));
  }
  return tuples;
}

std::vector<storage::Tuple> SampleWithoutReplacement(
    const std::vector<storage::Tuple>& tuples, uint32_t k, uint64_t seed) {
  GAMMA_CHECK_LE(static_cast<size_t>(k), tuples.size());
  Rng rng(seed);
  const std::vector<uint32_t> picks =
      rng.SampleWithoutReplacement(static_cast<uint32_t>(tuples.size()), k);
  std::vector<storage::Tuple> out;
  out.reserve(k);
  for (uint32_t idx : picks) out.push_back(tuples[idx]);
  return out;
}

Result<Dataset> LoadJoinABprime(sim::Machine& machine, db::Catalog& catalog,
                                const DatasetOptions& options) {
  if (options.inner_cardinality > options.outer_cardinality) {
    return Status::InvalidArgument(
        "inner cardinality " + std::to_string(options.inner_cardinality) +
        " exceeds outer cardinality " +
        std::to_string(options.outer_cardinality));
  }
  GenOptions gen;
  gen.cardinality = options.outer_cardinality;
  gen.seed = options.seed;
  gen.with_normal_attr = options.with_normal_attr;
  gen.with_zipf_attr = options.with_zipf_attr;
  gen.zipf_theta = options.zipf_theta;
  // Scale the skew distribution with the domain: at the paper's 100k
  // cardinality this is exactly N(50000, 750) over 0..99999.
  gen.normal_mean = options.outer_cardinality / 2.0;
  gen.normal_stddev = options.outer_cardinality * (750.0 / 100000.0);
  gen.normal_min = 0;
  gen.normal_max = static_cast<int32_t>(options.outer_cardinality) - 1;
  std::vector<storage::Tuple> outer_tuples = Generate(gen);
  std::vector<storage::Tuple> inner_tuples = SampleWithoutReplacement(
      outer_tuples, options.inner_cardinality, options.seed + 1);

  Dataset dataset;
  GAMMA_ASSIGN_OR_RETURN(
      dataset.outer,
      catalog.Create(machine, options.outer_name, WisconsinSchema()));
  GAMMA_ASSIGN_OR_RETURN(
      dataset.inner,
      catalog.Create(machine, options.inner_name, WisconsinSchema()));

  db::LoadOptions load;
  load.strategy = options.strategy;
  load.partition_field = options.partition_field;
  GAMMA_RETURN_IF_ERROR(db::LoadRelation(dataset.outer, outer_tuples, load));
  GAMMA_RETURN_IF_ERROR(db::LoadRelation(dataset.inner, inner_tuples, load));
  return dataset;
}

}  // namespace gammadb::wisconsin
