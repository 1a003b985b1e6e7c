#include "gamma/loader.h"

#include <algorithm>

#include "common/logging.h"

namespace gammadb::db {

namespace {

/// Site index for a value under range declustering with the given
/// ascending upper bounds.
size_t RangeSite(const std::vector<int32_t>& boundaries, int32_t value) {
  size_t site = 0;
  while (site < boundaries.size() && value > boundaries[site]) ++site;
  return site;
}

}  // namespace

std::vector<int32_t> UniformRangeBoundaries(std::vector<int32_t> values,
                                            size_t num_sites) {
  GAMMA_CHECK_GE(num_sites, 1u);
  std::vector<int32_t> boundaries;
  if (num_sites == 1 || values.empty()) return boundaries;
  std::sort(values.begin(), values.end());
  boundaries.reserve(num_sites - 1);
  for (size_t i = 1; i < num_sites; ++i) {
    // Upper bound of site i-1: the value at its quantile position.
    const size_t idx = i * values.size() / num_sites;
    boundaries.push_back(values[idx == 0 ? 0 : idx - 1]);
  }
  return boundaries;
}

Status LoadRelation(StoredRelation* relation,
                    const std::vector<storage::Tuple>& tuples,
                    const LoadOptions& options) {
  if (relation->total_tuples() != 0) {
    return Status::FailedPrecondition("relation '" + relation->name() +
                                      "' is not empty");
  }
  const storage::Schema& schema = relation->schema();
  const size_t num_sites = relation->num_fragments();
  const int field = options.partition_field;

  if (options.strategy != PartitionStrategy::kRoundRobin) {
    if (field < 0 || static_cast<size_t>(field) >= schema.num_fields()) {
      return Status::InvalidArgument("bad partition field");
    }
    if (schema.field(static_cast<size_t>(field)).type !=
        storage::FieldType::kInt32) {
      return Status::InvalidArgument(
          "partitioning attribute must be an int32 field");
    }
  }

  std::vector<int32_t> boundaries = options.range_boundaries;
  switch (options.strategy) {
    case PartitionStrategy::kRangeUser:
      if (boundaries.size() != num_sites - 1) {
        return Status::InvalidArgument(
            "range-user declustering needs num_sites - 1 boundaries");
      }
      if (!std::is_sorted(boundaries.begin(), boundaries.end())) {
        return Status::InvalidArgument("range boundaries must ascend");
      }
      break;
    case PartitionStrategy::kRangeUniform: {
      std::vector<int32_t> values;
      values.reserve(tuples.size());
      for (const auto& t : tuples) {
        values.push_back(t.GetInt32(schema, static_cast<size_t>(field)));
      }
      boundaries = UniformRangeBoundaries(std::move(values), num_sites);
      break;
    }
    default:
      break;
  }

  size_t round_robin_next = 0;
  for (const storage::Tuple& t : tuples) {
    size_t site = 0;
    switch (options.strategy) {
      case PartitionStrategy::kRoundRobin:
        site = round_robin_next;
        round_robin_next = (round_robin_next + 1) % num_sites;
        break;
      case PartitionStrategy::kHashed: {
        const int32_t key = t.GetInt32(schema, static_cast<size_t>(field));
        site = static_cast<size_t>(
            HashJoinAttribute(key, options.hash_seed) % num_sites);
        break;
      }
      case PartitionStrategy::kRangeUser:
      case PartitionStrategy::kRangeUniform:
        site = RangeSite(boundaries,
                         t.GetInt32(schema, static_cast<size_t>(field)));
        break;
    }
    GAMMA_RETURN_IF_ERROR(relation->fragment(site).Append(t));
  }
  for (size_t i = 0; i < num_sites; ++i) {
    GAMMA_RETURN_IF_ERROR(relation->fragment(i).FlushAppends());
  }
  return Status::OK();
}

}  // namespace gammadb::db
