// Catalog of stored relations. A stored relation is horizontally
// declustered: one heap-file fragment per disk node (paper Section 2.2,
// "all relations are horizontally partitioned across all disk drives in
// the system").
#ifndef GAMMA_GAMMA_CATALOG_H_
#define GAMMA_GAMMA_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/machine.h"
#include "storage/heap_file.h"
#include "storage/schema.h"

namespace gammadb::db {

/// How tuples were assigned to disk sites at load time (Section 2.2).
enum class PartitionStrategy {
  kRoundRobin,
  kHashed,        // randomizing function on the partitioning attribute
  kRangeUser,     // user-specified key ranges per site
  kRangeUniform,  // system-derived ranges for a uniform spread
};

const char* PartitionStrategyName(PartitionStrategy s);

class StoredRelation {
 public:
  /// Creates an empty relation declustered over `home_nodes` (which must
  /// all be disk nodes of `machine`).
  StoredRelation(std::string name, storage::Schema schema,
                 std::vector<int> home_nodes, sim::Machine* machine);

  const std::string& name() const { return name_; }
  const storage::Schema& schema() const { return schema_; }
  const std::vector<int>& home_nodes() const { return home_nodes_; }
  size_t num_fragments() const { return fragments_.size(); }

  /// Fragment living on home_nodes()[i].
  storage::HeapFile& fragment(size_t i) { return *fragments_[i]; }
  const storage::HeapFile& fragment(size_t i) const { return *fragments_[i]; }
  const std::vector<std::unique_ptr<storage::HeapFile>>& fragments() const {
    return fragments_;
  }

  size_t total_tuples() const;
  uint64_t total_bytes() const;

  /// Reads every tuple of every fragment without simulated cost
  /// (verification only).
  std::vector<storage::Tuple> PeekAllTuples() const;

  /// Releases all fragment pages.
  void FreeStorage();

 private:
  std::string name_;
  storage::Schema schema_;
  std::vector<int> home_nodes_;
  std::vector<std::unique_ptr<storage::HeapFile>> fragments_;
};

class Catalog {
 public:
  /// Creates a relation declustered across all disk nodes of `machine`.
  Result<StoredRelation*> Create(sim::Machine& machine, std::string name,
                                 storage::Schema schema);

  Result<StoredRelation*> Get(const std::string& name) const;

  /// Frees the relation's storage and forgets it.
  Status Drop(const std::string& name);

  std::vector<std::string> Names() const;

 private:
  std::map<std::string, std::unique_ptr<StoredRelation>> relations_;
};

}  // namespace gammadb::db

#endif  // GAMMA_GAMMA_CATALOG_H_
