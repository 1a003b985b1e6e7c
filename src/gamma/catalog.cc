#include "gamma/catalog.h"

#include "common/logging.h"

namespace gammadb::db {

const char* PartitionStrategyName(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::kRoundRobin:
      return "round-robin";
    case PartitionStrategy::kHashed:
      return "hashed";
    case PartitionStrategy::kRangeUser:
      return "range-user";
    case PartitionStrategy::kRangeUniform:
      return "range-uniform";
  }
  return "?";
}

StoredRelation::StoredRelation(std::string name, storage::Schema schema,
                               std::vector<int> home_nodes,
                               sim::Machine* machine)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      home_nodes_(std::move(home_nodes)) {
  GAMMA_CHECK(!home_nodes_.empty());
  fragments_.reserve(home_nodes_.size());
  for (int id : home_nodes_) {
    sim::Node& node = machine->node(id);
    GAMMA_CHECK(node.has_disk()) << "relation fragment on diskless node " << id;
    fragments_.push_back(std::make_unique<storage::HeapFile>(
        &node, &schema_, name_ + "." + std::to_string(id)));
  }
}

size_t StoredRelation::total_tuples() const {
  size_t total = 0;
  for (const auto& f : fragments_) total += f->tuple_count();
  return total;
}

uint64_t StoredRelation::total_bytes() const {
  return static_cast<uint64_t>(total_tuples()) * schema_.tuple_bytes();
}

std::vector<storage::Tuple> StoredRelation::PeekAllTuples() const {
  std::vector<storage::Tuple> out;
  out.reserve(total_tuples());
  for (const auto& f : fragments_) {
    auto tuples = f->PeekAll();
    out.insert(out.end(), std::make_move_iterator(tuples.begin()),
               std::make_move_iterator(tuples.end()));
  }
  return out;
}

void StoredRelation::FreeStorage() {
  for (auto& f : fragments_) f->Free();
}

Result<StoredRelation*> Catalog::Create(sim::Machine& machine,
                                        std::string name,
                                        storage::Schema schema) {
  if (relations_.count(name) != 0) {
    return Status::AlreadyExists("relation '" + name + "' exists");
  }
  auto rel = std::make_unique<StoredRelation>(name, std::move(schema),
                                              machine.DiskNodeIds(), &machine);
  StoredRelation* ptr = rel.get();
  relations_.emplace(std::move(name), std::move(rel));
  return ptr;
}

Result<StoredRelation*> Catalog::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + name + "' not found");
  }
  return it->second.get();
}

Status Catalog::Drop(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + name + "' not found");
  }
  it->second->FreeStorage();
  relations_.erase(it);
  return Status::OK();
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

}  // namespace gammadb::db
