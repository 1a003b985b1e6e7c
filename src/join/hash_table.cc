#include "join/hash_table.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace gammadb::join {

JoinHashTable::JoinHashTable(sim::Node* node, const storage::Schema* schema,
                             int key_field, uint64_t capacity_bytes,
                             sim::MemoryBroker* broker)
    : node_(node), schema_(schema), key_field_(key_field), broker_(broker) {
  GAMMA_CHECK_GE(capacity_bytes, static_cast<uint64_t>(schema->tuple_bytes()))
      << "hash table capacity below one tuple";
  // Logical (charged) geometry: ~1 tuple per slot at capacity, exactly
  // as the chained layout sized its chains.
  const uint64_t want_slots =
      std::max<uint64_t>(16, capacity_bytes / schema->tuple_bytes());
  const uint64_t logical_slots = std::bit_ceil(want_slots);
  logical_shift_ = 64 - std::countr_zero(logical_slots);
  num_logical_slots_ = logical_slots;
  // Physical index: 2x the maximum resident count, so the linear-probe
  // load factor stays <= ~1/2 even at a full byte budget.
  GAMMA_CHECK_GE(logical_shift_, 32);  // logical slot fits in a tag
  const uint64_t physical_slots = std::bit_ceil(2 * want_slots);
  home_shift_ = std::countr_zero(physical_slots) -
                std::countr_zero(logical_slots);
  slots_.assign(physical_slots, Slot{0, kEmptySlot});
  entries_.reserve(want_slots);
}

void JoinHashTable::InsertPhysical(uint64_t hash, uint32_t index) {
  const size_t mask = slots_.size() - 1;
  size_t s = HomeSlot(hash);
  while (slots_[s].index != kEmptySlot) s = (s + 1) & mask;
  slots_[s] = Slot{TagOf(hash), index};
}

void JoinHashTable::GrowPhysicalIfNeeded() {
  // Called BEFORE the arena push: grow when the next insert would put
  // the load factor above 1/2, and reinsert the existing entries only.
  if ((entries_.size() + 1) * 2 < slots_.size()) return;
  home_shift_ += 1;
  slots_.assign(slots_.size() * 2, Slot{0, kEmptySlot});
  for (size_t i = 0; i < entries_.size(); ++i) {
    InsertPhysical(entries_[i].hash, static_cast<uint32_t>(i));
  }
}

JoinHashTable::~JoinHashTable() {
  if (bytes_used_ > 0) broker_->Release(node_->id(), bytes_used_);
}

bool JoinHashTable::Insert(storage::Tuple&& tuple, uint64_t hash) {
  if (!broker_->TryReserve(node_->id(), tuple.size())) return false;
  node_->ChargeCpu(node_->cost().cpu_ht_insert_seconds,
                   sim::CostCategory::kHtInsert);
  ++node_->counters().ht_inserts;
  bytes_used_ += tuple.size();
  histogram_.Add(hash);
  const int32_t key =
      tuple.GetInt32(*schema_, static_cast<size_t>(key_field_));
  GrowPhysicalIfNeeded();
  entries_.push_back(Entry{hash, key, std::move(tuple)});
  InsertPhysical(hash, static_cast<uint32_t>(entries_.size() - 1));
  return true;
}

std::vector<std::pair<uint64_t, storage::Tuple>> JoinHashTable::EvictAtOrAbove(
    uint64_t cutoff) {
  // "the tuples in the hash table are examined and all qualifying tuples
  // are written to the overflow file" — a full table search, charged.
  return ExtractIf([cutoff](uint64_t hash) { return hash >= cutoff; });
}

void JoinHashTable::RebuildIndex() {
  std::fill(slots_.begin(), slots_.end(), Slot{0, kEmptySlot});
  for (size_t i = 0; i < entries_.size(); ++i) {
    InsertPhysical(entries_[i].hash, static_cast<uint32_t>(i));
  }
}

JoinHashTable::ChainStats JoinHashTable::ComputeChainStats() const {
  // Recover the logical (charged) chain lengths with one arena pass —
  // stats are per-phase reporting, not hot-path work.
  ChainStats stats;
  stats.tuples = entries_.size();
  std::vector<uint32_t> counts(num_logical_slots_, 0);
  for (const Entry& e : entries_) ++counts[LogicalSlotOf(e.hash)];
  for (uint32_t count : counts) {
    if (count == 0) continue;
    ++stats.occupied_slots;
    stats.max = std::max(stats.max, static_cast<int>(count));
  }
  return stats;
}

void JoinHashTable::Clear() {
  if (bytes_used_ > 0) broker_->Release(node_->id(), bytes_used_);
  entries_.clear();
  std::fill(slots_.begin(), slots_.end(), Slot{0, kEmptySlot});
  bytes_used_ = 0;
  histogram_.Clear();
}

}  // namespace gammadb::join
