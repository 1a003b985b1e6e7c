// TupleBlock: a fixed-capacity batch of tuple references — the unit of
// the block-granular scan -> split -> exchange pipeline
// (docs/performance.md).
//
// A block holds VIEWS into the simulated disk's page bytes, not owning
// copies: the hot path materializes each tuple exactly once, directly
// inside its destination (an exchange lane slot, a sort buffer, a hash
// table arena). Views stay valid until the scanned file's pages are
// freed (storage/heap_file.h), not merely until the next NextBlock()
// call; the zero-copy exchange drains them a phase round later.
//
// Batching NEVER changes the simulated cost model's charge order — all
// ChargeCpu calls stay in the per-tuple order; only uncharged mechanics
// (copies, hashing arithmetic, lane appends) are reorganized around the
// block.
#ifndef GAMMA_STORAGE_TUPLE_BLOCK_H_
#define GAMMA_STORAGE_TUPLE_BLOCK_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/logging.h"
#include "storage/tuple.h"

namespace gammadb::storage {

/// A non-owning reference to one serialized tuple (typically a record
/// inside a heap-file page image).
struct TupleView {
  const uint8_t* data;
  uint32_t size;

  Tuple ToTuple() const { return Tuple(data, size); }
};

class TupleBlock {
 public:
  /// Fixed capacity; a scan block never spans a page boundary, so the
  /// effective fill is min(kCapacity, tuples left in the page).
  static constexpr size_t kCapacity = 256;

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == kCapacity; }
  void clear() { count_ = 0; }

  void push_back(TupleView view) {
    GAMMA_DCHECK(count_ < kCapacity);
    views_[count_++] = view;
  }

  const TupleView& view(size_t i) const {
    GAMMA_DCHECK(i < count_);
    return views_[i];
  }

 private:
  std::array<TupleView, kCapacity> views_;
  size_t count_ = 0;
};

}  // namespace gammadb::storage

#endif  // GAMMA_STORAGE_TUPLE_BLOCK_H_
