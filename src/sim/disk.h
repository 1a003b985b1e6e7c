// Simulated disk drive: a page store with I/O cost accounting.
//
// Stands in for the 333 MB Fujitsu 8" drives of the paper's hardware.
// Pages are real 8 KB byte arrays (the storage layer serializes real
// tuples into them); only the *time* is simulated. Every page I/O is
// sequential: WiSS read-ahead on scans, per-file output buffering on
// writes.
#ifndef GAMMA_SIM_DISK_H_
#define GAMMA_SIM_DISK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "sim/cost_model.h"

namespace gammadb::sim {

class Node;

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = UINT32_MAX;

class Disk {
 public:
  /// Attempts per page I/O before a transient fault becomes a hard
  /// Status::Unavailable error (sim/fault.h). Every attempt, failed or
  /// not, charges full device + issue-CPU time.
  static constexpr int kMaxIoAttempts = 4;

  /// The disk charges all I/O to `owner` (in a shared-nothing machine a
  /// disk is only ever accessed by its own processor).
  Disk(Node* owner, const CostModel* cost);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Allocates one page (zero-filled). Allocation itself is free; the
  /// cost is paid when the page is read or written.
  PageId AllocatePage();

  /// Returns a page to the free pool. Freeing is free (Gamma temp files
  /// are dropped by catalog operations, not per-page I/O).
  void FreePage(PageId id);

  /// Copies `cost().page_bytes` bytes into the page and charges one page
  /// write to the owning node. Fails with Status::Unavailable when an
  /// armed fault plan exhausts the retry budget.
  Status WritePage(PageId id, const uint8_t* data);

  /// Charges one page read to the owning node and returns a direct
  /// pointer to the page bytes; the page is never copied. Pages are
  /// individually heap-allocated, so the pointer stays valid until the
  /// page is freed AND re-allocated; callers must not hold it past a
  /// FreePage of the file it belongs to. Fails with Status::Unavailable
  /// when an armed fault plan exhausts the retry budget.
  Status ReadPageRef(PageId id, const uint8_t** out) const;

  /// Direct, read-only view of page bytes WITHOUT charging I/O. Used by
  /// tests and by code paths that re-examine a page already charged.
  const uint8_t* PeekPage(PageId id) const;

  /// Number of live (allocated, not freed) pages.
  size_t live_pages() const { return pages_.size() - free_list_.size(); }

  const CostModel& cost() const { return *cost_; }

 private:
  /// Runs the attempt/retry loop for one page I/O: charges each attempt,
  /// consults the armed fault injector, and counts faults and retries.
  Status RunIoAttempts(bool is_write) const;

  Node* owner_;
  const CostModel* cost_;
  std::vector<std::unique_ptr<uint8_t[]>> pages_;
  std::vector<PageId> free_list_;
};

}  // namespace gammadb::sim

#endif  // GAMMA_SIM_DISK_H_
