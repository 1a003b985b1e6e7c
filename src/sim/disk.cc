#include "sim/disk.h"

#include <cstring>
#include <string>

#include "common/logging.h"
#include "sim/fault.h"
#include "sim/node.h"

namespace gammadb::sim {

Disk::Disk(Node* owner, const CostModel* cost) : owner_(owner), cost_(cost) {}

PageId Disk::AllocatePage() {
  if (!free_list_.empty()) {
    const PageId id = free_list_.back();
    free_list_.pop_back();
    std::memset(pages_[id].get(), 0, cost_->page_bytes);
    return id;
  }
  pages_.push_back(std::make_unique<uint8_t[]>(cost_->page_bytes));
  std::memset(pages_.back().get(), 0, cost_->page_bytes);
  return static_cast<PageId>(pages_.size() - 1);
}

void Disk::FreePage(PageId id) {
  GAMMA_DCHECK(id < pages_.size());
  free_list_.push_back(id);
}

Status Disk::RunIoAttempts(bool is_write) const {
  Counters& counters = owner_->counters();
  for (int attempt = 1;; ++attempt) {
    // Every attempt pays full device + issue-CPU time: a retried I/O is
    // a real arm movement plus a fresh WiSS call.
    owner_->ChargeDisk(cost_->disk_seq_page_seconds, CostCategory::kDiskSeq);
    owner_->ChargeCpu(cost_->cpu_page_io_seconds, CostCategory::kIoIssue);
    FaultInjector* faults = owner_->fault_injector();
    const bool failed =
        faults != nullptr && (is_write ? faults->OnPageWrite(owner_->id())
                                       : faults->OnPageRead(owner_->id()));
    if (!failed) {
      if (is_write) {
        ++counters.pages_written;
      } else {
        ++counters.pages_read;
      }
      return Status::OK();
    }
    if (is_write) {
      ++counters.disk_write_faults;
    } else {
      ++counters.disk_read_faults;
    }
    if (attempt >= kMaxIoAttempts) {
      return Status::Unavailable(
          std::string("page ") + (is_write ? "write" : "read") +
          " failed after " + std::to_string(kMaxIoAttempts) +
          " attempts on node " + std::to_string(owner_->id()));
    }
    ++counters.io_retries;
  }
}

Status Disk::WritePage(PageId id, const uint8_t* data) {
  GAMMA_DCHECK(id < pages_.size());
  GAMMA_RETURN_IF_ERROR(RunIoAttempts(/*is_write=*/true));
  std::memcpy(pages_[id].get(), data, cost_->page_bytes);
  return Status::OK();
}

Status Disk::ReadPageRef(PageId id, const uint8_t** out) const {
  GAMMA_DCHECK(id < pages_.size());
  GAMMA_RETURN_IF_ERROR(RunIoAttempts(/*is_write=*/false));
  *out = pages_[id].get();
  return Status::OK();
}

const uint8_t* Disk::PeekPage(PageId id) const {
  GAMMA_DCHECK(id < pages_.size());
  return pages_[id].get();
}

}  // namespace gammadb::sim
