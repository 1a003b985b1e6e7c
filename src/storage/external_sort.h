// External merge sort: the WiSS "sort utility" used by the parallel
// sort-merge join (paper Section 3.1).
//
// Run formation fills a memory buffer of `memory_pages` pages, sorts it
// (comparison costs are charged from actual comparator invocations) and
// spills a sorted run to disk. If everything fits in the buffer the sort
// stays in memory and no run I/O is paid. Intermediate merge passes run
// with fan-in = memory_pages - 1 (one output buffer) until the remaining
// runs can be merged in a single pass; that final merge is *streamed* to
// the consumer (the merge join), which both saves the last write+read
// pass and lets a consumer that stops early (skewed inner exhausted)
// avoid reading the tail of the data — the effect behind sort-merge's
// surprising NU speedup in Table 3 of the paper.
//
// The number of merge passes grows stepwise as memory shrinks, which is
// exactly the staircase in the paper's sort-merge response-time curves.
//
// Host-side layout (docs/performance.md, "The sort path"): the buffer is
// one arena of records stored back to back plus 8-byte {key, slot}
// entries, and run formation sorts the entries, never the records.
// std::sort's moves depend only on its comparator's answers, so the
// entry sort makes the same comparator calls as a sort of whole tuples
// and leaves equal keys in the same order: the kSortCompare charge and
// the run contents are those of the tuple sort. Merges read their runs
// through page views (HeapFile::Scanner::NextBlock), valid until the
// run is freed; a merged record is copied once, into the output page or
// into the final stream's Tuple.
#ifndef GAMMA_STORAGE_EXTERNAL_SORT_H_
#define GAMMA_STORAGE_EXTERNAL_SORT_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "sim/node.h"
#include "storage/heap_file.h"
#include "storage/tuple_stream.h"

namespace gammadb::storage {

class ExternalSort {
 public:
  /// Sorts ascending by the int32 field `key_field`. `memory_pages` is
  /// the sort/merge workspace (>= 3: one output + two input buffers).
  /// The buffer is allocated as input arrives, so a huge budget costs
  /// no more memory than the input.
  ExternalSort(sim::Node* node, const Schema* schema, int key_field,
               uint32_t memory_pages);
  ~ExternalSort();

  ExternalSort(const ExternalSort&) = delete;
  ExternalSort& operator=(const ExternalSort&) = delete;

  /// Adds one tuple to the sort input (spills a run when the buffer
  /// fills). Fails when a run write exhausts the disk retry budget.
  Status Add(const Tuple& tuple);

  /// Reads an entire heap file into the sort (scan costs are charged).
  /// Fails on a scan read error or a spill write error.
  Status AddFile(const HeapFile& file);

  /// Ends input: sorts the tail, then performs intermediate merge passes
  /// until the remainder is single-pass mergeable. Must be called before
  /// OpenStream(). Fails on run I/O errors.
  Status FinishInput();

  /// Sorted output stream (single final merge or in-memory). May only be
  /// called once.
  std::unique_ptr<TupleStream> OpenStream();

  /// Effective full passes over the data performed by intermediate
  /// merging (total intermediately merged tuples / input tuples,
  /// rounded up; 0 when the initial runs were already single-pass
  /// mergeable).
  int intermediate_passes() const;
  /// Tuples that flowed through intermediate merge steps.
  uint64_t intermediate_merged_tuples() const {
    return intermediate_merged_tuples_;
  }
  /// Sorted runs on disk after FinishInput (0 for an in-memory sort).
  size_t run_count() const { return runs_.size(); }
  size_t tuple_count() const { return tuple_count_; }

 private:
  /// One buffered record: its sort key and its slot in `arena_`.
  struct SortEntry {
    int32_t key;
    uint32_t slot;
  };
  class ArenaStream;

  /// Copies one record into the buffer; spills a run when it fills.
  Status Buffer(const uint8_t* record);
  void SortBuffer();
  Status SpillRun();
  /// Merges `group` into `out` (a fresh run); frees the inputs on
  /// success.
  Status MergeGroupInto(std::vector<HeapFile>&& group, HeapFile* out);

  sim::Node* node_;
  const Schema* schema_;
  size_t key_field_;
  uint32_t tuple_bytes_;
  uint32_t memory_pages_;
  size_t buffer_capacity_tuples_;  // < 2^32, so every slot fits

  std::vector<uint8_t> arena_;      // buffered records, back to back
  std::vector<SortEntry> entries_;  // one per buffered record
  std::vector<HeapFile> runs_;
  size_t tuple_count_ = 0;
  uint64_t intermediate_merged_tuples_ = 0;
  bool finished_ = false;
  bool streamed_ = false;
};

}  // namespace gammadb::storage

#endif  // GAMMA_STORAGE_EXTERNAL_SORT_H_
