#include "storage/external_sort.h"

#include <algorithm>

#include "common/logging.h"
#include "storage/page.h"

namespace gammadb::storage {

namespace {

/// Cursor over one sorted run. The current record is a view into the
/// run's page, valid until the run is freed.
class RunCursor {
 public:
  RunCursor(const HeapFile* file, size_t key_field)
      : file_(file), scanner_(file->Scan()), key_field_(key_field) {}

  /// Steps to the next record, charging page I/O and then the record
  /// read. False at end of run or on a page-read failure (see
  /// status()).
  bool Advance() {
    if (next_ >= block_.size()) {
      if (!scanner_.NextBlock(&block_)) return false;
      next_ = 0;
    }
    file_->node()->ChargeCpu(file_->node()->cost().cpu_read_tuple_seconds,
                             sim::CostCategory::kReadTuple);
    record_ = block_.view(next_++).data;
    return true;
  }

  const uint8_t* record() const { return record_; }
  int32_t key() const { return file_->schema().GetInt32(record_, key_field_); }
  /// Non-OK when the cursor stopped on a page-read failure rather than
  /// at end of run.
  const Status& status() const { return scanner_.status(); }

 private:
  const HeapFile* file_;
  HeapFile::Scanner scanner_;
  size_t key_field_;
  TupleBlock block_;
  size_t next_ = 0;
  const uint8_t* record_ = nullptr;
};

/// k-way merge over run cursors; comparator invocations are counted so
/// real comparison work is charged, not an estimate. The heap carries
/// each cursor's current key, so a compare reads no record.
class MergeStream : public TupleStream {
 public:
  MergeStream(sim::Node* node, size_t key_field, uint32_t tuple_bytes,
              std::vector<HeapFile>* runs)
      : node_(node), tuple_bytes_(tuple_bytes) {
    cursors_.reserve(runs->size());
    for (HeapFile& run : *runs) {
      RunCursor& cursor = cursors_.emplace_back(&run, key_field);
      if (cursor.Advance()) {
        heap_.push_back(
            {cursor.key(), static_cast<uint32_t>(cursors_.size() - 1)});
      } else {
        if (!cursor.status().ok() && status_.ok()) status_ = cursor.status();
        cursors_.pop_back();
      }
    }
    std::make_heap(heap_.begin(), heap_.end(), Greater{&compares_});
  }

  /// The next record in key order, as a view into its run's page.
  bool NextRecord(const uint8_t** record) {
    ChargeCompares();
    if (!status_.ok() || heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Greater{&compares_});
    HeapItem& top = heap_.back();
    RunCursor& cursor = cursors_[top.cursor];
    *record = cursor.record();
    if (cursor.Advance()) {
      top.key = cursor.key();
      std::push_heap(heap_.begin(), heap_.end(), Greater{&compares_});
    } else {
      heap_.pop_back();
      if (!cursor.status().ok()) status_ = cursor.status();
    }
    ChargeCompares();
    return true;
  }

  bool Next(Tuple* out) override {
    const uint8_t* record = nullptr;
    if (!NextRecord(&record)) return false;
    out->Assign(record, tuple_bytes_);
    return true;
  }

  Status status() const override { return status_; }

 private:
  struct HeapItem {
    int32_t key;
    uint32_t cursor;
  };

  /// The heap order (a min-heap on key), counting each call.
  struct Greater {
    size_t* compares;
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      ++*compares;
      return a.key > b.key;
    }
  };

  void ChargeCompares() {
    if (compares_ > 0) {
      node_->ChargeCpu(static_cast<double>(compares_) *
                           node_->cost().cpu_sort_compare_seconds,
                       sim::CostCategory::kSortCompare);
      compares_ = 0;
    }
  }

  sim::Node* node_;
  uint32_t tuple_bytes_;
  std::vector<RunCursor> cursors_;
  std::vector<HeapItem> heap_;
  Status status_;
  size_t compares_ = 0;
};

}  // namespace

/// Stream over a fully in-memory sorted buffer: the arena's records in
/// entry order.
class ExternalSort::ArenaStream : public TupleStream {
 public:
  ArenaStream(std::vector<uint8_t> arena, std::vector<SortEntry> entries,
              uint32_t tuple_bytes)
      : arena_(std::move(arena)),
        entries_(std::move(entries)),
        tuple_bytes_(tuple_bytes) {}

  bool Next(Tuple* out) override {
    if (next_ >= entries_.size()) return false;
    out->Assign(arena_.data() +
                    static_cast<size_t>(entries_[next_++].slot) * tuple_bytes_,
                tuple_bytes_);
    return true;
  }

 private:
  std::vector<uint8_t> arena_;
  std::vector<SortEntry> entries_;
  uint32_t tuple_bytes_;
  size_t next_ = 0;
};

ExternalSort::ExternalSort(sim::Node* node, const Schema* schema,
                           int key_field, uint32_t memory_pages)
    : node_(node),
      schema_(schema),
      key_field_(static_cast<size_t>(key_field)),
      tuple_bytes_(schema->tuple_bytes()),
      memory_pages_(std::max(3u, memory_pages)) {
  GAMMA_CHECK(key_field >= 0 &&
              static_cast<size_t>(key_field) < schema->num_fields());
  GAMMA_CHECK(schema->field(static_cast<size_t>(key_field)).type ==
              FieldType::kInt32)
      << "sort key must be an int32 field";
  buffer_capacity_tuples_ = std::min<uint64_t>(
      UINT32_MAX, static_cast<uint64_t>(memory_pages_) *
                      PageCapacity(node->cost().page_bytes, tuple_bytes_));
}

ExternalSort::~ExternalSort() {
  for (HeapFile& run : runs_) run.Free();
}

Status ExternalSort::Buffer(const uint8_t* record) {
  entries_.push_back(
      {schema_->GetInt32(record, key_field_),
       static_cast<uint32_t>(entries_.size())});
  arena_.insert(arena_.end(), record, record + tuple_bytes_);
  ++tuple_count_;
  if (entries_.size() >= buffer_capacity_tuples_) {
    GAMMA_RETURN_IF_ERROR(SpillRun());
  }
  return Status::OK();
}

Status ExternalSort::Add(const Tuple& tuple) {
  GAMMA_CHECK(!finished_);
  GAMMA_DCHECK(tuple.size() == tuple_bytes_);
  return Buffer(tuple.data());
}

Status ExternalSort::AddFile(const HeapFile& file) {
  // Block-granular ingest: the per-tuple read CPU the scalar scan
  // charged is charged here per view (same order, including around
  // mid-block spills), and each tuple is copied ONCE — page image
  // straight into the arena, with no intermediate Tuple.
  GAMMA_CHECK(!finished_);
  const size_t records = std::min(buffer_capacity_tuples_,
                                  entries_.size() + file.tuple_count());
  entries_.reserve(records);
  arena_.reserve(records * tuple_bytes_);
  auto scanner = file.Scan();
  TupleBlock block;
  while (scanner.NextBlock(&block)) {
    for (size_t i = 0; i < block.size(); ++i) {
      node_->ChargeCpu(node_->cost().cpu_read_tuple_seconds,
                       sim::CostCategory::kReadTuple);
      GAMMA_RETURN_IF_ERROR(Buffer(block.view(i).data));
    }
  }
  return scanner.status();
}

void ExternalSort::SortBuffer() {
  size_t compares = 0;
  std::sort(entries_.begin(), entries_.end(),
            [&compares](const SortEntry& a, const SortEntry& b) {
              ++compares;
              return a.key < b.key;
            });
  node_->ChargeCpu(
      static_cast<double>(compares) * node_->cost().cpu_sort_compare_seconds,
      sim::CostCategory::kSortCompare);
}

Status ExternalSort::SpillRun() {
  if (entries_.empty()) return Status::OK();
  SortBuffer();
  HeapFile run(node_, schema_, "sort-run");
  Status st;
  for (const SortEntry& e : entries_) {
    st = run.AppendRecord(arena_.data() +
                          static_cast<size_t>(e.slot) * tuple_bytes_);
    if (!st.ok()) break;
  }
  if (st.ok()) st = run.FlushAppends();
  if (!st.ok()) {
    run.Free();
    return st;
  }
  runs_.push_back(std::move(run));
  entries_.clear();
  arena_.clear();
  return Status::OK();
}

Status ExternalSort::MergeGroupInto(std::vector<HeapFile>&& group,
                                    HeapFile* out) {
  MergeStream merge(node_, key_field_, tuple_bytes_, &group);
  const uint8_t* record = nullptr;
  Status st;
  while (merge.NextRecord(&record)) {
    st = out->AppendRecord(record);
    if (!st.ok()) break;
  }
  if (st.ok()) st = merge.status();
  if (st.ok()) st = out->FlushAppends();
  if (!st.ok()) {
    // Put the inputs back so the destructor frees them; the partial
    // output is freed by the caller.
    for (HeapFile& run : group) runs_.push_back(std::move(run));
    return st;
  }
  for (HeapFile& run : group) run.Free();
  return Status::OK();
}

Status ExternalSort::FinishInput() {
  GAMMA_CHECK(!finished_);
  finished_ = true;
  if (runs_.empty()) {
    // Fits in memory: sort in place, stream directly.
    SortBuffer();
    return Status::OK();
  }
  GAMMA_RETURN_IF_ERROR(SpillRun());  // tail
  const size_t fan_in = static_cast<size_t>(memory_pages_ - 1);
  // Intermediate merges until one streamed merge suffices. Merge the
  // SMALLEST runs first and only as many as needed (the textbook
  // optimal merge pattern): the first step reduces the run count to a
  // multiple that later full-width steps bring exactly to fan_in.
  while (runs_.size() > fan_in) {
    std::sort(runs_.begin(), runs_.end(),
              [](const HeapFile& a, const HeapFile& b) {
                return a.tuple_count() < b.tuple_count();
              });
    // Merging k runs removes k-1 from the count; the first (smallest)
    // step removes just enough for the remainder to divide cleanly.
    const size_t excess = runs_.size() - fan_in;
    const size_t k = std::min(fan_in, excess + 1);
    std::vector<HeapFile> group;
    group.reserve(k);
    for (size_t j = 0; j < k; ++j) group.push_back(std::move(runs_[j]));
    runs_.erase(runs_.begin(), runs_.begin() + static_cast<long>(k));
    intermediate_merged_tuples_ += [&group] {
      size_t total = 0;
      for (const HeapFile& r : group) total += r.tuple_count();
      return total;
    }();
    HeapFile merged(node_, schema_, "sort-run");
    const Status st = MergeGroupInto(std::move(group), &merged);
    if (!st.ok()) {
      merged.Free();
      return st;
    }
    runs_.push_back(std::move(merged));
  }
  return Status::OK();
}

int ExternalSort::intermediate_passes() const {
  if (tuple_count_ == 0 || intermediate_merged_tuples_ == 0) return 0;
  // Effective full passes over the data performed by intermediate
  // merging, rounded up (the figure behind the paper's sort-merge
  // staircase).
  return static_cast<int>(
      (intermediate_merged_tuples_ + tuple_count_ - 1) / tuple_count_);
}

std::unique_ptr<TupleStream> ExternalSort::OpenStream() {
  GAMMA_CHECK(finished_) << "FinishInput() not called";
  GAMMA_CHECK(!streamed_) << "OpenStream() may only be called once";
  streamed_ = true;
  if (runs_.empty()) {
    return std::make_unique<ArenaStream>(std::move(arena_),
                                         std::move(entries_), tuple_bytes_);
  }
  return std::make_unique<MergeStream>(node_, key_field_, tuple_bytes_,
                                       &runs_);
}

}  // namespace gammadb::storage
