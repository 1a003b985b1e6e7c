#include "perf/spans.h"

#include <time.h>

#include <chrono>

#include "common/json.h"
#include "common/logging.h"

namespace gammadb::perf {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

int SpanLog::Open(std::string name, int join_id) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.join_id = join_id;
  spans_.push_back(std::move(span));
  child_seconds_.push_back(0);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  // Read the clock last, so the bookkeeping above is charged to the
  // parent rather than to this span.
  spans_.back().start = NowSeconds();
  return index;
}

void SpanLog::Close(int index) { Finish(index, NowSeconds()); }

void SpanLog::Add(std::string name, int join_id, double start, double end) {
  const int index = Open(std::move(name), join_id);
  spans_[static_cast<size_t>(index)].start = start;
  Finish(index, end);
}

void SpanLog::Finish(int index, double end) {
  GAMMA_CHECK(!open_.empty() && open_.back() == index)
      << "span " << index << " closed out of order";
  open_.pop_back();
  Span& span = spans_[static_cast<size_t>(index)];
  span.end = end;
  if (span.parent >= 0) {
    child_seconds_[static_cast<size_t>(span.parent)] += end - span.start;
  }
}

double SpanLog::SelfSeconds(int index) const {
  const Span& span = spans_[static_cast<size_t>(index)];
  return span.end - span.start - child_seconds_[static_cast<size_t>(index)];
}

double SpanLog::SelfSecondsOf(const std::string& name, int join_id) const {
  double total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].join_id == join_id && spans_[i].name == name) {
      total += SelfSeconds(static_cast<int>(i));
    }
  }
  return total;
}

Status SpanLog::WriteJson(const std::string& path) const {
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  JsonValue list = JsonValue::MakeArray();
  for (const Span& span : spans_) {
    JsonValue item = JsonValue::MakeObject();
    item.Set("name", span.name);
    item.Set("start_s", span.start - origin);
    item.Set("end_s", span.end - origin);
    item.Set("parent", span.parent);
    item.Set("join_id", span.join_id);
    list.Append(std::move(item));
  }
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("spans", std::move(list));
  return WriteJsonFile(path, doc);
}

}  // namespace gammadb::perf
