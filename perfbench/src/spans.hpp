// Call spans recorded by the benchmark's own code around each call into a
// layer's public functions.
//
// A span records name, start, end, parent span and item id.  Spans stay in
// memory until the run ends; then SpanIndex derives durations and self
// times (a span minus the part of it its children cover), and the recorder
// writes the whole set as Chrome trace-event JSON, loadable in Perfetto or
// chrome://tracing.  A null recorder records nothing: every hook is one
// branch on the pointer.
#pragma once

#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Span {
  std::string name;
  i64 start_ns = 0;
  i64 end_ns = 0;
  i32 id = -1;
  i32 parent = -1;  ///< enclosing span on the same thread, -1 at top level
  i64 item = -1;    ///< workload item the span belongs to
  int thread = 0;   ///< small per-process thread number

  double ms() const { return ms_between(start_ns, end_ns); }
};

class SpanRecorder {
 public:
  /// Opens a span; its parent is the innermost span this thread has open
  /// on this recorder.
  i32 begin(std::string_view name, i64 item);
  void end(i32 id);

  std::vector<Span> snapshot() const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps).  Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `recorder` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name, i64 item)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->begin(name, item) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  i32 id_;
};

/// Read-only queries over a finished recording.
class SpanIndex {
 public:
  explicit SpanIndex(const SpanRecorder& recorder);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations of every span called `name`, in recording order.
  std::vector<double> durations_ms(std::string_view name) const;
  /// Self times of every span called `name`.
  std::vector<double> self_ms(std::string_view name) const;
  /// Duration of a span minus the time its direct children cover.
  double self_ms(const Span& span) const;
  /// Summed duration of spans called `name`, per item.
  std::unordered_map<i64, double> ms_by_item(std::string_view name) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::vector<i32>> children_;
};

}  // namespace perfbench
