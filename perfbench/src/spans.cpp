#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

namespace perfbench {
namespace {

int this_thread_number() {
  static std::atomic<int> next{1};
  thread_local const int number = next.fetch_add(1);
  return number;
}

/// Spans this thread has open, innermost last, tagged with their recorder.
thread_local std::vector<std::pair<const SpanRecorder*, i32>> open_spans;

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

i32 SpanRecorder::begin(std::string_view name, i64 item) {
  i32 parent = -1;
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it)
    if (it->first == this) {
      parent = it->second;
      break;
    }
  Span span;
  span.name = std::string(name);
  span.parent = parent;
  span.item = item;
  span.thread = this_thread_number();
  i32 id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<i32>(spans_.size());
    span.id = id;
    spans_.push_back(std::move(span));
  }
  open_spans.emplace_back(this, id);
  // Stamped last so the bookkeeping above is not inside the span.
  const i64 start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].start_ns = start;
  return id;
}

void SpanRecorder::end(i32 id) {
  const i64 end = now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = end;
  }
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it)
    if (it->first == this && it->second == id) {
      open_spans.erase(std::next(it).base());
      break;
    }
}

std::vector<Span> SpanRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  i64 origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out << ',';
    out << "\n{\"name\":\"" << json_escape(s.name)
        << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.thread;
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << buf << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"item\":" << s.item << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

SpanIndex::SpanIndex(const SpanRecorder& recorder)
    : spans_(recorder.snapshot()), children_(spans_.size()) {
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children_[static_cast<std::size_t>(s.parent)].push_back(s.id);
}

std::vector<double> SpanIndex::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.ms());
  return out;
}

std::vector<double> SpanIndex::self_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(self_ms(s));
  return out;
}

double SpanIndex::self_ms(const Span& span) const {
  // Children run on the parent's thread inside it, one after another, so
  // their durations do not overlap and simply add up.
  double covered = 0.0;
  for (const i32 c : children_[static_cast<std::size_t>(span.id)])
    covered += spans_[static_cast<std::size_t>(c)].ms();
  return std::max(0.0, span.ms() - covered);
}

std::unordered_map<i64, double> SpanIndex::ms_by_item(
    std::string_view name) const {
  std::unordered_map<i64, double> out;
  for (const Span& s : spans_)
    if (s.name == name) out[s.item] += s.ms();
  return out;
}

}  // namespace perfbench
