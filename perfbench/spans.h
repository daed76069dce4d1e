// In-memory span recorder for the traced replay. A span has a name, start,
// end and parent; every span of one replayed operation (an update batch or
// a query) carries that operation's id. A layer's self time is its span's
// duration minus the time its child spans cover. Spans stay in memory and
// are exported to an obs::TraceBuffer (Chrome trace) when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace helios::perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the recorder's spans, -1 = root
  std::uint64_t op = 0;      // id shared by all spans of one operation
  std::uint32_t lane = 0;    // Chrome-trace thread lane (0 updates, 1 queries)
};

struct LayerTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t count = 0;
  std::vector<double> durations_ns;  // per span, for percentiles
};

class SpanRecorder {
 public:
  // Opens a span under the innermost open one and returns its index.
  std::int32_t Begin(const char* name, std::uint64_t op, std::uint32_t lane) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op;
    s.lane = lane;
    spans_.push_back(s);
    const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
    open_.push_back(idx);
    spans_[idx].start_ns = NowNs();
    return idx;
  }
  void End(std::int32_t idx) {
    spans_[idx].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: self time, total time, count and durations.
  std::map<std::string, LayerTotals> Totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, LayerTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      LayerTotals& t = out[s.name];
      const std::int64_t dur = s.end_ns - s.start_ns;
      t.total_ns += dur;
      t.self_ns += dur - child_ns[i];
      t.count += 1;
      t.durations_ns.push_back(static_cast<double>(dur));
    }
    return out;
  }

  // Chrome trace: one complete event per span, microseconds from `base_ns`.
  void Export(obs::TraceBuffer& trace, std::int64_t base_ns) const {
    trace.SetProcessName(1, "perfbench-replay");
    for (const Span& s : spans_) {
      trace.AddComplete(s.name, s.lane == 0 ? "update" : "query", (s.start_ns - base_ns) / 1000,
                        (s.end_ns - s.start_ns) / 1000, 1, s.lane);
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// RAII span; a null recorder makes it a no-op (the untraced replay).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::uint64_t op, std::uint32_t lane)
      : rec_(rec), idx_(rec != nullptr ? rec->Begin(name, op, lane) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t idx_;
};

}  // namespace helios::perfbench
