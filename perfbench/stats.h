// The benchmark's own arithmetic: percentiles with the ten-samples-beyond
// rule, differencing of the program's cumulative latency histograms over a
// phase, open-loop due-time accounting, and the result line's JSON shape.
// Header-only so stats_test.cc checks exactly what the benchmark runs.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace helios::perfbench {

// ---------------------------------------------------------------- percentiles

// Linear-interpolated percentile (q in [0,1]) of an unsorted sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// Samples strictly beyond the q-th percentile of n samples.
inline std::uint64_t SamplesBeyond(std::uint64_t n, double q) {
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

// A tail percentile is reported only when at least ten samples lie beyond it.
inline bool TailSupported(std::uint64_t n, double q) { return SamplesBeyond(n, q) >= 10; }

// The highest of `candidates` (ascending) the sample supports; 0.5 if none.
inline double HighestSupported(std::uint64_t n, const std::vector<double>& candidates) {
  double best = 0.5;
  for (double q : candidates) {
    if (TailSupported(n, q)) best = q;
  }
  return best;
}

// ------------------------------------------------------ cumulative histograms

// Bucket contents of a util::Histogram as its ToJson() prints them:
// (inclusive upper bound, count), ascending, zero buckets omitted.
using Buckets = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

// Parses the "buckets":[[upper,count],...] array of Histogram::ToJson().
inline Buckets ParseBuckets(const std::string& json) {
  Buckets out;
  const std::size_t at = json.find("\"buckets\":[");
  if (at == std::string::npos) return out;
  const char* p = json.c_str() + at + 11;
  while (*p == '[' || *p == ',') {
    if (*p == ',') {
      ++p;
      continue;
    }
    unsigned long long upper = 0, count = 0;
    int used = 0;
    if (std::sscanf(p, "[%llu,%llu]%n", &upper, &count, &used) != 2) break;
    out.emplace_back(upper, count);
    p += used;
  }
  return out;
}

// Inclusive lower bound of the util::Histogram bucket whose upper bound is
// `upper`: values below 16 have exact buckets, above that each power of two
// is split into 8 buckets of width 2^(msb-3).
inline std::uint64_t BucketLower(std::uint64_t upper) {
  if (upper < 16) return upper;
  const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(upper));
  const std::uint64_t width = 1ULL << (msb - 3);
  return upper + 1 - width;
}

// after - before, bucket by bucket: what a cumulative histogram recorded
// during one phase. A bucket that shrank means the two snapshots are not of
// one histogram; `ok` is then cleared.
inline Buckets DiffBuckets(const Buckets& after, const Buckets& before, bool* ok) {
  std::map<std::uint64_t, std::int64_t> m;
  for (const auto& [u, c] : after) m[u] += static_cast<std::int64_t>(c);
  for (const auto& [u, c] : before) m[u] -= static_cast<std::int64_t>(c);
  Buckets out;
  for (const auto& [u, c] : m) {
    if (c < 0 && ok != nullptr) *ok = false;
    if (c > 0) out.emplace_back(u, static_cast<std::uint64_t>(c));
  }
  return out;
}

inline std::uint64_t BucketTotal(const Buckets& b) {
  std::uint64_t n = 0;
  for (const auto& [u, c] : b) n += c;
  return n;
}

// Quantile of bucketed data, interpolating linearly inside the bucket that
// holds the target rank (values spread evenly over [lower, upper+1)).
inline double BucketQuantile(const Buckets& b, double q) {
  const std::uint64_t n = BucketTotal(b);
  if (n == 0) return 0.0;
  const double target = q * static_cast<double>(n);
  double seen = 0;
  for (const auto& [upper, count] : b) {
    const double next = seen + static_cast<double>(count);
    if (next >= target) {
      const double lower = static_cast<double>(BucketLower(upper));
      const double width = static_cast<double>(upper) + 1.0 - lower;
      const double frac = count > 0 ? (target - seen) / static_cast<double>(count) : 0.0;
      return lower + std::clamp(frac, 0.0, 1.0) * width;
    }
    seen = next;
  }
  return static_cast<double>(b.back().first);
}

// ------------------------------------------------------------ open-loop load

// A fixed-rate schedule: request i is due at start + i * period. Latency is
// taken from the due time, so a stall also charges the requests it delays;
// lateness is how far behind its schedule the generator started a request.
struct OpenLoopSchedule {
  std::int64_t start_ns = 0;
  std::int64_t period_ns = 1;
  std::int64_t Due(std::uint64_t i) const {
    return start_ns + static_cast<std::int64_t>(i) * period_ns;
  }
};

struct OpenLoopRecorder {
  std::vector<std::int64_t> due_ns;  // one per request
  std::vector<double> latency_ns;    // done - due, one per request
  std::int64_t max_late_ns = 0;      // max(start - due)

  void Record(std::int64_t due, std::int64_t start, std::int64_t done) {
    due_ns.push_back(due);
    latency_ns.push_back(static_cast<double>(done - due));
    max_late_ns = std::max(max_late_ns, start - due);
  }
};

// The q-th percentile of each window's latencies, requests grouped by due
// time into windows of `window_ns` from `start_ns`. The benchmark reports
// the median over windows: a host stall spoils the windows it falls in, not
// the figure.
inline std::vector<double> WindowPercentiles(const OpenLoopRecorder& rec, std::int64_t start_ns,
                                             std::int64_t window_ns, double q) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < rec.latency_ns.size(); ++i) {
    const auto w = static_cast<std::size_t>(std::max<std::int64_t>(0, rec.due_ns[i] - start_ns) /
                                            window_ns);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(rec.latency_ns[i]);
  }
  std::vector<double> per_window;
  for (auto& w : windows) {
    if (!w.empty()) per_window.push_back(Percentile(std::move(w), q));
  }
  return per_window;
}

// ------------------------------------------------------------- result line

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The last stdout line: {"correct":..,"attempted":..,"failed":..,"metrics":
// {"<name>":{"value":..,"unit":".."},...}}. Values keep 17 significant
// digits. Returns false (and no line) if a value is not finite.
inline bool ResultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<Metric>& metrics, std::string* out) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) return false;
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  *out = std::move(s);
  return true;
}

}  // namespace helios::perfbench
