// Tests of the benchmark's own arithmetic (stats.h, spans.h). Exits 1 on the
// first failed check. Built beside the benchmark:
//   cmake --build .bench_build --target perfbench_stats_test
//   .bench_build/perfbench_stats_test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "util/histogram.h"

namespace {

int g_checks = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    ++g_checks;                                                            \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      std::exit(1);                                                        \
    }                                                                      \
  } while (0)

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

using namespace helios::perfbench;

void TestPercentileRule() {
  CHECK(Near(Percentile({1, 2, 3, 4, 5}, 0.5), 3, 1e-12));
  CHECK(Near(Percentile({10, 20}, 0.5), 15, 1e-12));
  CHECK(Near(Percentile({7}, 0.99), 7, 1e-12));
  // Samples beyond the q-th percentile, and the ten-samples rule.
  CHECK(SamplesBeyond(1000, 0.99) == 10);
  CHECK(TailSupported(1000, 0.99));
  CHECK(!TailSupported(999, 0.99));
  CHECK(SamplesBeyond(10000, 0.999) == 10);
  CHECK(TailSupported(10000, 0.999));
  CHECK(!TailSupported(9990, 0.999));
  CHECK(HighestSupported(5000, {0.9, 0.99, 0.999}) == 0.99);
  CHECK(HighestSupported(50, {0.9, 0.99, 0.999}) == 0.5);
  CHECK(HighestSupported(100, {0.9, 0.99, 0.999}) == 0.9);
}

void TestBucketGeometry() {
  // Every value recorded into util::Histogram lands in the bucket whose
  // [BucketLower(upper), upper] range ParseBuckets reports for it.
  for (std::uint64_t v : {0ULL, 1ULL, 15ULL, 16ULL, 17ULL, 18ULL, 31ULL, 32ULL, 35ULL, 36ULL,
                          350ULL, 383ULL, 384ULL, 1000ULL, 65535ULL, 123456789ULL}) {
    helios::util::Histogram h;
    h.Record(v);
    const Buckets b = ParseBuckets(h.ToJson());
    CHECK(b.size() == 1);
    CHECK(b[0].second == 1);
    CHECK(BucketLower(b[0].first) <= v);
    CHECK(v <= b[0].first);
  }
}

void TestHistogramDifferencing() {
  // A cumulative histogram snapshotted before and after a phase: the
  // difference holds exactly what the phase recorded.
  helios::util::Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(5000);  // before the phase: slow
  const Buckets before = ParseBuckets(h.ToJson());
  for (int i = 0; i < 1000; ++i) h.Record(300 + static_cast<std::uint64_t>(i % 100));
  const Buckets after = ParseBuckets(h.ToJson());
  bool ok = true;
  const Buckets phase = DiffBuckets(after, before, &ok);
  CHECK(ok);
  CHECK(BucketTotal(phase) == 1000);
  const double p50 = BucketQuantile(phase, 0.5);
  CHECK(p50 >= 300 && p50 < 400);  // the old 5000s do not leak in
  CHECK(BucketQuantile(after, 0.9) > 4000);  // while the cumulative view is dominated
  // Interpolation inside one bucket: 100 values spread over [256, 287].
  helios::util::Histogram g;
  for (int i = 0; i < 100; ++i) g.Record(256 + static_cast<std::uint64_t>(i % 32));
  const Buckets one = ParseBuckets(g.ToJson());
  CHECK(one.size() == 1);
  CHECK(Near(BucketQuantile(one, 0.5), 256 + 16, 1e-9));
  CHECK(Near(BucketQuantile(one, 0.0), 256, 1e-9));
  // Snapshots of different histograms are detected.
  ok = true;
  DiffBuckets(before, after, &ok);
  CHECK(!ok);
  CHECK(BucketQuantile(Buckets{}, 0.5) == 0);
}

void TestOpenLoopDueTime() {
  // Due every 100 ns. The first request stalls 250 ns; the next two are
  // started late and charged from their due times.
  const OpenLoopSchedule sched{1000, 100};
  CHECK(sched.Due(0) == 1000 && sched.Due(3) == 1300);
  OpenLoopRecorder rec;
  rec.Record(sched.Due(0), 1000, 1250);  // on time, slow
  rec.Record(sched.Due(1), 1250, 1260);  // started 150 late
  rec.Record(sched.Due(2), 1260, 1270);  // started 60 late
  rec.Record(sched.Due(3), 1300, 1310);  // back on schedule
  CHECK(rec.latency_ns.size() == 4);
  CHECK(rec.latency_ns[0] == 250 && rec.latency_ns[1] == 160 && rec.latency_ns[2] == 70 &&
        rec.latency_ns[3] == 10);
  CHECK(rec.max_late_ns == 150);
  CHECK(Near(Percentile(rec.latency_ns, 0.5), 115, 1e-9));

  // Three windows of 10 requests; the middle one sits behind a stall. The
  // windowed p90 is the median of the three windows' p90s.
  OpenLoopRecorder win;
  for (int i = 0; i < 30; ++i) {
    const std::int64_t due = i * 10;
    const std::int64_t lat = (i >= 10 && i < 20) ? 5000 : 1 + i % 10;
    win.Record(due, due, due + lat);
  }
  const std::vector<double> per_window = WindowPercentiles(win, 0, 100, 0.9);
  CHECK(per_window.size() == 3);
  CHECK(Near(Median(per_window), Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9), 1e-9));
  CHECK(Percentile(win.latency_ns, 0.9) == 5000);
}

void TestResultJson() {
  std::string line;
  CHECK(ResultJson(true, 12, 0,
                   {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.8127000000000001, "s"}}, &line));
  CHECK(line ==
        "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"latency_ms\": "
        "{\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.81270000000000009, "
        "\"unit\": \"s\"}}}");
  CHECK(ResultJson(false, 3, 1, {}, &line));
  CHECK(line == "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}");
  CHECK(!ResultJson(true, 1, 0, {{"x", std::nan(""), "ms"}}, &line));
  CHECK(!ResultJson(true, 1, 0, {{"x", INFINITY, "ms"}}, &line));
}

void TestSpanSelfTime() {
  SpanRecorder rec;
  const auto root = rec.Begin("op", 1, 0);
  const auto child = rec.Begin("layer", 1, 0);
  rec.End(child);
  rec.End(root);
  auto totals = rec.Totals();
  CHECK(totals["op"].count == 1 && totals["layer"].count == 1);
  CHECK(totals["op"].self_ns == totals["op"].total_ns - totals["layer"].total_ns);
  CHECK(totals["layer"].self_ns == totals["layer"].total_ns);
  CHECK(rec.spans()[child].parent == root && rec.spans()[root].parent == -1);
}

}  // namespace

int main() {
  TestPercentileRule();
  TestBucketGeometry();
  TestHistogramDifferencing();
  TestOpenLoopDueTime();
  TestResultJson();
  TestSpanSelfTime();
  std::printf("perfbench_stats_test: %d checks passed\n", g_checks);
  return 0;
}
