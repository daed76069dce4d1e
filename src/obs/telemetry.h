// Windowed telemetry: the live signals the registry's cumulative metrics
// cannot give.
//
// MetricsRegistry counters are monotone totals — good for end-of-run
// figures, useless for "what is shard 3's qps *right now*". TelemetryHub
// keeps, per lane (a shard or serving worker), a ring of fixed-width time
// buckets; RecordQuery / RecordStaleness land in the bucket for their
// timestamp, and Advance() retires buckets that fell out of the sliding
// window. Window aggregates are republished as registry gauges
// ("telemetry.qps" etc.) so one snapshot carries both views, and
// SnapshotJson() emits the documented machine-readable form the bench
// harness writes periodically.
//
// Two consumers beyond dashboards:
//   - the per-query deadline tracker (SLO hit rate) feeds the SLO-aware
//     admission controller (helios/admission.h);
//   - Overloaded() is a health signal the ft Supervisor polls each Tick, so
//     sustained p99 blowout / SLO collapse surfaces next to failure
//     detection ("ft.overload_ticks") instead of in a separate pipeline.
//
// Histogram buckets are preallocated at construction; recording is
// mutex + O(1) with zero heap allocation, so it is safe next to the
// zero-copy read path. Time is injected per call — wall or DES virtual.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/histogram.h"

namespace helios::obs {

class TelemetryHub {
 public:
  struct Options {
    std::uint32_t num_lanes = 1;          // shards or serving workers
    std::int64_t window_us = 1'000'000;   // sliding-window width
    std::uint32_t buckets = 8;            // ring granularity within the window
    std::string lane_label = "shard";     // label key for exported gauges
    // Overload thresholds for the Supervisor health signal; 0 disables.
    std::uint64_t overload_p99_us = 0;    // window p99 above this => overloaded
    double overload_min_slo = 0.0;        // window SLO hit-rate below this => overloaded
  };

  TelemetryHub(MetricsRegistry* registry, Options options);

  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  // A query served by `lane` at `now_us` with the given latency and reply
  // bytes. `deadline_us` > 0 also scores the per-query SLO (hit iff
  // latency_us <= deadline_us).
  void RecordQuery(std::uint32_t lane, std::int64_t now_us, std::uint64_t latency_us,
                   std::uint64_t bytes, std::uint64_t deadline_us = 0);
  // Dissemination volume into `lane` (wire bytes applied).
  void RecordBytes(std::uint32_t lane, std::int64_t now_us, std::uint64_t bytes);
  // An update->visibility (or first-serve) staleness observation for `lane`.
  void RecordStaleness(std::uint32_t lane, std::int64_t now_us, std::uint64_t staleness_us);

  // Retires buckets older than the window and republishes window aggregates
  // as gauges. Call periodically (the harness ties it to the telemetry
  // snapshot interval; ThreadedCluster's monitor loop calls it each tick).
  void Advance(std::int64_t now_us);

  // ---- window aggregates (as of the last Advance) ----

  // One lane's published load triple — the elastic::Rebalancer input. The
  // same values back the per-lane "shard.qps" / "shard.delta_bytes" /
  // "shard.serve_p99_us" registry gauges, so policy code and dashboards
  // read one surface.
  struct LaneLoad {
    double qps = 0;
    double bytes_per_s = 0;
    std::uint64_t p99_us = 0;
  };
  // All lanes' window loads as of the last Advance (index == lane id).
  std::vector<LaneLoad> WindowLoads() const;

  double QpsOf(std::uint32_t lane) const;
  double BytesPerSecOf(std::uint32_t lane) const;
  std::uint64_t P99Of(std::uint32_t lane) const;
  std::uint64_t StalenessP99Of(std::uint32_t lane) const;
  // SLO hit rate across all lanes in the window; 1.0 when no deadlines seen.
  double SloHitRate() const;
  // Health signal for ft::Supervisor: true while the thresholds in Options
  // are being violated (as of the last Advance).
  bool Overloaded() const;

  // One snapshot object of the documented schema (docs/OBSERVABILITY.md):
  //   {"ts_us":..,"window_us":..,"slo":{"queries":..,"hits":..,"hit_rate":..},
  //    "lanes":[{"<lane_label>":i,"qps":..,"bytes_per_s":..,"queries":..,
  //              "p50_us":..,"p99_us":..,"staleness_p50_us":..,
  //              "staleness_p99_us":..}, ...]}
  // Implies Advance(now_us).
  std::string SnapshotJson(std::int64_t now_us);

  std::int64_t window_us() const { return options_.window_us; }

 private:
  struct Bucket {
    std::int64_t epoch = -1;  // now_us / bucket_width_us this bucket holds
    std::uint64_t queries = 0;
    std::uint64_t query_bytes = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t slo_total = 0;
    std::uint64_t slo_hits = 0;
    util::Histogram latency;
    util::Histogram staleness;
    void Reset(std::int64_t e);
  };

  struct Lane {
    std::vector<Bucket> ring;
    // Window aggregates, refreshed by Advance().
    double qps = 0, bytes_per_s = 0;
    std::uint64_t queries = 0;
    util::Histogram latency;
    util::Histogram staleness;
  };

  // Returns the bucket for `now_us` in `lane`, resetting it if it holds a
  // stale epoch. Caller holds mutex_.
  Bucket& BucketFor(Lane& lane, std::int64_t now_us);

  MetricsRegistry* registry_;
  const Options options_;
  const std::int64_t bucket_width_us_;

  mutable std::mutex mutex_;
  std::vector<Lane> lanes_;
  std::uint64_t slo_total_window_ = 0;
  std::uint64_t slo_hits_window_ = 0;
  bool overloaded_ = false;

  // Exported gauges, one per lane. The "shard.*" family repeats the window
  // triple under the names the rebalancing control plane scrapes
  // (docs/ELASTICITY.md); lane_label says what a lane is in this hub.
  std::vector<Gauge*> g_qps_, g_bytes_, g_p99_, g_staleness_p99_;
  std::vector<Gauge*> g_shard_qps_, g_shard_bytes_, g_shard_p99_;
  Gauge* g_slo_bp_;       // window SLO hit rate in basis points
  Gauge* g_overloaded_;
};

}  // namespace helios::obs
