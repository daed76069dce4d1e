// Process-wide metrics registry: named counters, gauges and histogram-backed
// latency metrics with label support.
//
// Design (Per.15 / CP.3): recording on hot paths goes through pre-resolved
// *handles* — a Counter is one relaxed atomic add, a Gauge one relaxed store,
// a LatencyMetric one mutex-guarded histogram insert (contended only when the
// same handle is shared across threads; components keep per-shard handles so
// the common case is uncontended). Handle resolution (GetCounter etc.) takes
// the registry mutex and is meant for construction time, never per event.
//
// Labels make one logical metric family out of many cells
// ("sampling.cells{shard=3}"); Snapshot supports the hierarchical
// aggregations the paper's figures need: per-shard -> per-worker -> cluster
// (sum / merge across cells, or grouped by one label key).
//
// Every module that used to hand-roll a Stats struct (SamplingShardCore,
// ServingCore, kv::KvStore, mq::Broker, ThreadedCluster) now records here;
// readers take a Snapshot instead of a per-module view.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"

namespace helios::obs {

// Label set attached to one metric cell, e.g. {{"worker","3"},{"shard","1"}}.
// Order-insensitive: cells are keyed by the canonical (sorted) rendering.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Canonical "{k1=v1,k2=v2}" rendering (sorted by key); "" for no labels.
std::string CanonicalLabels(const Labels& labels);

// Monotonically increasing counter. Relaxed atomics: cross-thread visibility
// of totals is all snapshots need, not ordering.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Instantaneous value that can move both ways (table sizes, bytes resident).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Latency/size distribution backed by util::Histogram.
class LatencyMetric {
 public:
  void Record(std::uint64_t value) {
    std::lock_guard<std::mutex> lock(mutex_);
    hist_.Record(value);
  }
  util::Histogram Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hist_;
  }

 private:
  mutable std::mutex mutex_;
  util::Histogram hist_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Handle lookup/creation. Returned pointers stay valid for the registry's
  // lifetime. The same (name, labels) always yields the same handle.
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  LatencyMetric* GetLatency(const std::string& name, const Labels& labels = {});

  // One metric cell in a snapshot.
  template <typename V>
  struct Cell {
    Labels labels;
    V value;
  };

  // A point-in-time copy of every metric, safe to aggregate/serialize while
  // recording continues.
  struct Snapshot {
    std::map<std::string, std::vector<Cell<std::uint64_t>>> counters;
    std::map<std::string, std::vector<Cell<std::int64_t>>> gauges;
    std::map<std::string, std::vector<Cell<util::Histogram>>> latencies;

    // ---- hierarchical aggregation
    // Sum of every cell of a counter family (cluster-level total).
    std::uint64_t CounterTotal(const std::string& name) const;
    std::int64_t GaugeTotal(const std::string& name) const;
    // Merge of every cell of a latency family.
    util::Histogram LatencyTotal(const std::string& name) const;
    // Intermediate level: sums grouped by one label key, e.g.
    // CounterBy("sampling.updates_processed", "worker") folds per-shard
    // cells into per-worker totals. Cells missing the key group under "".
    std::map<std::string, std::uint64_t> CounterBy(const std::string& name,
                                                   const std::string& label_key) const;
    std::map<std::string, util::Histogram> LatencyBy(const std::string& name,
                                                     const std::string& label_key) const;

    // Text exposition, one "name{labels} value" line per cell (histograms
    // render their Summary()); families sorted by name.
    std::string Dump() const;
    // Machine-readable form for dropping next to BENCH_*.json outputs.
    std::string ToJson() const;
  };

  Snapshot TakeSnapshot() const;
  std::string Dump() const { return TakeSnapshot().Dump(); }

 private:
  template <typename M>
  M* GetIn(std::map<std::string, std::unique_ptr<M>>& family, const std::string& name,
           const Labels& labels, std::map<std::string, Labels>& label_index);

  mutable std::mutex mutex_;
  // Keyed by "name" + canonical labels; label_index_ remembers the parsed
  // labels of each key so snapshots do not re-parse.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyMetric>> latencies_;
  std::map<std::string, Labels> label_index_;
  std::map<std::string, std::string> name_index_;  // key -> family name
};

}  // namespace helios::obs
