// Shared benchmark harness: deploys Helios and the MiniGraphDB baselines on
// the discrete-event cluster emulator and measures serving / ingestion
// behaviour under the paper's workloads.
//
// Philosophy (see DESIGN.md §1): all data-dependent compute is *executed*
// — worker handlers run the real SamplingShardCore / ServingCore /
// MiniGraphDB code and their measured wall time becomes virtual service
// time on the emulated nodes. The emulator contributes only parallelism
// (k-server CPU resources per node) and the wire (latency + bandwidth).
// That is how a single-core workspace reproduces 10-node-cluster curves
// whose *shape* is meaningful.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "elastic/migrator.h"
#include "elastic/rebalancer.h"
#include "elastic/shard_map.h"
#include "gen/datasets.h"
#include "gen/update_stream.h"
#include "gen/workload.h"
#include "gnn/graphsage.h"
#include "graphdb/minigraphdb.h"
#include "helios/admission.h"
#include "helios/query.h"
#include "helios/sampling_core.h"
#include "helios/serving_core.h"
#include "helios/shard_map.h"
#include "obs/freshness.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "sim/sim.h"
#include "util/config.h"
#include "util/histogram.h"

namespace helios::bench {

// ---------------------------------------------------------------- reports

struct ServeReport {
  double qps = 0;                 // completed requests / virtual second
  util::Histogram latency_us;     // per-request end-to-end latency
  // Measured wall time of the cache read path alone (ServeInto /
  // MiniGraphDB sampling), i.e. the real-CPU cost that becomes virtual
  // service time — excludes emulated queueing and the wire.
  util::Histogram read_path_ns;
  std::uint64_t requests = 0;
  std::uint64_t missing_cells = 0;
  std::uint64_t missing_features = 0;
};

struct IngestReport {
  double throughput_mps = 0;      // million updates / virtual second
  util::Histogram latency_us;     // update publish -> applied at serving
  sim::SimTime makespan_us = 0;
  std::uint64_t updates = 0;
  // Per-node CPU busy time (utilization diagnostics).
  std::vector<sim::SimTime> sampling_busy_us;
  std::vector<sim::SimTime> serving_busy_us;
  // Per-stage breakdown of the ingestion pipeline (virtual µs), recorded by
  // the same StageTracer the threaded runtime uses: queue wait, shard core
  // processing, sub-delta cascade, serving-cache apply.
  util::Histogram stage_ingest_us;
  util::Histogram stage_sample_us;
  util::Histogram stage_cascade_us;
  util::Histogram stage_cache_apply_us;
  // Dissemination-path batching stats ("dissemination.*" metrics): frames
  // shipped sampler->server, messages inside them, deltas folded away by
  // same-cell coalescing, and framed bytes on the wire.
  std::uint64_t diss_batches = 0;
  std::uint64_t diss_messages = 0;
  std::uint64_t diss_coalesced = 0;
  std::uint64_t diss_bytes_wire = 0;
  util::Histogram batch_occupancy;  // messages per batch

  // Fault-mode (fig20) results, filled when EmulateIngestion ran with a
  // DesFaultSpec: virtual-time crash/recovery markers plus exactly-once
  // accounting (docs/FAULT_TOLERANCE.md).
  sim::SimTime fault_killed_at_us = 0;
  sim::SimTime fault_detected_at_us = 0;
  sim::SimTime fault_recovered_at_us = 0;  // victim re-admitted (epoch bumped)
  std::uint32_t fault_epoch = 0;           // epoch granted at re-admission
  std::uint64_t fault_updates_replayed = 0;  // log records (updates + ctrl)
  std::uint64_t fault_deltas_fenced = 0;   // serving-side re-emissions dropped
  std::uint64_t fault_ctrl_fenced = 0;     // peer-shard re-emissions dropped
  // Applied-at-serving throughput timeline (bucketed on virtual time): the
  // dip-and-recovery curve of fig20. Empty outside fault mode.
  sim::SimTime timeline_bucket_us = 0;
  std::vector<std::uint64_t> applied_timeline;

  // Prints the "stage  count  mean  p50/p99/p999" breakdown table plus the
  // dissemination batching summary line.
  void PrintStageBreakdown() const;
};

// Crash/recovery scenario for the DES runtime: kill one sampling node at a
// virtual instant, detect via heartbeat supervision on virtual time, restore
// from the (virtual-time) checkpoint and replay the per-shard durable logs.
// Single-fault experiments only (monitoring stops after the recovery).
struct DesFaultSpec {
  std::uint32_t victim_node = 0;           // sampling node to crash
  sim::SimTime kill_at_us = 0;             // crash instant
  sim::SimTime checkpoint_at_us = 0;       // checkpoint instant (0 = none;
                                           // entry state is always snapshotted
                                           // so recovery never starts cold)
  sim::SimTime detect_timeout_us = 50'000; // heartbeat timeout
  sim::SimTime timeline_bucket_us = 10'000;  // applied-throughput bucket width
};

// ------------------------------------------------------------ deployments

struct HeliosEmuConfig {
  std::uint32_t sampling_nodes = 4;
  std::uint32_t sampling_threads = 16;  // per node (S)
  std::uint32_t serving_nodes = 6;
  std::uint32_t serving_threads = 16;   // per node
  sim::SimTime net_latency_us = 120;
  double gbps = 10.0;
  std::uint64_t seed = 42;
  kv::KvOptions serving_kv;             // default memory-only
  // Storage format for cached features at the serving workers (Fig 16
  // quantization rows re-run the cache sweep with fp16 / int8).
  FeatureFormat feature_format = FeatureFormat::kFp32;
  // Computation-reuse tier (docs/PERF.md "Computation reuse & admission"):
  // per-worker aggregate-cache capacity (0 = off) and staleness bound
  // (-1 = no age check, 0 = always recompute).
  std::size_t aggregate_cache_entries = 0;
  std::int64_t aggregate_staleness_us = -1;
};

// Optional observability sinks for the emulated flows (all owned by the
// caller; null members are simply not fed). Clocked on DES virtual time.
struct IngestObs {
  // Windowed per-serving-worker telemetry: staleness (update origin ->
  // cache apply) lands in the destination worker's lane.
  obs::TelemetryHub* telemetry = nullptr;
  // Update -> visibility freshness, lanes keyed by source sampling shard.
  obs::FreshnessTracker* freshness = nullptr;
  // Periodic TelemetryHub::SnapshotJson captures every `interval` virtual
  // µs into *snapshots (0 or null disables). The tick self-terminates once
  // applies quiesce so it cannot keep the DES event loop alive.
  std::int64_t telemetry_interval_us = 0;
  std::vector<std::string>* snapshots = nullptr;
};

struct ServeObs {
  obs::TraceBuffer* trace = nullptr;  // per-query serve spans (pid = worker)
  // Per-query latency/bytes (+ SLO when deadline_us > 0) into the serving
  // worker's lane; first-serve staleness of background updates feeds the
  // same lane's staleness histogram.
  obs::TelemetryHub* telemetry = nullptr;
  // First-serve freshness (armed by background applies, recorded at query
  // reads), lanes keyed by the read vertex's owner sampling shard.
  obs::FreshnessTracker* freshness = nullptr;
  std::int64_t telemetry_interval_us = 0;
  std::vector<std::string>* snapshots = nullptr;
  std::uint64_t deadline_us = 0;  // per-query SLO deadline (0 = no SLO)
};

// A Helios deployment whose state lives in-process; the emulator replays
// serving and ingestion flows against it.
class HeliosDeployment {
 public:
  HeliosDeployment(QueryPlan plan, HeliosEmuConfig config);

  const ShardMap& map() const { return map_; }
  const HeliosEmuConfig& config() const { return config_; }

  // Fast path (no timing): pushes the whole stream through the sampling
  // pipeline and applies everything at the serving caches. Used to build
  // state before serving-phase emulation.
  void IngestAll(const std::vector<graph::GraphUpdate>& updates);

  // Emulated ingestion of `updates` through the node engine
  // (helios/node_engine.h) over an in-process broker, one partition per
  // shard. offered_rate_mps == 0 means
  // saturation (everything offered at t=0; throughput = capacity). When
  // `trace` is set, every pipeline stage also lands in the Chrome-trace
  // buffer on virtual time. When `fault` is set, the run additionally
  // crashes fault->victim_node at the configured virtual instant, detects
  // it by heartbeat supervision, restores from the (virtual-time)
  // checkpoint, replays the per-shard durable logs with epoch/seq fencing
  // at the receivers, and fills the fault_* / timeline report fields.
  // `obs` adds windowed telemetry / freshness tracking on virtual time.
  // Tracing additionally mints a causal TraceContext per update and emits
  // flow events stitching sampler-side emission to serving-side apply.
  IngestReport EmulateIngestion(const std::vector<graph::GraphUpdate>& updates,
                                double offered_rate_mps,
                                obs::TraceBuffer* trace = nullptr,
                                const DesFaultSpec* fault = nullptr,
                                const IngestObs* obs = nullptr);

  // Closed-loop serving: `concurrency` clients each keep one request in
  // flight until `total_requests` complete. If `model` is set, responses
  // additionally traverse a model-serving node (Fig 19). If
  // `background_rate_mps` > 0, the serving nodes concurrently apply
  // sample-queue updates at that aggregate rate (Fig 12: serving stability
  // under ingestion load) drawn round-robin from `background`.
  ServeReport EmulateServing(const std::vector<graph::VertexId>& seeds,
                             std::uint32_t concurrency, std::uint64_t total_requests,
                             gnn::ModelServer* model = nullptr,
                             std::uint32_t model_nodes = 4,
                             const std::vector<ServingMessage>* background = nullptr,
                             double background_rate_mps = 0,
                             const ServeObs* obs = nullptr);

  // Open-loop serving through the SLO-aware admission front door (the
  // fig19 overload sweep): queries arrive Poisson at `rate_qps`, each with
  // deadline now + deadline_us; per-worker AdmissionQueues batch by
  // deadline slack and shed under overload (serving.admission.*). When
  // `encoder` is set and the deployment was built with
  // aggregate_cache_entries > 0, queries serve through the computation-
  // reuse tier (GraphSageEncoder::EmbedSeedCached); otherwise the plain
  // ServeInto path. Virtual time throughout; deterministic for a fixed
  // (seeds, rate, seed) tuple.
  struct AdmissionServeReport {
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed_full = 0;
    std::uint64_t shed_overload = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t stale_recomputes = 0;
    util::Histogram latency_us;     // completed queries, arrival -> reply
    double qps = 0;                 // completed / virtual second
    double slo_hit_rate = 1.0;      // completed within their deadline
    sim::SimTime makespan_us = 0;
  };
  AdmissionServeReport EmulateAdmissionServing(const std::vector<graph::VertexId>& seeds,
                                               double rate_qps, std::uint64_t total_requests,
                                               std::int64_t deadline_us,
                                               AdmissionQueue::Options admission,
                                               gnn::GraphSageEncoder* encoder = nullptr,
                                               obs::TelemetryHub* telemetry = nullptr);

  // Elastic autoscaling scenario (fig21, docs/ELASTICITY.md): open-loop
  // queries arrive on the diurnal curve, route through a versioned
  // elastic::ShardMap placement over up to max_nodes emulated serving
  // nodes, and a control loop (TelemetryHub::WindowLoads -> Rebalancer ->
  // ShardMigrator) migrates shards, adds nodes, and drain-then-retires
  // them as the offered load breathes. Every served response is executed
  // for real (ServeInto) and folded into `served_hash`, so a run with
  // migrations_enabled == false over the same spec is a golden run the
  // elastic run must match byte-for-byte. Migration checkpoints really
  // round-trip SamplingShardCore::Serialize/Deserialize and pay the wire.
  struct ElasticSpec {
    gen::DiurnalSpec diurnal;                  // arrival curve (must be Enabled)
    sim::SimTime duration_us = 20'000'000;     // virtual run length
    double node_capacity_qps = 2'000;          // autoscaler calibration
    // The policy plans against this fraction of true capacity, so steady
    // state keeps real queueing headroom and ramp backlogs drain.
    double policy_headroom = 0.75;
    std::uint32_t initial_nodes = 2;
    std::uint32_t min_nodes = 1;
    std::uint32_t max_nodes = 8;               // node universe (SimCluster size)
    bool migrations_enabled = true;            // false = frozen-placement golden run
    std::int64_t decision_interval_us = 500'000;
    std::int64_t shard_cooldown_us = 2'000'000;
    std::uint32_t max_concurrent_migrations = 2;
    sim::SimTime cutover_pause_us = 2'000;     // dest-side flip stall per migration
    sim::SimTime timeline_bucket_us = 1'000'000;
    std::uint64_t slo_deadline_us = 0;         // 0 = no SLO scoring
    std::uint64_t seed_pick_seed = 1234;       // seed-vertex draw stream
  };
  struct ElasticReport {
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t migrations = 0;
    std::uint64_t migrations_failed = 0;  // installs that failed; each aborted
    std::uint32_t nodes_added = 0;
    std::uint32_t nodes_retired = 0;
    std::uint32_t peak_nodes = 0;
    std::uint32_t final_nodes = 0;
    std::uint64_t served_hash = 0;       // FNV-1a over every response payload
    std::uint64_t final_map_version = 1;
    std::uint64_t ckpt_bytes_moved = 0;
    util::Histogram latency_us;
    sim::SimTime timeline_bucket_us = 0;
    struct Bucket {
      sim::SimTime t_us = 0;
      double offered_qps = 0;
      std::uint32_t active_nodes = 0;
      double load_spread = 0;   // max per-node completions / mean (1.0 = even)
      std::uint64_t p99_us = 0;
      std::uint32_t migrations = 0;
    };
    std::vector<Bucket> timeline;
    // ASCII "node count tracks the diurnal curve" table.
    void PrintTimeline() const;
  };
  ElasticReport EmulateElastic(const std::vector<graph::VertexId>& seeds,
                               const ElasticSpec& spec,
                               obs::TraceBuffer* trace = nullptr);

  ServingCore& serving_core(std::uint32_t i) { return *serving_[i]; }
  SamplingShardCore& shard(std::uint32_t s) { return *shards_[s]; }
  std::uint32_t num_shards() const { return map_.TotalShards(); }
  // Deployment-wide registry shared by every core and the emulation
  // tracers.
  obs::MetricsRegistry& registry() { return registry_; }
  // Total bytes of all serving caches + total sampling-side state.
  std::size_t ServingCacheBytes() const;
  std::size_t SamplingStateBytes() const;

 private:
  // Routes one core's outputs in-process (used by the fast path).
  void DrainOutputs(SamplingShardCore::Outputs& out);

  QueryPlan plan_;
  HeliosEmuConfig config_;
  ShardMap map_;
  // Declared before the cores so their metric handles outlive them.
  obs::MetricsRegistry registry_;
  std::vector<std::unique_ptr<SamplingShardCore>> shards_;
  std::vector<std::unique_ptr<ServingCore>> serving_;
};

struct GraphDbEmuConfig {
  std::uint32_t nodes = 10;
  std::uint32_t threads = 32;  // per node
  sim::SimTime net_latency_us = 120;
  double gbps = 10.0;
  std::uint64_t seed = 42;
};

// A MiniGraphDB deployment: one partition per node.
class GraphDbDeployment {
 public:
  GraphDbDeployment(QueryPlan plan, graphdb::CostProfile profile, GraphDbEmuConfig config);

  void IngestAll(const std::vector<graph::GraphUpdate>& updates);
  IngestReport EmulateIngestion(const std::vector<graph::GraphUpdate>& updates,
                                double offered_rate_mps);
  // Closed-loop ad-hoc K-hop query serving with per-hop scatter/gather.
  ServeReport EmulateServing(const std::vector<graph::VertexId>& seeds,
                             std::uint32_t concurrency, std::uint64_t total_requests);

  graphdb::MiniGraphDB& db() { return *db_; }

 private:
  QueryPlan plan_;
  graphdb::CostProfile profile_;
  GraphDbEmuConfig config_;
  std::unique_ptr<graphdb::MiniGraphDB> db_;
};

// ---------------------------------------------------------------- helpers

// The Table 2 query for a dataset ("TopK" or "Random"), fan-outs [25,10]
// (or [25,10,5] for the 3-hop INTER stress query).
QueryPlan PaperQuery(const gen::DatasetSpec& spec, Strategy strategy, std::size_t hops = 2);
// The seed vertex type and population of that query.
std::pair<graph::VertexTypeId, std::uint64_t> PaperSeeds(const gen::DatasetSpec& spec);

// The DES response-size model of one served query: header + 12 bytes per
// sampled node + keyed feature rows.
std::size_t ResponseBytes(const SampledSubgraph& result);

// Row printers so every bench emits uniform, paper-comparable tables.
void PrintHeader(const std::string& title, const std::string& columns);
void PrintServeRow(const std::string& system, const std::string& dataset,
                   const std::string& strategy, std::uint32_t concurrency,
                   const ServeReport& report);

// Common CLI: scale=<n> (dataset scale divisor), requests=<n>, quick=1.
std::uint64_t ScaleFromConfig(const util::Config& config, std::uint64_t fallback);

// Shared diurnal-curve flags (gen::DiurnalSpec): diurnal-base=<qps>,
// diurnal-peak=<qps>, diurnal-period-s=<seconds>, diurnal-phase=<frac>,
// diurnal-seed=<n>. Fields absent from the command line keep the
// fallback's values, so benches (fig19 / fig21) ship their own defaults
// and the flags override per run. The curve is deterministic per spec —
// the property fig21's golden-vs-elastic parity gate relies on.
gen::DiurnalSpec DiurnalFromConfig(const util::Config& config, gen::DiurnalSpec fallback);

// Shared query-skew flags (gen::QuerySkew): zipf=<alpha> (0 = uniform) and
// zipf-seed=<n>. Every serving bench that draws seeds through this helper
// composes hot-key skew from the command line instead of a new main.
gen::QuerySkew QuerySkewFromConfig(const util::Config& config, double fallback_alpha = 0.0);

// Observability sinks shared by every bench (docs/OBSERVABILITY.md):
//   --metrics-out=<path>    registry snapshot ("-" = stdout, *.json = JSON)
//   --trace-out=<path>      Chrome-trace buffer (chrome://tracing / Perfetto)
//   --telemetry-out=<path>  windowed telemetry snapshots (JSON array)
//   --telemetry-interval=<virtual µs between snapshots, default 250000>
// The legacy spellings metrics=/trace= are still accepted. No-ops when the
// keys are absent or the sources are null/empty.
void DumpObservability(const util::Config& config, const obs::MetricsRegistry::Snapshot* snapshot,
                       const obs::TraceBuffer* trace);
// True when the bench should allocate a TraceBuffer (trace-out= given).
bool TraceRequested(const util::Config& config);
// True when the bench should allocate a TelemetryHub (telemetry-out= given).
bool TelemetryRequested(const util::Config& config);
// Snapshot cadence in virtual µs (telemetry-interval=, default 250 ms).
std::int64_t TelemetryIntervalUs(const util::Config& config);
// Writes the collected TelemetryHub snapshots as a JSON array to
// telemetry-out= ("-" = stdout). No-op when the key is absent.
void DumpTelemetry(const util::Config& config, const std::vector<std::string>& snapshots);

}  // namespace helios::bench
