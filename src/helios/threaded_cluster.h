// ThreadedCluster — the real-threads single-process deployment of Helios.
//
// Wires the full §4 architecture inside one process: M sampling workers
// (each S shard actors + a polling actor), N serving workers (a polling
// actor + a data-updating actor each), and a Kafka-style broker carrying
// the "updates" topic (one partition per logical shard) and the "samples"
// topic (one partition per serving worker). The paper's publisher threads
// fold into the shard actors: a shard encodes its frames and appends them
// to the samples topic inside the mailbox slice that counted them, so a
// crash cannot drop a counted frame. Liveness is ft::Supervisor's
// (supervision_timeout); checkpoints are taken when the caller asks
// (Checkpoint()). Checkpoints, recovery and migration are the control
// plane's (control_plane.h); this class supplies its mechanics. Subscription
// deltas ride the destination shard's "updates" partition as
// tagged records, so each shard consumes exactly one totally-ordered log:
// processing is deterministic given the log, which is what makes
// checkpoint-replay recovery (docs/FAULT_TOLERANCE.md) exact, and deltas
// in flight to a dead shard stay durable in the broker instead of dying
// with a mailbox.
//
// This runtime is functionally complete and is what the tests and examples
// drive. On this workspace's single core it cannot exhibit parallel
// speedup; the scalability figures instead use the DES emulator
// (bench/harness.h), which runs the same node engine (node_engine.h) and
// cores under virtual time.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "actor/actor.h"
#include "gen/datasets.h"
#include "graph/types.h"
#include "helios/admission.h"
#include "helios/control_plane.h"
#include "helios/messages.h"
#include "helios/query.h"
#include "helios/sampling_core.h"
#include "helios/serving_core.h"
#include "helios/shard_map.h"
#include "mq/mq.h"
#include "obs/freshness.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "store/segment_store.h"
#include "util/histogram.h"

namespace helios {

// Trace lanes: sampling workers use pid = worker id; serving workers sit in
// a disjoint pid range (kServingPidBase + worker) so both runtimes render
// the same way in Perfetto and flow arrows visibly cross the tier boundary.
inline constexpr std::uint32_t kServingPidBase = 1000;

struct ClusterOptions {
  ShardMap map;                       // M, S, N
  std::uint64_t seed = 42;
  graph::Timestamp ttl = 0;           // 0 disables TTL pruning
  kv::KvOptions serving_kv;           // serving cache backing store
  // §4.2 edge storage policy. kBySrc partitions an edge by its source (the
  // key vertex of out-neighbor sampling). kByDest stores the *reversed*
  // edge at the destination's owner (in-neighbor sampling). kBoth does
  // both — the undirected-graph treatment.
  graph::EdgePlacement edge_placement = graph::EdgePlacement::kBySrc;
  // Optional Chrome-trace sink: when set, every pipeline stage also emits a
  // timeline span (pid = worker lane, tid = shard/stage) on top of the
  // registry histograms, every ingested update is minted a causal
  // TraceContext (stamped onto the serving-bound messages it spawns), and
  // flow events stitch sampler-side emission to serving-side apply across
  // lanes. Must outlive the cluster.
  obs::TraceBuffer* trace = nullptr;
  // Optional windowed-telemetry hub (lanes = serving workers): Serve()
  // records per-query latency into the seed's lane, an admitted ticket is
  // recorded there from enqueue to reply (AdmissionQueue::Complete), its
  // Overloaded() drives admission's overload shedding, and when supervision is
  // armed the hub's Overloaded() signal is installed as the supervisor's
  // cluster-health probe (polled each monitor tick, never triggers
  // recovery). Must outlive the cluster.
  obs::TelemetryHub* telemetry = nullptr;
  // Fault-tolerance supervision (docs/FAULT_TOLERANCE.md). 0 keeps the
  // supervisor off (the default: no monitor thread, no heartbeat tracking).
  // Non-zero arms it: a sampling node whose heartbeat is older than this is
  // declared dead and auto-recovered from the latest Checkpoint() directory.
  util::Micros supervision_timeout = 0;
  // Computation-reuse tier (docs/PERF.md "Computation reuse & admission"),
  // forwarded to every ServingCore: per-worker hop-1 aggregate cache
  // capacity (0 disables) and staleness bound in wall micros (see
  // ServingCore::Options::aggregate_staleness_us).
  std::size_t aggregate_cache_entries = 0;
  std::int64_t aggregate_staleness_us = -1;
  // SLO-aware admission front door. When true, SubmitQuery() offers
  // queries to per-worker AdmissionQueues drained by a pump thread;
  // `admission` is each queue's policy.
  bool enable_admission = false;
  AdmissionQueue::Options admission;
  // Opt-in durable MQ log (docs/STORAGE.md): when non-empty, the broker is
  // bound to a segment store at <dir>/mqlog.hstore before topics are
  // created, so group-committed updates/samples records and consumer
  // offsets survive a process restart (a fresh cluster over the same dir
  // restores them). Empty (the default) keeps the broker memory-only. A
  // directory that cannot be created, or a store that cannot open or bind,
  // stops the process (exit 2) naming the directory and the reason.
  std::string durable_log_dir;
};

// Cluster-wide message flow. Per-shard and per-worker counters are the
// "sampling.*" / "serving.*" cells of MetricsSnapshot().
struct ClusterStats {
  std::uint64_t updates_published = 0;
  std::uint64_t updates_processed = 0;
  std::uint64_t serving_msgs_published = 0;
  std::uint64_t serving_msgs_applied = 0;
  std::uint64_t ctrl_sent = 0;
  std::uint64_t ctrl_processed = 0;
  std::uint64_t queries_served = 0;
};

class ThreadedCluster {
 public:
  ThreadedCluster(QueryPlan plan, ClusterOptions options);
  ~ThreadedCluster();

  ThreadedCluster(const ThreadedCluster&) = delete;
  ThreadedCluster& operator=(const ThreadedCluster&) = delete;

  // Starts polling pipelines. Must be called before updates flow.
  void Start();
  // Stops pipelines and joins every thread. Idempotent.
  void Stop();

  // ---- ingestion path (what a Kafka producer upstream would do)
  void PublishUpdate(const graph::GraphUpdate& update);

  // Blocks until every published update and every message it spawned has
  // been fully processed (queues drained, actors idle).
  void WaitForIngestIdle();

  // ---- request path (front-end, §4.3): routes by seed vertex and
  // assembles the K-hop result from the owning worker's local cache.
  SampledSubgraph Serve(graph::VertexId seed);
  // The serving worker a seed routes to (exposed for tests / benches).
  std::uint32_t RouteOf(graph::VertexId seed) const {
    return options_.map.ServingWorkerOf(seed);
  }

  // ---- admission front door (requires ClusterOptions::enable_admission;
  // SubmitQuery without it aborts)
  // Offers a query with an absolute wall-clock deadline to the owning
  // worker's AdmissionQueue; a pump thread pops one ticket per serve in
  // hit-first/EDF order (expired tickets shed at the pop), serves it and
  // completes it in its queue. Sheds instead of enqueueing when the queue
  // is full or the ticket cannot make its deadline under overload
  // ("serving.admission.*" / "serving.cache.shed" metrics).
  AdmissionQueue::Outcome SubmitQuery(graph::VertexId seed, std::int64_t deadline_us);
  // Blocks until every queue is Idle(): each admitted query completed or
  // shed.
  void WaitForQueryIdle();
  // Null when admission is disabled or the worker is out of range.
  AdmissionQueue* admission_queue(std::uint32_t worker) {
    return worker < admission_queues_.size() ? admission_queues_[worker].get() : nullptr;
  }
  // Direct core access for the computation-reuse tier (cached embeds in
  // benches/tests go through gnn::GraphSageEncoder::EmbedSeedCached).
  const ServingCore& serving_core(std::uint32_t worker) const { return *serving_cores_[worker]; }

  // ---- operations
  // TTL pass on sampling shards and serving caches (§4.2/§6).
  void PruneTTL(graph::Timestamp cutoff);
  // Serializes every live sampling shard into <dir>/checkpoints.hstore
  // (§4.1, docs/STORAGE.md) — one named segment per shard, the whole round
  // flipped durable by a single store commit — and remembers `dir` as the
  // recovery source. Shards of dead nodes keep their previous segment
  // (per-shard consistency permits mixed checkpoint ages).
  util::Status Checkpoint(const std::string& dir) { return control_.Checkpoint(dir); }
  // Restores shard state from a checkpoint directory (call before Start()).
  util::Status Restore(const std::string& dir) { return control_.Restore(dir); }

  // ---- fault injection & recovery (docs/FAULT_TOLERANCE.md)
  // Kills sampling worker `node`: its polling actor stops, its shard actors
  // are torn down with their thread pool joined, and all in-memory shard
  // state is dropped. In-flight updates and control deltas stay durable in
  // the broker log; a shard slice already running finishes first, so every
  // frame it counted is in the samples topic. Returns false for an unknown
  // or already-dead node.
  bool KillNode(std::uint32_t node) { return control_.Kill(node); }
  // Manually restarts a killed node: restores its shards from the latest
  // checkpoint, rewinds the consumer group to the restored offsets, replays
  // the log tail under the old epoch (re-emissions fence at the receivers)
  // and re-admits the node under a freshly granted epoch.
  bool RestartNode(std::uint32_t node) { return control_.Restart(node); }

  bool NodeAlive(std::uint32_t node) const { return control_.NodeAlive(node); }
  // Reports collected from supervisor-driven recoveries (monitor thread).
  std::vector<ft::RecoveryReport> RecoveryReports() const;
  // Null unless ClusterOptions::supervision_timeout is non-zero.
  ft::Supervisor* supervisor() { return control_.supervisor(); }

  // ---- elastic scale-out (docs/ELASTICITY.md)
  // Chaos hooks for the migration protocol: each point simulates a crash of
  // the named party at that protocol step; the regular fault machinery
  // (supervisor / RestartNode / ResumeMigrations) must then converge to the
  // same serving bytes as an unfaulted run.
  using MigrationFailPoint = ControlPlane::FailPoint;
  // Live handoff of one sampling shard to `dst`: checkpoint at the source,
  // install + log replay on the destination under a bumped epoch, then the
  // versioned ShardMap flip re-routes dissemination. Stop-and-copy within
  // this process (the source's poller pauses; records buffer durably in the
  // broker), so the destination's re-emissions are the only duplicates and
  // the receivers' epoch fences drop them. Returns false when refused
  // (unknown shard/node, dst == src, dead or drained endpoint, or the
  // migrator's max-concurrent budget).
  bool MigrateShard(std::uint32_t shard, std::uint32_t dst,
                    MigrationFailPoint fail = MigrationFailPoint::kNone) {
    return control_.Migrate(shard, dst, fail);
  }
  // Completes migrations stranded between epoch bump and map flip (the
  // coordinator-crash window). Idempotent. Returns how many were completed.
  std::size_t ResumeMigrations() { return control_.ResumeMigrations(); }
  // Drain-then-retire: migrates every shard off `node` (round-robin over
  // the remaining live nodes), then retires its pool and deregisters it
  // from supervision. Returns false if `node` is dead, already drained, or
  // the last node standing.
  bool DrainNode(std::uint32_t node) { return control_.Drain(node); }
  // Re-adds a drained node with a fresh (empty) pool; shards arrive via
  // subsequent MigrateShard calls (scale-up).
  bool ReviveNode(std::uint32_t node) { return control_.Revive(node); }
  bool NodeDrained(std::uint32_t node) const { return control_.NodeDrained(node); }
  // The versioned shard placement consulted by dissemination routing; the
  // migration ledger.
  elastic::ShardMap& sampling_assignment() { return control_.placement(); }
  const elastic::ShardMap& sampling_assignment() const { return control_.placement(); }
  elastic::ShardMigrator& migrator() { return control_.migrator(); }

  ClusterStats Stats() const;
  // End-to-end ingestion latency (publish -> applied at serving cache);
  // merged "pipeline.ingest_e2e" cells of the registry.
  util::Histogram IngestionLatency() const;
  // Per-serving-worker cache footprint.
  std::vector<kv::KvStats> ServingCacheStats() const;
  // Full cache contents of one serving worker (crash-parity golden tests:
  // byte-compare a recovered cluster against an uninterrupted one). Only
  // meaningful when ingestion is idle.
  std::map<std::string, std::string> DumpServingCache(std::uint32_t worker) const;

  // The cluster-wide metrics registry every core/actor records into.
  const obs::MetricsRegistry& registry() const { return registry_; }
  // Refreshes broker/cache gauges, then snapshots the registry — the one
  // call benches use to dump observability state.
  obs::MetricsRegistry::Snapshot MetricsSnapshot();

  const QueryPlan& plan() const { return plan_; }

 private:
  class ShardActor;
  class SamplingPollActor;
  class ServingPollActor;
  class ServingUpdateActor;

  // The mechanics the control plane drives (ControlPlane::Driver); they run
  // under the control plane's mutex.
  ControlPlane::Driver Mechanics();
  // The shard actors of live nodes, snapshot under the control plane's mutex.
  std::vector<std::shared_ptr<ShardActor>> LiveShards() const;
  std::unique_ptr<ShardStep> NewStep(std::uint32_t shard, std::uint32_t node,
                                     ShardLedger& ledger);
  void MonitorLoop();
  void QueryPumpLoop();
  // One pump step on `worker`'s queue: pops one ticket (unshed when
  // draining), serves it and completes it. False when nothing was popped.
  bool PumpOnce(std::uint32_t worker, bool drain);
  // The serve body of Serve() and PumpOnce(): ServeInto on `worker` with
  // the calling thread's scratch, under the serve span, counted in
  // cluster.queries_served.
  void ServeOn(std::uint32_t worker, graph::VertexId seed, SampledSubgraph& out);

  QueryPlan plan_;
  ClusterOptions options_;
  // Declared before the actors/cores so handles resolved against it stay
  // valid for their whole lifetime.
  obs::MetricsRegistry registry_;
  obs::WallClock wall_clock_;
  // Placement, liveness, supervision, epochs and the shards' ledgers;
  // declared before the actors, whose steps point at those ledgers.
  ControlPlane control_;
  // Mints root TraceContexts for updates entering through the log consumers
  // (used only when options_.trace is set). Salt 1 keeps threaded trace ids
  // disjoint from the DES harness allocators when dumps are merged.
  obs::TraceIdAllocator trace_ids_{1};
  // Declared before broker_ so the broker (which holds a raw pointer into
  // the store) is destroyed first. Null unless durable_log_dir was set.
  std::unique_ptr<store::SegmentStore> mq_store_;
  std::unique_ptr<mq::Broker> broker_;
  std::unique_ptr<actor::ActorSystem> system_;
  // Per-serving-worker stage tracers ({worker=<w>}), shared by the
  // data-updating actor (cache-apply + e2e) and Serve() (serve stage).
  std::vector<std::unique_ptr<obs::StageTracer>> serving_tracers_;
  // Per-serving-worker freshness trackers ({worker=<w>}, lanes = source
  // sampling shards): apply/serve hooks inside the ServingCores record
  // update->visibility and update->first-serve staleness. Declared before
  // serving_cores_ so the cores' raw pointers stay valid through teardown.
  std::vector<std::unique_ptr<obs::FreshnessTracker>> freshness_;

  // Sampling-side actor slots. Slots of a killed node keep the stopped
  // actors until recovery replaces them (readers skip dead nodes); mutation
  // and multi-slot reads synchronize on control_.mutex().
  std::vector<std::shared_ptr<ShardActor>> shards_;
  std::vector<std::shared_ptr<SamplingPollActor>> sampling_pollers_;
  std::vector<std::shared_ptr<ServingPollActor>> serving_pollers_;
  std::vector<std::shared_ptr<ServingUpdateActor>> serving_updaters_;
  // Replaced actor incarnations whose pool is (or may be) still running: a
  // queued drain slice captures the actor raw, so the object must outlive
  // any slice that could still touch it. Freed in Stop() after the actor
  // system joined every pool thread. Guarded by control_.mutex().
  std::vector<std::shared_ptr<actor::Actor>> retired_actors_;
  std::vector<std::unique_ptr<ServingCore>> serving_cores_;

  // Admission front door (empty unless options_.enable_admission).
  std::vector<std::unique_ptr<AdmissionQueue>> admission_queues_;
  std::thread query_pump_;

  std::atomic<bool> running_{false};

  std::thread monitor_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> shard_applied_;  // per shard: log offset applied
  mutable std::mutex reports_mutex_;
  std::vector<ft::RecoveryReport> reports_;
  // Cluster-level flow counters, registry-backed ("cluster.*"). The idle
  // detector compares producer/consumer pairs, so these must be the
  // authoritative cells, not copies.
  struct FlowCounters {
    obs::Counter* updates_published;
    obs::Counter* updates_processed;
    obs::Counter* serving_published;
    obs::Counter* serving_applied;
    obs::Counter* ctrl_sent;
    obs::Counter* ctrl_processed;
    obs::Counter* queries_served;
  };
  FlowCounters flow_;
};

}  // namespace helios
