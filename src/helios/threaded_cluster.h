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
// (Checkpoint()). Control-plane
// subscription deltas ride the destination shard's "updates" partition as
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
#include "elastic/migrator.h"
#include "elastic/shard_map.h"
#include "ft/recovery.h"
#include "ft/supervisor.h"
#include "gen/datasets.h"
#include "graph/types.h"
#include "helios/admission.h"
#include "helios/messages.h"
#include "helios/query.h"
#include "helios/sampling_core.h"
#include "helios/serving_core.h"
#include "helios/shard_map.h"
#include "mq/mq.h"
#include "obs/freshness.h"
#include "store/segment_store.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "util/histogram.h"

namespace helios {

// Trace lanes: sampling workers use pid = worker id; serving workers sit in
// a disjoint pid range (kServingPidBase + worker) so both runtimes render
// the same way in Perfetto and flow arrows visibly cross the tier boundary.
inline constexpr std::uint32_t kServingPidBase = 1000;

struct ClusterOptions {
  ShardMap map;                       // M, S, N
  std::size_t poll_batch = 512;       // records per poll
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
  // records per-query latency into the seed's lane, and when supervision is
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
  // `admission` seeds each queue's policy (registry, lane label, and —
  // when `telemetry` is set — the overload probe are filled in by the
  // cluster).
  bool enable_admission = false;
  AdmissionQueue::Options admission;
  // Opt-in durable MQ log (docs/STORAGE.md): when non-empty, the broker is
  // bound to a segment store at <dir>/mqlog.hstore before topics are
  // created, so group-committed updates/samples records and consumer
  // offsets survive a process restart (a fresh cluster over the same dir
  // restores them). Empty (the default) keeps the broker memory-only.
  std::string durable_log_dir;
};

struct ClusterStats {
  std::uint64_t updates_published = 0;
  std::uint64_t updates_processed = 0;
  std::uint64_t serving_msgs_published = 0;
  std::uint64_t serving_msgs_applied = 0;
  std::uint64_t ctrl_sent = 0;
  std::uint64_t ctrl_processed = 0;
  std::uint64_t queries_served = 0;
  SamplingShardCore::Stats sampling;  // aggregated over shards
  ServingCore::Stats serving;         // aggregated over workers
};

struct ShardLedger;

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
  // The static layout hashes the seed to a logical lane; the versioned
  // serving assignment maps the lane to its current physical owner
  // (identity until an elastic rebind — docs/ELASTICITY.md).
  std::uint32_t RouteOf(graph::VertexId seed) const {
    return serving_assignment_.OwnerOf(options_.map.ServingWorkerOf(seed));
  }

  // ---- admission front door (requires ClusterOptions::enable_admission)
  // Offers a query with an absolute wall-clock deadline to the owning
  // worker's AdmissionQueue; a pump thread drains batches by deadline
  // slack (hit-likely first) and serves them. Sheds instead of enqueueing
  // when the queue is full or the ticket cannot make its deadline under
  // overload ("serving.admission.*" / "serving.cache.shed" metrics).
  AdmissionQueue::Outcome SubmitQuery(graph::VertexId seed, std::int64_t deadline_us);
  // Blocks until every admitted query has been served or shed.
  void WaitForQueryIdle();
  // Serves everything still queued ignoring deadlines (fence semantics:
  // admitted queries are answered, never dropped). Also runs on Stop().
  std::size_t DrainQueries();
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
  util::Status Checkpoint(const std::string& dir);
  // Restores shard state from a checkpoint directory (call before Start()).
  util::Status Restore(const std::string& dir);

  // ---- fault injection & recovery (docs/FAULT_TOLERANCE.md)
  // Kills sampling worker `node`: its polling actor stops, its shard actors
  // are torn down with their thread pool joined, and all in-memory shard
  // state is dropped. In-flight updates and control deltas stay durable in
  // the broker log; a shard slice already running finishes first, so every
  // frame it counted is in the samples topic. Returns false for an unknown
  // or already-dead node.
  bool KillNode(std::uint32_t node);
  // Manually restarts a killed node: restores its shards from the latest
  // checkpoint, rewinds the consumer group to the restored offsets, replays
  // the log tail under the old epoch (re-emissions fence at the receivers)
  // and re-admits the node under a freshly granted epoch.
  bool RestartNode(std::uint32_t node);
  // Both of the above as the runtime-agnostic injector handle.
  ft::FaultInjector Injector();

  bool NodeAlive(std::uint32_t node) const;
  // Reports collected from supervisor-driven recoveries (monitor thread).
  std::vector<ft::RecoveryReport> RecoveryReports() const;
  // Null unless ClusterOptions::supervision_timeout is non-zero.
  ft::Supervisor* supervisor() { return supervisor_.get(); }

  // ---- elastic scale-out (docs/ELASTICITY.md)
  // Chaos hooks for the migration protocol: each point simulates a crash of
  // the named party at that protocol step; the regular fault machinery
  // (supervisor / RestartNode / ResumeMigrations) must then converge to the
  // same serving bytes as an unfaulted run.
  enum class MigrationFailPoint : std::uint8_t {
    kNone = 0,
    kSourceMidCheckpoint,    // source node dies while serializing the shard
    kDestMidReplay,          // destination dies while replaying the log tail
    kCoordinatorBeforeFlip,  // coordinator dies after the epoch bump, before
                             // the ShardMap flip (ResumeMigrations completes)
  };
  // Live handoff of one sampling shard to `dst`: checkpoint at the source,
  // install + log replay on the destination under a bumped epoch, then the
  // versioned ShardMap flip re-routes dissemination. Stop-and-copy within
  // this process (the source's poller pauses; records buffer durably in the
  // broker), so the destination's re-emissions are the only duplicates and
  // the receivers' epoch fences drop them. Returns false when refused
  // (unknown shard/node, dst == src, dead or drained endpoint, or the
  // migrator's max-concurrent budget).
  bool MigrateShard(std::uint32_t shard, std::uint32_t dst,
                    MigrationFailPoint fail = MigrationFailPoint::kNone);
  // Completes migrations stranded between epoch bump and map flip (the
  // coordinator-crash window). Idempotent. Returns how many were completed.
  std::size_t ResumeMigrations();
  // Drain-then-retire: migrates every shard off `node` (round-robin over
  // the remaining live nodes), then retires its pool and deregisters it
  // from supervision. Returns false if `node` is dead, already drained, or
  // the last node standing.
  bool DrainNode(std::uint32_t node);
  // Re-adds a drained node with a fresh (empty) pool; shards arrive via
  // subsequent MigrateShard calls (scale-up).
  bool ReviveNode(std::uint32_t node);
  bool NodeDrained(std::uint32_t node) const;
  // The versioned shard placement (sampling tier) and lane placement
  // (serving tier) consulted by routing; the migration ledger.
  elastic::ShardMap& sampling_assignment() { return sampling_assignment_; }
  const elastic::ShardMap& sampling_assignment() const { return sampling_assignment_; }
  elastic::ShardMap& serving_assignment() { return serving_assignment_; }
  elastic::ShardMigrator& migrator() { return *migrator_; }

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

  // Unlocked kill/recover bodies (callers hold fault_mutex_).
  bool KillNodeLocked(std::uint32_t node);
  ft::RecoveryReport RecoverNode(std::uint32_t node, std::uint32_t epoch);
  std::uint32_t NextEpochFor(std::uint32_t node);
  // Strictly-monotonic epoch for shard `s` no matter which node hosts it
  // next: the receivers' fences are keyed by source shard, so a migrated
  // shard must never re-enter under an epoch its previous owner already
  // used. Callers hold fault_mutex_.
  std::uint32_t NextShardEpochLocked(std::uint32_t s, std::uint32_t node_grant);
  // The one install sequence of a shard incarnation (RecoverNode and
  // MigrateShard): a fresh actor on `node` restores `checkpoint` (null =
  // empty state) and arms replay of the partition tail under `epoch`, the
  // consumer group rewinds to the restored offset, and the actor takes the
  // shard's slot. Returns the records to replay; on failure the slot is
  // untouched. Callers hold fault_mutex_.
  util::StatusOr<std::uint64_t> InstallShardLocked(std::uint32_t s, std::uint32_t node,
                                                   const std::string* checkpoint,
                                                   std::uint32_t epoch);
  // Replaces node `n`'s polling actor with a fresh one consuming the
  // partitions the current sampling assignment gives it (callers hold
  // fault_mutex_; the old poller must already be stopped).
  void RebuildPollerLocked(std::uint32_t node);
  // Post-flip ownership-change hygiene: serving-side aggregate caches and
  // admission hot-seed tables describe the previous owner and must not
  // serve under the new one.
  void FlushOwnershipCachesLocked();
  std::size_t ResumeMigrationsLocked();
  void MonitorLoop();
  void QueryPumpLoop();
  void ServeTicket(std::uint32_t worker, const QueryTicket& ticket);

  QueryPlan plan_;
  ClusterOptions options_;
  // Declared before the actors/cores so handles resolved against it stay
  // valid for their whole lifetime.
  obs::MetricsRegistry registry_;
  obs::WallClock wall_clock_;
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
  // actors until RecoverNode replaces them (readers skip dead nodes via
  // node_dead_); mutation and multi-slot reads synchronize on fault_mutex_.
  std::vector<std::shared_ptr<ShardActor>> shards_;
  std::vector<std::shared_ptr<SamplingPollActor>> sampling_pollers_;
  std::vector<std::shared_ptr<ServingPollActor>> serving_pollers_;
  std::vector<std::shared_ptr<ServingUpdateActor>> serving_updaters_;
  // Replaced actor incarnations whose pool is (or may be) still running: a
  // queued drain slice captures the actor raw, so the object must outlive
  // any slice that could still touch it. Freed in Stop() after the actor
  // system joined every pool thread. Guarded by fault_mutex_.
  std::vector<std::shared_ptr<actor::Actor>> retired_actors_;
  std::vector<std::unique_ptr<ServingCore>> serving_cores_;

  // Admission front door (empty unless options_.enable_admission).
  std::vector<std::unique_ptr<AdmissionQueue>> admission_queues_;
  std::thread query_pump_;
  std::atomic<std::uint64_t> queries_pumped_{0};

  std::atomic<bool> running_{false};

  // ---- fault-tolerance state
  std::unique_ptr<ft::Supervisor> supervisor_;
  std::thread monitor_;
  mutable std::mutex fault_mutex_;               // kill/recover + slot reads
  std::unique_ptr<std::atomic<bool>[]> node_dead_;          // per sampling worker
  std::unique_ptr<std::atomic<std::uint64_t>[]> shard_applied_;  // per shard: log offset applied
  // Per shard, kept across the shard's incarnations (node_engine.h).
  std::unique_ptr<ShardLedger[]> ledgers_;
  std::vector<std::uint32_t> node_epochs_;       // fallback grants (no supervisor)
  std::string last_checkpoint_dir_;

  // ---- elastic state (docs/ELASTICITY.md)
  // Versioned shard -> owner placement for the sampling tier. Starts as the
  // static layout (ShardMap::WorkerOfShard) and diverges under migrations;
  // every owner lookup in this file goes through it, never through
  // options_.map.WorkerOfShard.
  elastic::ShardMap sampling_assignment_;
  // Versioned logical-lane -> physical-worker placement for the serving
  // tier (identity unless rebound; subscription state is keyed by lane).
  elastic::ShardMap serving_assignment_;
  std::unique_ptr<elastic::ShardMigrator> migrator_;
  // Highest epoch each shard has entered service under, across all owners
  // (guarded by fault_mutex_).
  std::vector<std::uint32_t> shard_epochs_;
  std::vector<std::uint8_t> node_drained_;  // guarded by fault_mutex_
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
