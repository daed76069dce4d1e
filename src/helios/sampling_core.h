// SamplingShardCore — the single-threaded owner of one logical shard of the
// pre-sampling state (§4.2, §5).
//
// A sampling worker hosts S of these cores (one per sampling thread); each
// core owns, for the vertices that hash to its shard:
//   * one reservoir table per one-hop query Qk (key vertex -> value cell);
//   * the feature table entries of its vertices;
//   * the subscription tables: which serving workers need the samples /
//     features of which of its vertices, with reference counts.
//
// The core is deliberately pure: it consumes one input event at a time and
// appends the messages it wants delivered to an Outputs sink. Drivers (the
// threaded cluster, the DES cluster emulator, unit tests) decide how those
// messages travel. This is what lets the same code run under real threads
// and under virtual time.
//
// Subscription protocol (Fig 7). Levels run 1..K+1:
//   level l <= K : "SEW j needs the Ql cell of vertex v and v's feature";
//   level  K+1   : "SEW j needs v's feature only" (leaves of the tree).
// Seeds self-subscribe at level 1 when first observed (the owner shard and
// the responsible serving worker are both pure functions of the vertex id).
// When a subscribed cell's contents change (w sampled in, x evicted), the
// owner cascades +1/-1 deltas at level l+1 to the owners of w and x for
// every subscribed serving worker. A refcount reaching zero triggers a
// Retract so the serving cache can evict, and a cascaded -1 for the cell's
// current children.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ft/fence.h"
#include "gen/datasets.h"
#include "graph/types.h"
#include "graph/update_codec.h"
#include "helios/messages.h"
#include "helios/query.h"
#include "helios/reservoir.h"
#include "helios/shard_map.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace helios {

class SamplingShardCore {
 public:
  struct Options {
    // Remove samples older than (latest event ts - ttl) when Prune() runs.
    // 0 disables TTL.
    graph::Timestamp ttl = 0;
    // Shared metrics registry; the core registers its "sampling.*" metrics
    // there labelled {shard=<id>, worker=<owner>} so drivers aggregate
    // per-shard -> per-worker -> cluster. Null = the core keeps a private
    // registry (unit tests, standalone use).
    obs::MetricsRegistry* registry = nullptr;
  };

  // Message sink filled by the event handlers. Serving-bound messages
  // accumulate in per-destination batch builders (ServingBatchSet) that
  // coalesce same-cell deltas and keep their allocations across windows —
  // drivers flush one ServingBatch per active destination, then Clear().
  struct Outputs {
    ServingBatchSet to_serving;                                         // per-SEW batches
    std::vector<std::pair<std::uint32_t, SubscriptionDelta>> to_shards; // (shard, delta)

    void Clear() {
      to_serving.Clear();
      to_shards.clear();
    }
  };

  SamplingShardCore(QueryPlan plan, ShardMap map, std::uint32_t shard_id,
                    std::uint64_t seed, Options options);
  SamplingShardCore(QueryPlan plan, ShardMap map, std::uint32_t shard_id, std::uint64_t seed)
      : SamplingShardCore(std::move(plan), map, shard_id, seed, Options{}) {}

  // Ingests one graph update previously routed to this shard.
  // `origin_us` is the (wall or virtual) time the update entered the
  // system; it is propagated on every resulting message so serving workers
  // can measure ingestion latency (Fig 17). `trace` (optional) is the causal
  // context minted for this update at ingest; every serving-bound message
  // the update spawns carries it, which is what stitches sampler->server
  // work into one Chrome-trace flow (obs/trace_context.h). Inactive by
  // default: untraced runs behave exactly as before.
  void OnGraphUpdate(const graph::GraphUpdate& update, std::int64_t origin_us, Outputs& out,
                     const obs::TraceContext& trace = {});

  // Handles a subscription delta addressed to this shard (owner of
  // delta.vertex). Self-addressed deltas are processed inline by
  // OnGraphUpdate, so drivers only route cross-shard ones here. Cascaded
  // emissions inherit `trace` the same way.
  void OnSubscriptionDelta(const SubscriptionDelta& delta, std::int64_t origin_us, Outputs& out,
                           const obs::TraceContext& trace = {});

  // TTL pass (§4.2): drops samples with ts < cutoff, pushing refreshed
  // cells / cascaded unsubscribes for anything that changed.
  void Prune(graph::Timestamp cutoff, Outputs& out);

  // Sends every subscriber the snapshot of each cell and feature it is
  // subscribed to: the messages a first subscription sends, without its
  // cascade (the children's subscriptions already exist). Unstamped.
  void ResendSubscribed(Outputs& out);

  // The registry this core records into (the shared one, or the private
  // fallback when Options.registry was null): its "sampling.*" cells are
  // the core's counters.
  const obs::MetricsRegistry& metrics() const { return *registry_; }
  const QueryPlan& plan() const { return plan_; }
  std::uint32_t shard_id() const { return shard_id_; }

  // Approximate resident bytes of all tables (reservoir + feature + subs).
  std::size_t ApproximateBytes() const;

  // Checkpointing (§4.1: "periodically triggers checkpointing for fault
  // tolerance"). Serializes every table plus the fault-tolerance state
  // (epoch, emission seq counters, applied log offset, peer fence) and the
  // RNG state, so a restored core continues the *same* reservoir stream and
  // re-emits byte-identical messages when replaying its log.
  void Serialize(graph::ByteWriter& w) const;
  static bool Deserialize(graph::ByteReader& r, SamplingShardCore& core);

  // ---- fault tolerance (ft::EpochFence; see docs/FAULT_TOLERANCE.md)
  //
  // Every serving-bound message and cross-shard delta the core emits is
  // stamped (src_shard, epoch, seq) in processing order; receivers fence
  // duplicates when the shard replays its log after a crash.
  std::uint32_t epoch() const { return epoch_; }
  // Installs the supervisor-granted re-admission epoch once replay caught
  // up; per-destination seq counters restart at 1 in the new epoch.
  void BumpEpoch(std::uint32_t epoch);
  // Offset of the next unapplied record in this shard's update log,
  // maintained by the driver as it feeds the core. Checkpointed, and used
  // as the replay start after recovery (the broker's committed offset may
  // run ahead of processing).
  std::uint64_t applied_offset() const { return applied_offset_; }
  void set_applied_offset(std::uint64_t offset) { applied_offset_ = offset; }
  // Admits a cross-shard control delta addressed to this shard; false means
  // a duplicate of one already processed (a replaying peer's re-emission).
  bool AdmitCtrl(const SubscriptionDelta& delta);

  // Test / inspection hooks.
  const ReservoirCell* CellOf(std::uint32_t level, graph::VertexId v) const;
  bool HasFeature(graph::VertexId v) const;
  std::uint32_t CellSubscribers(std::uint32_t level, graph::VertexId v) const;

 private:
  using SubCounts = std::unordered_map<std::uint32_t, std::uint32_t>;  // sew -> refcount

  void OnEdgeUpdate(const graph::EdgeUpdate& e, std::int64_t origin_us, Outputs& out);
  void OnVertexUpdate(const graph::VertexUpdate& v, std::int64_t origin_us, Outputs& out);
  void EnsureSeedSubscription(graph::VertexId v, std::int64_t origin_us, Outputs& out);
  // Routes a delta to its owner shard — inline if local, queued (stamped
  // with this shard's epoch/seq) otherwise.
  void RouteDelta(const SubscriptionDelta& delta, std::int64_t origin_us, Outputs& out);
  void SendSampleUpdate(std::uint32_t level, graph::VertexId v, const ReservoirCell& cell,
                        std::int64_t origin_us, std::uint32_t sew, Outputs& out);
  void SendFeatureUpdate(graph::VertexId v, std::int64_t origin_us, std::uint32_t sew,
                         Outputs& out);
  // Single exit for serving-bound messages: stamps the per-destination
  // emission seq so replay dedup is independent of driver batching.
  void EmitToServing(std::uint32_t sew, ServingMessage msg, Outputs& out);
  // Sets the sampling.cells gauge from the table sizes (never a running
  // sum: a restored core resolves the gauge its dead incarnation left).
  void PublishCellCount();

  QueryPlan plan_;
  ShardMap map_;
  std::uint32_t shard_id_ = 0;
  Options options_;
  util::Rng rng_;
  std::uint64_t seed_ = 0;

  // reservoir_[k] is the table of Q_{k+1}.
  std::vector<std::unordered_map<graph::VertexId, ReservoirCell>> reservoir_;
  std::unordered_map<graph::VertexId, graph::Feature> features_;
  // cell_subs_[k]: subscribers of Q_{k+1} cells.
  std::vector<std::unordered_map<graph::VertexId, SubCounts>> cell_subs_;
  // Union over all levels (incl. K+1): who needs a vertex's feature.
  std::unordered_map<graph::VertexId, SubCounts> feature_subs_;
  std::unordered_set<graph::VertexId> seeds_seen_;
  graph::Timestamp latest_event_ts_ = 0;
  // Trace context of the event currently being processed; EmitToServing
  // stamps it on every message. Inactive outside OnGraphUpdate /
  // OnSubscriptionDelta. Deliberately NOT checkpointed: tracing is
  // diagnostic state, and replayed emissions re-derive stamps from the
  // replay driver (or run untraced) without perturbing byte parity of the
  // payload fields the fence dedups on.
  obs::TraceContext current_trace_;

  // ---- fault-tolerance state (all serialized in checkpoints)
  // Epoch 1 = the first incarnation (0 is reserved for "unstamped" on the
  // wire); the supervisor grants 2, 3, ... at successive re-admissions.
  std::uint32_t epoch_ = 1;
  std::uint64_t applied_offset_ = 0;
  // Last emission seq per destination (serving worker / peer shard).
  std::unordered_map<std::uint32_t, std::uint64_t> serving_seq_;
  std::unordered_map<std::uint32_t, std::uint64_t> ctrl_seq_;
  // Dedup of control deltas from replaying peers, keyed by src shard.
  ft::EpochFence ctrl_fence_;

  // Registry-backed metric handles (resolved once at construction; hot-path
  // recording is a relaxed atomic op per event).
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;  // when none shared
  obs::MetricsRegistry* registry_ = nullptr;
  struct MetricHandles {
    obs::Counter* updates_processed;
    obs::Counter* edges_offered;
    obs::Gauge* cells;
    obs::Counter* sample_updates_sent;
    obs::Counter* sample_deltas_sent;
    obs::Counter* feature_updates_sent;
    obs::Counter* retracts_sent;
    obs::Counter* sub_deltas_sent;
    obs::Gauge* features_stored;
    obs::Counter* ctrl_fenced;  // ft.*: duplicate peer deltas dropped
  };
  MetricHandles m_;
};

}  // namespace helios
