// Wire messages exchanged between sampling shards and serving workers
// (§5.3, Fig 7), with binary codecs for queue transport.
//
// Data plane (sampling worker -> serving worker sample queues):
//   SampleUpdate  — the full refreshed cell of (level, vertex). Cells are
//                   small (<= fan-out entries) so full-state push is cheaper
//                   and more robust than deltas: a lost/duplicated message
//                   cannot corrupt the cache (idempotent apply).
//   FeatureUpdate — latest feature of a vertex.
//   Retract       — the vertex left this worker's subscription set; evict
//                   its cached cell/feature ("when vertices are no longer
//                   under the subscription of a specific serving worker, the
//                   sampling workers also enqueue an update message").
//
// Control plane (sampling shard -> sampling shard):
//   SubscriptionDelta — +1/-1 refcount for (level, vertex, serving worker),
//                   the peer-notify of Fig 7 (SAW_1 telling SAW_M that SEW_1
//                   now needs V4's Q2 samples).
//
// Batching (§7.2 dissemination path): steady-state traffic is dominated by
// tiny SampleDeltas, so messages are shipped as ServingBatch frames — one
// length-prefixed buffer per destination serving worker per flush, built by
// a reusable ServingBatchBuilder that also coalesces multiple deltas to the
// same (level, vertex) cell within the flush window into one message.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "graph/types.h"
#include "graph/update_codec.h"
#include "obs/trace_context.h"

namespace helios {

struct SampleUpdate {
  std::uint32_t level = 0;  // 1-based hop (cell belongs to Q_level)
  graph::VertexId vertex = graph::kInvalidVertex;
  std::vector<graph::Edge> samples;
  graph::Timestamp event_ts = 0;  // event time of the triggering update
  std::int64_t origin_us = 0;     // wall/virtual time the triggering graph
                                  // update entered the system (Fig 17)
};

struct FeatureUpdate {
  graph::VertexId vertex = graph::kInvalidVertex;
  graph::Feature feature;
  graph::Timestamp event_ts = 0;
  std::int64_t origin_us = 0;
};

// Incremental refresh of an already-cached cell: the sample the reservoir
// wrote and the slot it wrote it to (38B per change on the wire vs a full
// fan-out-sized cell). Full SampleUpdate snapshots are sent only when a
// subscription starts; at the sustained update rates of §7.2 the
// dissemination traffic would otherwise exceed the 10 Gbps NICs.
//
// `slot` is ReservoirCell::Offer's OfferOutcome::slot: the index that was
// overwritten, or the old size for an append. The serving side replays
// that write and nothing else, so a cached cell stays a byte copy of its
// reservoir under every strategy. Slots travel as u16; Decompose rejects
// fan-outs above 65535.
//
// A delta carries one change inline (the steady-state case — no heap
// allocation) plus optional follow-up changes in `more` when the batch
// builder coalesced several refreshes of the same cell within one flush
// window. Changes apply strictly in order: inline first, then `more`.
struct SampleDelta {
  std::uint32_t level = 0;
  graph::VertexId vertex = graph::kInvalidVertex;
  graph::Edge added;
  std::uint16_t slot = 0;
  graph::Timestamp event_ts = 0;
  std::int64_t origin_us = 0;  // of the FIRST coalesced change (conservative
                               // for latency accounting)

  struct Change {
    graph::Edge added;
    std::uint16_t slot = 0;
    graph::Timestamp event_ts = 0;
    // Emission seq of this change (ft::EpochFence); folded changes keep the
    // seq of the message they came from, so replay dedup still sees every
    // original emission even after coalescing.
    std::uint64_t seq = 0;
  };
  std::vector<Change> more;  // empty unless coalesced

  std::size_t num_changes() const { return 1 + more.size(); }
};

struct Retract {
  std::uint32_t level = 0;  // 0 = all levels (full eviction)
  graph::VertexId vertex = graph::kInvalidVertex;
};

struct SubscriptionDelta {
  std::uint32_t level = 0;
  graph::VertexId vertex = graph::kInvalidVertex;
  std::uint32_t serving_worker = 0;
  std::int32_t delta = 0;  // +1 subscribe, -1 unsubscribe

  // Fencing stamp (ft::EpochFence): (src_shard, epoch, seq) per
  // shard->shard stream, assigned by the emitting core. seq 0 = unstamped
  // (tests / legacy paths), always admitted.
  std::uint32_t src_shard = 0;
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
};

// A tagged union of everything a serving worker's sample queue can carry.
// The payload is a variant (one active member) so the struct stays small
// enough to move through batch builders and actor mailboxes cheaply.
struct ServingMessage {
  enum class Kind : std::uint8_t { kSample = 1, kFeature = 2, kRetract = 3, kSampleDelta = 4 };
  using Payload = std::variant<SampleUpdate, FeatureUpdate, Retract, SampleDelta>;
  Payload payload;

  // Emission seq per (sampling shard -> serving worker) stream, assigned by
  // the emitting core in processing order — independent of how the runtime
  // batches — so a replaying shard re-emits identical seqs and the serving
  // side can fence duplicates (ft::EpochFence). 0 = unstamped. For
  // kSampleDelta this is the seq of the inline change; folded follow-ups
  // carry their own (SampleDelta::Change::seq).
  std::uint64_t seq = 0;

  // Causal trace context (obs): stamped by the emitting core when tracing
  // is enabled, default-inactive otherwise. Rides the wire behind a flags
  // byte, so untraced runs pay one byte per record. Coalescing keeps the
  // head message's context (the first cause of the folded cell update).
  obs::TraceContext trace;

  static ServingMessage Of(SampleUpdate u) {
    ServingMessage m;
    m.payload = std::move(u);
    return m;
  }
  static ServingMessage Of(FeatureUpdate u) {
    ServingMessage m;
    m.payload = std::move(u);
    return m;
  }
  static ServingMessage Of(Retract u) {
    ServingMessage m;
    m.payload = u;
    return m;
  }
  static ServingMessage Of(SampleDelta u) {
    ServingMessage m;
    m.payload = std::move(u);
    return m;
  }

  // Kind values line up with the variant alternative order.
  Kind kind() const { return static_cast<Kind>(payload.index() + 1); }

  const SampleUpdate& sample() const { return std::get<SampleUpdate>(payload); }
  SampleUpdate& sample() { return std::get<SampleUpdate>(payload); }
  const FeatureUpdate& feature() const { return std::get<FeatureUpdate>(payload); }
  FeatureUpdate& feature() { return std::get<FeatureUpdate>(payload); }
  const Retract& retract() const { return std::get<Retract>(payload); }
  Retract& retract() { return std::get<Retract>(payload); }
  const SampleDelta& delta() const { return std::get<SampleDelta>(payload); }
  SampleDelta& delta() { return std::get<SampleDelta>(payload); }

  // The cache key the message touches (used to sub-shard data-updating
  // threads while preserving per-key order).
  graph::VertexId TargetVertex() const {
    switch (kind()) {
      case Kind::kSample: return sample().vertex;
      case Kind::kFeature: return feature().vertex;
      case Kind::kRetract: return retract().vertex;
      case Kind::kSampleDelta: return delta().vertex;
    }
    return graph::kInvalidVertex;
  }
  std::int64_t OriginMicros() const {
    switch (kind()) {
      case Kind::kSample: return sample().origin_us;
      case Kind::kFeature: return feature().origin_us;
      case Kind::kSampleDelta: return delta().origin_us;
      case Kind::kRetract: return 0;
    }
    return 0;
  }
};

// Codecs (round-trip property-tested).
std::string EncodeServingMessage(const ServingMessage& m);
bool DecodeServingMessage(const std::string& payload, ServingMessage& out);
// Streaming forms used by the ServingBatch codec: each record is
// self-delimiting, so frames concatenate them without per-record length
// prefixes.
void EncodeServingMessageTo(graph::ByteWriter& w, const ServingMessage& m);
bool DecodeServingMessageFrom(graph::ByteReader& r, ServingMessage& out);
std::string EncodeSubscriptionDelta(const SubscriptionDelta& d);
bool DecodeSubscriptionDelta(const std::string& payload, SubscriptionDelta& out);

// Control-plane records in the per-shard update log. Cross-shard
// SubscriptionDeltas travel through the *destination shard's* "updates"
// partition instead of a direct actor edge: the shard then consumes exactly
// one totally-ordered log (graph updates + control), which makes its
// processing — and therefore crash replay — deterministic, and makes
// in-flight deltas to a dead shard durable. Ctrl records are distinguished
// from graph-update records by the first byte (update codec uses tags 1/2).
inline constexpr std::uint8_t kCtrlRecordTag = 0x7F;
std::string EncodeCtrlRecord(const SubscriptionDelta& d);
bool IsCtrlRecord(const std::string& payload);
// Precondition: IsCtrlRecord(payload).
bool DecodeCtrlRecord(const std::string& payload, SubscriptionDelta& out);

// ------------------------------------------------------------ ServingBatch
//
// One coalesced flush of serving-bound messages for a single destination
// worker. Frame layout:
//   [u32 body_len][u32 count][u32 src_shard][u32 epoch][u64 flow_id]
//   [count records]
// each record in EncodeServingMessageTo format. (src_shard, epoch) identify
// the emitting incarnation for ft::EpochFence admission; 0/0 = unstamped.
// flow_id is the Chrome-trace flow binding id of this flush (the sampler
// side emits the flow start when it ships the frame, the serving side emits
// the flow end when it applies it); 0 = untraced.

// Framing overhead of one batch (body_len + count + src_shard + epoch +
// flow_id).
inline constexpr std::size_t kServingBatchHeaderBytes = 24;

// Accumulates the messages bound for one destination between flushes.
// Reused across flushes: Clear() keeps every allocation (message vector,
// coalescing index, encode arena), so steady-state dissemination does no
// per-message heap work.
//
// Coalescing: consecutive SampleDeltas for the same (level, vertex) cell
// fold into the earliest pending delta's `more` list (one message, one
// cache lookup at apply time). A SampleUpdate snapshot or a cell Retract
// for that cell fences the fold — later deltas must not merge past it, or
// they would apply before the snapshot instead of after.
class ServingBatchBuilder {
 public:
  void Add(ServingMessage msg);

  // Sets the (src_shard, epoch) stamp encoded into the frame header.
  // Sticky across Clear(): the emitting shard re-stamps only when its epoch
  // changes.
  void Stamp(std::uint32_t src_shard, std::uint32_t epoch) {
    src_shard_ = src_shard;
    epoch_ = epoch;
  }
  std::uint32_t src_shard() const { return src_shard_; }
  std::uint32_t epoch() const { return epoch_; }

  // Sets the flow binding id encoded into the frame header. Per-flush (not
  // sticky): Clear() resets it to 0 (untraced).
  void StampFlow(std::uint64_t flow_id) { flow_id_ = flow_id; }
  std::uint64_t flow_id() const { return flow_id_; }

  bool empty() const { return messages_.empty(); }
  // Messages pending in this flush window (after coalescing).
  std::size_t size() const { return messages_.size(); }
  const std::vector<ServingMessage>& messages() const { return messages_; }
  // Deltas folded into an earlier message since the last Clear().
  std::uint64_t coalesced() const { return coalesced_; }

  // Encodes the pending messages as one ServingBatch frame into the
  // builder's arena. The reference is valid until the next Add/Clear.
  const std::string& EncodeToArena();

  // Drops pending state but keeps capacity.
  void Clear();

 private:
  struct CellKey {
    std::uint32_t level = 0;
    graph::VertexId vertex = graph::kInvalidVertex;
    bool operator==(const CellKey&) const = default;
  };
  struct CellKeyHash {
    std::size_t operator()(const CellKey& k) const;
  };

  std::vector<ServingMessage> messages_;
  // (level, vertex) -> index in messages_ of the foldable pending delta.
  std::unordered_map<CellKey, std::size_t, CellKeyHash> pending_delta_;
  graph::ByteWriter arena_;
  std::uint64_t coalesced_ = 0;
  std::uint32_t src_shard_ = 0;
  std::uint32_t epoch_ = 0;
  std::uint64_t flow_id_ = 0;
};

// Iterates the records of an encoded ServingBatch frame without
// materializing a message vector. The payload must outlive the reader.
class ServingBatchReader {
 public:
  explicit ServingBatchReader(const std::string& payload);
  explicit ServingBatchReader(std::string&& payload) = delete;  // would dangle

  // Fills `out` with the next record. Returns false at end of frame or on
  // malformed input (distinguish with ok()).
  bool Next(ServingMessage& out);

  bool ok() const { return ok_; }
  std::uint32_t count() const { return count_; }
  std::uint32_t src_shard() const { return src_shard_; }
  std::uint32_t epoch() const { return epoch_; }
  std::uint64_t flow_id() const { return flow_id_; }

 private:
  graph::ByteReader r_;
  std::uint32_t count_ = 0;
  std::uint32_t consumed_ = 0;
  std::uint32_t src_shard_ = 0;
  std::uint32_t epoch_ = 0;
  std::uint64_t flow_id_ = 0;
  bool ok_ = true;
};

// The per-destination fan-out of one SamplingShardCore dispatch window:
// lazily-grown batch builders indexed by serving worker. Drivers flush one
// ServingBatch per active destination.
class ServingBatchSet {
 public:
  // Builder for destination `sew`, creating/activating it on first touch.
  ServingBatchBuilder& For(std::uint32_t sew);
  void Add(std::uint32_t sew, ServingMessage msg) { For(sew).Add(std::move(msg)); }

  // Destinations touched since the last Clear(), in first-touch order.
  const std::vector<std::uint32_t>& active() const { return active_; }
  // Builder of an active destination (must appear in active()).
  ServingBatchBuilder& builder(std::uint32_t sew) { return *builders_[sew]; }
  const ServingBatchBuilder& builder(std::uint32_t sew) const { return *builders_[sew]; }

  bool empty() const { return active_.empty(); }
  std::size_t total_messages() const;

  // Visits every pending (destination, message) pair, grouped per
  // destination in emission order. For in-process consumers (tests, the
  // fast ingest path) that do not need the byte codec.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::uint32_t sew : active_) {
      for (const ServingMessage& m : builders_[sew]->messages()) fn(sew, m);
    }
  }

  // Resets every active builder (keeping capacity) and the active list.
  void Clear();

 private:
  std::vector<std::unique_ptr<ServingBatchBuilder>> builders_;
  std::vector<char> is_active_;
  std::vector<std::uint32_t> active_;
};

}  // namespace helios
