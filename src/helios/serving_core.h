// ServingCore — the query-aware sample cache and K-hop query assembly (§6).
//
// Each serving worker owns one partition of the inference seed vertices and
// keeps, in a hybrid memory/disk KV store (kv::KvStore, the RocksDB
// substitute), exactly the state needed to answer K-hop sampling queries
// for its seeds with local lookups only:
//   * a sample table per one-hop query: key "s/<level>/<vertex>" -> the
//     pre-sampled cell pushed by the sampling workers;
//   * a feature table: key "f/<vertex>" -> the latest feature.
// ServeInto() assembles the full K-hop result by iterative cell lookups —
// exactly prod_{i<K} C_i sample-table and prod_{i<=K} C_i feature-table
// lookups in the worst case, independent of the seed's real degree, which
// is the tail-latency argument of the paper. ServeAggregatesInto() is the
// same read path with hop-1 aggregates reused from a cache: both run one
// hop decode, one feature gather and one per-query metrics record.
//
// The read path is zero-copy and shard-batched: keys are fixed-size binary
// buffers built on the stack (SampleKeyBuf/FeatureKeyBuf), every hop is one
// KvStore::MultiView (one lock per distinct KV shard, cells decoded in
// place from the resident bytes), and the result's features land in one
// contiguous per-query float arena indexed vertex -> (offset, len). The
// caller owns the output and a ServeScratch; reused, a steady-state call
// performs zero heap allocations (asserted by bench/micro_ops
// BM_ServePathZeroCopy and BM_ServePathCached).
//
// Consistency is eventual (§6): updates are applied as the sample queue
// drains; a lookup may miss entries that are still in flight. Each result
// reports how many lookups missed so experiments can quantify staleness.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ft/fence.h"
#include "graph/types.h"
#include "helios/messages.h"
#include "helios/query.h"
#include "kv/kv_store.h"
#include "obs/freshness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/aligned.h"
#include "util/hash.h"
#include "util/simd.h"
#include "util/status.h"

namespace helios {

// On-cache encoding of a vertex feature (docs/PERF.md "vectorized kernels &
// quantized features"). The value header is one u32: bits 31..30 carry the
// format, bits 29..0 the element count. kFp32's header is therefore the
// plain element count — byte-identical to the legacy [u32 n][n × f32]
// layout, so existing caches decode unchanged.
//   kFp32: [u32 n]              [n × f32]            4 + 4n bytes
//   kFp16: [u32 (1<<30)|n]      [n × u16]            4 + 2n bytes
//   kInt8: [u32 (2<<30)|n][f32 scale][n × i8]        8 + n  bytes
// int8 is per-vertex symmetric: scale = maxabs/127, max abs error scale/2.
// fp16 is IEEE binary16 round-to-nearest-even: max abs error
// max(|x| * 2^-11, 2^-24). Encoding is always scalar (cache bytes must not
// depend on the writer's SIMD dispatch level); decoding dequantizes with
// the vector kernels, which are value-exact vs their scalar references.
enum class FeatureFormat : std::uint8_t { kFp32 = 0, kFp16 = 1, kInt8 = 2 };

const char* FeatureFormatName(FeatureFormat format);

// Encodes a feature in the given format (see layout table above).
std::string EncodeFeatureValue(const graph::Feature& f, FeatureFormat format);
// Decodes any of the three formats (self-describing header); malformed
// values decode as an empty feature, matching the legacy read path.
graph::Feature DecodeFeatureValue(std::string_view value);

// Stack-built fixed-size binary keys for the two cache tables. Layouts
// match the historical string keys byte for byte ("s" + raw level byte +
// 8-byte vertex; "f" + 8-byte vertex) so on-disk caches stay readable.
struct SampleKeyBuf {
  char bytes[10];
  SampleKeyBuf() = default;
  SampleKeyBuf(std::uint32_t level, graph::VertexId v) {
    bytes[0] = 's';
    bytes[1] = static_cast<char>(level);
    std::memcpy(bytes + 2, &v, sizeof(v));
  }
  std::string_view view() const { return {bytes, sizeof(bytes)}; }
};

struct FeatureKeyBuf {
  char bytes[9];
  FeatureKeyBuf() = default;
  explicit FeatureKeyBuf(graph::VertexId v) {
    bytes[0] = 'f';
    std::memcpy(bytes + 1, &v, sizeof(v));
  }
  std::string_view view() const { return {bytes, sizeof(bytes)}; }
};

// Flat per-query feature storage: one contiguous 32-byte-aligned float
// arena plus an open-addressing vertex -> (offset, len) index. Replaces the
// old map<VertexId, Feature> (one heap-allocated vector per vertex,
// scattered reads at GNN gather time). Clear() keeps every buffer's
// capacity, so a reused table reaches zero-allocation steady state.
//
// Doubles as the serve path's frontier dedup set: Insert() marks a vertex
// as seen (one probe, no arena bytes) while the hop decode scatters, and
// Allocate() later lands the decoded feature in the arena with a single
// probe — no separate sort+unique pass.
class FeatureTable {
 public:
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  bool Contains(graph::VertexId v) const { return FindSlot(v) != nullptr; }

  // Span of v's feature in the arena; empty when absent (or when the
  // stored feature itself is empty — use Contains to distinguish).
  std::span<const float> Find(graph::VertexId v) const {
    const Slot* s = FindSlot(v);
    if (s == nullptr) return {};
    return {arena_.data() + s->offset, s->len};
  }

  // Marks v present with an empty feature unless already present. Returns
  // true on first sight — the fused dedup predicate.
  bool Insert(graph::VertexId v);
  // Appends len floats to the arena for v (single probe; inserts the slot
  // if absent, unconditionally repoints it if present) and returns the
  // destination to decode into. The pointer is valid until the next
  // Allocate/Set/Clear.
  float* Allocate(graph::VertexId v, std::size_t len);

  // Inserts or overwrites v's feature (copied into the arena).
  void Set(graph::VertexId v, const float* data, std::size_t len);
  void Set(graph::VertexId v, const graph::Feature& f) { Set(v, f.data(), f.size()); }
  void Erase(graph::VertexId v);
  // O(1): bumps the generation stamp instead of wiping the slot array (the
  // old std::fill was ~3% of serve-path CPU at fan-out 10×10).
  void Clear();

  // fn(vertex, span) for every stored feature, unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.gen == gen_ && s.state == kUsed) {
        fn(s.vertex, std::span<const float>(arena_.data() + s.offset, s.len));
      }
    }
  }

  // Total floats resident in the arena (diagnostics / serving.query.*).
  std::size_t arena_floats() const { return arena_.size(); }

 private:
  enum SlotState : std::uint8_t { kEmpty = 0, kUsed = 1, kTombstone = 2 };
  struct Slot {
    graph::VertexId vertex = graph::kInvalidVertex;
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
    std::uint32_t gen = 0;  // slot live iff gen == table gen_ (Clear() bumps)
    std::uint8_t state = kEmpty;
  };

  const Slot* FindSlot(graph::VertexId v) const;
  Slot* InsertSlot(graph::VertexId v);  // grows/rehashes as needed
  void Grow();

  util::AlignedVector<float> arena_;  // 32-byte aligned for vector gathers
  std::vector<Slot> slots_;  // power-of-two open addressing, linear probing
  std::size_t count_ = 0;
  std::size_t tombstones_ = 0;
  std::uint32_t gen_ = 1;  // 0 is reserved for "stale" (fresh slots)
};

// Staleness-bounded per-vertex hop-1 aggregate cache — the computation-
// reuse tier (OMEGA-style, docs/PERF.md "Computation reuse & admission").
// An entry holds the mean of a vertex's sampled cell children's input
// features (`dim` floats), keyed (vertex, model version): exactly the
// neighbour term the first GraphSAGE layer needs, so a hit serves without
// expanding the vertex's hop-2 cell or touching the feature arena at all.
//
// Same open-addressing + generation-stamp design as FeatureTable (probe
// chains hash by vertex only, so Invalidate(v) retires every version of v
// in one chain walk), plus a per-entry Put timestamp for the staleness
// bound and an internal mutex — the apply thread invalidates concurrently
// with serve threads probing. Capacity is a hard bound: when the table (or
// its arena) is full, Put() flushes the whole epoch O(1) via the
// generation stamp rather than evicting piecemeal.
//
// Staleness: an entry is fresh iff `now - stamp < bound` (strict), so a
// bound of 0 means *never* fresh — every probe recomputes, which is what
// the bit-parity tests use — and a negative bound disables the age check
// (entries live until invalidated or flushed).
class AggregateCache {
 public:
  explicit AggregateCache(std::size_t max_entries) : max_entries_(max_entries) {}

  bool enabled() const { return max_entries_ > 0; }
  std::size_t size() const;
  // Times the table hit capacity and retired the whole population.
  std::uint64_t epoch_flushes() const;

  // Copies the fresh cached aggregate for (v, version) into out[0..dim)
  // and returns true. Returns false on miss; *stale is additionally set
  // when an entry existed but aged past `staleness_bound_us` (it stays in
  // place — the recompute's Put() overwrites it).
  bool Lookup(graph::VertexId v, std::uint64_t version, std::size_t dim, std::int64_t now,
              std::int64_t staleness_bound_us, float* out, bool* stale) const;
  // Inserts or overwrites (v, version) with `data[0..dim)` stamped `now`.
  void Put(graph::VertexId v, std::uint64_t version, std::size_t dim, std::int64_t now,
           const float* data);
  // Drops every entry of v, all versions — the dissemination-path hook
  // (Apply marks touched vertices dirty; EvictOlderThan retires evicted
  // cells' aggregates).
  void Invalidate(graph::VertexId v);
  // O(1) full flush (recovery cold-start, capacity pressure).
  void Clear();

 private:
  enum SlotState : std::uint8_t { kEmpty = 0, kUsed = 1, kTombstone = 2 };
  struct Slot {
    graph::VertexId vertex = graph::kInvalidVertex;
    std::uint64_t version = 0;
    std::int64_t stamp = 0;
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
    std::uint32_t gen = 0;  // slot live iff gen == gen_ (Clear() bumps)
    std::uint8_t state = kEmpty;
  };

  const Slot* FindSlotLocked(graph::VertexId v, std::uint64_t version) const;
  Slot* InsertSlotLocked(graph::VertexId v, std::uint64_t version);
  void GrowLocked();
  void ClearLocked();

  mutable std::mutex mu_;
  util::AlignedVector<float> arena_;
  std::vector<Slot> slots_;  // power-of-two open addressing, linear probing
  std::size_t count_ = 0;
  std::size_t tombstones_ = 0;
  std::uint32_t gen_ = 1;  // 0 reserved for "stale"
  std::size_t max_entries_ = 0;
  std::uint64_t flushes_ = 0;
};

// The layered K-hop sample produced for one inference request. Layer 0 is
// the seed; layer k holds the hop-k samples with a parent index into layer
// k-1 (enough structure for message-passing GNN aggregation).
struct SampledSubgraph {
  graph::VertexId seed = graph::kInvalidVertex;
  struct Node {
    graph::VertexId vertex = graph::kInvalidVertex;
    std::uint32_t parent = 0;  // index into the previous layer
  };
  std::vector<std::vector<Node>> layers;  // layers[0] = {seed}
  FeatureTable features;                  // arena-backed, one slab per query

  std::uint64_t sample_lookups = 0;
  std::uint64_t feature_lookups = 0;
  std::uint64_t missing_cells = 0;     // cells not (yet) in the cache
  std::uint64_t missing_features = 0;
  std::uint64_t bad_cells = 0;         // present but truncated/undecodable

  std::size_t TotalSampled() const {
    std::size_t n = 0;
    for (std::size_t k = 1; k < layers.size(); ++k) n += layers[k].size();
    return n;
  }
  std::size_t TotalNodes() const {
    std::size_t n = 0;
    for (const auto& layer : layers) n += layer.size();
    return n;
  }

  // Re-arms the result for a new query, keeping every buffer's capacity.
  void Reset(graph::VertexId new_seed, std::size_t num_layers) {
    seed = new_seed;
    layers.resize(num_layers);
    for (auto& layer : layers) layer.clear();
    features.Clear();
    sample_lookups = feature_lookups = missing_cells = missing_features = bad_cells = 0;
  }
};

// The size of one served query's reply, as both runtimes report it to the
// telemetry hub: a 64-byte header, 12 bytes per sampled node, and each
// keyed feature row (12-byte key + 4 bytes per float).
std::size_t ResponseBytes(const SampledSubgraph& result);

// Reusable per-core (or per-thread) workspace for ServeInto. All buffers
// keep their capacity across queries.
struct ServeScratch {
  kv::KvStore::ViewScratch kv;
  std::vector<SampleKeyBuf> sample_keys;
  std::vector<FeatureKeyBuf> feature_keys;
  std::vector<std::string_view> keys;
  // Destination vertices decoded during a hop's MultiView (SoA: the vector
  // kernels split the interleaved 20-byte records field-wise), in
  // shard-visit order; ranges[i] locates frontier node i's children so the
  // layer can be emitted in BFS order afterwards.
  util::AlignedVector<graph::VertexId> hop_dst;
  struct CellRange {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;  // 0 for an absent or truncated cell
  };
  std::vector<CellRange> ranges;
  std::vector<graph::VertexId> feat_vertices;  // distinct tree vertices, first-sight order

  // Cache-assisted serve (ServeAggregatesInto) extras, same reuse contract.
  std::vector<std::uint32_t> agg_miss;   // child indices that missed the cache
  FeatureTable agg_features;             // grandchild features, miss path only
  util::AlignedVector<float> agg_row;    // one zero-padded input row
};

// Result of the cache-assisted hop-1 assembly (ServeAggregatesInto): the
// seed's one-hop children plus, per child, its hop-1 neighbour aggregate —
// everything the two-layer GraphSAGE encoder needs, with the hop-2
// expansion skipped entirely for cache hits. Buffers keep capacity across
// queries like SampledSubgraph.
struct AggregateServeResult {
  graph::VertexId seed = graph::kInvalidVertex;
  // The seed's hop-1 cell in record order (empty when the cell is missing).
  std::vector<graph::VertexId> children;
  // Input features of seed + children (found only; missing stay absent).
  FeatureTable features;
  // children.size() × dim row-major hop-1 aggregates, one row per child:
  // mean of the child's sampled children's zero-padded input features.
  util::AlignedVector<float> aggs;

  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t stale_recomputes = 0;
  std::uint64_t sample_lookups = 0;
  std::uint64_t feature_lookups = 0;
  std::uint64_t missing_cells = 0;
  std::uint64_t missing_features = 0;
  std::uint64_t bad_cells = 0;
  std::uint64_t nodes_touched = 0;  // seed + children + grandchildren expanded

  void Reset(graph::VertexId new_seed) {
    seed = new_seed;
    children.clear();
    features.Clear();
    aggs.clear();
    cache_hits = cache_misses = stale_recomputes = 0;
    sample_lookups = feature_lookups = missing_cells = missing_features = bad_cells = 0;
    nodes_touched = 0;
  }
};

class ServingCore {
 public:
  struct Options {
    kv::KvOptions kv;  // cache backing store (memory-only by default)
    graph::Timestamp ttl = 0;  // 0 disables TTL eviction
    // Shared metrics registry; the core registers its "serving.*" metrics
    // there labelled {worker=<id>}. Null = private registry.
    obs::MetricsRegistry* registry = nullptr;
    // Optional sample-freshness tracker (obs/freshness.h): Apply() reports
    // update->visibility, ServeInto() reports update->first-serve. Null
    // disables both at the cost of one branch; the hooks themselves are
    // alloc-free, so the zero-copy read-path contract holds either way.
    obs::FreshnessTracker* freshness = nullptr;
    // Time source for freshness stamps, in the same domain as the incoming
    // origin_us (wall for ThreadedCluster, virtual for the DES harness).
    // Null with `freshness` set falls back to wall time.
    const obs::Clock* freshness_clock = nullptr;
    // Storage format for cached features (fp32 by default, byte-identical
    // to the legacy cache). The read path is format-agnostic — the value
    // header self-describes — so mixed-format caches serve correctly.
    FeatureFormat feature_format = FeatureFormat::kFp32;
    // Hop-1 aggregate cache capacity (entries). 0 disables the
    // computation-reuse tier: ServeAggregatesInto refuses and callers fall
    // back to the plain ServeInto path.
    std::size_t aggregate_cache_entries = 0;
    // Staleness bound for cached aggregates, in the freshness clock's
    // microsecond domain (wall for ThreadedCluster, virtual for the DES
    // harness). Fresh iff now - stamp < bound, strictly: 0 means never
    // fresh (every probe recomputes — the parity-test mode), negative
    // means no age bound (entries live until invalidated or flushed).
    std::int64_t aggregate_staleness_us = -1;
  };

  ServingCore(QueryPlan plan, std::uint32_t worker_id, Options options);
  ServingCore(QueryPlan plan, std::uint32_t worker_id)
      : ServingCore(std::move(plan), worker_id, Options{}) {}

  // ---- cache update path (data-updating threads, §4.3)
  // Applies one sample-queue message: a SampleUpdate snapshot replaces the
  // cell, a SampleDelta replays each of its reservoir writes on the cached
  // bytes in order (overwrite the named slot, or append up to the hop's
  // fan-out), a FeatureUpdate replaces the feature and a Retract deletes
  // the cell or feature. Messages of one cell must arrive in emission order
  // (one owning shard, one stream); then every cached cell is a byte copy
  // of its reservoir cell.
  void Apply(const ServingMessage& message);

  // Source sampling shard of the frame currently being applied; only used
  // to label freshness histograms (the frame header carries it, individual
  // messages do not). Callers applying fenced frames set it per frame.
  void SetApplySource(std::uint32_t src_shard) { apply_src_shard_ = src_shard; }

  // ---- request path (serving threads, §4.3)
  // Assembles the K-hop sampling result for `seed` into `out`, reusing the
  // output's and the scratch's buffers: after warm-up a call performs no
  // heap allocation. `scratch` must not be shared across concurrent calls
  // (one per serving thread); `out` is fully overwritten.
  // Feature lookups are deduplicated per query: each distinct vertex in
  // the sampled tree costs exactly one feature-table probe.
  void ServeInto(graph::VertexId seed, SampledSubgraph& out, ServeScratch& scratch) const;

  // Cache-assisted assembly for two-hop plans (the computation-reuse tier,
  // docs/PERF.md): resolves the seed's children and each child's hop-1
  // aggregate — from the AggregateCache when fresh, recomputed from the
  // child's hop-2 cell (and cached) on miss or staleness. Returns false
  // without touching `out` when the tier cannot serve this plan (cache
  // disabled, plan is not 2-hop, or dim == 0) so callers fall back to
  // ServeInto. Zero heap allocations in steady state, same contract as
  // ServeInto. `version` namespaces entries per model (a weight change
  // must not reuse old aggregates' dims).
  bool ServeAggregatesInto(graph::VertexId seed, std::size_t dim, std::uint64_t version,
                           AggregateServeResult& out, ServeScratch& scratch) const;

  // The computation-reuse cache itself (tests; the serve path goes through
  // ServeAggregatesInto).
  AggregateCache& aggregate_cache() const { return agg_cache_; }
  // Recovery cold-start hook: replayed state may differ from what the
  // cached aggregates were computed over, so recovery flushes rather than
  // trusts (docs/FAULT_TOLERANCE.md).
  void FlushAggregateCache() { agg_cache_.Clear(); }
  std::int64_t aggregate_staleness_us() const { return options_.aggregate_staleness_us; }
  // Now in the freshness and staleness clock's domain
  // (options.freshness_clock if set, else wall time).
  std::int64_t CacheNowMicros() const;

  // TTL pass over the sample table: drops cached samples whose newest entry
  // is older than `cutoff`. Scans the fixed 20-byte records in place — no
  // per-cell decode or allocation.
  std::size_t EvictOlderThan(graph::Timestamp cutoff);

  // The registry this core records into: its "serving.*" cells are the
  // core's counters.
  const obs::MetricsRegistry& metrics() const { return *registry_; }
  const QueryPlan& plan() const { return plan_; }
  std::uint32_t worker_id() const { return worker_id_; }
  kv::KvStats CacheStats() const { return store_->GetStats(); }
  // Refreshes the "serving.cache.*" gauges from the KV store's counters so
  // a registry snapshot includes the cache footprint.
  void PublishCacheStats();

  // Test hooks.
  bool HasCell(std::uint32_t level, graph::VertexId v) const;
  bool HasFeature(graph::VertexId v) const;
  // Injects raw bytes as a cell value, bypassing the encoder — corruption
  // tests use it to plant truncated cells (serving.bad_cells).
  void PutRawCell(std::uint32_t level, graph::VertexId v, std::string_view raw);
  // Every live (key, encoded value) of the backing store, sorted by key.
  // Used by determinism tests to compare whole cache states byte-for-byte.
  std::map<std::string, std::string> DumpCache() const;

 private:
  QueryPlan plan_;
  std::uint32_t worker_id_ = 0;
  Options options_;
  std::unique_ptr<kv::KvStore> store_;
  // Mutable: ServeAggregatesInto is const (a read) but populates the cache
  // on miss; the cache locks internally.
  mutable AggregateCache agg_cache_;
  obs::FreshnessTracker* freshness_ = nullptr;
  std::uint32_t apply_src_shard_ = 0;

  // Registry-backed metric handles (see sampling_core.h for the pattern).
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  struct MetricHandles {
    obs::Counter* sample_updates_applied;
    obs::Counter* sample_deltas_applied;
    obs::Counter* feature_updates_applied;
    obs::Counter* retracts_applied;
    obs::Counter* queries_served;
    obs::Counter* cache_miss_cells;
    obs::Counter* cache_miss_features;
    obs::Counter* bad_cells;
    // Computation-reuse tier ("serving.cache.*", docs/OBSERVABILITY.md).
    obs::Counter* agg_hits;
    obs::Counter* agg_misses;
    obs::Counter* agg_stale;
    obs::Gauge* latest_event_ts;
    // Read-path ("serving.query.*") distributions: wall latency per query,
    // nodes assembled per query, feature-arena bytes per query.
    obs::LatencyMetric* query_latency_us;
    obs::LatencyMetric* query_nodes;
    obs::LatencyMetric* query_arena_bytes;
  };
  MetricHandles m_;

  // The read path's phases, one implementation each, shared by ServeInto
  // and ServeAggregatesInto (`Result` is SampledSubgraph or
  // AggregateServeResult; each phase adds its lookups and misses there).
  //
  // Hop decode: one MultiView over the level-`level` cells of
  // vertex_at(0..n), decoded in place into scratch.hop_dst, with
  // scratch.ranges[i] locating cell i's children (empty when the cell is
  // absent or truncated). Returns the number of children decoded.
  template <typename VertexAt, typename Result>
  std::size_t DecodeHop(std::uint32_t level, std::size_t n, VertexAt vertex_at,
                        ServeScratch& scratch, Result& out) const;
  // Feature gather: one MultiView over scratch.feat_vertices, decoded into
  // `features`; a missing feature erases its vertex. Reports each vertex as
  // served at `now` to the freshness tracker.
  template <typename Result>
  void GatherFeatures(FeatureTable& features, std::int64_t now, ServeScratch& scratch,
                      Result& out) const;
  // The per-query "serving.*" record.
  template <typename Result>
  void RecordServe(const Result& out, std::uint64_t nodes, std::size_t arena_floats,
                   std::chrono::steady_clock::time_point t0) const;
};

// ---- fault-tolerance admission (docs/FAULT_TOLERANCE.md)
//
// Admits one message of a frame already opened with
// `fence.BeginFrame(src, epoch)`: messages (or, for coalesced SampleDeltas,
// individual changes) whose seq the fence has already seen are dropped —
// they are a replaying shard's re-emission of deliveries that landed before
// the crash. A delta straddling the watermark is trimmed so only the
// not-yet-applied changes reach `sink(const ServingMessage&)`, at most once.
// Unstamped messages (seq 0) always pass. Returns the number of changes
// fenced (0 in steady state). FrameApplier (node_engine.h) wraps this for
// both runtimes.
//
// The caller owns the fence and keys it by source shard; it must be the
// same single thread (or hold the same lock) for every frame of that
// destination worker.
template <typename Sink>
std::uint64_t FenceInto(ft::EpochFence& fence, std::uint64_t src,
                        const ft::EpochFence::FrameToken& token, const ServingMessage& m,
                        Sink&& sink) {
  if (m.kind() != ServingMessage::Kind::kSampleDelta) {
    if (m.seq != 0 && m.seq <= token.watermark) return 1;  // duplicate
    sink(m);
    if (m.seq != 0) fence.Advance(src, m.seq);
    return 0;
  }

  // Coalesced deltas carry one seq per change. A replayed frame can
  // straddle the watermark — its window boundaries differ from the original
  // run's — so admission is per change.
  const SampleDelta& d = m.delta();
  const bool inline_ok = m.seq == 0 || m.seq > token.watermark;
  std::size_t admitted = inline_ok ? 1 : 0;
  for (const auto& c : d.more) {
    if (c.seq == 0 || c.seq > token.watermark) ++admitted;
  }
  const std::uint64_t fenced = static_cast<std::uint64_t>(d.num_changes() - admitted);

  if (admitted == d.num_changes()) {
    sink(m);  // steady state: nothing to trim
  } else if (admitted > 0) {
    SampleDelta trimmed;
    trimmed.level = d.level;
    trimmed.vertex = d.vertex;
    trimmed.origin_us = d.origin_us;
    bool have_head = false;
    std::uint64_t head_seq = 0;
    auto add_change = [&](const graph::Edge& added, std::uint16_t slot,
                          graph::Timestamp event_ts, std::uint64_t seq) {
      if (!have_head) {
        trimmed.added = added;
        trimmed.slot = slot;
        trimmed.event_ts = event_ts;
        head_seq = seq;
        have_head = true;
      } else {
        trimmed.more.push_back({added, slot, event_ts, seq});
      }
    };
    if (inline_ok) add_change(d.added, d.slot, d.event_ts, m.seq);
    for (const auto& c : d.more) {
      if (c.seq == 0 || c.seq > token.watermark) add_change(c.added, c.slot, c.event_ts, c.seq);
    }
    ServingMessage tm = ServingMessage::Of(std::move(trimmed));
    tm.seq = head_seq;
    sink(tm);
  }

  std::uint64_t max_seq = m.seq;
  for (const auto& c : d.more) max_seq = std::max(max_seq, c.seq);
  if (max_seq != 0) fence.Advance(src, max_seq);
  return fenced;
}

}  // namespace helios
