#include "helios/serving_core.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "graph/update_codec.h"
#include "util/simd.h"

namespace helios {

namespace {
std::string EncodeCell(const std::vector<graph::Edge>& samples, graph::Timestamp event_ts) {
  graph::ByteWriter w;
  w.PutI64(event_ts);
  w.PutU32(static_cast<std::uint32_t>(samples.size()));
  for (const auto& e : samples) {
    w.PutU64(e.dst);
    w.PutI64(e.ts);
    w.PutF32(e.weight);
  }
  return w.Take();
}

// Feature value header (see FeatureFormat in serving_core.h): u32 with the
// format in bits 31..30 and the element count in bits 29..0.
constexpr std::uint32_t kFeatureCountMask = 0x3FFFFFFFu;
constexpr std::uint32_t kFeatureFormatShift = 30;

// Fixed cell layout shared with PatchCell and the zero-copy read path:
// [i64 event_ts][u32 n][n × 20-byte records (u64 dst | i64 ts | f32 w)].
constexpr std::size_t kCellHeaderBytes = 12;
constexpr std::size_t kCellRecordBytes = 20;

// Record count of an encoded cell, or kBadCell when the value is too short
// to hold the records its header claims (the old ByteReader-based decode
// failed the same way and the caller treated the cell as missing).
constexpr std::uint32_t kBadCell = 0xFFFFFFFFu;
std::uint32_t CellRecordCount(std::string_view value) {
  if (value.size() < kCellHeaderBytes) return kBadCell;
  std::uint32_t n = 0;
  std::memcpy(&n, value.data() + 8, sizeof(n));
  if (kCellHeaderBytes + static_cast<std::size_t>(n) * kCellRecordBytes > value.size()) {
    return kBadCell;
  }
  return n;
}

// Newest record timestamp of a cell holding n records: the header
// timestamp every write stamps and the TTL pass ages cells by. (Integer max
// is value-exact across SIMD dispatch levels, so the header bytes stay
// host-independent.)
graph::Timestamp NewestRecordTs(std::string_view cell, std::uint32_t n) {
  return util::simd::MaxStridedI64(cell.data() + kCellHeaderBytes + 8, kCellRecordBytes, n, 0);
}

// In-place binary patch of one encoded cell value (§6 delta apply). The
// fixed layout lets a delta splice the evicted record out and the added
// record in without decoding the cell into an Edge vector and re-encoding
// it.
//
// Eviction mirrors ReservoirCell::OfferTopK slot-for-slot: the reservoir
// *overwrites* its first oldest-ts slot, so when the cell's first oldest-ts
// record is the evicted vertex we overwrite that record in place. A cell
// that tracked every delta then stays byte-identical to a fresh reservoir
// snapshot at all times — which is what lets a crash-recovered run (late
// re-subscription snapshots, docs/FAULT_TOLERANCE.md) converge to the same
// cache bytes as an uninterrupted one. If the oldest slot does not match
// (lost message, Random/EdgeWeight eviction order), fall back to
// erase-first-match + append: eventually-consistent self-healing, as
// before.
void PatchCell(std::string& value, const graph::Edge& added, graph::VertexId evicted,
               std::size_t cap) {
  if (value.size() < kCellHeaderBytes) {
    // Absent (or truncated) cell: start from an empty one — eventually
    // consistent self-healing when the snapshot is still in flight.
    value.assign(kCellHeaderBytes, '\0');
  }
  std::uint32_t n = 0;
  std::memcpy(&n, value.data() + 8, sizeof(n));
  // Defend against a malformed count; also drops trailing garbage, which a
  // decode/re-encode round-trip would have dropped too.
  n = std::min<std::uint32_t>(
      n, static_cast<std::uint32_t>((value.size() - kCellHeaderBytes) / kCellRecordBytes));
  value.resize(kCellHeaderBytes + n * kCellRecordBytes);

  if (evicted != graph::kInvalidVertex && n > 0) {
    // The slot OfferTopK would have replaced: first record with the
    // minimum ts.
    std::uint32_t oldest = 0;
    graph::Timestamp oldest_ts = 0;
    std::memcpy(&oldest_ts, value.data() + kCellHeaderBytes + 8, sizeof(oldest_ts));
    for (std::uint32_t i = 1; i < n; ++i) {
      graph::Timestamp ts = 0;
      std::memcpy(&ts, value.data() + kCellHeaderBytes + i * kCellRecordBytes + 8, sizeof(ts));
      if (ts < oldest_ts) {
        oldest = i;
        oldest_ts = ts;
      }
    }
    const std::size_t ooff = kCellHeaderBytes + oldest * kCellRecordBytes;
    if (std::memcmp(value.data() + ooff, &evicted, sizeof(evicted)) == 0) {
      std::memcpy(value.data() + ooff, &added.dst, 8);
      std::memcpy(value.data() + ooff + 8, &added.ts, 8);
      std::memcpy(value.data() + ooff + 16, &added.weight, 4);
      const graph::Timestamp newest = NewestRecordTs(value, n);
      std::memcpy(value.data(), &newest, sizeof(newest));
      return;
    }
    // Out-of-sync fallback: erase the first record matching the evicted
    // vertex, then append below.
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::size_t off = kCellHeaderBytes + i * kCellRecordBytes;
      if (std::memcmp(value.data() + off, &evicted, sizeof(evicted)) == 0) {
        value.erase(off, kCellRecordBytes);
        --n;
        break;
      }
    }
  }
  char rec[kCellRecordBytes];
  std::memcpy(rec, &added.dst, 8);
  std::memcpy(rec + 8, &added.ts, 8);
  std::memcpy(rec + 16, &added.weight, 4);
  value.append(rec, kCellRecordBytes);
  ++n;
  // Clamp to the hop's fan-out (lost-retract or duplicate defence): drop
  // the oldest record, matching cell.erase(cell.begin()).
  if (cap > 0 && n > cap) {
    value.erase(kCellHeaderBytes, kCellRecordBytes);
    --n;
  }
  // Header timestamp = newest sample ts present: the same pure function of
  // content the snapshot path writes (SendSampleUpdate), so snapshot-built
  // and delta-patched cells are byte-identical no matter which write landed
  // last. Crash-replay parity (docs/FAULT_TOLERANCE.md) depends on this.
  const graph::Timestamp newest = NewestRecordTs(value, n);
  std::memcpy(value.data(), &newest, sizeof(newest));
  std::memcpy(value.data() + 8, &n, sizeof(n));
}

// Decodes one feature value (any format; the header self-describes) into
// `features` under `v`, dequantizing with the vector kernels straight into
// the arena. Malformed values decode as an empty-but-present feature,
// matching the legacy ByteReader::GetFloats behaviour.
void DecodeFeatureInto(std::string_view value, FeatureTable& features, graph::VertexId v) {
  if (value.size() < 4) {
    features.Allocate(v, 0);
    return;
  }
  std::uint32_t hdr = 0;
  std::memcpy(&hdr, value.data(), sizeof(hdr));
  const std::uint32_t fmt = hdr >> kFeatureFormatShift;
  const std::size_t n = hdr & kFeatureCountMask;
  const char* payload = value.data() + 4;
  switch (fmt) {
    case 0:  // fp32: [n × f32]
      if (value.size() < 4 + n * sizeof(float)) {
        features.Allocate(v, 0);
      } else {
        std::memcpy(features.Allocate(v, n), payload, n * sizeof(float));
      }
      return;
    case 1:  // fp16: [n × u16]
      if (value.size() < 4 + n * sizeof(std::uint16_t)) {
        features.Allocate(v, 0);
      } else {
        // payload sits at a 4-byte offset into the value buffer, which is
        // at least pointer-aligned — safe to read as u16.
        util::simd::DequantFp16(reinterpret_cast<const std::uint16_t*>(payload), n,
                                features.Allocate(v, n));
      }
      return;
    case 2: {  // int8: [f32 scale][n × i8]
      if (value.size() < 8 + n) {
        features.Allocate(v, 0);
        return;
      }
      float scale = 0.0f;
      std::memcpy(&scale, payload, sizeof(scale));
      util::simd::DequantInt8(reinterpret_cast<const std::int8_t*>(payload + sizeof(float)), n,
                              scale, features.Allocate(v, n));
      return;
    }
    default:  // unknown format
      features.Allocate(v, 0);
      return;
  }
}
}  // namespace

// ------------------------------------------------- feature value codec

const char* FeatureFormatName(FeatureFormat format) {
  switch (format) {
    case FeatureFormat::kFp32: return "fp32";
    case FeatureFormat::kFp16: return "fp16";
    case FeatureFormat::kInt8: return "int8";
  }
  return "?";
}

std::string EncodeFeatureValue(const graph::Feature& f, FeatureFormat format) {
  // Encoding is scalar on purpose: cache bytes must not depend on the
  // writer's SIMD dispatch level (crash-replay and cross-runtime parity
  // compare caches byte-for-byte).
  const auto n = static_cast<std::uint32_t>(f.size());
  const std::uint32_t hdr = (static_cast<std::uint32_t>(format) << kFeatureFormatShift) | n;
  switch (format) {
    case FeatureFormat::kFp32: {
      // Byte-identical to the legacy encoder ([u32 n][n × f32]).
      graph::ByteWriter w;
      w.PutFloats(f);
      return w.Take();
    }
    case FeatureFormat::kFp16: {
      std::string out(4 + n * sizeof(std::uint16_t), '\0');
      std::memcpy(out.data(), &hdr, sizeof(hdr));
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint16_t h = util::simd::F32ToF16(f[i]);
        std::memcpy(out.data() + 4 + i * sizeof(h), &h, sizeof(h));
      }
      return out;
    }
    case FeatureFormat::kInt8: {
      std::string out(8 + n, '\0');
      std::memcpy(out.data(), &hdr, sizeof(hdr));
      const float scale =
          util::simd::QuantizeInt8(f.data(), n, reinterpret_cast<std::int8_t*>(out.data() + 8));
      std::memcpy(out.data() + 4, &scale, sizeof(scale));
      return out;
    }
  }
  return {};
}

graph::Feature DecodeFeatureValue(std::string_view value) {
  FeatureTable t;
  DecodeFeatureInto(value, t, 0);
  const std::span<const float> span = t.Find(0);
  return graph::Feature(span.begin(), span.end());
}

// ----------------------------------------------------------- FeatureTable

// A slot whose gen stamp differs from the table's is logically empty no
// matter its state: Clear() retires the whole population by bumping gen_,
// so every probe below treats `s.gen != gen_` exactly like kEmpty.

const FeatureTable::Slot* FeatureTable::FindSlot(graph::VertexId v) const {
  if (slots_.empty()) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = util::MixHash(v) & mask;
  while (true) {
    const Slot& s = slots_[i];
    if (s.gen != gen_ || s.state == kEmpty) return nullptr;
    if (s.state == kUsed && s.vertex == v) return &s;
    i = (i + 1) & mask;
  }
}

FeatureTable::Slot* FeatureTable::InsertSlot(graph::VertexId v) {
  // Grow at 1/2 occupancy (used + tombstones) to keep probes short.
  if (slots_.empty() || (count_ + tombstones_ + 1) * 2 > slots_.size()) Grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = util::MixHash(v) & mask;
  Slot* first_tombstone = nullptr;
  while (true) {
    Slot& s = slots_[i];
    const bool live = s.gen == gen_;
    if (live && s.state == kUsed && s.vertex == v) return &s;
    if (live && s.state == kTombstone && first_tombstone == nullptr) first_tombstone = &s;
    if (!live || s.state == kEmpty) {
      Slot* target = first_tombstone != nullptr ? first_tombstone : &s;
      if (target->gen == gen_ && target->state == kTombstone) --tombstones_;
      target->vertex = v;
      target->state = kUsed;
      target->gen = gen_;
      ++count_;
      return target;
    }
    i = (i + 1) & mask;
  }
}

void FeatureTable::Grow() {
  const std::size_t new_size = slots_.empty() ? 16 : slots_.size() * 2;
  const std::uint32_t old_gen = gen_;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(new_size, Slot{});  // gen 0 = stale, i.e. empty
  count_ = 0;
  tombstones_ = 0;
  if (gen_ == 0) gen_ = 1;  // keep 0 reserved for "stale"
  for (const Slot& s : old) {
    if (s.gen != old_gen || s.state != kUsed) continue;
    Slot* slot = InsertSlot(s.vertex);  // cannot recurse: new table is large enough
    slot->offset = s.offset;
    slot->len = s.len;
  }
}

bool FeatureTable::Insert(graph::VertexId v) {
  const std::size_t before = count_;
  Slot* s = InsertSlot(v);
  if (count_ == before) return false;  // already present
  s->offset = 0;
  s->len = 0;
  return true;
}

float* FeatureTable::Allocate(graph::VertexId v, std::size_t len) {
  Slot* s = InsertSlot(v);
  s->offset = static_cast<std::uint32_t>(arena_.size());
  s->len = static_cast<std::uint32_t>(len);
  arena_.resize(arena_.size() + len);
  return arena_.data() + s->offset;
}

void FeatureTable::Set(graph::VertexId v, const float* data, std::size_t len) {
  Slot* s = InsertSlot(v);
  if (s->len >= len) {
    // Overwrite in place (also the fresh-slot len==0, len==0 case, where
    // `data` may legitimately be null — skip the UB memcpy(p, null, 0)).
    if (len > 0) std::memcpy(arena_.data() + s->offset, data, len * sizeof(float));
    s->len = static_cast<std::uint32_t>(len);
    return;
  }
  s->offset = static_cast<std::uint32_t>(arena_.size());
  s->len = static_cast<std::uint32_t>(len);
  arena_.resize(arena_.size() + len);
  if (len > 0) std::memcpy(arena_.data() + s->offset, data, len * sizeof(float));
}

void FeatureTable::Erase(graph::VertexId v) {
  // FindSlot is const; redo the probe mutably.
  if (slots_.empty()) return;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = util::MixHash(v) & mask;
  while (true) {
    Slot& s = slots_[i];
    if (s.gen != gen_ || s.state == kEmpty) return;
    if (s.state == kUsed && s.vertex == v) {
      s.state = kTombstone;
      --count_;
      ++tombstones_;
      return;  // arena bytes stay until Clear(); per-query lifetime
    }
    i = (i + 1) & mask;
  }
}

void FeatureTable::Clear() {
  arena_.clear();
  count_ = 0;
  tombstones_ = 0;
  // O(1): retire every slot by bumping the generation. On the (2^32-th)
  // wrap, scrub for real so stale gen_==gen stamps cannot resurrect.
  if (++gen_ == 0) {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    gen_ = 1;
  }
}

// --------------------------------------------------------- AggregateCache

// Probe chains hash by vertex only (the version is compared, not hashed):
// every entry of a vertex lives on that vertex's chain, so Invalidate(v)
// retires them all in one walk to the chain's first empty slot.

std::size_t AggregateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::uint64_t AggregateCache::epoch_flushes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushes_;
}

const AggregateCache::Slot* AggregateCache::FindSlotLocked(graph::VertexId v,
                                                           std::uint64_t version) const {
  if (slots_.empty()) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = util::MixHash(v) & mask;
  while (true) {
    const Slot& s = slots_[i];
    if (s.gen != gen_ || s.state == kEmpty) return nullptr;
    if (s.state == kUsed && s.vertex == v && s.version == version) return &s;
    i = (i + 1) & mask;
  }
}

AggregateCache::Slot* AggregateCache::InsertSlotLocked(graph::VertexId v,
                                                       std::uint64_t version) {
  if (slots_.empty() || (count_ + tombstones_ + 1) * 2 > slots_.size()) GrowLocked();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = util::MixHash(v) & mask;
  Slot* first_tombstone = nullptr;
  while (true) {
    Slot& s = slots_[i];
    const bool live = s.gen == gen_;
    if (live && s.state == kUsed && s.vertex == v && s.version == version) return &s;
    if (live && s.state == kTombstone && first_tombstone == nullptr) first_tombstone = &s;
    if (!live || s.state == kEmpty) {
      Slot* target = first_tombstone != nullptr ? first_tombstone : &s;
      if (target->gen == gen_ && target->state == kTombstone) --tombstones_;
      target->vertex = v;
      target->version = version;
      target->state = kUsed;
      target->gen = gen_;
      // A new entry owns no arena row yet: a claimed slot's old offset may
      // lie past a cleared arena or belong to another entry's row.
      target->len = 0;
      ++count_;
      return target;
    }
    i = (i + 1) & mask;
  }
}

void AggregateCache::GrowLocked() {
  // Sized once for the configured capacity (next power of two above
  // 2 × max_entries so occupancy stays under 1/2): steady state never
  // rehashes — Put() flushes at capacity instead.
  std::size_t target = 16;
  while (target < max_entries_ * 2 + 2) target *= 2;
  if (slots_.size() >= target) {
    // Tombstone pressure, not population: flush the epoch.
    ClearLocked();
    return;
  }
  const std::uint32_t old_gen = gen_;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(target, Slot{});
  count_ = 0;
  tombstones_ = 0;
  if (gen_ == 0) gen_ = 1;
  for (const Slot& s : old) {
    if (s.gen != old_gen || s.state != kUsed) continue;
    Slot* slot = InsertSlotLocked(s.vertex, s.version);
    slot->stamp = s.stamp;
    slot->offset = s.offset;
    slot->len = s.len;
  }
}

void AggregateCache::ClearLocked() {
  arena_.clear();
  count_ = 0;
  tombstones_ = 0;
  ++flushes_;
  if (++gen_ == 0) {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    gen_ = 1;
  }
}

bool AggregateCache::Lookup(graph::VertexId v, std::uint64_t version, std::size_t dim,
                            std::int64_t now, std::int64_t staleness_bound_us, float* out,
                            bool* stale) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Slot* s = FindSlotLocked(v, version);
  if (s == nullptr || s->len != dim) return false;
  // Strictly `<`: bound 0 is never fresh (the parity-test mode); negative
  // disables the age check.
  if (staleness_bound_us >= 0 && !(now - s->stamp < staleness_bound_us)) {
    if (stale != nullptr) *stale = true;
    return false;
  }
  std::memcpy(out, arena_.data() + s->offset, dim * sizeof(float));
  return true;
}

void AggregateCache::Put(graph::VertexId v, std::uint64_t version, std::size_t dim,
                         std::int64_t now, const float* data) {
  if (max_entries_ == 0 || dim == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Hard capacity: flush the whole epoch O(1) rather than evict piecemeal.
  // The arena bound covers invalidation churn (tombstoned entries orphan
  // their floats until a flush reclaims them).
  if (count_ >= max_entries_ || arena_.size() + dim > max_entries_ * dim + dim) {
    const Slot* existing = FindSlotLocked(v, version);
    if (existing == nullptr || existing->len != dim) ClearLocked();
  }
  Slot* s = InsertSlotLocked(v, version);
  if (s->len != dim) {
    s->offset = static_cast<std::uint32_t>(arena_.size());
    s->len = static_cast<std::uint32_t>(dim);
    arena_.resize(arena_.size() + dim);
  }
  std::memcpy(arena_.data() + s->offset, data, dim * sizeof(float));
  s->stamp = now;
}

void AggregateCache::Invalidate(graph::VertexId v) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slots_.empty()) return;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = util::MixHash(v) & mask;
  while (true) {
    Slot& s = slots_[i];
    if (s.gen != gen_ || s.state == kEmpty) return;
    if (s.state == kUsed && s.vertex == v) {
      s.state = kTombstone;
      --count_;
      ++tombstones_;
    }
    i = (i + 1) & mask;
  }
}

void AggregateCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ClearLocked();
}

// ------------------------------------------------------------ ServingCore

ServingCore::ServingCore(QueryPlan plan, std::uint32_t worker_id, Options options)
    : plan_(std::move(plan)),
      worker_id_(worker_id),
      options_(std::move(options)),
      agg_cache_(options_.aggregate_cache_entries) {
  store_ = std::make_unique<kv::KvStore>(options_.kv);

  registry_ = options_.registry;
  if (registry_ == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  freshness_ = options_.freshness;
  const obs::Labels labels{{"worker", std::to_string(worker_id_)}};
  m_.sample_updates_applied = registry_->GetCounter("serving.sample_updates_applied", labels);
  m_.sample_deltas_applied = registry_->GetCounter("serving.sample_deltas_applied", labels);
  m_.feature_updates_applied = registry_->GetCounter("serving.feature_updates_applied", labels);
  m_.retracts_applied = registry_->GetCounter("serving.retracts_applied", labels);
  m_.queries_served = registry_->GetCounter("serving.queries_served", labels);
  m_.cache_miss_cells = registry_->GetCounter("serving.cache_miss_cells", labels);
  m_.cache_miss_features = registry_->GetCounter("serving.cache_miss_features", labels);
  m_.bad_cells = registry_->GetCounter("serving.bad_cells", labels);
  m_.agg_hits = registry_->GetCounter("serving.cache.hits", labels);
  m_.agg_misses = registry_->GetCounter("serving.cache.misses", labels);
  m_.agg_stale = registry_->GetCounter("serving.cache.stale_recompute", labels);
  m_.agg_shed = registry_->GetCounter("serving.cache.shed", labels);
  m_.latest_event_ts = registry_->GetGauge("serving.latest_event_ts", labels);
  m_.query_latency_us = registry_->GetLatency("serving.query.latency_us", labels);
  m_.query_nodes = registry_->GetLatency("serving.query.nodes", labels);
  m_.query_arena_bytes = registry_->GetLatency("serving.query.arena_bytes", labels);
}

ServingCore::Stats ServingCore::stats() const {
  Stats s;
  s.sample_updates_applied = m_.sample_updates_applied->Value();
  s.sample_deltas_applied = m_.sample_deltas_applied->Value();
  s.feature_updates_applied = m_.feature_updates_applied->Value();
  s.retracts_applied = m_.retracts_applied->Value();
  s.queries_served = m_.queries_served->Value();
  s.cache_miss_cells = m_.cache_miss_cells->Value();
  s.cache_miss_features = m_.cache_miss_features->Value();
  s.bad_cells = m_.bad_cells->Value();
  s.latest_event_ts = m_.latest_event_ts->Value();
  return s;
}

void ServingCore::PublishCacheStats() {
  store_->PublishTo(registry_, {{"worker", std::to_string(worker_id_)}});
}

void ServingCore::Apply(const ServingMessage& message) {
  // Computation-reuse invalidation (docs/PERF.md): any update touching a
  // vertex retires its cached hop-1 aggregates before the write lands —
  // sample/delta writes change the cell the aggregate was computed over,
  // retracts remove it, and a feature write changes the vertex's own
  // input row (drift it causes in *neighbours'* aggregates is covered by
  // the staleness bound, not by invalidation — that trade is the tier's
  // explicit accuracy knob).
  if (agg_cache_.enabled()) agg_cache_.Invalidate(message.TargetVertex());
  if (freshness_ != nullptr) {
    const std::int64_t origin = message.OriginMicros();
    if (origin > 0) {
      freshness_->OnApply(message.TargetVertex(), apply_src_shard_, origin, CacheNowMicros());
    }
  }
  switch (message.kind()) {
    case ServingMessage::Kind::kSample: {
      const SampleUpdate& u = message.sample();
      store_->Put(SampleKeyBuf(u.level, u.vertex).view(), EncodeCell(u.samples, u.event_ts));
      m_.sample_updates_applied->Add(1);
      m_.latest_event_ts->Set(std::max<std::int64_t>(m_.latest_event_ts->Value(), u.event_ts));
      break;
    }
    case ServingMessage::Kind::kFeature: {
      const FeatureUpdate& u = message.feature();
      store_->Put(FeatureKeyBuf(u.vertex).view(),
                  EncodeFeatureValue(u.feature, options_.feature_format));
      m_.feature_updates_applied->Add(1);
      m_.latest_event_ts->Set(std::max<std::int64_t>(m_.latest_event_ts->Value(), u.event_ts));
      break;
    }
    case ServingMessage::Kind::kRetract: {
      const Retract& u = message.retract();
      if (u.level == 0) {
        store_->Delete(FeatureKeyBuf(u.vertex).view());
      } else {
        store_->Delete(SampleKeyBuf(u.level, u.vertex).view());
      }
      m_.retracts_applied->Add(1);
      break;
    }
    case ServingMessage::Kind::kSampleDelta: {
      const SampleDelta& u = message.delta();
      // In-place binary patch of the cached cell under one KV lock — no
      // Get/decode/encode/Put round-trip. A missing cell (snapshot still
      // in flight) is created from the delta alone — eventually consistent
      // self-healing. Coalesced changes splice in emission order.
      const std::size_t cap = (u.level >= 1 && u.level <= plan_.num_hops())
                                  ? plan_.one_hop[u.level - 1].fanout
                                  : 0;
      graph::Timestamp newest_ts = u.event_ts;
      store_->Merge(SampleKeyBuf(u.level, u.vertex).view(), [&](std::string& value) {
        PatchCell(value, u.added, u.evicted, cap);
        for (const auto& c : u.more) {
          PatchCell(value, c.added, c.evicted, cap);
          newest_ts = std::max(newest_ts, c.event_ts);
        }
      });
      // Count changes, not messages, so sampling-side sample_deltas_sent
      // still balances this counter under coalescing.
      m_.sample_deltas_applied->Add(static_cast<std::uint64_t>(u.num_changes()));
      m_.latest_event_ts->Set(std::max<std::int64_t>(m_.latest_event_ts->Value(), newest_ts));
      break;
    }
  }
}

// ---- the read path's phases, shared by ServeInto and ServeAggregatesInto

template <typename VertexAt, typename Result>
std::size_t ServingCore::DecodeHop(std::uint32_t level, std::size_t n, VertexAt vertex_at,
                                   ServeScratch& scratch, Result& out) const {
  out.sample_lookups += n;
  scratch.sample_keys.resize(n);
  scratch.keys.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.sample_keys[i] = SampleKeyBuf(level, vertex_at(i));
    scratch.keys[i] = scratch.sample_keys[i].view();
  }
  scratch.ranges.assign(n, ServeScratch::CellRange{});
  scratch.hop_dst.clear();
  store_->MultiView(
      scratch.keys.data(), n,
      [&](std::size_t i, std::string_view value, bool found) {
        const std::uint32_t count = found ? CellRecordCount(value) : kBadCell;
        if (count == kBadCell) {
          // Absent, or present but truncated: served as missing either way,
          // the latter also counted so corruption is observable
          // (serving.bad_cells).
          out.missing_cells++;
          if (found) out.bad_cells++;
          return;
        }
        auto& range = scratch.ranges[i];
        range.begin = static_cast<std::uint32_t>(scratch.hop_dst.size());
        range.count = count;
        scratch.hop_dst.resize(scratch.hop_dst.size() + count);
        util::simd::GatherStridedU64(value.data() + kCellHeaderBytes, kCellRecordBytes, count,
                                     scratch.hop_dst.data() + range.begin);
      },
      scratch.kv);
  return scratch.hop_dst.size();
}

template <typename Result>
void ServingCore::GatherFeatures(FeatureTable& features, std::int64_t now,
                                 ServeScratch& scratch, Result& out) const {
  const std::size_t n = scratch.feat_vertices.size();
  out.feature_lookups += n;
  scratch.feature_keys.resize(n);
  scratch.keys.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.feature_keys[i] = FeatureKeyBuf(scratch.feat_vertices[i]);
    scratch.keys[i] = scratch.feature_keys[i].view();
  }
  store_->MultiView(
      scratch.keys.data(), n,
      [&](std::size_t i, std::string_view value, bool found) {
        if (!found) {
          out.missing_features++;
          // Drop the dedup placeholder so Contains() keeps meaning "the
          // feature was found".
          features.Erase(scratch.feat_vertices[i]);
          return;
        }
        DecodeFeatureInto(value, features, scratch.feat_vertices[i]);
      },
      scratch.kv);

  if (freshness_ != nullptr) {
    // Every distinct vertex whose cell/feature this query read counts as
    // served; feat_vertices holds exactly that set.
    for (const graph::VertexId v : scratch.feat_vertices) freshness_->OnServe(v, now);
  }
}

template <typename Result>
void ServingCore::RecordServe(const Result& out, std::uint64_t nodes, std::size_t arena_floats,
                              std::chrono::steady_clock::time_point t0) const {
  m_.queries_served->Add(1);
  m_.cache_miss_cells->Add(out.missing_cells);
  m_.cache_miss_features->Add(out.missing_features);
  if (out.bad_cells > 0) m_.bad_cells->Add(out.bad_cells);
  m_.query_nodes->Record(nodes);
  m_.query_arena_bytes->Record(arena_floats * sizeof(float));
  m_.query_latency_us->Record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() - t0)
          .count()));
}

void ServingCore::ServeInto(graph::VertexId seed, SampledSubgraph& out,
                            ServeScratch& scratch) const {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t num_hops = plan_.num_hops();
  out.Reset(seed, num_hops + 1);
  out.layers[0].push_back({seed, 0});

  // Frontier dedup is fused into the hop scatter: the first sighting of a
  // vertex inserts a (still feature-less) FeatureTable slot and appends the
  // vertex to feat_vertices, so by the time the hops finish the distinct
  // tree vertices are already collected in BFS first-sight order — no
  // sort+unique pass (the old one was ~10% of serve-path CPU).
  scratch.feat_vertices.clear();
  out.features.Insert(seed);
  scratch.feat_vertices.push_back(seed);

  // ---- hop phase: one decoded MultiView per hop (shard-visit order),
  // scattered back to BFS order.
  for (std::size_t k = 0; k < num_hops; ++k) {
    const auto& frontier = out.layers[k];
    auto& next = out.layers[k + 1];
    next.reserve(DecodeHop(
        plan_.one_hop[k].hop, frontier.size(), [&](std::size_t i) { return frontier[i].vertex; },
        scratch, out));
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const auto& range = scratch.ranges[i];
      for (std::uint32_t r = 0; r < range.count; ++r) {
        const graph::VertexId v = scratch.hop_dst[range.begin + r];
        next.push_back({v, static_cast<std::uint32_t>(i)});
        if (out.features.Insert(v)) scratch.feat_vertices.push_back(v);
      }
    }
  }

  // ---- feature phase: one batched lookup over the distinct tree vertices
  // (already deduplicated above), dequantized straight into the per-query
  // arena with a single probe per vertex.
  GatherFeatures(out.features, freshness_ != nullptr ? CacheNowMicros() : 0, scratch, out);
  RecordServe(out, out.TotalNodes(), out.features.arena_floats(), t0);
}

std::int64_t ServingCore::CacheNowMicros() const {
  if (options_.freshness_clock != nullptr) return options_.freshness_clock->NowMicros();
  static const obs::WallClock kWallClock;
  return kWallClock.NowMicros();
}

bool ServingCore::ServeAggregatesInto(graph::VertexId seed, std::size_t dim,
                                      std::uint64_t version, AggregateServeResult& out,
                                      ServeScratch& scratch) const {
  if (!agg_cache_.enabled() || plan_.num_hops() != 2 || dim == 0) return false;
  const auto t0 = std::chrono::steady_clock::now();
  out.Reset(seed);
  const std::uint32_t level1 = plan_.one_hop[0].hop;
  const std::uint32_t level2 = plan_.one_hop[1].hop;
  const std::int64_t now = CacheNowMicros();

  // ---- seed cell: one probe yields the full child frontier.
  DecodeHop(level1, 1, [&](std::size_t) { return seed; }, scratch, out);
  out.children.assign(scratch.hop_dst.begin(), scratch.hop_dst.end());
  const std::size_t nc = out.children.size();
  out.nodes_touched = 1 + nc;

  // ---- cache probe per child. A hit lands the aggregate row directly; a
  // miss (or stale entry) queues the child for hop-2 expansion below.
  out.aggs.assign(nc * dim, 0.f);
  scratch.agg_miss.clear();
  for (std::size_t i = 0; i < nc; ++i) {
    bool stale = false;
    if (agg_cache_.Lookup(out.children[i], version, dim, now, options_.aggregate_staleness_us,
                          out.aggs.data() + i * dim, &stale)) {
      out.cache_hits++;
    } else {
      scratch.agg_miss.push_back(static_cast<std::uint32_t>(i));
      if (stale) {
        out.stale_recomputes++;
      } else {
        out.cache_misses++;
      }
    }
  }

  // ---- miss path: expand the missed children's hop-2 cells (one batched
  // view), gather the distinct grandchild features (one batched view), then
  // fold each missed child's aggregate in cell-record order — the exact
  // float-summation order EmbedSeed uses, so cached and recomputed rows are
  // bit-identical (each grandchild contributes its zero-padded input row
  // via AddF32, then one DivF32 by the record count).
  const std::size_t nmiss = scratch.agg_miss.size();
  if (nmiss > 0) {
    out.nodes_touched += DecodeHop(
        level2, nmiss, [&](std::size_t m) { return out.children[scratch.agg_miss[m]]; },
        scratch, out);
    scratch.agg_features.Clear();
    scratch.feat_vertices.clear();
    for (std::size_t m = 0; m < nmiss; ++m) {
      const auto& range = scratch.ranges[m];
      for (std::uint32_t r = 0; r < range.count; ++r) {
        const graph::VertexId v = scratch.hop_dst[range.begin + r];
        if (scratch.agg_features.Insert(v)) scratch.feat_vertices.push_back(v);
      }
    }
    GatherFeatures(scratch.agg_features, now, scratch, out);

    scratch.agg_row.resize(dim);
    for (std::size_t m = 0; m < nmiss; ++m) {
      const std::uint32_t child_idx = scratch.agg_miss[m];
      float* acc = out.aggs.data() + child_idx * dim;  // already zero-filled
      const auto& range = scratch.ranges[m];
      for (std::uint32_t r = 0; r < range.count; ++r) {
        const std::span<const float> f =
            scratch.agg_features.Find(scratch.hop_dst[range.begin + r]);
        const std::size_t n = std::min(dim, f.size());
        std::fill(scratch.agg_row.begin(), scratch.agg_row.end(), 0.f);
        std::copy(f.begin(), f.begin() + static_cast<std::ptrdiff_t>(n), scratch.agg_row.begin());
        util::simd::AddF32(acc, scratch.agg_row.data(), dim);
      }
      if (range.count > 0) util::simd::DivF32(acc, static_cast<float>(range.count), dim);
      // A missing cell caches as zeros: that *is* the uncached answer for
      // this state, and the cell's arrival invalidates it via Apply.
      agg_cache_.Put(out.children[child_idx], version, dim, now, acc);
    }
  }

  // ---- input features of seed + children (the only arena the GNN's first
  // layer still needs — hits skipped the grandchild gather entirely).
  scratch.feat_vertices.clear();
  if (out.features.Insert(seed)) scratch.feat_vertices.push_back(seed);
  for (std::size_t i = 0; i < nc; ++i) {
    if (out.features.Insert(out.children[i])) scratch.feat_vertices.push_back(out.children[i]);
  }
  GatherFeatures(out.features, now, scratch, out);

  m_.agg_hits->Add(out.cache_hits);
  m_.agg_misses->Add(out.cache_misses);
  m_.agg_stale->Add(out.stale_recomputes);
  RecordServe(out, out.nodes_touched, out.features.arena_floats() + out.aggs.size(), t0);
  return true;
}

std::size_t ServingCore::EvictOlderThan(graph::Timestamp cutoff) {
  // Collect expired sample keys first (Scan holds shard locks). The newest
  // timestamp of a cell comes from scanning its fixed 20-byte records in
  // place — no per-cell Edge vector. Undecodable cells scan as newest=0
  // and age out, matching the old decode-based behaviour.
  std::vector<std::string> expired;
  std::uint64_t bad = 0;
  store_->Scan("s", [&](const std::string& key, const std::string& value) {
    graph::Timestamp newest = 0;
    const std::uint32_t n = CellRecordCount(value);
    if (n != kBadCell) {
      newest = NewestRecordTs(value, n);
    } else {
      ++bad;
    }
    if (newest < cutoff) expired.push_back(key);
    return true;
  });
  if (bad > 0) m_.bad_cells->Add(bad);
  for (const auto& key : expired) {
    store_->Delete(key);
    // An evicted cell's cached aggregate would otherwise keep serving the
    // dropped neighbourhood until it aged out — retire it with the cell
    // (sample keys are "s" + level byte + 8-byte vertex).
    if (agg_cache_.enabled() && key.size() >= 10) {
      graph::VertexId v = graph::kInvalidVertex;
      std::memcpy(&v, key.data() + 2, sizeof(v));
      agg_cache_.Invalidate(v);
    }
  }
  return expired.size();
}

bool ServingCore::HasCell(std::uint32_t level, graph::VertexId v) const {
  return store_->Contains(SampleKeyBuf(level, v).view());
}

bool ServingCore::HasFeature(graph::VertexId v) const {
  return store_->Contains(FeatureKeyBuf(v).view());
}

void ServingCore::PutRawCell(std::uint32_t level, graph::VertexId v, std::string_view raw) {
  store_->Put(SampleKeyBuf(level, v).view(), raw);
}

std::map<std::string, std::string> ServingCore::DumpCache() const {
  std::map<std::string, std::string> out;
  store_->Scan("", [&](const std::string& key, const std::string& value) {
    out.emplace(key, value);
    return true;
  });
  return out;
}

}  // namespace helios
