#include "helios/messages.h"

#include "util/hash.h"

namespace helios {

namespace {
// Record flags byte (after the kind tag). Bit 0: a TraceContext
// (trace_id, span_id, parent_span_id as 3 u64s) follows the flags byte.
constexpr std::uint8_t kFlagTraced = 0x01;

void PutFlagsAndTrace(graph::ByteWriter& w, const ServingMessage& m) {
  if (m.trace.active()) {
    w.PutU8(kFlagTraced);
    w.PutU64(m.trace.trace_id);
    w.PutU64(m.trace.span_id);
    w.PutU64(m.trace.parent_span_id);
  } else {
    w.PutU8(0);
  }
}

bool GetFlagsAndTrace(graph::ByteReader& r, ServingMessage& out) {
  const std::uint8_t flags = r.GetU8();
  if (flags & kFlagTraced) {
    out.trace.trace_id = r.GetU64();
    out.trace.span_id = r.GetU64();
    out.trace.parent_span_id = r.GetU64();
  } else {
    out.trace = {};
  }
  return r.ok();
}

void PutEdges(graph::ByteWriter& w, const std::vector<graph::Edge>& edges) {
  w.PutU32(static_cast<std::uint32_t>(edges.size()));
  for (const auto& e : edges) {
    w.PutU64(e.dst);
    w.PutI64(e.ts);
    w.PutF32(e.weight);
  }
}

bool GetEdges(graph::ByteReader& r, std::vector<graph::Edge>& edges) {
  const std::uint32_t n = r.GetU32();
  edges.clear();
  edges.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    graph::Edge e;
    e.dst = r.GetU64();
    e.ts = r.GetI64();
    e.weight = r.GetF32();
    if (!r.ok()) return false;
    edges.push_back(e);
  }
  return r.ok();
}
}  // namespace

void EncodeServingMessageTo(graph::ByteWriter& w, const ServingMessage& m) {
  w.PutU8(static_cast<std::uint8_t>(m.kind()));
  PutFlagsAndTrace(w, m);
  switch (m.kind()) {
    case ServingMessage::Kind::kSample: {
      const SampleUpdate& u = m.sample();
      w.PutU64(m.seq);
      w.PutU32(u.level);
      w.PutU64(u.vertex);
      w.PutI64(u.event_ts);
      w.PutI64(u.origin_us);
      PutEdges(w, u.samples);
      break;
    }
    case ServingMessage::Kind::kFeature: {
      const FeatureUpdate& u = m.feature();
      w.PutU64(m.seq);
      w.PutU64(u.vertex);
      w.PutI64(u.event_ts);
      w.PutI64(u.origin_us);
      w.PutFloats(u.feature);
      break;
    }
    case ServingMessage::Kind::kRetract: {
      const Retract& u = m.retract();
      w.PutU64(m.seq);
      w.PutU32(u.level);
      w.PutU64(u.vertex);
      break;
    }
    case ServingMessage::Kind::kSampleDelta: {
      const SampleDelta& u = m.delta();
      w.PutU32(u.level);
      w.PutU64(u.vertex);
      w.PutI64(u.origin_us);
      w.PutU16(static_cast<std::uint16_t>(u.num_changes()));
      auto put_change = [&w](const graph::Edge& added, std::uint16_t slot,
                             graph::Timestamp event_ts, std::uint64_t seq) {
        w.PutU64(added.dst);
        w.PutI64(added.ts);
        w.PutF32(added.weight);
        w.PutU16(slot);
        w.PutI64(event_ts);
        w.PutU64(seq);
      };
      // The inline change carries the message seq; folded follow-ups keep
      // the seq of the emission they came from.
      put_change(u.added, u.slot, u.event_ts, m.seq);
      for (const auto& c : u.more) put_change(c.added, c.slot, c.event_ts, c.seq);
      break;
    }
  }
}

bool DecodeServingMessageFrom(graph::ByteReader& r, ServingMessage& out) {
  const std::uint8_t kind = r.GetU8();
  out.seq = 0;
  if (!GetFlagsAndTrace(r, out)) return false;
  switch (kind) {
    case 1: {
      SampleUpdate& u = out.payload.emplace<SampleUpdate>();
      out.seq = r.GetU64();
      u.level = r.GetU32();
      u.vertex = r.GetU64();
      u.event_ts = r.GetI64();
      u.origin_us = r.GetI64();
      if (!GetEdges(r, u.samples)) return false;
      return r.ok();
    }
    case 2: {
      FeatureUpdate& u = out.payload.emplace<FeatureUpdate>();
      out.seq = r.GetU64();
      u.vertex = r.GetU64();
      u.event_ts = r.GetI64();
      u.origin_us = r.GetI64();
      u.feature = r.GetFloats();
      return r.ok();
    }
    case 3: {
      Retract& u = out.payload.emplace<Retract>();
      out.seq = r.GetU64();
      u.level = r.GetU32();
      u.vertex = r.GetU64();
      return r.ok();
    }
    case 4: {
      SampleDelta& u = out.payload.emplace<SampleDelta>();
      u.level = r.GetU32();
      u.vertex = r.GetU64();
      u.origin_us = r.GetI64();
      const std::uint16_t changes = r.GetU16();
      if (changes == 0) return false;
      u.added.dst = r.GetU64();
      u.added.ts = r.GetI64();
      u.added.weight = r.GetF32();
      u.slot = r.GetU16();
      u.event_ts = r.GetI64();
      out.seq = r.GetU64();
      u.more.reserve(changes - 1);
      for (std::uint16_t i = 1; i < changes; ++i) {
        SampleDelta::Change c;
        c.added.dst = r.GetU64();
        c.added.ts = r.GetI64();
        c.added.weight = r.GetF32();
        c.slot = r.GetU16();
        c.event_ts = r.GetI64();
        c.seq = r.GetU64();
        if (!r.ok()) return false;
        u.more.push_back(c);
      }
      return r.ok();
    }
    default:
      return false;
  }
}

std::string EncodeServingMessage(const ServingMessage& m) {
  graph::ByteWriter w;
  EncodeServingMessageTo(w, m);
  return w.Take();
}

bool DecodeServingMessage(const std::string& payload, ServingMessage& out) {
  graph::ByteReader r(payload);
  return DecodeServingMessageFrom(r, out);
}

namespace {
void PutSubscriptionDelta(graph::ByteWriter& w, const SubscriptionDelta& d) {
  w.PutU32(d.level);
  w.PutU64(d.vertex);
  w.PutU32(d.serving_worker);
  w.PutU32(static_cast<std::uint32_t>(d.delta));
  w.PutU32(d.src_shard);
  w.PutU32(d.epoch);
  w.PutU64(d.seq);
}

bool GetSubscriptionDelta(graph::ByteReader& r, SubscriptionDelta& out) {
  out.level = r.GetU32();
  out.vertex = r.GetU64();
  out.serving_worker = r.GetU32();
  out.delta = static_cast<std::int32_t>(r.GetU32());
  out.src_shard = r.GetU32();
  out.epoch = r.GetU32();
  out.seq = r.GetU64();
  return r.ok();
}
}  // namespace

std::string EncodeSubscriptionDelta(const SubscriptionDelta& d) {
  graph::ByteWriter w;
  PutSubscriptionDelta(w, d);
  return w.Take();
}

bool DecodeSubscriptionDelta(const std::string& payload, SubscriptionDelta& out) {
  graph::ByteReader r(payload);
  return GetSubscriptionDelta(r, out);
}

std::string EncodeCtrlRecord(const SubscriptionDelta& d) {
  graph::ByteWriter w;
  w.PutU8(kCtrlRecordTag);
  PutSubscriptionDelta(w, d);
  return w.Take();
}

bool IsCtrlRecord(const std::string& payload) {
  return !payload.empty() && static_cast<std::uint8_t>(payload[0]) == kCtrlRecordTag;
}

bool DecodeCtrlRecord(const std::string& payload, SubscriptionDelta& out) {
  graph::ByteReader r(payload);
  if (r.GetU8() != kCtrlRecordTag) return false;
  return GetSubscriptionDelta(r, out);
}

// ------------------------------------------------------------ ServingBatch

std::size_t ServingBatchBuilder::CellKeyHash::operator()(const CellKey& k) const {
  return static_cast<std::size_t>(
      util::MixHash(k.vertex ^ (static_cast<std::uint64_t>(k.level) << 56)));
}

void ServingBatchBuilder::Add(ServingMessage msg) {
  switch (msg.kind()) {
    case ServingMessage::Kind::kSampleDelta: {
      SampleDelta& d = msg.delta();
      const CellKey key{d.level, d.vertex};
      auto it = pending_delta_.find(key);
      if (it != pending_delta_.end()) {
        // Fold into the pending delta for this cell; changes stay in
        // emission order, so the apply result is identical to the
        // per-message stream.
        SampleDelta& head = messages_[it->second].delta();
        head.more.push_back({d.added, d.slot, d.event_ts, msg.seq});
        for (const auto& c : d.more) head.more.push_back(c);
        coalesced_ += d.num_changes();
        return;
      }
      pending_delta_.emplace(key, messages_.size());
      messages_.push_back(std::move(msg));
      return;
    }
    case ServingMessage::Kind::kSample:
      // Snapshot fence: later deltas for this cell apply on top of the
      // snapshot, never before it.
      pending_delta_.erase(CellKey{msg.sample().level, msg.sample().vertex});
      break;
    case ServingMessage::Kind::kRetract:
      // Cell retract fences too; level 0 only evicts the feature table.
      if (msg.retract().level != 0) {
        pending_delta_.erase(CellKey{msg.retract().level, msg.retract().vertex});
      }
      break;
    case ServingMessage::Kind::kFeature:
      break;
  }
  messages_.push_back(std::move(msg));
}

const std::string& ServingBatchBuilder::EncodeToArena() {
  arena_.Clear();
  arena_.PutU32(0);  // body length, patched below
  arena_.PutU32(static_cast<std::uint32_t>(messages_.size()));
  arena_.PutU32(src_shard_);
  arena_.PutU32(epoch_);
  arena_.PutU64(flow_id_);
  for (const auto& m : messages_) EncodeServingMessageTo(arena_, m);
  arena_.PatchU32(0, static_cast<std::uint32_t>(arena_.size() - kServingBatchHeaderBytes));
  return arena_.buffer();
}

void ServingBatchBuilder::Clear() {
  messages_.clear();
  pending_delta_.clear();
  coalesced_ = 0;
  flow_id_ = 0;
}

ServingBatchReader::ServingBatchReader(const std::string& payload) : r_(payload) {
  const std::uint32_t body_len = r_.GetU32();
  count_ = r_.GetU32();
  src_shard_ = r_.GetU32();
  epoch_ = r_.GetU32();
  flow_id_ = r_.GetU64();
  if (!r_.ok() || static_cast<std::size_t>(body_len) + kServingBatchHeaderBytes !=
                      payload.size()) {
    ok_ = false;
    count_ = 0;
  }
}

bool ServingBatchReader::Next(ServingMessage& out) {
  if (!ok_ || consumed_ >= count_) return false;
  if (!DecodeServingMessageFrom(r_, out)) {
    ok_ = false;
    return false;
  }
  ++consumed_;
  return true;
}

ServingBatchBuilder& ServingBatchSet::For(std::uint32_t sew) {
  if (sew >= builders_.size()) {
    builders_.resize(sew + 1);
    is_active_.resize(sew + 1, 0);
  }
  if (!builders_[sew]) builders_[sew] = std::make_unique<ServingBatchBuilder>();
  if (!is_active_[sew]) {
    is_active_[sew] = 1;
    active_.push_back(sew);
  }
  return *builders_[sew];
}

std::size_t ServingBatchSet::total_messages() const {
  std::size_t n = 0;
  for (const std::uint32_t sew : active_) n += builders_[sew]->size();
  return n;
}

void ServingBatchSet::Clear() {
  for (const std::uint32_t sew : active_) {
    builders_[sew]->Clear();
    is_active_[sew] = 0;
  }
  active_.clear();
}

}  // namespace helios
