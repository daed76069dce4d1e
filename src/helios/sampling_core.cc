#include "helios/sampling_core.h"

#include <algorithm>
#include <array>

#include "util/logging.h"

namespace helios {

SamplingShardCore::SamplingShardCore(QueryPlan plan, ShardMap map, std::uint32_t shard_id,
                                     std::uint64_t seed, Options options)
    : plan_(std::move(plan)),
      map_(map),
      shard_id_(shard_id),
      options_(options),
      rng_(seed ^ (static_cast<std::uint64_t>(shard_id) * 0x9E3779B97F4A7C15ULL)),
      seed_(seed) {
  reservoir_.resize(plan_.num_hops());
  cell_subs_.resize(plan_.num_hops());

  registry_ = options_.registry;
  if (registry_ == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  const obs::Labels labels{{"shard", std::to_string(shard_id_)},
                           {"worker", std::to_string(map_.WorkerOfShard(shard_id_))}};
  m_.updates_processed = registry_->GetCounter("sampling.updates_processed", labels);
  m_.edges_offered = registry_->GetCounter("sampling.edges_offered", labels);
  m_.cells = registry_->GetGauge("sampling.cells", labels);
  m_.sample_updates_sent = registry_->GetCounter("sampling.sample_updates_sent", labels);
  m_.sample_deltas_sent = registry_->GetCounter("sampling.sample_deltas_sent", labels);
  m_.feature_updates_sent = registry_->GetCounter("sampling.feature_updates_sent", labels);
  m_.retracts_sent = registry_->GetCounter("sampling.retracts_sent", labels);
  m_.sub_deltas_sent = registry_->GetCounter("sampling.sub_deltas_sent", labels);
  m_.features_stored = registry_->GetGauge("sampling.features_stored", labels);
  m_.ctrl_fenced = registry_->GetCounter("ft.ctrl_deltas_fenced", labels);
}

void SamplingShardCore::EmitToServing(std::uint32_t sew, ServingMessage msg, Outputs& out) {
  msg.seq = ++serving_seq_[sew];
  msg.trace = current_trace_;
  out.to_serving.Add(sew, std::move(msg));
}

void SamplingShardCore::BumpEpoch(std::uint32_t epoch) {
  epoch_ = epoch;
  // Seqs restart at 1 per epoch; the supervisor grants each incarnation a
  // fresh epoch so restarted numbering can never collide with what an
  // earlier incarnation already delivered.
  serving_seq_.clear();
  ctrl_seq_.clear();
}

bool SamplingShardCore::AdmitCtrl(const SubscriptionDelta& delta) {
  if (ctrl_fence_.Admit(delta.src_shard, delta.epoch, delta.seq)) return true;
  m_.ctrl_fenced->Add(1);
  return false;
}

void SamplingShardCore::OnGraphUpdate(const graph::GraphUpdate& update, std::int64_t origin_us,
                                      Outputs& out, const obs::TraceContext& trace) {
  current_trace_ = trace;
  m_.updates_processed->Add(1);
  latest_event_ts_ = std::max(latest_event_ts_, graph::UpdateTimestamp(update));
  if (const auto* e = std::get_if<graph::EdgeUpdate>(&update)) {
    OnEdgeUpdate(*e, origin_us, out);
  } else {
    OnVertexUpdate(std::get<graph::VertexUpdate>(update), origin_us, out);
  }
  current_trace_ = {};
}

void SamplingShardCore::OnEdgeUpdate(const graph::EdgeUpdate& e, std::int64_t origin_us,
                                     Outputs& out) {
  // A vertex becomes a potential inference seed the first time its id is
  // observed; register the standing level-1 subscription for it.
  if (gen::VertexTypeOf(e.src) == plan_.query.seed_type) {
    EnsureSeedSubscription(e.src, origin_us, out);
  }

  const graph::Edge edge{e.dst, e.ts, e.weight};
  // The same edge type can serve several hops (e.g. TransferTo at hops 1
  // and 2 of the FIN query); each hop keeps its own reservoir table.
  for (std::size_t k = 0; k < plan_.num_hops(); ++k) {
    const OneHopQuery& q = plan_.one_hop[k];
    if (q.edge_type != e.type) continue;
    if (gen::VertexTypeOf(e.src) != q.target_type) continue;

    auto [it, created] = reservoir_[k].try_emplace(e.src, q.strategy, q.fanout);
    if (created) PublishCellCount();
    ReservoirCell& cell = it->second;
    const OfferOutcome outcome = cell.Offer(edge, rng_);
    m_.edges_offered->Add(1);
    if (!outcome.selected) continue;

    // Cell changed: push an incremental delta to subscribers and cascade
    // the membership change one level down. (Full-cell snapshots are only
    // sent when a subscription starts; steady-state dissemination is
    // ~40B/change so the 10 Gbps NICs are never the bottleneck.)
    auto subs_it = cell_subs_[k].find(e.src);
    if (subs_it == cell_subs_[k].end() || subs_it->second.empty()) continue;
    const std::uint32_t level = q.hop;
    for (const auto& [sew, refcount] : subs_it->second) {
      (void)refcount;
      SampleDelta delta;
      delta.level = level;
      delta.vertex = e.src;
      delta.added = edge;
      delta.slot = static_cast<std::uint16_t>(outcome.slot);  // fan-out <= 65535 (Decompose)
      delta.event_ts = e.ts;
      delta.origin_us = origin_us;
      EmitToServing(sew, ServingMessage::Of(delta), out);
      m_.sample_deltas_sent->Add(1);
      // New sample in, evicted sample out, one level down. When a vertex
      // replaces its own older record the cell's per-dst record count is
      // unchanged, so neither delta may be emitted: a lone +1 here would
      // leak one subscription refcount per self-replacement, and since the
      // leak only fires inside (race-dependent) subscribed windows, the
      // final subscription set would diverge run to run.
      if (outcome.evicted != e.dst) {
        RouteDelta({level + 1, e.dst, sew, +1}, origin_us, out);
        if (outcome.evicted != graph::kInvalidVertex) {
          RouteDelta({level + 1, outcome.evicted, sew, -1}, origin_us, out);
        }
      }
    }
  }
}

void SamplingShardCore::OnVertexUpdate(const graph::VertexUpdate& v, std::int64_t origin_us,
                                       Outputs& out) {
  features_.insert_or_assign(v.id, v.feature);
  m_.features_stored->Set(static_cast<std::int64_t>(features_.size()));
  if (v.type == plan_.query.seed_type) {
    EnsureSeedSubscription(v.id, origin_us, out);
  }
  auto it = feature_subs_.find(v.id);
  if (it == feature_subs_.end()) return;
  for (const auto& [sew, refcount] : it->second) {
    (void)refcount;
    FeatureUpdate fu;
    fu.vertex = v.id;
    fu.feature = v.feature;
    fu.event_ts = v.ts;
    fu.origin_us = origin_us;
    EmitToServing(sew, ServingMessage::Of(std::move(fu)), out);
    m_.feature_updates_sent->Add(1);
  }
}

void SamplingShardCore::EnsureSeedSubscription(graph::VertexId v, std::int64_t origin_us,
                                               Outputs& out) {
  if (!seeds_seen_.insert(v).second) return;
  const std::uint32_t sew = map_.ServingWorkerOf(v);
  // The seed's owner shard is this shard by construction (the driver routed
  // the update here), so apply locally.
  OnSubscriptionDelta({1, v, sew, +1}, origin_us, out);
}

void SamplingShardCore::RouteDelta(const SubscriptionDelta& delta, std::int64_t origin_us,
                                   Outputs& out) {
  const std::uint32_t owner = map_.ShardOf(delta.vertex);
  if (owner == shard_id_) {
    OnSubscriptionDelta(delta, origin_us, out);
  } else {
    SubscriptionDelta stamped = delta;
    stamped.src_shard = shard_id_;
    stamped.epoch = epoch_;
    stamped.seq = ++ctrl_seq_[owner];
    out.to_shards.emplace_back(owner, stamped);
    m_.sub_deltas_sent->Add(1);
  }
}

void SamplingShardCore::OnSubscriptionDelta(const SubscriptionDelta& delta,
                                            std::int64_t origin_us, Outputs& out,
                                            const obs::TraceContext& trace) {
  // Driver-entered calls (cross-shard ctrl records) install their own
  // context; recursive calls from OnGraphUpdate pass an inactive one and
  // must keep the update's context already in place.
  struct TraceScope {
    obs::TraceContext* slot;
    bool installed;
    ~TraceScope() {
      if (installed) *slot = {};
    }
  } scope{&current_trace_, trace.active()};
  if (scope.installed) current_trace_ = trace;

  if (delta.level == 0 || delta.level > plan_.NumLevels() || delta.delta == 0) return;

  // ---- feature side: every level implies a feature subscription.
  {
    SubCounts& counts = feature_subs_[delta.vertex];
    std::uint32_t& count = counts[delta.serving_worker];
    if (delta.delta > 0) {
      count += static_cast<std::uint32_t>(delta.delta);
      if (count == static_cast<std::uint32_t>(delta.delta)) {
        // 0 -> positive: push the current feature if we have one.
        SendFeatureUpdate(delta.vertex, origin_us, delta.serving_worker, out);
      }
    } else {
      const std::uint32_t dec = static_cast<std::uint32_t>(-delta.delta);
      if (count < dec) {
        HLOG(kWarn, "sampling") << "feature refcount underflow v=" << delta.vertex;
        count = 0;
      } else {
        count -= dec;
      }
      if (count == 0) {
        counts.erase(delta.serving_worker);
        if (counts.empty()) feature_subs_.erase(delta.vertex);
        // Feature no longer needed by this serving worker at any level.
        EmitToServing(delta.serving_worker, ServingMessage::Of(Retract{0, delta.vertex}), out);
        m_.retracts_sent->Add(1);
      }
    }
  }

  // ---- cell side: levels 1..K own a reservoir cell; K+1 is feature-only.
  if (delta.level > plan_.num_hops()) return;
  const std::size_t k = delta.level - 1;
  SubCounts& counts = cell_subs_[k][delta.vertex];
  std::uint32_t& count = counts[delta.serving_worker];
  const auto cell_it = reservoir_[k].find(delta.vertex);

  if (delta.delta > 0) {
    count += static_cast<std::uint32_t>(delta.delta);
    if (count != static_cast<std::uint32_t>(delta.delta)) return;  // already subscribed
    // New subscription: snapshot the cell and cascade to its children.
    if (cell_it != reservoir_[k].end()) {
      SendSampleUpdate(delta.level, delta.vertex, cell_it->second, origin_us,
                       delta.serving_worker, out);
      for (const auto& edge : cell_it->second.samples()) {
        RouteDelta({delta.level + 1, edge.dst, delta.serving_worker, +1}, origin_us, out);
      }
    }
  } else {
    const std::uint32_t dec = static_cast<std::uint32_t>(-delta.delta);
    if (count < dec) {
      HLOG(kWarn, "sampling") << "cell refcount underflow v=" << delta.vertex
                              << " level=" << delta.level;
      count = 0;
    } else {
      count -= dec;
    }
    if (count != 0) return;
    counts.erase(delta.serving_worker);
    if (counts.empty()) cell_subs_[k].erase(delta.vertex);
    EmitToServing(delta.serving_worker,
                  ServingMessage::Of(Retract{delta.level, delta.vertex}), out);
    m_.retracts_sent->Add(1);
    if (cell_it != reservoir_[k].end()) {
      for (const auto& edge : cell_it->second.samples()) {
        RouteDelta({delta.level + 1, edge.dst, delta.serving_worker, -1}, origin_us, out);
      }
    }
  }
}

void SamplingShardCore::SendSampleUpdate(std::uint32_t level, graph::VertexId v,
                                         const ReservoirCell& cell, std::int64_t origin_us,
                                         std::uint32_t sew, Outputs& out) {
  SampleUpdate su;
  su.level = level;
  su.vertex = v;
  su.samples = cell.samples();
  // Stamp the snapshot with the newest sample's event time — a pure
  // function of cell content, so a snapshot emitted during crash replay (or
  // under a different update/subscription interleaving) carries the same
  // timestamp as the original and the cached bytes stay byte-identical.
  graph::Timestamp newest = 0;
  for (const auto& e : su.samples) newest = std::max(newest, e.ts);
  su.event_ts = newest;
  su.origin_us = origin_us;
  EmitToServing(sew, ServingMessage::Of(std::move(su)), out);
  m_.sample_updates_sent->Add(1);
}

void SamplingShardCore::SendFeatureUpdate(graph::VertexId v, std::int64_t origin_us,
                                          std::uint32_t sew, Outputs& out) {
  auto it = features_.find(v);
  if (it == features_.end()) return;  // pushed later when the feature arrives
  FeatureUpdate fu;
  fu.vertex = v;
  fu.feature = it->second;
  fu.event_ts = latest_event_ts_;
  fu.origin_us = origin_us;
  EmitToServing(sew, ServingMessage::Of(std::move(fu)), out);
  m_.feature_updates_sent->Add(1);
}

void SamplingShardCore::Prune(graph::Timestamp cutoff, Outputs& out) {
  std::vector<graph::VertexId> dropped;  // reused across cells
  for (std::size_t k = 0; k < reservoir_.size(); ++k) {
    const std::uint32_t level = plan_.one_hop[k].hop;
    for (auto it = reservoir_[k].begin(); it != reservoir_[k].end();) {
      ReservoirCell& cell = it->second;
      // Pre-scan for expired samples: on a steady-state pass, almost every
      // cell is fresh, and the scan lets those skip the rebuild below —
      // no ReservoirCell construction, no re-offers, no allocation.
      bool any_expired = false;
      for (const auto& edge : cell.samples()) {
        if (edge.ts < cutoff) {
          any_expired = true;
          break;
        }
      }
      if (any_expired) {
        dropped.clear();
        // Rebuild the cell without expired samples. Distribution bias from
        // TTL eviction is inherent to TTL semantics (stale data must go).
        ReservoirCell fresh(cell.strategy(), cell.capacity());
        for (const auto& edge : cell.samples()) {
          if (edge.ts >= cutoff) {
            fresh.Offer(edge, rng_);
          } else {
            dropped.push_back(edge.dst);
          }
        }
        cell = std::move(fresh);
        auto subs_it = cell_subs_[k].find(it->first);
        if (subs_it != cell_subs_[k].end()) {
          for (const auto& [sew, refcount] : subs_it->second) {
            (void)refcount;
            SendSampleUpdate(level, it->first, cell, 0, sew, out);
            for (graph::VertexId v : dropped) {
              RouteDelta({level + 1, v, sew, -1}, 0, out);
            }
          }
        }
      }
      if (cell.samples().empty() && cell.offers_seen() > 0) {
        // Keep empty cells only if subscribed (so future edges notify).
        if (cell_subs_[k].find(it->first) == cell_subs_[k].end()) {
          it = reservoir_[k].erase(it);
          PublishCellCount();
          continue;
        }
      }
      ++it;
    }
  }
}

void SamplingShardCore::PublishCellCount() {
  std::size_t n = 0;
  for (const auto& table : reservoir_) n += table.size();
  m_.cells->Set(static_cast<std::int64_t>(n));
}

std::size_t SamplingShardCore::ApproximateBytes() const {
  std::size_t bytes = 0;
  for (const auto& table : reservoir_) {
    for (const auto& [v, cell] : table) {
      bytes += 64 + cell.samples().capacity() * sizeof(graph::Edge);
    }
  }
  for (const auto& [v, f] : features_) bytes += 64 + f.capacity() * sizeof(float);
  for (const auto& table : cell_subs_) {
    for (const auto& [v, subs] : table) bytes += 64 + subs.size() * 16;
  }
  for (const auto& [v, subs] : feature_subs_) bytes += 64 + subs.size() * 16;
  bytes += seeds_seen_.size() * 16;
  return bytes;
}

const ReservoirCell* SamplingShardCore::CellOf(std::uint32_t level, graph::VertexId v) const {
  if (level == 0 || level > reservoir_.size()) return nullptr;
  auto it = reservoir_[level - 1].find(v);
  return it == reservoir_[level - 1].end() ? nullptr : &it->second;
}

bool SamplingShardCore::HasFeature(graph::VertexId v) const { return features_.count(v) > 0; }

std::uint32_t SamplingShardCore::CellSubscribers(std::uint32_t level, graph::VertexId v) const {
  if (level == 0 || level > cell_subs_.size()) return 0;
  auto it = cell_subs_[level - 1].find(v);
  if (it == cell_subs_[level - 1].end()) return 0;
  return static_cast<std::uint32_t>(it->second.size());
}

// ------------------------------------------------------------- checkpoint

namespace {
// "HSC" + format version. v2 added the fault-tolerance block (epoch, seq
// counters, applied offset, peer fence) and the RNG state. Cells on
// EdgeWeight hops carry their A-Res keys after their samples.
constexpr std::uint32_t kCheckpointMagic = 0x48534332;  // "HSC2"
}  // namespace

void SamplingShardCore::Serialize(graph::ByteWriter& w) const {
  w.PutU32(kCheckpointMagic);
  w.PutU32(shard_id_);
  w.PutI64(latest_event_ts_);
  // Reservoir tables.
  w.PutU32(static_cast<std::uint32_t>(reservoir_.size()));
  for (std::size_t k = 0; k < reservoir_.size(); ++k) {
    w.PutU32(static_cast<std::uint32_t>(reservoir_[k].size()));
    for (const auto& [v, cell] : reservoir_[k]) {
      w.PutU64(v);
      w.PutU64(cell.offers_seen());
      w.PutU32(static_cast<std::uint32_t>(cell.samples().size()));
      for (const auto& e : cell.samples()) {
        w.PutU64(e.dst);
        w.PutI64(e.ts);
        w.PutF32(e.weight);
      }
      // A-Res keys decide every later EdgeWeight eviction, so they are
      // state, not derivable: one f64 per sample, on EdgeWeight hops only.
      for (const double key : cell.keys()) w.PutF64(key);
    }
  }
  // Feature table.
  w.PutU32(static_cast<std::uint32_t>(features_.size()));
  for (const auto& [v, f] : features_) {
    w.PutU64(v);
    w.PutFloats(f);
  }
  // Subscription tables.
  auto put_subs = [&w](const SubCounts& subs) {
    w.PutU32(static_cast<std::uint32_t>(subs.size()));
    for (const auto& [sew, count] : subs) {
      w.PutU32(sew);
      w.PutU32(count);
    }
  };
  w.PutU32(static_cast<std::uint32_t>(cell_subs_.size()));
  for (const auto& table : cell_subs_) {
    w.PutU32(static_cast<std::uint32_t>(table.size()));
    for (const auto& [v, subs] : table) {
      w.PutU64(v);
      put_subs(subs);
    }
  }
  w.PutU32(static_cast<std::uint32_t>(feature_subs_.size()));
  for (const auto& [v, subs] : feature_subs_) {
    w.PutU64(v);
    put_subs(subs);
  }
  w.PutU32(static_cast<std::uint32_t>(seeds_seen_.size()));
  for (graph::VertexId v : seeds_seen_) w.PutU64(v);
  // ---- fault-tolerance block (v2)
  w.PutU32(epoch_);
  w.PutU64(applied_offset_);
  auto put_seqs = [&w](const std::unordered_map<std::uint32_t, std::uint64_t>& seqs) {
    w.PutU32(static_cast<std::uint32_t>(seqs.size()));
    for (const auto& [dst, seq] : seqs) {
      w.PutU32(dst);
      w.PutU64(seq);
    }
  };
  put_seqs(serving_seq_);
  put_seqs(ctrl_seq_);
  const auto fence = ctrl_fence_.Export();
  w.PutU32(static_cast<std::uint32_t>(fence.size()));
  for (const auto& s : fence) {
    w.PutU64(s.src);
    w.PutU32(s.epoch);
    w.PutU64(s.max_seq);
  }
  for (std::uint64_t s : rng_.SaveState()) w.PutU64(s);
}

bool SamplingShardCore::Deserialize(graph::ByteReader& r, SamplingShardCore& core) {
  if (r.GetU32() != kCheckpointMagic) return false;  // unknown/older format
  core.shard_id_ = r.GetU32();
  core.latest_event_ts_ = r.GetI64();
  const std::uint32_t num_hops = r.GetU32();
  if (num_hops != core.reservoir_.size()) return false;  // plan mismatch
  for (std::uint32_t k = 0; k < num_hops; ++k) {
    const OneHopQuery& q = core.plan_.one_hop[k];
    const std::uint32_t cells = r.GetU32();
    for (std::uint32_t c = 0; c < cells; ++c) {
      const graph::VertexId v = r.GetU64();
      const std::uint64_t seen = r.GetU64();
      const std::uint32_t n = r.GetU32();
      if (!r.ok() || n > q.fanout) return false;
      std::vector<graph::Edge> samples(n);
      for (auto& e : samples) {
        e.dst = r.GetU64();
        e.ts = r.GetI64();
        e.weight = r.GetF32();
      }
      std::vector<double> keys(q.strategy == Strategy::kEdgeWeight ? n : 0);
      for (double& key : keys) key = r.GetF64();
      if (!r.ok()) return false;
      // Verbatim: the same slots, keys and offer count, so the restored
      // cell makes the same decisions the checkpointed one would have.
      core.reservoir_[k].emplace(
          v, ReservoirCell(q.strategy, q.fanout, seen, std::move(samples), std::move(keys)));
    }
  }
  core.PublishCellCount();
  const std::uint32_t nf = r.GetU32();
  for (std::uint32_t i = 0; i < nf; ++i) {
    const graph::VertexId v = r.GetU64();
    core.features_.emplace(v, r.GetFloats());
  }
  // Restore the feature-table gauge so post-restore metrics match the
  // pre-checkpoint core (the seed code dropped this).
  core.m_.features_stored->Set(static_cast<std::int64_t>(core.features_.size()));
  auto get_subs = [&r](SubCounts& subs) {
    const std::uint32_t n = r.GetU32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t sew = r.GetU32();
      subs[sew] = r.GetU32();
    }
  };
  const std::uint32_t ncs = r.GetU32();
  if (ncs != core.cell_subs_.size()) return false;
  for (std::uint32_t k = 0; k < ncs; ++k) {
    const std::uint32_t n = r.GetU32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const graph::VertexId v = r.GetU64();
      get_subs(core.cell_subs_[k][v]);
    }
  }
  const std::uint32_t nfs = r.GetU32();
  for (std::uint32_t i = 0; i < nfs; ++i) {
    const graph::VertexId v = r.GetU64();
    get_subs(core.feature_subs_[v]);
  }
  const std::uint32_t nseeds = r.GetU32();
  for (std::uint32_t i = 0; i < nseeds; ++i) core.seeds_seen_.insert(r.GetU64());
  // ---- fault-tolerance block (v2)
  core.epoch_ = r.GetU32();
  core.applied_offset_ = r.GetU64();
  auto get_seqs = [&r](std::unordered_map<std::uint32_t, std::uint64_t>& seqs) {
    const std::uint32_t n = r.GetU32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t dst = r.GetU32();
      seqs[dst] = r.GetU64();
    }
  };
  get_seqs(core.serving_seq_);
  get_seqs(core.ctrl_seq_);
  const std::uint32_t nfence = r.GetU32();
  std::vector<ft::EpochFence::SourceState> fence;
  fence.reserve(nfence);
  for (std::uint32_t i = 0; i < nfence && r.ok(); ++i) {
    ft::EpochFence::SourceState s;
    s.src = r.GetU64();
    s.epoch = r.GetU32();
    s.max_seq = r.GetU64();
    fence.push_back(s);
  }
  core.ctrl_fence_.Restore(fence);
  // The restored core continues the checkpointed RNG stream, so a log
  // replay makes the same reservoir decisions as the original run.
  std::array<std::uint64_t, 4> rng_state;
  for (auto& s : rng_state) s = r.GetU64();
  if (!r.ok()) return false;
  core.rng_.LoadState(rng_state);
  return true;
}

}  // namespace helios
