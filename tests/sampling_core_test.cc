// Tests for SamplingShardCore: event-driven pre-sampling, the subscription
// protocol of Fig 7, TTL pruning and checkpointing.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "gen/datasets.h"
#include "helios/sampling_core.h"
#include "helios/serving_core.h"
#include "serve_fresh.h"

namespace helios {
namespace {

using gen::MakeVertexId;

graph::GraphSchema TwoHopSchema() {
  graph::GraphSchema schema;
  schema.vertex_type_names = {"User", "Item"};
  schema.edge_type_names = {"Click", "CoPurchase"};
  schema.edge_endpoints = {{0, 1}, {1, 1}};
  schema.feature_dim = 4;
  return schema;
}

QueryPlan TwoHopPlan(Strategy s1 = Strategy::kTopK, Strategy s2 = Strategy::kTopK,
                     std::uint32_t f1 = 2, std::uint32_t f2 = 2) {
  SamplingQuery q;
  q.id = "test";
  q.seed_type = 0;
  q.hops = {{0, f1, s1}, {1, f2, s2}};
  return Decompose(q, TwoHopSchema()).value();
}

graph::GraphUpdate Edge(graph::EdgeTypeId type, graph::VertexId src, graph::VertexId dst,
                        graph::Timestamp ts, float w = 1.0f) {
  return graph::EdgeUpdate{type, src, dst, ts, w};
}

graph::GraphUpdate Vertex(graph::VertexTypeId type, graph::VertexId id, graph::Timestamp ts) {
  return graph::VertexUpdate{type, id, ts, {1.f, 2.f, 3.f, 4.f}};
}

// Runs a set of shards as an in-process mesh: routes cross-shard deltas
// until quiescent and collects everything sent to serving workers.
class LocalMesh {
 public:
  LocalMesh(const QueryPlan& plan, ShardMap map, SamplingShardCore::Options options = {})
      : plan_(plan) {
    for (std::uint32_t s = 0; s < map.TotalShards(); ++s) {
      cores_.push_back(std::make_unique<SamplingShardCore>(plan, map, s, 99, options));
    }
    map_ = map;
  }

  // Materialized serving cache per worker (all inbox messages applied in
  // order) — what an up-to-date ServingCore would hold.
  ServingCore& View(std::uint32_t sew) {
    auto it = views_.find(sew);
    if (it == views_.end()) {
      it = views_.emplace(sew, std::make_unique<ServingCore>(plan_, sew)).first;
    }
    return *it->second;
  }

  void Ingest(const graph::GraphUpdate& u, std::int64_t origin_us = 0) {
    const graph::VertexId routing = std::visit(
        [](const auto& x) {
          using T = std::decay_t<decltype(x)>;
          if constexpr (std::is_same_v<T, graph::EdgeUpdate>) {
            return x.src;
          } else {
            return x.id;
          }
        },
        u);
    SamplingShardCore::Outputs out;
    cores_[map_.ShardOf(routing)]->OnGraphUpdate(u, origin_us, out);
    Pump(out);
  }

  void PruneAll(graph::Timestamp cutoff) {
    for (auto& core : cores_) {
      SamplingShardCore::Outputs out;
      core->Prune(cutoff, out);
      Pump(out);
    }
  }

  // Messages delivered to each serving worker, in order.
  std::vector<ServingMessage>& ServingInbox(std::uint32_t sew) { return inboxes_[sew]; }
  SamplingShardCore& core(std::uint32_t s) { return *cores_[s]; }
  std::size_t num_cores() const { return cores_.size(); }

  // Finds the latest message of a kind for a vertex, or nullptr.
  const ServingMessage* Latest(std::uint32_t sew, ServingMessage::Kind kind,
                               graph::VertexId v, std::uint32_t level = 0) {
    const ServingMessage* found = nullptr;
    for (const auto& m : inboxes_[sew]) {
      if (m.kind() != kind) continue;
      const graph::VertexId mv = m.TargetVertex();
      std::uint32_t ml = 0;
      if (kind == ServingMessage::Kind::kSample) ml = m.sample().level;
      if (kind == ServingMessage::Kind::kRetract) ml = m.retract().level;
      if (kind == ServingMessage::Kind::kSampleDelta) ml = m.delta().level;
      if (mv == v && (level == 0 || ml == level)) found = &m;
    }
    return found;
  }

 private:
  void Pump(SamplingShardCore::Outputs& first) {
    std::deque<std::pair<std::uint32_t, SubscriptionDelta>> pending;
    auto absorb = [&](SamplingShardCore::Outputs& out) {
      out.to_serving.ForEach([&](std::uint32_t sew, const ServingMessage& msg) {
        View(sew).Apply(msg);
        inboxes_[sew].push_back(msg);
      });
      for (auto& [shard, delta] : out.to_shards) pending.emplace_back(shard, delta);
      out.Clear();
    };
    absorb(first);
    while (!pending.empty()) {
      auto [shard, delta] = pending.front();
      pending.pop_front();
      SamplingShardCore::Outputs out;
      cores_[shard]->OnSubscriptionDelta(delta, 0, out);
      absorb(out);
    }
  }

  QueryPlan plan_;
  ShardMap map_;
  std::vector<std::unique_ptr<SamplingShardCore>> cores_;
  std::map<std::uint32_t, std::vector<ServingMessage>> inboxes_;
  std::map<std::uint32_t, std::unique_ptr<ServingCore>> views_;
};

TEST(SamplingCore, ReservoirCellCreatedPerHop) {
  LocalMesh mesh(TwoHopPlan(), ShardMap{1, 1, 1});
  const auto user = MakeVertexId(0, 1);
  const auto item = MakeVertexId(1, 1);
  const auto item2 = MakeVertexId(1, 2);
  mesh.Ingest(Edge(0, user, item, 10));
  mesh.Ingest(Edge(1, item, item2, 11));
  EXPECT_NE(mesh.core(0).CellOf(1, user), nullptr);
  EXPECT_NE(mesh.core(0).CellOf(2, item), nullptr);
  EXPECT_EQ(mesh.core(0).CellOf(2, user), nullptr);  // wrong type for Q2
  EXPECT_EQ(mesh.core(0).CellOf(1, item), nullptr);
}

TEST(SamplingCore, SeedSelfSubscribesAndPushesFirstSamples) {
  ShardMap map{1, 1, 3};
  LocalMesh mesh(TwoHopPlan(), map);
  const auto user = MakeVertexId(0, 7);
  const auto sew = map.ServingWorkerOf(user);
  mesh.Ingest(Vertex(0, user, 1));
  // Feature of the seed is pushed on subscription.
  ASSERT_NE(mesh.Latest(sew, ServingMessage::Kind::kFeature, user), nullptr);

  mesh.Ingest(Edge(0, user, MakeVertexId(1, 1), 10));
  // The (delta) dissemination materializes the cell at the owning worker.
  const auto served = ServeFresh(mesh.View(sew), user);
  ASSERT_EQ(served.layers[1].size(), 1u);
  EXPECT_EQ(served.layers[1][0].vertex, MakeVertexId(1, 1));
  // No other serving worker got anything for this seed.
  for (std::uint32_t other = 0; other < 3; ++other) {
    if (other == sew) continue;
    EXPECT_EQ(mesh.Latest(other, ServingMessage::Kind::kSample, user, 1), nullptr);
    EXPECT_EQ(mesh.Latest(other, ServingMessage::Kind::kSampleDelta, user, 1), nullptr);
  }
}

TEST(SamplingCore, SecondHopCellPushedWhenChildSubscribed) {
  ShardMap map{1, 1, 1};
  LocalMesh mesh(TwoHopPlan(), map);
  const auto user = MakeVertexId(0, 1);
  const auto item = MakeVertexId(1, 5);
  const auto friend1 = MakeVertexId(1, 6);
  // Build Q2 state first: item already has a co-purchase neighbor.
  mesh.Ingest(Edge(1, item, friend1, 5));
  EXPECT_EQ(mesh.core(0).CellSubscribers(2, item), 0u);
  // Now the seed clicks item: the serving worker must receive item's Q2
  // cell through the cascade.
  mesh.Ingest(Edge(0, user, item, 10));
  EXPECT_EQ(mesh.core(0).CellSubscribers(2, item), 1u);
  const auto* q2 = mesh.Latest(0, ServingMessage::Kind::kSample, item, 2);
  ASSERT_NE(q2, nullptr);
  ASSERT_EQ(q2->sample().samples.size(), 1u);
  EXPECT_EQ(q2->sample().samples[0].dst, friend1);
}

TEST(SamplingCore, Figure7EvictionFlow) {
  // Fig 7: V4 replaces V3 in V1's Q1 cell => SEW unsubscribed from V3's Q2
  // (Retract) and subscribed to V4's Q2 (snapshot pushed).
  ShardMap map{1, 1, 1};
  LocalMesh mesh(TwoHopPlan(Strategy::kTopK, Strategy::kTopK, /*f1=*/1, /*f2=*/2), map);
  const auto v1 = MakeVertexId(0, 1);
  const auto v3 = MakeVertexId(1, 3);
  const auto v4 = MakeVertexId(1, 4);
  const auto v5 = MakeVertexId(1, 5);
  mesh.Ingest(Edge(1, v3, v5, 1));   // V3's Q2 cell
  mesh.Ingest(Edge(1, v4, v5, 2));   // V4's Q2 cell
  mesh.Ingest(Edge(0, v1, v3, 10));  // V3 sampled for V1
  EXPECT_EQ(mesh.core(0).CellSubscribers(2, v3), 1u);
  ASSERT_NE(mesh.Latest(0, ServingMessage::Kind::kSample, v3, 2), nullptr);

  mesh.Ingest(Edge(0, v1, v4, 20));  // newer timestamp: V4 replaces V3 (fanout 1)
  EXPECT_EQ(mesh.core(0).CellSubscribers(2, v3), 0u);
  EXPECT_EQ(mesh.core(0).CellSubscribers(2, v4), 1u);
  EXPECT_NE(mesh.Latest(0, ServingMessage::Kind::kRetract, v3, 2), nullptr);
  EXPECT_NE(mesh.Latest(0, ServingMessage::Kind::kSample, v4, 2), nullptr);
  // The refreshed Q1 cell (after the delta) names V4 only.
  const auto served = ServeFresh(mesh.View(0), v1);
  ASSERT_EQ(served.layers[1].size(), 1u);
  EXPECT_EQ(served.layers[1][0].vertex, v4);
}

TEST(SamplingCore, RefcountSharedChildSurvivesOneParentEviction) {
  // Two seeds sample the same item; evicting it from one seed's cell must
  // not retract it while the other still references it.
  ShardMap map{1, 1, 1};
  LocalMesh mesh(TwoHopPlan(Strategy::kTopK, Strategy::kTopK, 1, 2), map);
  const auto u1 = MakeVertexId(0, 1);
  const auto u2 = MakeVertexId(0, 2);
  const auto shared = MakeVertexId(1, 9);
  mesh.Ingest(Edge(0, u1, shared, 10));
  mesh.Ingest(Edge(0, u2, shared, 11));
  EXPECT_EQ(mesh.core(0).CellSubscribers(2, shared), 1u);  // one SEW, refcount 2

  mesh.Ingest(Edge(0, u1, MakeVertexId(1, 8), 20));  // evict shared from u1
  EXPECT_EQ(mesh.core(0).CellSubscribers(2, shared), 1u);  // still subscribed via u2
  EXPECT_EQ(mesh.Latest(0, ServingMessage::Kind::kRetract, shared, 2), nullptr);

  mesh.Ingest(Edge(0, u2, MakeVertexId(1, 7), 30));  // evict from u2 too
  EXPECT_EQ(mesh.core(0).CellSubscribers(2, shared), 0u);
  EXPECT_NE(mesh.Latest(0, ServingMessage::Kind::kRetract, shared, 2), nullptr);
}

TEST(SamplingCore, CrossShardDeltasRouteToOwner) {
  ShardMap map{2, 2, 1};  // 4 shards
  LocalMesh mesh(TwoHopPlan(), map);
  // Find a user and item on different shards.
  graph::VertexId user = 0, item = 0;
  for (std::uint64_t i = 0; i < 1000 && (user == 0 || item == 0); ++i) {
    if (user == 0 && map.ShardOf(MakeVertexId(0, i)) == 0) user = MakeVertexId(0, i);
    if (item == 0 && map.ShardOf(MakeVertexId(1, i)) == 3) item = MakeVertexId(1, i);
  }
  ASSERT_NE(user, 0u);
  ASSERT_NE(item, 0u);
  mesh.Ingest(Edge(1, item, MakeVertexId(1, 500), 1));  // item's Q2 cell on shard 3
  mesh.Ingest(Edge(0, user, item, 10));                 // sampled on shard 0
  // Shard 3 (item's owner) now carries the subscription.
  EXPECT_EQ(mesh.core(3).CellSubscribers(2, item), 1u);
  EXPECT_EQ(mesh.core(0).CellSubscribers(2, item), 0u);
  EXPECT_GT(mesh.core(0).metrics().TakeSnapshot().CounterTotal("sampling.sub_deltas_sent"), 0u);
  // And the Q2 snapshot reached the serving worker.
  EXPECT_NE(mesh.Latest(0, ServingMessage::Kind::kSample, item, 2), nullptr);
}

TEST(SamplingCore, FeaturePushedLateWhenVertexArrivesAfterSubscription) {
  ShardMap map{1, 1, 1};
  LocalMesh mesh(TwoHopPlan(), map);
  const auto user = MakeVertexId(0, 1);
  const auto item = MakeVertexId(1, 2);
  mesh.Ingest(Edge(0, user, item, 10));  // subscribe to item before its feature exists
  EXPECT_EQ(mesh.Latest(0, ServingMessage::Kind::kFeature, item), nullptr);
  mesh.Ingest(Vertex(1, item, 20));  // feature arrives late
  EXPECT_NE(mesh.Latest(0, ServingMessage::Kind::kFeature, item), nullptr);
}

TEST(SamplingCore, FeatureRefreshPropagatesToSubscribers) {
  ShardMap map{1, 1, 1};
  LocalMesh mesh(TwoHopPlan(), map);
  const auto user = MakeVertexId(0, 1);
  const auto item = MakeVertexId(1, 2);
  mesh.Ingest(Vertex(1, item, 1));
  mesh.Ingest(Edge(0, user, item, 10));
  const std::size_t before = mesh.ServingInbox(0).size();
  mesh.Ingest(Vertex(1, item, 20));  // refresh
  bool saw_refresh = false;
  for (std::size_t i = before; i < mesh.ServingInbox(0).size(); ++i) {
    const auto& m = mesh.ServingInbox(0)[i];
    saw_refresh |= m.kind() == ServingMessage::Kind::kFeature && m.feature().vertex == item;
  }
  EXPECT_TRUE(saw_refresh);
}

TEST(SamplingCore, UnsubscribedVertexUpdatesStaySilent) {
  ShardMap map{1, 1, 1};
  LocalMesh mesh(TwoHopPlan(), map);
  // An item vertex no seed points to: its updates must not reach serving.
  mesh.Ingest(Vertex(1, MakeVertexId(1, 42), 1));
  mesh.Ingest(Edge(1, MakeVertexId(1, 42), MakeVertexId(1, 43), 2));
  EXPECT_TRUE(mesh.ServingInbox(0).empty());
}

TEST(SamplingCore, OriginTimestampPropagates) {
  ShardMap map{1, 1, 1};
  LocalMesh mesh(TwoHopPlan(), map);
  const auto user = MakeVertexId(0, 1);
  mesh.Ingest(Edge(0, user, MakeVertexId(1, 2), 10), /*origin_us=*/123456);
  const auto* su = mesh.Latest(0, ServingMessage::Kind::kSampleDelta, user, 1);
  ASSERT_NE(su, nullptr);
  EXPECT_EQ(su->delta().origin_us, 123456);
}

TEST(SamplingCore, PruneDropsExpiredSamplesAndCascades) {
  ShardMap map{1, 1, 1};
  SamplingShardCore::Options options;
  options.ttl = 100;
  LocalMesh mesh(TwoHopPlan(Strategy::kTopK, Strategy::kTopK, 2, 2), map, options);
  const auto user = MakeVertexId(0, 1);
  const auto old_item = MakeVertexId(1, 2);
  const auto new_item = MakeVertexId(1, 3);
  mesh.Ingest(Edge(0, user, old_item, 10));
  mesh.Ingest(Edge(0, user, new_item, 500));
  EXPECT_EQ(mesh.core(0).CellOf(1, user)->samples().size(), 2u);

  mesh.PruneAll(/*cutoff=*/100);
  ASSERT_NE(mesh.core(0).CellOf(1, user), nullptr);
  ASSERT_EQ(mesh.core(0).CellOf(1, user)->samples().size(), 1u);
  EXPECT_EQ(mesh.core(0).CellOf(1, user)->samples()[0].dst, new_item);
  // The serving worker no longer needs old_item.
  EXPECT_NE(mesh.Latest(0, ServingMessage::Kind::kRetract, old_item, 2), nullptr);
}

// Satellite of the Prune pre-scan: when nothing has expired, a prune pass
// is a pure no-op — cells keep their exact contents (no reservoir rebuild)
// and no refresh or retract traffic reaches serving.
TEST(SamplingCore, PruneWithNothingExpiredIsNoOp) {
  ShardMap map{1, 1, 1};
  LocalMesh mesh(TwoHopPlan(Strategy::kTopK, Strategy::kTopK, 2, 2), map);
  const auto user = MakeVertexId(0, 1);
  mesh.Ingest(Edge(0, user, MakeVertexId(1, 2), 200));
  mesh.Ingest(Edge(0, user, MakeVertexId(1, 3), 500));
  const auto before = mesh.core(0).CellOf(1, user)->samples();
  const std::size_t inbox_before = mesh.ServingInbox(0).size();

  mesh.PruneAll(/*cutoff=*/100);  // everything is newer than the cutoff
  const auto* cell = mesh.core(0).CellOf(1, user);
  ASSERT_NE(cell, nullptr);
  ASSERT_EQ(cell->samples().size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(cell->samples()[i].dst, before[i].dst) << i;
    EXPECT_EQ(cell->samples()[i].ts, before[i].ts) << i;
  }
  EXPECT_EQ(mesh.ServingInbox(0).size(), inbox_before) << "no-op prune must stay silent";
}

TEST(SamplingCore, StatsAccumulate) {
  ShardMap map{1, 1, 1};
  LocalMesh mesh(TwoHopPlan(), map);
  const auto user = MakeVertexId(0, 1);
  for (int i = 0; i < 10; ++i) {
    mesh.Ingest(Edge(0, user, MakeVertexId(1, static_cast<std::uint64_t>(i)), 10 + i));
  }
  const auto snap = mesh.core(0).metrics().TakeSnapshot();
  EXPECT_EQ(snap.CounterTotal("sampling.updates_processed"), 10u);
  EXPECT_EQ(snap.CounterTotal("sampling.edges_offered"), 10u);
  EXPECT_GE(snap.GaugeTotal("sampling.cells"), 1);
  EXPECT_GT(snap.CounterTotal("sampling.sample_updates_sent") +
                snap.CounterTotal("sampling.sample_deltas_sent"),
            0u);
  EXPECT_GT(mesh.core(0).ApproximateBytes(), 0u);
}

TEST(SamplingCore, CheckpointRoundTripPreservesTables) {
  ShardMap map{1, 1, 1};
  const auto plan = TwoHopPlan();
  LocalMesh mesh(plan, map);
  const auto user = MakeVertexId(0, 1);
  const auto item = MakeVertexId(1, 2);
  mesh.Ingest(Vertex(0, user, 1));
  mesh.Ingest(Vertex(1, item, 2));
  mesh.Ingest(Edge(0, user, item, 10));
  mesh.Ingest(Edge(1, item, MakeVertexId(1, 3), 11));

  graph::ByteWriter w;
  mesh.core(0).Serialize(w);
  const std::string bytes = w.buffer();

  SamplingShardCore restored(plan, map, 0, 99, {});
  graph::ByteReader r(bytes);
  ASSERT_TRUE(SamplingShardCore::Deserialize(r, restored));
  ASSERT_NE(restored.CellOf(1, user), nullptr);
  EXPECT_EQ(restored.CellOf(1, user)->samples(), mesh.core(0).CellOf(1, user)->samples());
  ASSERT_NE(restored.CellOf(2, item), nullptr);
  EXPECT_TRUE(restored.HasFeature(user));
  EXPECT_TRUE(restored.HasFeature(item));
  EXPECT_EQ(restored.CellSubscribers(1, user), 1u);
  EXPECT_EQ(restored.CellSubscribers(2, item), 1u);
}

// Restoring a checkpoint must leave the registry consistent: the state
// gauges (cells, features_stored) are repopulated from the restored tables,
// and replaying the same post-checkpoint updates through the restored core
// moves the metrics exactly as it moves the original's.
TEST(SamplingCore, CheckpointRestoreKeepsRegistryMetricsConsistent) {
  ShardMap map{1, 1, 1};
  const auto plan = TwoHopPlan();
  LocalMesh mesh(plan, map);
  const auto user = MakeVertexId(0, 1);
  mesh.Ingest(Vertex(0, user, 1));
  // Strictly increasing weights keep the TopK reservoirs deterministic.
  for (int i = 0; i < 20; ++i) {
    mesh.Ingest(Edge(0, user, MakeVertexId(1, static_cast<std::uint64_t>(i)), 10 + i,
                     static_cast<float>(i + 1)));
  }
  mesh.Ingest(Vertex(1, MakeVertexId(1, 2), 40));

  graph::ByteWriter w;
  mesh.core(0).Serialize(w);
  graph::ByteReader r(w.buffer());
  SamplingShardCore restored(plan, map, 0, 99, {});
  ASSERT_TRUE(SamplingShardCore::Deserialize(r, restored));

  // Restored state gauges match the checkpointed core immediately.
  const auto before = mesh.core(0).metrics().TakeSnapshot();
  const auto restored_before = restored.metrics().TakeSnapshot();
  EXPECT_EQ(restored_before.GaugeTotal("sampling.cells"), before.GaugeTotal("sampling.cells"));
  EXPECT_EQ(restored_before.GaugeTotal("sampling.features_stored"),
            before.GaugeTotal("sampling.features_stored"));
  EXPECT_GT(restored_before.GaugeTotal("sampling.features_stored"), 0);

  // Replay the same fresh updates through both cores (single shard: deltas
  // are handled inline, outputs can be dropped).
  auto replay = [&](SamplingShardCore& core) {
    for (int i = 20; i < 30; ++i) {
      SamplingShardCore::Outputs out;
      core.OnGraphUpdate(Edge(0, user, MakeVertexId(1, static_cast<std::uint64_t>(i)), 100 + i,
                              static_cast<float>(i + 1)),
                         0, out);
    }
  };
  replay(mesh.core(0));
  replay(restored);
  const auto after = mesh.core(0).metrics().TakeSnapshot();
  const auto restored_after = restored.metrics().TakeSnapshot();
  // Counters: the restored core counts only what it replayed.
  const auto moved = [&](const char* name) {
    return after.CounterTotal(name) - before.CounterTotal(name);
  };
  for (const char* name : {"sampling.updates_processed", "sampling.edges_offered"}) {
    EXPECT_EQ(restored_after.CounterTotal(name), moved(name)) << name;
  }
  EXPECT_EQ(restored_after.CounterTotal("sampling.sample_updates_sent") +
                restored_after.CounterTotal("sampling.sample_deltas_sent"),
            moved("sampling.sample_updates_sent") + moved("sampling.sample_deltas_sent"));
  // The state gauges track absolute table sizes, so they stay equal.
  for (const char* name : {"sampling.cells", "sampling.features_stored"}) {
    EXPECT_EQ(restored_after.GaugeTotal(name), after.GaugeTotal(name)) << name;
  }
}

// The reservoir's offer counter must survive a checkpoint round-trip:
// Random's acceptance probability is C/seen, so a restored core that
// restarted the counter would over-accept new offers after recovery.
TEST(SamplingCore, CheckpointRestoresOfferCounter) {
  ShardMap map{1, 1, 1};
  SamplingQuery q;
  q.seed_type = 0;
  q.hops = {{0, 2, Strategy::kRandom}};
  const auto plan = Decompose(q, TwoHopSchema()).value();
  SamplingShardCore core(plan, map, 0, 7, {});
  const auto user = MakeVertexId(0, 1);
  SamplingShardCore::Outputs out;
  for (int i = 0; i < 25; ++i) {
    core.OnGraphUpdate(Edge(0, user, MakeVertexId(1, static_cast<std::uint64_t>(i)), 10 + i), 0,
                       out);
  }
  ASSERT_NE(core.CellOf(1, user), nullptr);
  EXPECT_EQ(core.CellOf(1, user)->offers_seen(), 25u);

  graph::ByteWriter w;
  core.Serialize(w);
  graph::ByteReader r(w.buffer());
  SamplingShardCore restored(plan, map, 0, 7, {});
  ASSERT_TRUE(SamplingShardCore::Deserialize(r, restored));
  ASSERT_NE(restored.CellOf(1, user), nullptr);
  EXPECT_EQ(restored.CellOf(1, user)->offers_seen(), 25u);
}

// Replay determinism (docs/FAULT_TOLERANCE.md): the checkpoint carries the
// sampler's RNG state, so a restored core fed the same log tail makes the
// SAME random accept/evict decisions and emits byte-identical serving
// traffic. Without the RNG state the re-emissions would diverge from what
// the serving side already applied and epoch/seq fencing could not
// de-duplicate them. EdgeWeight cells additionally restore their A-Res
// keys verbatim: re-drawn keys would decide later evictions differently.
void ExpectReplayDeterministic(Strategy strategy) {
  ShardMap map{1, 1, 1};
  SamplingQuery q;
  q.seed_type = 0;
  q.hops = {{0, 2, strategy}, {1, 2, strategy}};
  const auto plan = Decompose(q, TwoHopSchema()).value();
  const auto user = MakeVertexId(0, 1);

  SamplingShardCore original(plan, map, 0, /*seed=*/7, {});
  SamplingShardCore::Outputs out;
  original.OnGraphUpdate(Vertex(0, user, 1), 0, out);
  // Subscribe a serving worker to the hop-1 cell so reservoir changes are
  // emitted as SampleDeltas (nothing reaches serving without a subscriber).
  SubscriptionDelta sub;
  sub.level = 1;
  sub.vertex = user;
  sub.serving_worker = 0;
  sub.delta = +1;
  out.Clear();
  original.OnSubscriptionDelta(sub, 0, out);
  // Enough offers that Random's reservoir is rejecting/evicting (C/seen),
  // i.e. the RNG stream position matters.
  for (int i = 0; i < 40; ++i) {
    out.Clear();
    original.OnGraphUpdate(Edge(0, user, MakeVertexId(1, static_cast<std::uint64_t>(i)), 10 + i),
                           0, out);
  }

  graph::ByteWriter w;
  original.Serialize(w);
  const std::string checkpoint = w.buffer();

  // The restored core gets a DIFFERENT constructor seed: only the
  // checkpointed RNG state may drive replay.
  SamplingShardCore restored(plan, map, 0, /*seed=*/999, {});
  graph::ByteReader r(checkpoint);
  ASSERT_TRUE(SamplingShardCore::Deserialize(r, restored));
  ASSERT_NE(restored.CellOf(1, user), nullptr);
  EXPECT_EQ(restored.CellOf(1, user)->samples(), original.CellOf(1, user)->samples());
  EXPECT_EQ(restored.CellOf(1, user)->keys(), original.CellOf(1, user)->keys());
  EXPECT_EQ(restored.CellOf(1, user)->keys().empty(), strategy != Strategy::kEdgeWeight);

  // Feed both cores the identical log tail and byte-compare everything
  // they emit toward serving.
  auto run_tail = [&](SamplingShardCore& core) {
    graph::ByteWriter emitted;
    auto collect = [&](SamplingShardCore::Outputs& tail_out) {
      tail_out.to_serving.ForEach([&](std::uint32_t sew, const ServingMessage& m) {
        emitted.PutU32(sew);
        EncodeServingMessageTo(emitted, m);
      });
    };
    for (int i = 40; i < 120; ++i) {
      SamplingShardCore::Outputs tail_out;
      core.OnGraphUpdate(Edge(0, user, MakeVertexId(1, static_cast<std::uint64_t>(i)), 10 + i), 0,
                         tail_out);
      collect(tail_out);
      // Feature updates emit unconditionally to subscribers and carry the
      // per-(shard->worker) seq stamp, so a single diverging reservoir
      // acceptance between the two replicas shifts every later seq and
      // breaks the byte comparison.
      tail_out.Clear();
      core.OnGraphUpdate(Vertex(0, user, 10 + i), 0, tail_out);
      collect(tail_out);
    }
    return emitted.Take();
  };
  const std::string original_tail = run_tail(original);
  const std::string restored_tail = run_tail(restored);
  EXPECT_FALSE(original_tail.empty());
  EXPECT_EQ(original_tail, restored_tail);

  // And the reservoirs themselves converged identically.
  EXPECT_EQ(restored.CellOf(1, user)->samples(), original.CellOf(1, user)->samples());
}

TEST(SamplingCore, CheckpointedRngStateMakesReplayDeterministic) {
  for (const Strategy s : {Strategy::kRandom, Strategy::kEdgeWeight}) {
    SCOPED_TRACE(StrategyName(s));
    ExpectReplayDeterministic(s);
  }
}

TEST(SamplingCore, CheckpointRejectsCorruptBytes) {
  ShardMap map{1, 1, 1};
  SamplingShardCore core(TwoHopPlan(), map, 0, 1, {});
  const std::string corrupt("short");  // ByteReader keeps a reference
  graph::ByteReader r1(corrupt);
  SamplingShardCore target(TwoHopPlan(), map, 0, 1, {});
  EXPECT_FALSE(SamplingShardCore::Deserialize(r1, target));
}

// Distribution property through the full event-driven pipeline: with the
// Random strategy, the fraction of streams in which an early edge survives
// matches C/N (the "same distribution as ad-hoc sampling" claim of §5.2).
TEST(SamplingCore, EventDrivenRandomMatchesReservoirDistribution) {
  ShardMap map{1, 1, 1};
  SamplingQuery q;
  q.seed_type = 0;
  q.hops = {{0, 4, Strategy::kRandom}};
  graph::GraphSchema schema = TwoHopSchema();
  const auto plan = Decompose(q, schema).value();

  constexpr int kTrials = 3000;
  constexpr int kStream = 40;
  std::vector<int> survivals(kStream, 0);
  for (int t = 0; t < kTrials; ++t) {
    SamplingShardCore core(plan, map, 0, static_cast<std::uint64_t>(t) + 1, {});
    SamplingShardCore::Outputs out;
    const auto user = MakeVertexId(0, 1);
    for (int i = 0; i < kStream; ++i) {
      core.OnGraphUpdate(
          graph::EdgeUpdate{0, user, MakeVertexId(1, static_cast<std::uint64_t>(i)),
                            static_cast<graph::Timestamp>(i + 1), 1.0f},
          0, out);
    }
    for (const auto& e : core.CellOf(1, user)->samples()) {
      survivals[gen::VertexIndexOf(e.dst)]++;
    }
  }
  const double expected = 4.0 / kStream * kTrials;  // 300
  for (int i = 0; i < kStream; ++i) {
    EXPECT_NEAR(survivals[i], expected, expected * 0.25) << "position " << i;
  }
}

}  // namespace
}  // namespace helios
