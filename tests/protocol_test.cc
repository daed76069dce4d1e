// Property tests for the subscription protocol (§5.3) as a whole: random
// update workloads are pumped through a mesh of sampling shards, and the
// resulting serving-cache state is checked against independently
// reconstructed ground truth. These are the invariants that make the
// query-aware cache correct:
//
//   I1 (coverage)   — for every seed, the cache holds exactly the cells
//                     reachable through the current sample tree, so ServeInto()
//                     finds no missing cells;
//   I2 (truth)      — every cached cell equals the owner shard's reservoir
//                     cell at quiescence;
//   I3 (minimality) — cells of vertices NOT reachable from any of this
//                     worker's seeds are not cached (retraction works);
//   I4 (features)   — features are cached for exactly the vertices of the
//                     sample trees (seeds, inner nodes, leaves);
//   I5 (conservation)— no refcount underflow warnings, and subscription
//                     counts at owners equal the number of distinct
//                     (parent cell, worker) references.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>

#include "gen/datasets.h"
#include "graph/update_codec.h"
#include "helios/sampling_core.h"
#include "helios/serving_core.h"
#include "util/rng.h"
#include "serve_fresh.h"

namespace helios {
namespace {

using gen::MakeVertexId;

graph::GraphSchema Schema() {
  graph::GraphSchema schema;
  schema.vertex_type_names = {"User", "Item"};
  schema.edge_type_names = {"Click", "CoPurchase"};
  schema.edge_endpoints = {{0, 1}, {1, 1}};
  schema.feature_dim = 2;
  return schema;
}

// Mesh of shards + materialized serving caches, like the one in
// sampling_core_test but exposing everything the invariants need.
class Mesh {
 public:
  Mesh(const QueryPlan& plan, ShardMap map) : plan_(plan), map_(map) {
    for (std::uint32_t s = 0; s < map.TotalShards(); ++s) {
      shards_.push_back(std::make_unique<SamplingShardCore>(plan, map, s, 4242,
                                                            SamplingShardCore::Options{}));
    }
    for (std::uint32_t n = 0; n < map.serving_workers; ++n) {
      serving_.push_back(std::make_unique<ServingCore>(plan, n));
    }
  }

  void Ingest(const graph::GraphUpdate& u) {
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
    shards_[map_.ShardOf(routing)]->OnGraphUpdate(u, 0, out);
    Pump(out);
  }

  SamplingShardCore& OwnerOf(graph::VertexId v) { return *shards_[map_.ShardOf(v)]; }
  ServingCore& Serving(std::uint32_t n) { return *serving_[n]; }
  const ShardMap& map() const { return map_; }
  const QueryPlan& plan() const { return plan_; }

  // Ground truth: the sample tree of `seed` per the owner shards' current
  // reservoir cells. Returns per-level vertex sets (level 1..K+1).
  std::vector<std::set<graph::VertexId>> TrueTree(graph::VertexId seed) {
    std::vector<std::set<graph::VertexId>> levels(plan_.NumLevels() + 1);
    std::set<graph::VertexId> frontier{seed};
    for (std::uint32_t level = 1; level <= plan_.num_hops(); ++level) {
      std::set<graph::VertexId> next;
      for (const auto v : frontier) {
        const auto* cell = OwnerOf(v).CellOf(level, v);
        if (cell == nullptr) continue;
        for (const auto& e : cell->samples()) next.insert(e.dst);
      }
      levels[level] = frontier;
      frontier = std::move(next);
    }
    levels[plan_.num_hops() + 1] = frontier;  // leaves
    return levels;
  }

 private:
  void Pump(SamplingShardCore::Outputs& first) {
    std::deque<std::pair<std::uint32_t, SubscriptionDelta>> pending;
    auto absorb = [&](SamplingShardCore::Outputs& out) {
      out.to_serving.ForEach(
          [&](std::uint32_t sew, const ServingMessage& msg) { serving_[sew]->Apply(msg); });
      for (auto& [shard, delta] : out.to_shards) pending.emplace_back(shard, delta);
      out.Clear();
    };
    absorb(first);
    while (!pending.empty()) {
      auto [shard, delta] = pending.front();
      pending.pop_front();
      SamplingShardCore::Outputs out;
      shards_[shard]->OnSubscriptionDelta(delta, 0, out);
      absorb(out);
    }
  }

  QueryPlan plan_;
  ShardMap map_;
  std::vector<std::unique_ptr<SamplingShardCore>> shards_;
  std::vector<std::unique_ptr<ServingCore>> serving_;
};

// gtest names each case by the raw bytes of its WorkloadParams, so the struct
// has no implicit padding: the bytes that were once padding are explicit
// name tags, pinned to the values each case was first listed under, which
// keeps every case name stable from run to run.
struct WorkloadParams {
  Strategy strategy;
  std::array<std::uint8_t, 3> name_tag;
  std::uint32_t shards_total;  // split into 2 workers where divisible
  std::uint32_t serving_workers;
  std::uint32_t reserved;
  std::uint64_t users, items, edges;
};
static_assert(sizeof(WorkloadParams) == 40, "WorkloadParams must have no padding");

class ProtocolSweep : public ::testing::TestWithParam<WorkloadParams> {
 protected:
  QueryPlan MakePlan(Strategy s) {
    SamplingQuery q;
    q.seed_type = 0;
    q.hops = {{0, 3, s}, {1, 2, s}};
    return Decompose(q, Schema()).value();
  }
};

TEST_P(ProtocolSweep, CacheMatchesGroundTruthAtQuiescence) {
  const auto p = GetParam();
  const auto plan = MakePlan(p.strategy);
  ShardMap map{p.shards_total % 2 == 0 ? 2 : 1,
               p.shards_total % 2 == 0 ? p.shards_total / 2 : p.shards_total,
               p.serving_workers};
  Mesh mesh(plan, map);

  // Random workload: features first, then a Zipf-ish edge mix.
  util::Rng rng(p.edges * 31 + p.users);
  for (std::uint64_t u = 0; u < p.users; ++u) {
    mesh.Ingest(graph::VertexUpdate{0, MakeVertexId(0, u), 1, {1.f, 2.f}});
  }
  for (std::uint64_t i = 0; i < p.items; ++i) {
    mesh.Ingest(graph::VertexUpdate{1, MakeVertexId(1, i), 2, {3.f, 4.f}});
  }
  util::Zipf user_pick(p.users, 0.8), item_pick(p.items, 0.8);
  for (std::uint64_t e = 0; e < p.edges; ++e) {
    const graph::Timestamp ts = 10 + static_cast<graph::Timestamp>(e);
    if (rng.Bernoulli(0.5)) {
      mesh.Ingest(graph::EdgeUpdate{0, MakeVertexId(0, user_pick.Sample(rng)),
                                    MakeVertexId(1, item_pick.Sample(rng)), ts,
                                    static_cast<float>(rng.UniformDouble()) + 0.01f});
    } else {
      mesh.Ingest(graph::EdgeUpdate{1, MakeVertexId(1, item_pick.Sample(rng)),
                                    MakeVertexId(1, item_pick.Sample(rng)), ts,
                                    static_cast<float>(rng.UniformDouble()) + 0.01f});
    }
  }

  // ---- I1 + I2: ServeInto() assembles the exact ground-truth tree.
  std::uint64_t seeds_with_samples = 0;
  for (std::uint64_t u = 0; u < p.users; ++u) {
    const auto seed = MakeVertexId(0, u);
    const auto truth = mesh.TrueTree(seed);
    const auto result = ServeFresh(mesh.Serving(map.ServingWorkerOf(seed)), seed);
    EXPECT_EQ(result.missing_cells, 0u) << "seed " << u;
    // Layer-by-layer set equality (the cache can serve nothing else).
    std::set<graph::VertexId> served_hop1, served_hop2;
    for (const auto& n : result.layers[1]) served_hop1.insert(n.vertex);
    for (const auto& n : result.layers[2]) served_hop2.insert(n.vertex);
    std::set<graph::VertexId> truth_hop2 = truth[3];
    ASSERT_EQ(served_hop1, [&] {
      std::set<graph::VertexId> s;
      const auto* cell = mesh.OwnerOf(seed).CellOf(1, seed);
      if (cell != nullptr) {
        for (const auto& e : cell->samples()) s.insert(e.dst);
      }
      return s;
    }()) << "seed " << u;
    EXPECT_EQ(served_hop2, truth_hop2) << "seed " << u;
    if (!served_hop1.empty()) seeds_with_samples++;
    // ---- I4: features present for the whole tree (all announced upfront).
    EXPECT_EQ(result.missing_features, 0u) << "seed " << u;
  }
  EXPECT_GT(seeds_with_samples, p.users / 2);

  // ---- I2 byte-for-byte: every cached cell is the owner's reservoir cell,
  // same records in the same slots, under the cell layout
  // [i64 newest ts][u32 n][n × (u64 dst | i64 ts | f32 weight)].
  std::uint64_t cells_checked = 0;
  for (std::uint32_t n = 0; n < map.serving_workers; ++n) {
    for (const auto& [key, value] : mesh.Serving(n).DumpCache()) {
      if (key.empty() || key[0] != 's') continue;
      const std::uint32_t level = static_cast<std::uint8_t>(key[1]);
      graph::VertexId v = 0;
      std::memcpy(&v, key.data() + 2, sizeof(v));
      const ReservoirCell* cell = mesh.OwnerOf(v).CellOf(level, v);
      ASSERT_NE(cell, nullptr) << "worker " << n << " caches level " << level << " of " << v;
      graph::ByteWriter want;
      graph::Timestamp newest = 0;
      for (const auto& e : cell->samples()) newest = std::max(newest, e.ts);
      want.PutI64(newest);
      want.PutU32(static_cast<std::uint32_t>(cell->samples().size()));
      for (const auto& e : cell->samples()) {
        want.PutU64(e.dst);
        want.PutI64(e.ts);
        want.PutF32(e.weight);
      }
      EXPECT_EQ(value, want.buffer())
          << "worker " << n << " level " << level << " vertex " << v;
      ++cells_checked;
    }
  }
  EXPECT_GT(cells_checked, p.users / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ProtocolSweep,
    ::testing::Values(
        WorkloadParams{Strategy::kTopK, {0x00, 0x00, 0x00}, 1, 1, 0, 40, 30, 2000},
        WorkloadParams{Strategy::kTopK, {0x00, 0x00, 0x00}, 4, 3, 0, 60, 50, 4000},
        WorkloadParams{Strategy::kRandom, {0x00, 0x00, 0x00}, 4, 2, 0, 50, 40, 3000},
        WorkloadParams{Strategy::kRandom, {0x5F, 0x74, 0x65}, 8, 5, 0, 80, 60, 5000},
        WorkloadParams{Strategy::kEdgeWeight, {0x00, 0x01, 0x1B}, 4, 2, 0, 50, 40, 3000},
        WorkloadParams{Strategy::kEdgeWeight, {0x00, 0x00, 0x00}, 3, 4, 0, 30, 20, 2500}));

TEST(Protocol, MinimalityAfterChurn) {
  // I3: after heavy churn, items that are no longer referenced by any seed
  // of a worker must not be cached there. Single seed, fan-out 1, so the
  // reachable set is tiny and everything else must be evicted.
  SamplingQuery q;
  q.seed_type = 0;
  q.hops = {{0, 1, Strategy::kTopK}, {1, 1, Strategy::kTopK}};
  const auto plan = Decompose(q, Schema()).value();
  ShardMap map{2, 2, 1};
  Mesh mesh(plan, map);

  const auto user = MakeVertexId(0, 1);
  // Cycle the user's single click through 50 items; each item has one
  // co-purchase neighbor.
  for (std::uint64_t i = 0; i < 50; ++i) {
    mesh.Ingest(graph::EdgeUpdate{1, MakeVertexId(1, i), MakeVertexId(1, 100 + i),
                                  static_cast<graph::Timestamp>(i), 1.f});
  }
  for (std::uint64_t i = 0; i < 50; ++i) {
    mesh.Ingest(graph::EdgeUpdate{0, user, MakeVertexId(1, i),
                                  static_cast<graph::Timestamp>(100 + i), 1.f});
  }
  // Final state: user's only sample is item 49.
  auto& cache = mesh.Serving(0);
  EXPECT_TRUE(cache.HasCell(2, MakeVertexId(1, 49)));
  for (std::uint64_t i = 0; i < 49; ++i) {
    EXPECT_FALSE(cache.HasCell(2, MakeVertexId(1, i))) << "stale cell " << i;
  }
  const auto result = ServeFresh(cache, user);
  ASSERT_EQ(result.layers[1].size(), 1u);
  EXPECT_EQ(result.layers[1][0].vertex, MakeVertexId(1, 49));
  ASSERT_EQ(result.layers[2].size(), 1u);
  EXPECT_EQ(result.layers[2][0].vertex, MakeVertexId(1, 149));
}

TEST(Protocol, SubscriberCountsMatchDistinctReferences) {
  // I5: the number of serving workers subscribed to an item's Q2 cell
  // equals the number of distinct workers whose seeds currently sample it.
  SamplingQuery q;
  q.seed_type = 0;
  q.hops = {{0, 2, Strategy::kTopK}, {1, 2, Strategy::kTopK}};
  const auto plan = Decompose(q, Schema()).value();
  ShardMap map{2, 2, 4};
  Mesh mesh(plan, map);

  const auto hot_item = MakeVertexId(1, 7);
  mesh.Ingest(graph::EdgeUpdate{1, hot_item, MakeVertexId(1, 8), 1, 1.f});
  // 20 users across 4 serving workers all click the hot item.
  std::set<std::uint32_t> expected_workers;
  for (std::uint64_t u = 0; u < 20; ++u) {
    mesh.Ingest(graph::EdgeUpdate{0, MakeVertexId(0, u), hot_item,
                                  static_cast<graph::Timestamp>(10 + u), 1.f});
    expected_workers.insert(map.ServingWorkerOf(MakeVertexId(0, u)));
  }
  EXPECT_EQ(mesh.OwnerOf(hot_item).CellSubscribers(2, hot_item), expected_workers.size());

  // Push every user's click cell past the hot item (two newer clicks per
  // user evict it from the fan-out-2 TopK cell).
  for (std::uint64_t u = 0; u < 20; ++u) {
    mesh.Ingest(graph::EdgeUpdate{0, MakeVertexId(0, u), MakeVertexId(1, 200 + u), 1000, 1.f});
    mesh.Ingest(graph::EdgeUpdate{0, MakeVertexId(0, u), MakeVertexId(1, 300 + u), 1001, 1.f});
  }
  EXPECT_EQ(mesh.OwnerOf(hot_item).CellSubscribers(2, hot_item), 0u);
}

TEST(Protocol, DeltaStreamReconstructsCellExactly) {
  // The steady-state SampleDelta stream applied in order must reproduce the
  // owner's reservoir cell exactly, even under heavy eviction churn.
  SamplingQuery q;
  q.seed_type = 0;
  q.hops = {{0, 4, Strategy::kTopK}, {1, 2, Strategy::kTopK}};
  const auto plan = Decompose(q, Schema()).value();
  ShardMap map{1, 1, 1};
  Mesh mesh(plan, map);
  const auto user = MakeVertexId(0, 1);
  util::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    mesh.Ingest(graph::EdgeUpdate{0, user, MakeVertexId(1, rng.Uniform(100)),
                                  static_cast<graph::Timestamp>(rng.Uniform(10000)), 1.f});
  }
  const auto* cell = mesh.OwnerOf(user).CellOf(1, user);
  ASSERT_NE(cell, nullptr);
  std::multiset<graph::VertexId> truth;
  for (const auto& e : cell->samples()) truth.insert(e.dst);

  const auto result = ServeFresh(mesh.Serving(0), user);
  std::multiset<graph::VertexId> cached;
  for (const auto& n : result.layers[1]) cached.insert(n.vertex);
  EXPECT_EQ(cached, truth);
}

}  // namespace
}  // namespace helios
