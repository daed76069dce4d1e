// Tests for ServingCore: the query-aware sample cache and K-hop assembly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gen/datasets.h"
#include "graph/update_codec.h"
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
  schema.feature_dim = 4;
  return schema;
}

QueryPlan Plan(std::uint32_t f1 = 2, std::uint32_t f2 = 2) {
  SamplingQuery q;
  q.seed_type = 0;
  q.hops = {{0, f1, Strategy::kTopK}, {1, f2, Strategy::kTopK}};
  return Decompose(q, Schema()).value();
}

SampleUpdate Cell(std::uint32_t level, graph::VertexId v,
                  std::vector<graph::VertexId> dsts, graph::Timestamp ts = 1) {
  SampleUpdate su;
  su.level = level;
  su.vertex = v;
  su.event_ts = ts;
  for (auto d : dsts) su.samples.push_back({d, ts, 1.0f});
  return su;
}

FeatureUpdate Feat(graph::VertexId v, float seed) {
  FeatureUpdate fu;
  fu.vertex = v;
  fu.feature = {seed, seed + 1, seed + 2, seed + 3};
  return fu;
}

TEST(ServingCore, AssemblesFullTwoHopResult) {
  ServingCore core(Plan(), 0);
  const auto user = MakeVertexId(0, 1);
  const auto i1 = MakeVertexId(1, 1), i2 = MakeVertexId(1, 2);
  const auto j1 = MakeVertexId(1, 11), j2 = MakeVertexId(1, 12);

  core.Apply(ServingMessage::Of(Cell(1, user, {i1, i2})));
  core.Apply(ServingMessage::Of(Cell(2, i1, {j1, j2})));
  core.Apply(ServingMessage::Of(Cell(2, i2, {j2})));
  for (auto v : {user, i1, i2, j1, j2}) {
    core.Apply(ServingMessage::Of(Feat(v, static_cast<float>(v % 100))));
  }

  const auto result = ServeFresh(core, user);
  EXPECT_EQ(result.seed, user);
  ASSERT_EQ(result.layers.size(), 3u);
  EXPECT_EQ(result.layers[0].size(), 1u);
  EXPECT_EQ(result.layers[1].size(), 2u);
  EXPECT_EQ(result.layers[2].size(), 3u);  // 2 + 1
  EXPECT_EQ(result.missing_cells, 0u);
  EXPECT_EQ(result.missing_features, 0u);
  EXPECT_EQ(result.TotalSampled(), 5u);
  // Parent pointers are consistent.
  for (const auto& node : result.layers[2]) {
    EXPECT_LT(node.parent, result.layers[1].size());
  }
  // All features fetched.
  EXPECT_EQ(result.features.size(), 5u);
  ASSERT_TRUE(result.features.Contains(j1));
  EXPECT_EQ(result.features.Find(j1)[0], static_cast<float>(j1 % 100));
}

TEST(ServingCore, LookupCountsMatchPlanBounds) {
  const auto plan = Plan(2, 2);
  ServingCore core(plan, 0);
  const auto user = MakeVertexId(0, 1);
  const auto i1 = MakeVertexId(1, 1), i2 = MakeVertexId(1, 2);
  core.Apply(ServingMessage::Of(Cell(1, user, {i1, i2})));
  core.Apply(ServingMessage::Of(Cell(2, i1, {MakeVertexId(1, 11), MakeVertexId(1, 12)})));
  core.Apply(ServingMessage::Of(Cell(2, i2, {MakeVertexId(1, 13), MakeVertexId(1, 14)})));
  const auto result = ServeFresh(core, user);
  // Full fan-out: lookups equal the §6 formulas exactly.
  EXPECT_EQ(result.sample_lookups, plan.SampleTableLookups());
  EXPECT_EQ(result.feature_lookups, plan.FeatureTableLookups());
}

TEST(ServingCore, MissingCellsDegradeGracefully) {
  ServingCore core(Plan(), 0);
  const auto user = MakeVertexId(0, 1);
  // Nothing cached at all: empty layers, 1 missing cell, seed feature miss.
  auto result = ServeFresh(core, user);
  EXPECT_EQ(result.layers[1].size(), 0u);
  EXPECT_EQ(result.missing_cells, 1u);
  EXPECT_EQ(result.missing_features, 1u);

  // Partial: first hop present, second missing.
  core.Apply(ServingMessage::Of(Cell(1, user, {MakeVertexId(1, 1)})));
  result = ServeFresh(core, user);
  EXPECT_EQ(result.layers[1].size(), 1u);
  EXPECT_EQ(result.layers[2].size(), 0u);
  EXPECT_EQ(result.missing_cells, 1u);  // the level-2 cell
}

TEST(ServingCore, SampleUpdateOverwritesCell) {
  ServingCore core(Plan(), 0);
  const auto user = MakeVertexId(0, 1);
  core.Apply(ServingMessage::Of(Cell(1, user, {MakeVertexId(1, 1)})));
  core.Apply(ServingMessage::Of(Cell(1, user, {MakeVertexId(1, 2), MakeVertexId(1, 3)})));
  const auto result = ServeFresh(core, user);
  ASSERT_EQ(result.layers[1].size(), 2u);
  EXPECT_EQ(result.layers[1][0].vertex, MakeVertexId(1, 2));
}

TEST(ServingCore, RetractEvictsCellAndFeature) {
  ServingCore core(Plan(), 0);
  const auto user = MakeVertexId(0, 1);
  const auto item = MakeVertexId(1, 1);
  core.Apply(ServingMessage::Of(Cell(1, user, {item})));
  core.Apply(ServingMessage::Of(Cell(2, item, {MakeVertexId(1, 9)})));
  core.Apply(ServingMessage::Of(Feat(item, 1.f)));
  EXPECT_TRUE(core.HasCell(2, item));
  EXPECT_TRUE(core.HasFeature(item));

  core.Apply(ServingMessage::Of(Retract{2, item}));
  EXPECT_FALSE(core.HasCell(2, item));
  EXPECT_TRUE(core.HasFeature(item));  // feature retract is level 0

  core.Apply(ServingMessage::Of(Retract{0, item}));
  EXPECT_FALSE(core.HasFeature(item));
}

TEST(ServingCore, IdempotentApply) {
  ServingCore core(Plan(), 0);
  const auto user = MakeVertexId(0, 1);
  const auto msg = ServingMessage::Of(Cell(1, user, {MakeVertexId(1, 1)}));
  core.Apply(msg);
  core.Apply(msg);  // duplicate delivery (at-least-once queue)
  const auto result = ServeFresh(core, user);
  EXPECT_EQ(result.layers[1].size(), 1u);
}

TEST(ServingCore, StatsTrackAppliesAndMisses) {
  ServingCore core(Plan(), 3);
  EXPECT_EQ(core.worker_id(), 3u);
  const auto user = MakeVertexId(0, 1);
  core.Apply(ServingMessage::Of(Cell(1, user, {MakeVertexId(1, 1)}, /*ts=*/77)));
  core.Apply(ServingMessage::Of(Feat(user, 1.f)));
  core.Apply(ServingMessage::Of(Retract{1, MakeVertexId(0, 9)}));
  ServeFresh(core, user);
  const auto snap = core.metrics().TakeSnapshot();
  EXPECT_EQ(snap.CounterTotal("serving.sample_updates_applied"), 1u);
  EXPECT_EQ(snap.CounterTotal("serving.feature_updates_applied"), 1u);
  EXPECT_EQ(snap.CounterTotal("serving.retracts_applied"), 1u);
  EXPECT_EQ(snap.CounterTotal("serving.queries_served"), 1u);
  EXPECT_GT(snap.CounterTotal("serving.cache_miss_cells") +
                snap.CounterTotal("serving.cache_miss_features"),
            0u);
  EXPECT_EQ(snap.GaugeTotal("serving.latest_event_ts"), 77);
}

TEST(ServingCore, TtlEvictsStaleCells) {
  ServingCore core(Plan(), 0);
  const auto user = MakeVertexId(0, 1);
  const auto other = MakeVertexId(0, 2);
  SampleUpdate old_cell = Cell(1, user, {MakeVertexId(1, 1)});
  old_cell.samples[0].ts = 10;
  SampleUpdate fresh_cell = Cell(1, other, {MakeVertexId(1, 2)});
  fresh_cell.samples[0].ts = 1000;
  core.Apply(ServingMessage::Of(old_cell));
  core.Apply(ServingMessage::Of(fresh_cell));
  EXPECT_EQ(core.EvictOlderThan(500), 1u);
  EXPECT_FALSE(core.HasCell(1, user));
  EXPECT_TRUE(core.HasCell(1, other));
}

TEST(ServingCore, HybridModeSpillsToDiskAndStillServes) {
  const auto dir = std::filesystem::temp_directory_path() / "serving_core_hybrid_test";
  std::filesystem::remove_all(dir);
  ServingCore::Options options;
  options.kv.memory_budget_bytes = 4096;
  options.kv.spill_dir = dir.string();
  options.kv.num_shards = 2;
  ServingCore core(Plan(), 0, options);
  // Populate enough state to force spills.
  for (std::uint64_t u = 0; u < 200; ++u) {
    const auto user = MakeVertexId(0, u);
    const auto item = MakeVertexId(1, u);
    core.Apply(ServingMessage::Of(Cell(1, user, {item})));
    core.Apply(ServingMessage::Of(Cell(2, item, {MakeVertexId(1, 1000 + u)})));
    core.Apply(ServingMessage::Of(Feat(user, 1.f)));
    core.Apply(ServingMessage::Of(Feat(item, 2.f)));
  }
  const auto kv_stats = core.CacheStats();
  EXPECT_GT(kv_stats.spills, 0u);
  EXPECT_GT(kv_stats.disk_bytes, 0u);
  // All queries still assemble completely (leaf features may be absent —
  // we never pushed features for the 1000+ leaves).
  for (std::uint64_t u = 0; u < 200; ++u) {
    const auto result = ServeFresh(core, MakeVertexId(0, u));
    EXPECT_EQ(result.missing_cells, 0u) << u;
    EXPECT_EQ(result.layers[1].size(), 1u);
    EXPECT_EQ(result.layers[2].size(), 1u);
  }
  std::filesystem::remove_all(dir);
}

SampleDelta Delta(std::uint32_t level, graph::VertexId v, graph::VertexId added,
                  graph::Timestamp ts, std::uint16_t slot) {
  SampleDelta d;
  d.level = level;
  d.vertex = v;
  d.added = {added, ts, 1.0f};
  d.slot = slot;
  d.event_ts = ts;
  return d;
}

// Regression: SampleKey used to encode the level as the ASCII character
// '0' + level. The key must carry the raw level byte so every level stays
// a distinct key, while all sample keys still share the "s" scan prefix.
TEST(ServingCore, SampleKeyKeepsManyLevelsDistinct) {
  ServingCore core(Plan(), 0);
  const auto v = MakeVertexId(1, 7);
  for (std::uint32_t level = 1; level <= 30; ++level) {
    core.Apply(ServingMessage::Of(Cell(level, v, {MakeVertexId(1, 100 + level)})));
  }
  for (std::uint32_t level = 1; level <= 30; ++level) {
    EXPECT_TRUE(core.HasCell(level, v)) << level;
  }
  // Retracting one level leaves every other level's cell in place.
  core.Apply(ServingMessage::Of(Retract{17, v}));
  EXPECT_FALSE(core.HasCell(17, v));
  for (std::uint32_t level = 1; level <= 30; ++level) {
    if (level != 17) {
      EXPECT_TRUE(core.HasCell(level, v)) << level;
    }
  }
  // Prefix-scan contract: every sample cell lives under the "s" prefix.
  const auto dump = core.DumpCache();
  std::size_t sample_keys = 0;
  for (const auto& [key, value] : dump) sample_keys += !key.empty() && key[0] == 's';
  EXPECT_EQ(sample_keys, 29u);
}

// The in-place patch replays exactly the reservoir write a delta names:
// record `slot` is overwritten when the cell holds it, otherwise the record
// is appended while the cell is below the hop's fan-out. After every step
// the cached bytes must equal what a snapshot of the model cell writes.
TEST(ServingCore, DeltaPatchMatchesReferenceModel) {
  const auto plan = Plan(/*f1=*/3, /*f2=*/2);
  ServingCore core(plan, 0);
  const auto user = MakeVertexId(0, 1);
  const auto other = MakeVertexId(0, 2);
  auto item = [](std::uint64_t i) { return MakeVertexId(1, i); };

  // Reference model of the level-1 cells (fan-out 3), keyed by vertex.
  std::map<graph::VertexId, std::vector<graph::Edge>> model;
  auto model_apply = [&](graph::VertexId v, const graph::Edge& e, std::size_t slot) {
    auto& cell = model[v];
    if (slot < cell.size()) {
      cell[slot] = e;
    } else if (cell.size() < 3) {
      cell.push_back(e);
    }
  };
  auto apply = [&](SampleDelta d) {
    model_apply(d.vertex, d.added, d.slot);
    for (const auto& c : d.more) model_apply(d.vertex, c.added, c.slot);
    core.Apply(ServingMessage::Of(std::move(d)));
  };
  // The model cell's bytes, as the snapshot path encodes them.
  auto snapshot_bytes = [&](graph::VertexId v) {
    SampleUpdate su;
    su.level = 1;
    su.vertex = v;
    su.samples = model[v];
    for (const auto& e : su.samples) su.event_ts = std::max(su.event_ts, e.ts);
    ServingCore ref(plan, 0);
    ref.Apply(ServingMessage::Of(std::move(su)));
    return ref.DumpCache();
  };
  auto expect_matches_model = [&](const char* step) {
    std::map<std::string, std::string> want;
    for (const auto& [v, cell] : model) want.merge(snapshot_bytes(v));
    EXPECT_EQ(core.DumpCache(), want) << step;
  };

  SampleUpdate snapshot = Cell(1, user, {item(1), item(2)}, /*ts=*/10);
  model[user] = snapshot.samples;
  core.Apply(ServingMessage::Of(std::move(snapshot)));
  expect_matches_model("snapshot");

  apply(Delta(1, user, item(3), 11, /*slot=*/2));
  expect_matches_model("append up to the fan-out");
  apply(Delta(1, user, item(4), 12, /*slot=*/0));
  expect_matches_model("overwrite the named slot");
  apply(Delta(1, user, item(5), 13, /*slot=*/3));
  expect_matches_model("append past the fan-out is dropped");
  ASSERT_EQ(model[user].size(), 3u);

  // Duplicates (a replayed write) land on the slot they already filled.
  const auto before = core.DumpCache();
  apply(Delta(1, user, item(4), 12, /*slot=*/0));
  apply(Delta(1, user, item(3), 11, /*slot=*/2));
  EXPECT_EQ(core.DumpCache(), before) << "duplicated overwrite and append";
  expect_matches_model("duplicates");

  // A delta for a cell never snapshotted materializes it from empty, and a
  // duplicate of that append leaves it as it was.
  apply(Delta(1, other, item(42), 20, /*slot=*/0));
  expect_matches_model("absent cell");
  const auto with_other = core.DumpCache();
  apply(Delta(1, other, item(42), 20, /*slot=*/0));
  EXPECT_EQ(core.DumpCache(), with_other) << "duplicated append to a fresh cell";

  // A coalesced multi-change delta applies its folded changes in order,
  // including two writes to one slot (the later one wins).
  auto multi = Delta(1, user, item(7), 15, /*slot=*/1);
  multi.more.push_back({{item(8), 16, 0.5f}, 2, 16});
  multi.more.push_back({{item(9), 17, 0.25f}, 1, 17});
  apply(std::move(multi));
  expect_matches_model("coalesced changes");
  EXPECT_EQ(model[user][1].dst, item(9));
  EXPECT_EQ(core.metrics().TakeSnapshot().GaugeTotal("serving.latest_event_ts"), 20);
}

// Parameterized sweep over fan-outs: layer sizes track the plan.
class FanoutSweep : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(FanoutSweep, LayerSizesBoundedByFanouts) {
  const auto [f1, f2] = GetParam();
  ServingCore core(Plan(f1, f2), 0);
  const auto user = MakeVertexId(0, 1);
  std::vector<graph::VertexId> hop1;
  for (std::uint32_t i = 0; i < f1; ++i) hop1.push_back(MakeVertexId(1, i + 1));
  core.Apply(ServingMessage::Of(Cell(1, user, hop1)));
  for (std::uint32_t i = 0; i < f1; ++i) {
    std::vector<graph::VertexId> hop2;
    for (std::uint32_t j = 0; j < f2; ++j) hop2.push_back(MakeVertexId(1, 100 + i * f2 + j));
    core.Apply(ServingMessage::Of(Cell(2, hop1[i], hop2)));
  }
  const auto result = ServeFresh(core, user);
  EXPECT_EQ(result.layers[1].size(), f1);
  EXPECT_EQ(result.layers[2].size(), static_cast<std::size_t>(f1) * f2);
}

INSTANTIATE_TEST_SUITE_P(Fanouts, FanoutSweep,
                         ::testing::Values(std::make_tuple(1u, 1u), std::make_tuple(2u, 5u),
                                           std::make_tuple(25u, 10u)));

// ------------------------------------------------- zero-copy path parity

// Copying reference implementation of the K-hop assembly: string keys, one
// Get per cell, ByteReader decode into vectors — the pre-arena semantics.
// Feature lookups are deduplicated per query exactly like ServeInto's
// documented contract (each distinct vertex probed once).
SampledSubgraph ReferenceServe(const ServingCore& core, graph::VertexId seed) {
  const auto cache = core.DumpCache();
  const QueryPlan& plan = core.plan();
  auto sample_key = [](std::uint32_t level, graph::VertexId v) {
    std::string key("s");
    key.push_back(static_cast<char>(level));
    key.append(reinterpret_cast<const char*>(&v), sizeof(v));
    return key;
  };
  auto feature_key = [](graph::VertexId v) {
    std::string key("f");
    key.append(reinterpret_cast<const char*>(&v), sizeof(v));
    return key;
  };

  SampledSubgraph out;
  out.seed = seed;
  out.layers.resize(plan.num_hops() + 1);
  out.layers[0].push_back({seed, 0});
  for (std::size_t k = 0; k < plan.num_hops(); ++k) {
    const std::uint32_t level = plan.one_hop[k].hop;
    out.sample_lookups += out.layers[k].size();
    for (std::uint32_t i = 0; i < out.layers[k].size(); ++i) {
      const auto it = cache.find(sample_key(level, out.layers[k][i].vertex));
      if (it == cache.end()) {
        out.missing_cells++;
        continue;
      }
      graph::ByteReader r(it->second);
      (void)r.GetI64();
      const std::uint32_t n = r.GetU32();
      std::vector<SampledSubgraph::Node> children;
      for (std::uint32_t c = 0; r.ok() && c < n; ++c) {
        const graph::VertexId dst = r.GetU64();
        (void)r.GetI64();
        (void)r.GetF32();
        if (r.ok()) children.push_back({dst, i});
      }
      if (!r.ok()) {
        out.missing_cells++;
        continue;
      }
      out.layers[k + 1].insert(out.layers[k + 1].end(), children.begin(), children.end());
    }
  }
  std::vector<graph::VertexId> vertices;
  for (const auto& layer : out.layers) {
    for (const auto& node : layer) vertices.push_back(node.vertex);
  }
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()), vertices.end());
  out.feature_lookups += vertices.size();
  for (const graph::VertexId v : vertices) {
    const auto it = cache.find(feature_key(v));
    if (it == cache.end()) {
      out.missing_features++;
      continue;
    }
    graph::ByteReader r(it->second);
    out.features.Set(v, r.GetFloats());
  }
  return out;
}

void ExpectSameResult(const SampledSubgraph& got, const SampledSubgraph& want) {
  EXPECT_EQ(got.seed, want.seed);
  ASSERT_EQ(got.layers.size(), want.layers.size());
  for (std::size_t k = 0; k < want.layers.size(); ++k) {
    ASSERT_EQ(got.layers[k].size(), want.layers[k].size()) << "layer " << k;
    for (std::size_t i = 0; i < want.layers[k].size(); ++i) {
      EXPECT_EQ(got.layers[k][i].vertex, want.layers[k][i].vertex) << k << "/" << i;
      EXPECT_EQ(got.layers[k][i].parent, want.layers[k][i].parent) << k << "/" << i;
    }
  }
  EXPECT_EQ(got.sample_lookups, want.sample_lookups);
  EXPECT_EQ(got.feature_lookups, want.feature_lookups);
  EXPECT_EQ(got.missing_cells, want.missing_cells);
  EXPECT_EQ(got.missing_features, want.missing_features);
  ASSERT_EQ(got.features.size(), want.features.size());
  want.features.ForEach([&](graph::VertexId v, std::span<const float> f) {
    ASSERT_TRUE(got.features.Contains(v)) << v;
    const auto g = got.features.Find(v);
    ASSERT_EQ(g.size(), f.size()) << v;
    for (std::size_t j = 0; j < f.size(); ++j) EXPECT_EQ(g[j], f[j]) << v << "/" << j;
  });
}

// Golden parity: the arena-backed batched read path must produce the exact
// result of the copying reference across randomized workloads — including
// partial caches (missing cells/features) and duplicate vertices across
// layers (dedup semantics) — and must keep producing it when `out` and
// `scratch` are reused across queries.
TEST(ServingCore, ServeMatchesCopyingReferenceOnRandomWorkloads) {
  util::Rng rng(20240806);
  for (int round = 0; round < 8; ++round) {
    const std::uint32_t f1 = 1 + static_cast<std::uint32_t>(rng.Uniform(5));
    const std::uint32_t f2 = 1 + static_cast<std::uint32_t>(rng.Uniform(5));
    ServingCore core(Plan(f1, f2), 0);
    const std::uint64_t universe = 12;  // small: forces collisions/dups
    for (std::uint64_t u = 0; u < universe; ++u) {
      const auto user = MakeVertexId(0, u);
      if (rng.Bernoulli(0.8)) {
        std::vector<graph::VertexId> hop1;
        for (std::uint32_t i = 0; i < f1; ++i) {
          hop1.push_back(MakeVertexId(1, rng.Uniform(universe)));
        }
        core.Apply(ServingMessage::Of(Cell(1, user, hop1, /*ts=*/1 + u)));
      }
      const auto item = MakeVertexId(1, u);
      if (rng.Bernoulli(0.8)) {
        std::vector<graph::VertexId> hop2;
        for (std::uint32_t j = 0; j < f2; ++j) {
          hop2.push_back(MakeVertexId(1, rng.Uniform(universe)));
        }
        core.Apply(ServingMessage::Of(Cell(2, item, hop2, /*ts=*/1 + u)));
      }
      if (rng.Bernoulli(0.6)) core.Apply(ServingMessage::Of(Feat(user, static_cast<float>(u))));
      if (rng.Bernoulli(0.6)) {
        core.Apply(ServingMessage::Of(Feat(item, static_cast<float>(u) + 0.5f)));
      }
    }
    SampledSubgraph reused;
    ServeScratch scratch;
    for (std::uint64_t u = 0; u < universe; ++u) {
      const auto seed = MakeVertexId(0, u);
      const auto want = ReferenceServe(core, seed);
      ExpectSameResult(ServeFresh(core, seed), want);
      core.ServeInto(seed, reused, scratch);
      ExpectSameResult(reused, want);
    }
  }
}

// Satellite: the in-place record scan of EvictOlderThan must evict exactly
// the cells the decode-based reference would.
TEST(ServingCore, EvictionMatchesDecodeReference) {
  util::Rng rng(77);
  ServingCore core(Plan(3, 2), 0);
  struct Expect {
    std::uint32_t level;
    graph::VertexId v;
    graph::Timestamp newest;
  };
  std::vector<Expect> cells;
  for (std::uint64_t u = 0; u < 64; ++u) {
    const std::uint32_t level = 1 + static_cast<std::uint32_t>(rng.Uniform(2));
    const auto v = MakeVertexId(level == 1 ? 0 : 1, u);
    SampleUpdate su;
    su.level = level;
    su.vertex = v;
    su.event_ts = 1;
    graph::Timestamp newest = 0;
    const std::size_t n = 1 + rng.Uniform(4);
    for (std::size_t i = 0; i < n; ++i) {
      const graph::Timestamp ts = static_cast<graph::Timestamp>(rng.Uniform(1000));
      su.samples.push_back({MakeVertexId(1, 500 + i), ts, 1.0f});
      newest = std::max(newest, ts);
    }
    core.Apply(ServingMessage::Of(su));
    cells.push_back({level, v, newest});
  }
  const graph::Timestamp cutoff = 500;
  std::size_t expected_evicted = 0;
  for (const auto& c : cells) expected_evicted += c.newest < cutoff;
  EXPECT_EQ(core.EvictOlderThan(cutoff), expected_evicted);
  for (const auto& c : cells) {
    EXPECT_EQ(core.HasCell(c.level, c.v), c.newest >= cutoff) << c.v;
  }
}

// ----------------------------------------------------------- FeatureTable

TEST(FeatureTable, SetFindEraseAndRehash) {
  FeatureTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(table.Find(7).empty());
  // Enough entries to force several growth/rehash rounds.
  for (graph::VertexId v = 0; v < 200; ++v) {
    const float x = static_cast<float>(v);
    const float data[3] = {x, x + 1, x + 2};
    table.Set(v, data, 3);
  }
  EXPECT_EQ(table.size(), 200u);
  for (graph::VertexId v = 0; v < 200; ++v) {
    const auto f = table.Find(v);
    ASSERT_EQ(f.size(), 3u) << v;
    EXPECT_EQ(f[0], static_cast<float>(v));
  }
  // Overwrite shrinks in place; grow re-appends.
  const float one[1] = {9.f};
  table.Set(5, one, 1);
  EXPECT_EQ(table.Find(5).size(), 1u);
  EXPECT_EQ(table.Find(5)[0], 9.f);
  const float four[4] = {1, 2, 3, 4};
  table.Set(5, four, 4);
  ASSERT_EQ(table.Find(5).size(), 4u);
  EXPECT_EQ(table.Find(5)[3], 4.f);
  EXPECT_EQ(table.size(), 200u);

  table.Erase(5);
  EXPECT_FALSE(table.Contains(5));
  EXPECT_EQ(table.size(), 199u);
  // Tombstone reuse: re-inserting the erased key must not lose others.
  table.Set(5, four, 4);
  EXPECT_EQ(table.size(), 200u);
  for (graph::VertexId v = 0; v < 200; ++v) EXPECT_TRUE(table.Contains(v)) << v;

  table.Clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.arena_floats(), 0u);
  EXPECT_FALSE(table.Contains(3));
}

TEST(FeatureTable, EmptyFeatureIsStoredButEmpty) {
  FeatureTable table;
  table.Set(11, nullptr, 0);
  EXPECT_TRUE(table.Contains(11));
  EXPECT_TRUE(table.Find(11).empty());
  EXPECT_EQ(table.size(), 1u);
}

TEST(FeatureTable, InsertDeduplicatesAndClearRestamps) {
  FeatureTable table;
  EXPECT_TRUE(table.Insert(7));   // first sight
  EXPECT_FALSE(table.Insert(7));  // duplicate
  EXPECT_TRUE(table.Contains(7));
  EXPECT_TRUE(table.Find(7).empty());  // inserted, no feature bytes yet
  float* dst = table.Allocate(7, 2);
  dst[0] = 1.f;
  dst[1] = 2.f;
  ASSERT_EQ(table.Find(7).size(), 2u);
  EXPECT_EQ(table.Find(7)[1], 2.f);
  // O(1) Clear is a generation bump: old slots must read as absent and
  // re-inserting after Clear must behave like a fresh table.
  table.Clear();
  EXPECT_FALSE(table.Contains(7));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.Insert(7));
  EXPECT_EQ(table.size(), 1u);
}

// ------------------------------------------------------ fused dedup

// Property test for the fused-dedup serve path: across randomized
// fan-outs, duplicate-heavy frontiers (tiny vertex universe so the same
// child repeats across parents and layers) and truncated cells planted via
// PutRawCell, the fused path must reproduce the copying sort+unique
// reference exactly — same BFS layers, same unique feature set, same
// lookup/miss counters. (The serve path has one kernel level, so "all
// dispatch levels" is that one.)
TEST(ServingCore, FusedDedupMatchesReferenceUnderAllDispatchLevels) {
  util::Rng rng(20260808);
  for (int round = 0; round < 6; ++round) {
    const std::uint32_t f1 = 1 + static_cast<std::uint32_t>(rng.Uniform(6));
    const std::uint32_t f2 = 1 + static_cast<std::uint32_t>(rng.Uniform(6));
    ServingCore core(Plan(f1, f2), 0);
    const std::uint64_t universe = 5;  // tiny: duplicate-heavy frontiers
    for (std::uint64_t u = 0; u < universe; ++u) {
      const auto user = MakeVertexId(0, u);
      std::vector<graph::VertexId> hop1;
      for (std::uint32_t i = 0; i < f1; ++i) {
        hop1.push_back(MakeVertexId(1, rng.Uniform(universe)));
      }
      core.Apply(ServingMessage::Of(Cell(1, user, hop1, /*ts=*/1 + u)));
      const auto item = MakeVertexId(1, u);
      std::vector<graph::VertexId> hop2;
      for (std::uint32_t j = 0; j < f2; ++j) {
        hop2.push_back(MakeVertexId(1, rng.Uniform(universe)));
      }
      core.Apply(ServingMessage::Of(Cell(2, item, hop2, /*ts=*/1 + u)));
      if (rng.Bernoulli(0.7)) core.Apply(ServingMessage::Of(Feat(user, static_cast<float>(u))));
      if (rng.Bernoulli(0.7)) {
        core.Apply(ServingMessage::Of(Feat(item, static_cast<float>(u) + 0.5f)));
      }
    }
    // Plant truncated cells: a valid encoding cut mid-record. Both paths
    // must treat them as missing (and the fused path counts them bad).
    std::uint64_t planted_bad = 0;
    for (std::uint64_t u = 0; u < universe; ++u) {
      if (!rng.Bernoulli(0.4)) continue;
      SampleUpdate su = Cell(2, MakeVertexId(1, u), {MakeVertexId(1, 0), MakeVertexId(1, 1)});
      graph::ByteWriter w;
      w.PutI64(su.event_ts);
      w.PutU32(static_cast<std::uint32_t>(su.samples.size()));
      for (const auto& e : su.samples) {
        w.PutU64(e.dst);
        w.PutI64(e.ts);
        w.PutF32(e.weight);
      }
      std::string raw = w.Take();
      raw.resize(raw.size() - 1 - rng.Uniform(20));  // cut inside a record
      core.PutRawCell(2, MakeVertexId(1, u), raw);
      ++planted_bad;
    }
    SampledSubgraph reused;
    ServeScratch scratch;
    bool saw_bad = false;
    for (std::uint64_t u = 0; u < universe; ++u) {
      const auto seed = MakeVertexId(0, u);
      const auto want = ReferenceServe(core, seed);
      core.ServeInto(seed, reused, scratch);
      ExpectSameResult(reused, want);
      saw_bad = saw_bad || reused.bad_cells > 0;
    }
    if (planted_bad > 0) {
      EXPECT_TRUE(saw_bad) << "planted truncated cells never surfaced";
    }
  }
}

// --------------------------------------------- quantized feature storage

// fp16/int8 caches serve features within the documented error bounds:
// fp16 |err| <= max(|x| * 2^-11, 2^-24); int8 |err| <= scale/2 with
// scale = maxabs/127 per vertex. fp32 stays exact.
TEST(ServingCore, QuantizedFeaturesServeWithinErrorBounds) {
  for (const auto format :
       {FeatureFormat::kFp32, FeatureFormat::kFp16, FeatureFormat::kInt8}) {
    ServingCore::Options options;
    options.feature_format = format;
    ServingCore core(Plan(2, 2), 0, options);
    const auto user = MakeVertexId(0, 1);
    const auto i1 = MakeVertexId(1, 1), i2 = MakeVertexId(1, 2);
    core.Apply(ServingMessage::Of(Cell(1, user, {i1, i2})));
    std::vector<std::pair<graph::VertexId, graph::Feature>> truth = {
        {user, {0.f, 1.f, -1.f, 0.125f}},
        {i1, {3.14159f, -271.8f, 1e-4f, 42.5f}},
        {i2, {-0.333f, 0.666f, 127.f, -128.f}},
    };
    for (const auto& [v, f] : truth) {
      FeatureUpdate fu;
      fu.vertex = v;
      fu.feature = f;
      core.Apply(ServingMessage::Of(fu));
    }
    const auto out = ServeFresh(core, user);
    for (const auto& [v, f] : truth) {
      const auto got = out.features.Find(v);
      ASSERT_EQ(got.size(), f.size()) << FeatureFormatName(format) << " v=" << v;
      float maxabs = 0.f;
      for (const float x : f) maxabs = std::max(maxabs, std::abs(x));
      for (std::size_t j = 0; j < f.size(); ++j) {
        const double err = std::abs(static_cast<double>(f[j]) - got[j]);
        double bound = 0.0;
        switch (format) {
          case FeatureFormat::kFp32:
            bound = 0.0;
            break;
          case FeatureFormat::kFp16:
            bound = std::max(std::abs(static_cast<double>(f[j])) * 0x1p-11, 0x1p-24);
            break;
          case FeatureFormat::kInt8:
            bound = (static_cast<double>(maxabs) / 127.0) / 2.0;
            break;
        }
        EXPECT_LE(err, bound) << FeatureFormatName(format) << " v=" << v << " j=" << j;
      }
    }
  }
}

// The fp32 wire format must stay byte-identical to the legacy encoding
// (PutFloats): crash-replay and cross-version caches depend on it.
TEST(ServingCore, Fp32EncodingMatchesLegacyBytes) {
  const graph::Feature f = {1.5f, -2.25f, 0.f, 3e7f};
  graph::ByteWriter legacy;
  legacy.PutFloats(f);
  EXPECT_EQ(EncodeFeatureValue(f, FeatureFormat::kFp32), legacy.Take());
  // And every format round-trips through the self-describing decoder.
  for (const auto format :
       {FeatureFormat::kFp32, FeatureFormat::kFp16, FeatureFormat::kInt8}) {
    const auto back = DecodeFeatureValue(EncodeFeatureValue(f, format));
    ASSERT_EQ(back.size(), f.size()) << FeatureFormatName(format);
  }
  // Malformed values decode as empty, not UB.
  EXPECT_TRUE(DecodeFeatureValue("").empty());
  EXPECT_TRUE(DecodeFeatureValue("ab").empty());
}

// ------------------------------------------------- bad-cell accounting

// A present-but-truncated cell must not be silently clamped to fewer
// records: it is treated as missing AND counted in serving.bad_cells (the
// old CellRecordCount clamp hid corruption entirely).
TEST(ServingCore, TruncatedCellsCountedNotSilentlyClamped) {
  ServingCore core(Plan(2, 2), 0);
  const auto user = MakeVertexId(0, 1);
  const auto i1 = MakeVertexId(1, 1), i2 = MakeVertexId(1, 2);
  core.Apply(ServingMessage::Of(Cell(1, user, {i1, i2})));
  core.Apply(ServingMessage::Of(Cell(2, i2, {MakeVertexId(1, 9)})));

  // Claim 2 records but provide bytes for only one: the old code clamped
  // to 1 record and served it as if nothing were wrong.
  graph::ByteWriter w;
  w.PutI64(1);
  w.PutU32(2);
  w.PutU64(MakeVertexId(1, 9));
  w.PutI64(1);
  w.PutF32(1.0f);
  core.PutRawCell(2, i1, w.Take());

  const auto out = ServeFresh(core, user);
  EXPECT_EQ(out.bad_cells, 1u);
  EXPECT_EQ(out.missing_cells, 1u);           // bad ⇒ also missing
  EXPECT_EQ(out.layers[2].size(), 1u);        // only i2's intact cell expands
  const auto bad_cells = [&] {
    return core.metrics().TakeSnapshot().CounterTotal("serving.bad_cells");
  };
  EXPECT_EQ(bad_cells(), 1u);                 // exported counter advanced
  ServeFresh(core, user);
  EXPECT_EQ(bad_cells(), 2u);                 // counts per occurrence
}

// ---------------------------------------------------------------------------
// Computation-reuse tier: the hop-1 aggregate cache and the cache-assisted
// serve path (docs/PERF.md "Computation reuse & admission").

bool BitEqual(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i])) return false;
  }
  return true;
}

TEST(AggregateCache, PutLookupVersioningAndInvalidate) {
  AggregateCache cache(8);
  ASSERT_TRUE(cache.enabled());
  const float v[4] = {1.5f, -0.0f, 3.25f, 42.f};
  cache.Put(10, 111, 4, /*now=*/1000, v);
  EXPECT_EQ(cache.size(), 1u);

  float out[4] = {};
  bool stale = false;
  ASSERT_TRUE(cache.Lookup(10, 111, 4, 1500, /*bound=*/1000, out, &stale));
  EXPECT_TRUE(BitEqual(out, v));  // bit-exact roundtrip, -0.0f included

  // Version namespaces entries per model: a different version misses clean.
  stale = false;
  EXPECT_FALSE(cache.Lookup(10, 222, 4, 1500, 1000, out, &stale));
  EXPECT_FALSE(stale);
  // Both versions coexist.
  const float w[4] = {9.f, 9.f, 9.f, 9.f};
  cache.Put(10, 222, 4, 1000, w);
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.Lookup(10, 222, 4, 1500, 1000, out, &stale));
  EXPECT_TRUE(BitEqual(out, w));

  // Invalidate drops every version of the vertex in one call.
  cache.Invalidate(10);
  EXPECT_FALSE(cache.Lookup(10, 111, 4, 1500, -1, out, &stale));
  EXPECT_FALSE(cache.Lookup(10, 222, 4, 1500, -1, out, &stale));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(AggregateCache, StalenessBoundSemantics) {
  AggregateCache cache(8);
  const float v[2] = {1.f, 2.f};
  cache.Put(5, 1, 2, /*now=*/1000, v);
  float out[2] = {};
  bool stale = false;

  // Fresh iff now - stamp < bound, strictly: age 999 passes, age 1000 not.
  EXPECT_TRUE(cache.Lookup(5, 1, 2, 1999, 1000, out, &stale));
  EXPECT_FALSE(cache.Lookup(5, 1, 2, 2000, 1000, out, &stale));
  EXPECT_TRUE(stale);  // aged entries report stale, not a clean miss

  // Bound 0: never fresh — the parity-test mode recomputes every probe.
  stale = false;
  EXPECT_FALSE(cache.Lookup(5, 1, 2, 1000, 0, out, &stale));
  EXPECT_TRUE(stale);

  // Bound < 0: no age bound at all.
  EXPECT_TRUE(cache.Lookup(5, 1, 2, 1'000'000'000, -1, out, &stale));

  // A stale entry stays in place; the recompute's Put overwrites in place.
  const float w[2] = {7.f, 8.f};
  cache.Put(5, 1, 2, 5000, w);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.Lookup(5, 1, 2, 5500, 1000, out, &stale));
  EXPECT_TRUE(BitEqual(out, w));
}

TEST(AggregateCache, CapacityPressureFlushesWholeEpochs) {
  AggregateCache cache(4);
  const float v[2] = {1.f, 2.f};
  for (graph::VertexId i = 0; i < 64; ++i) cache.Put(i, 1, 2, 0, v);
  // Capacity pressure retires whole populations (O(1) epoch flush), never
  // grows past the configured bound.
  EXPECT_GT(cache.epoch_flushes(), 0u);
  EXPECT_LE(cache.size(), 4u);
  // Clear() is also O(1) and observable.
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  float out[2];
  bool stale = false;
  EXPECT_FALSE(cache.Lookup(63, 1, 2, 0, -1, out, &stale));
}

// A slot claimed after an epoch flush must get a fresh arena row: reusing
// the stale offset would let two vertices share one aggregate.
TEST(AggregateCache, SlotClaimedAfterClearGetsItsOwnRow) {
  AggregateCache cache(8);
  const float a1[2] = {1.f, 1.f}, b1[2] = {2.f, 2.f};
  const float a2[2] = {3.f, 3.f}, c1[2] = {4.f, 4.f};
  cache.Put(1, 1, 2, 0, a1);
  cache.Put(2, 1, 2, 0, b1);
  cache.Clear();
  cache.Put(1, 1, 2, 0, a2);
  cache.Put(3, 1, 2, 0, c1);
  float out[2] = {};
  bool stale = false;
  ASSERT_TRUE(cache.Lookup(1, 1, 2, 0, -1, out, &stale));
  EXPECT_TRUE(BitEqual(out, a2));
  ASSERT_TRUE(cache.Lookup(3, 1, 2, 0, -1, out, &stale));
  EXPECT_TRUE(BitEqual(out, c1));
  EXPECT_FALSE(cache.Lookup(2, 1, 2, 0, -1, out, &stale));
}

// Builds the small two-hop graph every cache test below uses:
//   user -> {i1, i2};  i1 -> {j1, j2};  i2 -> {j2}
struct CacheGraph {
  graph::VertexId user = MakeVertexId(0, 1);
  graph::VertexId i1 = MakeVertexId(1, 1), i2 = MakeVertexId(1, 2);
  graph::VertexId j1 = MakeVertexId(1, 11), j2 = MakeVertexId(1, 12);
  void Populate(ServingCore& core, graph::Timestamp hop2_ts = 1) const {
    core.Apply(ServingMessage::Of(Cell(1, user, {i1, i2}, 100)));
    core.Apply(ServingMessage::Of(Cell(2, i1, {j1, j2}, hop2_ts)));
    core.Apply(ServingMessage::Of(Cell(2, i2, {j2}, 100)));
    for (auto v : {user, i1, i2, j1, j2}) {
      core.Apply(ServingMessage::Of(Feat(v, static_cast<float>(v % 100))));
    }
  }
};

TEST(ServingCore, AggregateServeWarmsThenHitsBitIdentically) {
  ServingCore::Options opt;
  opt.aggregate_cache_entries = 64;
  ServingCore core(Plan(), 0, opt);
  CacheGraph g;
  g.Populate(core);

  AggregateServeResult cold, warm;
  ServeScratch scratch;
  ASSERT_TRUE(core.ServeAggregatesInto(g.user, 4, 1, cold, scratch));
  EXPECT_EQ(cold.cache_misses, 2u);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.stale_recomputes, 0u);
  ASSERT_EQ(cold.children.size(), 2u);
  ASSERT_EQ(cold.aggs.size(), 8u);

  // The recomputed rows are the plain mean of the children's sampled
  // features: i1 -> mean(f(j1), f(j2)), i2 -> f(j2).
  const float f1 = static_cast<float>(g.j1 % 100), f2 = static_cast<float>(g.j2 % 100);
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(cold.aggs[0 * 4 + d], ((f1 + d) + (f2 + d)) / 2.f);
    EXPECT_EQ(cold.aggs[1 * 4 + d], f2 + d);
  }

  // Second serve: all hits, rows replayed bit-identically, no hop-2 work.
  ASSERT_TRUE(core.ServeAggregatesInto(g.user, 4, 1, warm, scratch));
  EXPECT_EQ(warm.cache_hits, 2u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.sample_lookups, 1u);  // just the seed cell
  EXPECT_TRUE(BitEqual(warm.aggs, cold.aggs));

  // The registry counters mirror the per-query tallies.
  const auto snap = core.metrics().TakeSnapshot();
  EXPECT_EQ(snap.CounterTotal("serving.cache.hits"), 2u);
  EXPECT_EQ(snap.CounterTotal("serving.cache.misses"), 2u);
}

TEST(ServingCore, ApplyInvalidatesTouchedAggregates) {
  ServingCore::Options opt;
  opt.aggregate_cache_entries = 64;
  ServingCore core(Plan(), 0, opt);
  CacheGraph g;
  g.Populate(core);

  AggregateServeResult r;
  ServeScratch scratch;
  ASSERT_TRUE(core.ServeAggregatesInto(g.user, 4, 1, r, scratch));  // warm

  // Overwrite i1's hop-2 cell: the dissemination path must invalidate i1's
  // cached aggregate while i2's stays hot.
  core.Apply(ServingMessage::Of(Cell(2, g.i1, {g.j1}, 200)));
  ASSERT_TRUE(core.ServeAggregatesInto(g.user, 4, 1, r, scratch));
  EXPECT_EQ(r.cache_hits, 1u);    // i2
  EXPECT_EQ(r.cache_misses, 1u);  // i1 recomputed from the new cell
  const float f1 = static_cast<float>(g.j1 % 100);
  for (int d = 0; d < 4; ++d) EXPECT_EQ(r.aggs[0 * 4 + d], f1 + d);
}

// Regression (satellite fix): EvictOlderThan used to drop a hop-2 cell but
// leave its aggregate cached, so the reuse tier kept serving neighbour
// state the TTL had already retired — forever, since no future Apply would
// touch the evicted vertex.
TEST(ServingCore, EvictOlderThanInvalidatesCachedAggregates) {
  ServingCore::Options opt;
  opt.aggregate_cache_entries = 64;
  ServingCore core(Plan(), 0, opt);
  CacheGraph g;
  g.Populate(core, /*hop2_ts=*/1);  // i1's hop-2 cell is old; the rest ts=100

  AggregateServeResult before, after;
  ServeScratch scratch;
  ASSERT_TRUE(core.ServeAggregatesInto(g.user, 4, 1, before, scratch));
  EXPECT_EQ(before.cache_misses, 2u);

  EXPECT_EQ(core.EvictOlderThan(50), 1u);  // retires only i1's cell

  ASSERT_TRUE(core.ServeAggregatesInto(g.user, 4, 1, after, scratch));
  // i1 must MISS (its aggregate was invalidated with the cell) and
  // recompute against the now-absent cell: zeros + a missing-cell count —
  // the same answer the uncached path would give — not the stale mean.
  EXPECT_EQ(after.cache_misses, 1u);
  EXPECT_EQ(after.cache_hits, 1u);
  EXPECT_EQ(after.missing_cells, 1u);
  for (int d = 0; d < 4; ++d) EXPECT_EQ(after.aggs[0 * 4 + d], 0.f);
  EXPECT_FALSE(BitEqual(std::span(after.aggs).first(4), std::span(before.aggs).first(4)));
}

TEST(ServingCore, AggregateServeRefusesWhenTierCannotServe) {
  AggregateServeResult r;
  ServeScratch scratch;
  // Cache disabled (default options): refuse, callers fall back.
  ServingCore off(Plan(), 0);
  EXPECT_FALSE(off.ServeAggregatesInto(MakeVertexId(0, 1), 4, 1, r, scratch));

  // Enabled but dim == 0: refuse.
  ServingCore::Options opt;
  opt.aggregate_cache_entries = 16;
  ServingCore on(Plan(), 0, opt);
  EXPECT_FALSE(on.ServeAggregatesInto(MakeVertexId(0, 1), 0, 1, r, scratch));

  // Not a two-hop plan: refuse.
  SamplingQuery q;
  q.seed_type = 0;
  q.hops = {{0, 2, Strategy::kTopK}};
  ServingCore one_hop(Decompose(q, Schema()).value(), 0, opt);
  EXPECT_FALSE(one_hop.ServeAggregatesInto(MakeVertexId(0, 1), 4, 1, r, scratch));
}

TEST(ServingCore, StalenessBoundForcesRecomputeOnAgedEntries) {
  // Hand-advanced clock so the test controls "now" for the staleness check.
  obs::ManualClock clock;
  ServingCore::Options opt;
  opt.aggregate_cache_entries = 64;
  opt.aggregate_staleness_us = 100;
  opt.freshness_clock = &clock;
  ServingCore core(Plan(), 0, opt);
  CacheGraph g;
  g.Populate(core);

  AggregateServeResult r;
  ServeScratch scratch;
  ASSERT_TRUE(core.ServeAggregatesInto(g.user, 4, 1, r, scratch));  // warm at t=0
  clock.Set(50);
  ASSERT_TRUE(core.ServeAggregatesInto(g.user, 4, 1, r, scratch));
  EXPECT_EQ(r.cache_hits, 2u);  // within the bound
  clock.Set(150);
  ASSERT_TRUE(core.ServeAggregatesInto(g.user, 4, 1, r, scratch));
  EXPECT_EQ(r.cache_hits, 0u);
  EXPECT_EQ(r.stale_recomputes, 2u);  // aged out: recompute, not clean miss
  // The recompute re-stamped the entries: hot again at t=200.
  clock.Set(200);
  ASSERT_TRUE(core.ServeAggregatesInto(g.user, 4, 1, r, scratch));
  EXPECT_EQ(r.cache_hits, 2u);
  const auto snap = core.metrics().TakeSnapshot();
  EXPECT_EQ(snap.CounterTotal("serving.cache.stale_recompute"), 2u);
}

// Both serve paths' per-query tallies and serving.* counter deltas, against
// hand-computed values on one graph with a truncated hop-2 cell, a missing
// child feature and a missing grandchild feature:
//   user -> {i1, i2};  i1 -> <truncated>;  i2 -> {j1, j2};  no f(i1), f(j2)
TEST(ServingCore, BothServePathsCountMissesBadCellsAndLookups) {
  ServingCore::Options opt;
  opt.aggregate_cache_entries = 64;
  ServingCore core(Plan(), 0, opt);
  const auto user = MakeVertexId(0, 1);
  const auto i1 = MakeVertexId(1, 1), i2 = MakeVertexId(1, 2);
  const auto j1 = MakeVertexId(1, 11), j2 = MakeVertexId(1, 12);
  core.Apply(ServingMessage::Of(Cell(1, user, {i1, i2})));
  core.Apply(ServingMessage::Of(Cell(2, i2, {j1, j2})));
  graph::ByteWriter w;  // claims 2 records, holds none
  w.PutI64(1);
  w.PutU32(2);
  core.PutRawCell(2, i1, w.Take());
  for (auto v : {user, i2, j1}) core.Apply(ServingMessage::Of(Feat(v, 1.f)));

  struct Counters {
    std::uint64_t queries, miss_cells, miss_features, bad;
  };
  auto counters = [&] {
    const auto snap = core.metrics().TakeSnapshot();
    return Counters{snap.CounterTotal("serving.queries_served"),
                    snap.CounterTotal("serving.cache_miss_cells"),
                    snap.CounterTotal("serving.cache_miss_features"),
                    snap.CounterTotal("serving.bad_cells")};
  };
  auto expect_delta = [&](const Counters& before, std::uint64_t miss_cells,
                          std::uint64_t miss_features, std::uint64_t bad) {
    const Counters after = counters();
    EXPECT_EQ(after.queries - before.queries, 1u);
    EXPECT_EQ(after.miss_cells - before.miss_cells, miss_cells);
    EXPECT_EQ(after.miss_features - before.miss_features, miss_features);
    EXPECT_EQ(after.bad - before.bad, bad);
  };
  ServeScratch scratch;

  // Plain serve: cells of user, i1, i2; features of the 5 distinct vertices.
  Counters before = counters();
  SampledSubgraph sub;
  core.ServeInto(user, sub, scratch);
  EXPECT_EQ(sub.sample_lookups, 3u);
  EXPECT_EQ(sub.feature_lookups, 5u);
  EXPECT_EQ(sub.missing_cells, 1u);     // i1's truncated cell
  EXPECT_EQ(sub.bad_cells, 1u);
  EXPECT_EQ(sub.missing_features, 2u);  // i1, j2
  EXPECT_EQ(sub.TotalNodes(), 5u);      // user + {i1, i2} + {j1, j2}
  expect_delta(before, 1, 2, 1);

  // Cold cache-assisted serve: both children miss, so it reads the same
  // cells; grandchild features {j1, j2}, then user + children.
  before = counters();
  AggregateServeResult agg;
  ASSERT_TRUE(core.ServeAggregatesInto(user, 4, 1, agg, scratch));
  EXPECT_EQ(agg.cache_misses, 2u);
  EXPECT_EQ(agg.sample_lookups, 3u);
  EXPECT_EQ(agg.feature_lookups, 5u);
  EXPECT_EQ(agg.missing_cells, 1u);
  EXPECT_EQ(agg.bad_cells, 1u);
  EXPECT_EQ(agg.missing_features, 2u);  // j2, i1
  EXPECT_EQ(agg.nodes_touched, 5u);
  expect_delta(before, 1, 2, 1);

  // Warm: both aggregates hit, so only the seed cell and the features of
  // user + children are read.
  before = counters();
  ASSERT_TRUE(core.ServeAggregatesInto(user, 4, 1, agg, scratch));
  EXPECT_EQ(agg.cache_hits, 2u);
  EXPECT_EQ(agg.sample_lookups, 1u);
  EXPECT_EQ(agg.feature_lookups, 3u);
  EXPECT_EQ(agg.missing_cells, 0u);
  EXPECT_EQ(agg.bad_cells, 0u);
  EXPECT_EQ(agg.missing_features, 1u);  // i1
  EXPECT_EQ(agg.nodes_touched, 3u);
  expect_delta(before, 0, 1, 0);
}

}  // namespace
}  // namespace helios
