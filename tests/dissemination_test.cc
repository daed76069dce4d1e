// End-to-end determinism of the batched dissemination path (§7.2): a
// serving-bound message stream recorded from real sampling shards, when
// shipped through ServingBatch frames — coalesced, arena-encoded, decoded
// by ServingBatchReader — must leave the serving cache byte-identical to
// the seed path that applies every message individually. Covers every
// flush-window size class (per-message, small, large).
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "gen/datasets.h"
#include "helios/sampling_core.h"
#include "helios/serving_core.h"
#include "util/rng.h"

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

QueryPlan TwoHopPlan() {
  SamplingQuery q;
  q.id = "diss";
  q.seed_type = 0;
  q.hops = {{0, 3, Strategy::kRandom}, {1, 2, Strategy::kRandom}};
  return Decompose(q, TwoHopSchema()).value();
}

// A dense random stream over a deliberately tiny vertex universe so the
// same (level, vertex) cells refresh over and over — the coalescing-heavy
// regime of §7.2.
std::vector<graph::GraphUpdate> RandomUpdates(std::size_t n, util::Rng& rng) {
  std::vector<graph::GraphUpdate> updates;
  updates.reserve(n);
  graph::Timestamp ts = 1;
  for (std::size_t i = 0; i < n; ++i, ++ts) {
    const std::uint64_t roll = rng.Uniform(10);
    if (roll == 0) {
      const graph::VertexTypeId type = rng.Uniform(2) == 0 ? 0 : 1;
      const auto id = MakeVertexId(type, rng.Uniform(12));
      const float base = static_cast<float>(rng.Uniform(100));
      updates.push_back(graph::VertexUpdate{type, id, ts, {base, base + 1, base + 2, base + 3}});
    } else if (roll < 6) {
      updates.push_back(graph::EdgeUpdate{0, MakeVertexId(0, rng.Uniform(12)),
                                          MakeVertexId(1, rng.Uniform(16)), ts,
                                          static_cast<float>(rng.Uniform(8)) * 0.5f});
    } else {
      updates.push_back(graph::EdgeUpdate{1, MakeVertexId(1, rng.Uniform(16)),
                                          MakeVertexId(1, rng.Uniform(16)), ts,
                                          static_cast<float>(rng.Uniform(8)) * 0.5f});
    }
  }
  return updates;
}

// Runs the updates through a sampling mesh (pumping cross-shard
// subscription deltas to quiescence after every event) and records the
// serving-bound stream per destination worker, in delivery order. A final
// TTL prune adds retract/refresh traffic so the recorded stream exercises
// the coalescing fences too.
std::map<std::uint32_t, std::vector<ServingMessage>> RecordStream(
    const QueryPlan& plan, ShardMap map, const std::vector<graph::GraphUpdate>& updates) {
  std::vector<std::unique_ptr<SamplingShardCore>> cores;
  for (std::uint32_t s = 0; s < map.TotalShards(); ++s) {
    cores.push_back(std::make_unique<SamplingShardCore>(plan, map, s, 99));
  }

  std::map<std::uint32_t, std::vector<ServingMessage>> streams;
  std::deque<std::pair<std::uint32_t, SubscriptionDelta>> pending;
  SamplingShardCore::Outputs out;
  auto absorb = [&] {
    out.to_serving.ForEach([&](std::uint32_t sew, const ServingMessage& msg) {
      streams[sew].push_back(msg);
    });
    for (auto& [shard, delta] : out.to_shards) pending.emplace_back(shard, delta);
    out.Clear();
    while (!pending.empty()) {
      auto [shard, delta] = pending.front();
      pending.pop_front();
      cores[shard]->OnSubscriptionDelta(delta, 0, out);
      out.to_serving.ForEach([&](std::uint32_t sew, const ServingMessage& msg) {
        streams[sew].push_back(msg);
      });
      for (auto& [s2, d2] : out.to_shards) pending.emplace_back(s2, d2);
      out.Clear();
    }
  };

  graph::Timestamp latest = 0;
  for (const auto& u : updates) {
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
    std::visit([&](const auto& x) { latest = std::max(latest, x.ts); }, u);
    cores[map.ShardOf(routing)]->OnGraphUpdate(u, static_cast<std::int64_t>(latest), out);
    absorb();
  }
  for (auto& core : cores) {
    core->Prune(latest / 2, out);
    absorb();
  }
  return streams;
}

// Applies `stream` to a fresh ServingCore one message at a time — the seed
// per-message path — and returns the raw cache contents.
std::map<std::string, std::string> ApplyUnbatched(const QueryPlan& plan, std::uint32_t sew,
                                                  const std::vector<ServingMessage>& stream) {
  ServingCore core(plan, sew);
  for (const auto& m : stream) core.Apply(m);
  return core.DumpCache();
}

TEST(Dissemination, BatchedFramesMatchPerMessageApply) {
  const QueryPlan plan = TwoHopPlan();
  const ShardMap map{2, 2, 3};
  util::Rng rng(2024);
  const auto streams = RecordStream(plan, map, RandomUpdates(3000, rng));
  ASSERT_FALSE(streams.empty());

  for (const std::size_t window : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    std::uint64_t total_coalesced = 0;
    for (const auto& [sew, stream] : streams) {
      const auto reference = ApplyUnbatched(plan, sew, stream);

      ServingCore batched(plan, sew);
      ServingBatchBuilder builder;
      std::size_t decoded = 0;
      auto flush = [&] {
        if (builder.empty()) return;
        total_coalesced += builder.coalesced();
        const std::string& frame = builder.EncodeToArena();
        ServingBatchReader reader(frame);
        ServingMessage msg;
        while (reader.Next(msg)) {
          batched.Apply(msg);
          ++decoded;
        }
        ASSERT_TRUE(reader.ok());
        builder.Clear();
      };
      std::size_t since_flush = 0;
      for (const auto& m : stream) {
        builder.Add(m);
        if (++since_flush == window) {
          flush();
          since_flush = 0;
        }
      }
      flush();

      EXPECT_LE(decoded, stream.size());
      EXPECT_EQ(batched.DumpCache(), reference)
          << "window=" << window << " sew=" << sew << " stream=" << stream.size();
    }
    if (window >= 7) {
      // The dense stream revisits cells constantly; large windows must
      // actually coalesce or the test is vacuous.
      EXPECT_GT(total_coalesced, 0u) << "window=" << window;
    }
  }
}

}  // namespace
}  // namespace helios
