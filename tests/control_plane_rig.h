// A ControlPlane over bare shard steps: no actors, no log, no threads. The
// driver keeps one ShardStep per shard and records each poller call, so a
// test drives the control sequences directly and can act from inside them
// (on_snapshot runs within a migration's stop-and-copy window).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "elastic/shard_map.h"
#include "helios/control_plane.h"
#include "helios/query.h"
#include "helios/sampling_core.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace helios::testing {

inline QueryPlan RigPlan() {
  graph::GraphSchema schema;
  schema.vertex_type_names = {"User", "Item"};
  schema.edge_type_names = {"Click", "CoPurchase"};
  schema.edge_endpoints = {{0, 1}, {1, 1}};
  schema.feature_dim = 4;
  SamplingQuery q;
  q.id = "rig";
  q.seed_type = 0;
  q.hops = {{0, 2, Strategy::kTopK}, {1, 2, Strategy::kTopK}};
  return Decompose(q, schema).value();
}

class Rig {
  // First: the steps and the control plane point into these.
  QueryPlan plan_ = RigPlan();
  ShardMap map_;

 public:
  // `nodes` x `shards_per_node` shards, contiguous placement; a non-zero
  // timeout arms the control plane's supervisor on the rig's clock.
  Rig(std::uint32_t nodes, std::uint32_t shards_per_node, util::Micros supervision_timeout = 0)
      : map_{nodes, shards_per_node, 1} {
    ControlPlane::Driver d;
    d.quiesce_poller = [this](std::uint32_t n) {
      pollers.push_back("quiesce " + std::to_string(n));
    };
    d.rebuild_poller = [this](std::uint32_t n) {
      pollers.push_back("rebuild " + std::to_string(n));
    };
    d.new_step = [this](std::uint32_t s, std::uint32_t node, ShardLedger& ledger) {
      return NewStep(s, node, ledger);
    };
    d.snapshot = [this](std::uint32_t s, graph::ByteWriter& w) {
      steps[s]->core().Serialize(w);
      if (on_snapshot) on_snapshot(s);
      return steps[s]->core().applied_offset();
    };
    d.adopt = [this](std::uint32_t s, std::uint32_t, std::unique_ptr<ShardStep> step,
                     util::Nanos) { steps[s] = std::move(step); };
    plane = std::make_unique<ControlPlane>(
        ControlPlane::Options{nodes,
                              elastic::ShardMap::Contiguous(map_.TotalShards(), shards_per_node)
                                  .Current()
                                  ->owner,
                              /*max_concurrent_migrations=*/2, &registry, &clock,
                              supervision_timeout},
        std::move(d));
    for (std::uint32_t s = 0; s < map_.TotalShards(); ++s) {
      steps.push_back(NewStep(s, s / shards_per_node, plane->ledger(s)));
    }
  }

  std::unique_ptr<ShardStep> NewStep(std::uint32_t s, std::uint32_t node, ShardLedger& ledger) {
    return std::make_unique<ShardStep>(
        std::make_unique<SamplingShardCore>(plan_, map_, s, 5),
        ShardStep::Wiring{&registry, &clock, nullptr, nullptr, node, &ledger});
  }

  std::int64_t now = 0;  // the rig's clock
  obs::FunctionClock clock{[this] { return now; }};
  obs::MetricsRegistry registry;
  std::vector<std::unique_ptr<ShardStep>> steps;
  std::vector<std::string> pollers;  // "quiesce <n>" / "rebuild <n>", in call order
  std::function<void(std::uint32_t shard)> on_snapshot;
  std::unique_ptr<ControlPlane> plane;
};

}  // namespace helios::testing
