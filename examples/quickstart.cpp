// Quickstart: the smallest end-to-end Helios deployment.
//
//   1. Define a property-graph schema (User -Click-> Item -CoPurchase-> Item).
//   2. Register the Fig 1 sampling query in the DSL with the coordinator.
//   3. Start a ThreadedCluster (2 sampling workers x 2 shards, 2 serving
//      workers) — real threads, Kafka-style queues, the full §4 pipeline.
//   4. Stream a few graph updates in and watch the pre-sampled K-hop
//      neighborhood of a user refresh in real time.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "gen/datasets.h"
#include "helios/coordinator.h"
#include "helios/threaded_cluster.h"

using namespace helios;

namespace {

void PrintSample(const SampledSubgraph& result) {
  std::printf("  seed %llu -> hop1 [", static_cast<unsigned long long>(
                                           gen::VertexIndexOf(result.seed)));
  for (const auto& n : result.layers[1]) {
    std::printf(" item:%llu", static_cast<unsigned long long>(gen::VertexIndexOf(n.vertex)));
  }
  std::printf(" ]  hop2 [");
  for (const auto& n : result.layers[2]) {
    std::printf(" item:%llu", static_cast<unsigned long long>(gen::VertexIndexOf(n.vertex)));
  }
  std::printf(" ]  (features cached: %zu)\n", result.features.size());
}

}  // namespace

int main() {
  // ---- 1. schema
  graph::GraphSchema schema;
  schema.vertex_type_names = {"User", "Item"};
  schema.edge_type_names = {"Click", "CoPurchase"};
  schema.edge_endpoints = {{0, 1}, {1, 1}};
  schema.feature_dim = 4;

  // ---- 2. the Fig 1 query, registered through the coordinator
  ShardMap map{/*sampling_workers=*/2, /*shards_per_worker=*/2, /*serving_workers=*/2};
  Coordinator coordinator(map);
  auto plan = coordinator.RegisterQuery(
      "g.V('User').outV('Click').sample(2).by('Random')"
      ".outV('CoPurchase').sample(2).by('TopK')",
      schema, "quickstart");
  if (!plan.ok()) {
    std::fprintf(stderr, "query rejected: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("registered query '%s': %zu one-hop queries, %llu sample-table lookups per "
              "request\n",
              plan.value().query.id.c_str(), plan.value().num_hops(),
              static_cast<unsigned long long>(plan.value().SampleTableLookups()));

  // ---- 3. deploy
  ClusterOptions options;
  options.map = map;
  ThreadedCluster cluster(plan.value(), options);
  cluster.Start();

  // ---- 4. stream updates and query
  auto user = [](std::uint64_t i) { return gen::MakeVertexId(0, i); };
  auto item = [](std::uint64_t i) { return gen::MakeVertexId(1, i); };
  auto feat = [](float x) { return graph::Feature{x, x, x, x}; };

  // Announce vertices (features), then behaviour edges.
  cluster.PublishUpdate(graph::VertexUpdate{0, user(1), 1, feat(0.1f)});
  for (std::uint64_t i = 1; i <= 4; ++i) {
    cluster.PublishUpdate(graph::VertexUpdate{1, item(i), 2, feat(static_cast<float>(i))});
  }
  cluster.PublishUpdate(graph::EdgeUpdate{0, user(1), item(1), 10, 1.f});  // click
  cluster.PublishUpdate(graph::EdgeUpdate{0, user(1), item(2), 11, 1.f});  // click
  cluster.PublishUpdate(graph::EdgeUpdate{1, item(1), item(3), 12, 1.f});  // co-purchase
  cluster.PublishUpdate(graph::EdgeUpdate{1, item(2), item(4), 13, 1.f});  // co-purchase
  cluster.WaitForIngestIdle();

  std::printf("\nafter the first burst of updates:\n");
  PrintSample(cluster.Serve(user(1)));

  // A fresh co-purchase arrives: the pre-sampled cache refreshes without
  // any re-sampling at request time.
  cluster.PublishUpdate(graph::EdgeUpdate{1, item(1), item(4), 20, 1.f});
  cluster.WaitForIngestIdle();
  std::printf("\nafter item1 -> item4 co-purchase (event-driven refresh):\n");
  PrintSample(cluster.Serve(user(1)));

  const auto stats = cluster.Stats();
  std::printf("\npipeline: %llu updates ingested, %llu messages applied to serving caches, "
              "%llu queries served\n",
              static_cast<unsigned long long>(stats.updates_processed),
              static_cast<unsigned long long>(stats.serving_msgs_applied),
              static_cast<unsigned long long>(stats.queries_served));
  cluster.Stop();
  return 0;
}
