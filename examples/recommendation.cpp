// Real-time e-commerce recommendation (the Fig 1 / §5.1 scenario): a
// session-structured Taobao-like stream flows through Helios; for a target
// user we embed their freshest sampled neighborhood with GraphSAGE and rank
// candidate items. The user's interests drift mid-stream — because
// pre-sampling is event-driven and TopK favours recent clicks, the
// recommendations follow the drift immediately.
//
// Build & run:  ./build/examples/recommendation
#include <algorithm>
#include <cstdio>
#include <vector>

#include "gen/taobao_sessions.h"
#include "gnn/graphsage.h"
#include "helios/coordinator.h"
#include "helios/threaded_cluster.h"

using namespace helios;

int main() {
  gen::SessionTaobaoOptions options;
  options.users = 800;
  options.items = 600;
  options.clusters = 8;
  options.click_edges = 40000;
  options.copurchase_edges = 20000;
  gen::SessionTaobao data(options);

  ShardMap map{2, 2, 2};
  Coordinator coordinator(map);
  auto plan = coordinator.RegisterQuery(
      "g.V('User').outV('Click').sample(10).by('TopK')"
      ".outV('CoPurchase').sample(5).by('TopK')",
      data.schema(), "taobao-rec");

  ClusterOptions cluster_options;
  cluster_options.map = map;
  ThreadedCluster cluster(plan.value(), cluster_options);
  cluster.Start();

  gnn::SageConfig sage;
  sage.input_dim = options.feature_dim;
  sage.hidden_dim = options.feature_dim;
  sage.output_dim = options.feature_dim;
  gnn::ModelServer model(sage);

  // Candidate items with their raw features.
  std::vector<std::pair<graph::VertexId, graph::Feature>> candidates;
  for (const auto& u : data.updates()) {
    if (const auto* v = std::get_if<graph::VertexUpdate>(&u)) {
      if (gen::VertexTypeOf(v->id) == 1 && gen::VertexIndexOf(v->id) % 7 == 0) {
        candidates.emplace_back(v->id, v->feature);
      }
    }
  }

  const auto user = gen::MakeVertexId(0, 3);
  auto recommend = [&](const char* moment, graph::Timestamp now) {
    const auto sample = cluster.Serve(user);
    const auto zu = model.Infer(sample);  // the embedding TF-Serving would consume
    (void)zu;
    // Rank candidates by affinity to the mean of the user's sampled
    // neighborhood features — exactly the first GraphSAGE aggregation
    // (mean over N(v)) with identity weights, computed from the same
    // pre-sampled subgraph.
    graph::Feature agg(options.feature_dim, 0.f);
    std::size_t n = 0;
    for (std::size_t d = 1; d < sample.layers.size(); ++d) {
      for (const auto& node : sample.layers[d]) {
        const auto f = sample.features.Find(node.vertex);
        if (f.empty()) continue;
        for (std::size_t j = 0; j < agg.size() && j < f.size(); ++j) {
          agg[j] += f[j];
        }
        n++;
      }
    }
    if (n > 0) {
      for (auto& v : agg) v /= static_cast<float>(n);
    }
    std::vector<std::pair<float, graph::VertexId>> ranked;
    for (const auto& [item, feature] : candidates) {
      ranked.emplace_back(gnn::Dot(agg, feature), item);
    }
    std::sort(ranked.rbegin(), ranked.rend());
    std::printf("%-22s user cluster now: %llu | sampled %2zu | top items:", moment,
                static_cast<unsigned long long>(data.ClusterOfUserNow(user, now)),
                sample.TotalSampled());
    int matches = 0;
    for (int k = 0; k < 5; ++k) {
      const auto cluster_of = data.ClusterOfItem(ranked[static_cast<std::size_t>(k)].second);
      matches += cluster_of == data.ClusterOfUserNow(user, now);
      std::printf(" %llu(c%llu)",
                  static_cast<unsigned long long>(
                      gen::VertexIndexOf(ranked[static_cast<std::size_t>(k)].second)),
                  static_cast<unsigned long long>(cluster_of));
    }
    std::printf("  [%d/5 match current interest]\n", matches);
  };

  // Replay the first half (pre-drift), train the link head on it (what the
  // offline pipeline of Fig 3 would do), recommend, then replay the rest.
  const auto& updates = data.updates();
  const std::size_t half = updates.size() / 2;
  for (std::size_t i = 0; i < half; ++i) cluster.PublishUpdate(updates[i]);
  cluster.WaitForIngestIdle();
  recommend("before interest drift:", graph::UpdateTimestamp(updates[half - 1]));

  for (std::size_t i = half; i < updates.size(); ++i) cluster.PublishUpdate(updates[i]);
  cluster.WaitForIngestIdle();
  recommend("after interest drift:", graph::UpdateTimestamp(updates.back()));

  const auto hist = cluster.IngestionLatency();
  std::printf("\ningestion latency (publish -> visible in cache): %s\n",
              hist.Summary().c_str());
  cluster.Stop();
  return 0;
}
