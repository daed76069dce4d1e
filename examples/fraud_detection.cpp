// Financial fraud detection on a live transfer stream (the §1 motivating
// scenario): accounts transfer money continuously; when a risk check fires
// for an account, Helios assembles its freshest 2-hop TransferTo
// neighborhood from the local sample cache and a GraphSAGE model scores it.
//
// The demo plants a "mule ring": a cluster of accounts that suddenly start
// cycling funds through a hub. Because pre-sampling is event-driven, the
// hub's sampled neighborhood reflects the burst within one queue hop, and
// its risk score (neighborhood affinity to known-bad accounts) jumps —
// *before* any offline pipeline would have retrained or re-indexed.
//
// Build & run:  ./build/examples/fraud_detection
#include <algorithm>
#include <cstdio>
#include <vector>

#include "gen/datasets.h"
#include "gnn/graphsage.h"
#include "helios/coordinator.h"
#include "helios/threaded_cluster.h"
#include "util/rng.h"

using namespace helios;

namespace {

constexpr std::uint64_t kAccounts = 3000;
constexpr std::uint64_t kRingSize = 8;
constexpr std::uint64_t kHub = 7;  // the mule hub account

graph::VertexId Account(std::uint64_t i) { return gen::MakeVertexId(0, i); }

// Feature: [is_flagged, account_age, avg_amount, noise]. Ring members are
// pre-flagged by an (offline) blacklist; the hub is NOT — the point of the
// GNN is to catch it through its neighborhood.
graph::Feature AccountFeature(std::uint64_t i, util::Rng& rng) {
  const bool flagged = i != kHub && i < kRingSize;
  return {flagged ? 1.f : 0.f, static_cast<float>(rng.UniformDouble()),
          static_cast<float>(rng.UniformDouble()), static_cast<float>(rng.UniformDouble())};
}

// Risk score: mean "flagged" signal aggregated over the sampled 2-hop
// neighborhood (what a trained GraphSAGE fraud head distils to for this
// feature encoding).
double RiskScore(const SampledSubgraph& sample) {
  double flagged = 0;
  std::size_t n = 0;
  for (std::size_t d = 1; d < sample.layers.size(); ++d) {
    for (const auto& node : sample.layers[d]) {
      const auto f = sample.features.Find(node.vertex);
      if (f.empty()) continue;
      flagged += f[0];
      n++;
    }
  }
  return n > 0 ? flagged / static_cast<double>(n) : 0.0;
}

}  // namespace

int main() {
  graph::GraphSchema schema;
  schema.vertex_type_names = {"Account"};
  schema.edge_type_names = {"TransferTo"};
  schema.edge_endpoints = {{0, 0}};
  schema.feature_dim = 4;

  ShardMap map{2, 2, 2};
  Coordinator coordinator;
  // Table 2 FIN query: Account-TransferTo-Account-TransferTo-Account,
  // TopK by timestamp so the freshest transfers dominate the sample.
  auto plan = coordinator.RegisterQuery(
      "g.V('Account').outV('TransferTo').sample(10).by('TopK')"
      ".outV('TransferTo').sample(5).by('TopK')",
      schema, "fin-risk");

  ClusterOptions options;
  options.map = map;
  ThreadedCluster cluster(plan.value(), options);
  cluster.Start();
  util::Rng rng(2024);

  // Bootstrap: announce accounts and a background of benign transfers.
  for (std::uint64_t i = 0; i < kAccounts; ++i) {
    cluster.PublishUpdate(graph::VertexUpdate{0, Account(i), 1, AccountFeature(i, rng)});
  }
  graph::Timestamp now = 100;
  for (int i = 0; i < 60000; ++i) {
    const auto src = rng.Uniform(kAccounts);
    const auto dst = rng.Uniform(kAccounts);
    cluster.PublishUpdate(graph::EdgeUpdate{0, Account(src), Account(dst), now++,
                                            static_cast<float>(rng.UniformDouble() * 100)});
  }
  cluster.WaitForIngestIdle();

  gnn::SageConfig sage;
  sage.input_dim = 4;
  sage.hidden_dim = 16;
  sage.output_dim = 16;
  gnn::ModelServer model(sage);

  auto check = [&](const char* moment) {
    const auto sample = cluster.Serve(Account(kHub));
    const auto embedding = model.Infer(sample);  // what TF-Serving would consume
    std::printf("%-28s sampled %2zu neighbors | risk score %.3f | embedding[0] %+0.3f\n",
                moment, sample.TotalSampled(), RiskScore(sample), embedding[0]);
  };

  std::printf("risk checks on the (unflagged) hub account %llu:\n",
              static_cast<unsigned long long>(kHub));
  check("before the ring activates:");

  // The mule ring activates: flagged accounts cycle funds through the hub
  // and among themselves (layering), so both sampled hops light up.
  for (int round = 0; round < 40; ++round) {
    for (std::uint64_t m = 0; m < kRingSize; ++m) {
      if (m == kHub) continue;
      cluster.PublishUpdate(graph::EdgeUpdate{0, Account(kHub), Account(m), now++, 9000.f});
      cluster.PublishUpdate(graph::EdgeUpdate{0, Account(m), Account(kHub), now++, 9000.f});
      const std::uint64_t peer = (m + 1) % kRingSize;
      if (peer != kHub) {
        cluster.PublishUpdate(graph::EdgeUpdate{0, Account(m), Account(peer), now++, 9000.f});
      }
    }
  }
  cluster.WaitForIngestIdle();
  check("after the mule-ring burst:");

  // Benign traffic resumes; TopK sampling keeps the hub's neighborhood
  // dominated by the *most recent* transfers, so the score stays hot until
  // the ring goes quiet long enough to be sampled out.
  for (int i = 0; i < 3000; ++i) {
    cluster.PublishUpdate(graph::EdgeUpdate{0, Account(kHub),
                                            Account(rng.Uniform(kAccounts)), now++, 20.f});
  }
  cluster.WaitForIngestIdle();
  check("after benign traffic resumes:");

  cluster.Stop();
  return 0;
}
