// Tests for the coordinator's query registration and the session-Taobao
// generator used by the accuracy experiment.
#include <gtest/gtest.h>

#include <set>

#include "gen/taobao_sessions.h"
#include "helios/coordinator.h"

namespace helios {
namespace {

graph::GraphSchema Schema() {
  graph::GraphSchema schema;
  schema.vertex_type_names = {"User", "Item"};
  schema.edge_type_names = {"Click", "CoPurchase"};
  schema.edge_endpoints = {{0, 1}, {1, 1}};
  schema.feature_dim = 4;
  return schema;
}

TEST(Coordinator, RegistersAndDecomposesDslQuery) {
  Coordinator coordinator(ShardMap{2, 2, 2});
  EXPECT_FALSE(coordinator.plan().has_value());
  auto plan = coordinator.RegisterQuery(
      "g.V('User').outV('Click').sample(25).by('Random')"
      ".outV('CoPurchase').sample(10).by('TopK')",
      Schema(), "q1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(coordinator.plan().has_value());
  EXPECT_EQ(coordinator.plan()->query.id, "q1");
  EXPECT_EQ(coordinator.plan()->num_hops(), 2u);
}

TEST(Coordinator, RejectsBadQueryAndKeepsOld) {
  Coordinator coordinator(ShardMap{1, 1, 1});
  ASSERT_TRUE(coordinator
                  .RegisterQuery("g.V('User').outV('Click').sample(2).by('Random')", Schema(),
                                 "good")
                  .ok());
  EXPECT_FALSE(coordinator.RegisterQuery("g.V('Ghost')", Schema(), "bad").ok());
  EXPECT_EQ(coordinator.plan()->query.id, "good");
}

TEST(SessionTaobao, StreamShapeAndDeterminism) {
  gen::SessionTaobaoOptions options;
  options.users = 100;
  options.items = 80;
  options.click_edges = 1000;
  options.copurchase_edges = 800;
  gen::SessionTaobao a(options), b(options);
  EXPECT_EQ(a.updates().size(), 100u + 80u + 1000u + 800u);
  EXPECT_EQ(a.clicks().size(), 1000u);
  ASSERT_EQ(a.updates().size(), b.updates().size());
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(graph::UpdateTimestamp(a.updates()[i]), graph::UpdateTimestamp(b.updates()[i]));
  }
  // Timestamps strictly increase.
  graph::Timestamp last = 0;
  for (const auto& u : a.updates()) {
    EXPECT_GT(graph::UpdateTimestamp(u), last);
    last = graph::UpdateTimestamp(u);
  }
}

TEST(SessionTaobao, ClicksConcentrateOnCurrentCluster) {
  gen::SessionTaobaoOptions options;
  options.users = 200;
  options.items = 300;
  options.click_edges = 5000;
  options.copurchase_edges = 100;
  options.in_cluster_prob = 0.9;
  gen::SessionTaobao data(options);
  std::uint64_t in_cluster = 0;
  for (const auto& click : data.clicks()) {
    in_cluster += data.ClusterOfItem(click.dst) == data.ClusterOfUserNow(click.src, click.ts);
  }
  const double frac = static_cast<double>(in_cluster) / data.clicks().size();
  EXPECT_GT(frac, 0.85);
}

TEST(SessionTaobao, InterestDriftHappensMidStream) {
  gen::SessionTaobaoOptions options;
  options.users = 50;
  options.items = 100;
  options.click_edges = 2000;
  options.copurchase_edges = 100;
  gen::SessionTaobao data(options);
  const auto user = gen::MakeVertexId(0, 7);
  const auto early = data.ClusterOfUserNow(user, 1);
  const auto late = data.ClusterOfUserNow(user, 1'000'000'000);
  EXPECT_NE(early, late);
}

TEST(SessionTaobao, NegativeItemAvoidsCluster) {
  gen::SessionTaobaoOptions options;
  options.users = 50;
  options.items = 200;
  options.clusters = 10;
  options.click_edges = 100;
  options.copurchase_edges = 100;
  gen::SessionTaobao data(options);
  util::Rng rng(3);
  int in_avoided = 0;
  for (int t = 0; t < 200; ++t) {
    const auto item = data.NegativeItem(rng, 3);
    in_avoided += data.ClusterOfItem(item) == 3;
  }
  EXPECT_LT(in_avoided, 10);
}

}  // namespace
}  // namespace helios
