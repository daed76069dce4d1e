// Tests for the query DSL parser and K-hop decomposition (§5.1).
#include <gtest/gtest.h>

#include "helios/query.h"

namespace helios {
namespace {

graph::GraphSchema TaobaoSchema() {
  graph::GraphSchema schema;
  schema.vertex_type_names = {"User", "Item"};
  schema.edge_type_names = {"Click", "CoPurchase"};
  schema.edge_endpoints = {{0, 1}, {1, 1}};
  schema.feature_dim = 128;
  return schema;
}

graph::GraphSchema FinSchema() {
  graph::GraphSchema schema;
  schema.vertex_type_names = {"Account"};
  schema.edge_type_names = {"TransferTo"};
  schema.edge_endpoints = {{0, 0}};
  schema.feature_dim = 10;
  return schema;
}

TEST(ParseQuery, Figure1Query) {
  const auto schema = TaobaoSchema();
  auto result = ParseQuery(
      "g.V('User').outV('Click').sample(2).by('Random')"
      ".outV('CoPurchase').sample(2).by('TopK')",
      schema);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& q = result.value();
  EXPECT_EQ(q.seed_type, 0);
  ASSERT_EQ(q.hops.size(), 2u);
  EXPECT_EQ(q.hops[0].edge_type, 0);
  EXPECT_EQ(q.hops[0].fanout, 2u);
  EXPECT_EQ(q.hops[0].strategy, Strategy::kRandom);
  EXPECT_EQ(q.hops[1].edge_type, 1);
  EXPECT_EQ(q.hops[1].strategy, Strategy::kTopK);
}

TEST(ParseQuery, WhitespaceTolerant) {
  const auto schema = TaobaoSchema();
  auto result = ParseQuery(
      "g.V('User')\n  .outV('Click')  .sample( 25 ) .by('EdgeWeight')", schema);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().hops[0].fanout, 25u);
  EXPECT_EQ(result.value().hops[0].strategy, Strategy::kEdgeWeight);
}

TEST(ParseQuery, Rejections) {
  const auto schema = TaobaoSchema();
  EXPECT_FALSE(ParseQuery("", schema).ok());
  EXPECT_FALSE(ParseQuery("g.V('User')", schema).ok());  // no hop
  EXPECT_FALSE(ParseQuery("g.V('Ghost').outV('Click').sample(2).by('Random')", schema).ok());
  EXPECT_FALSE(ParseQuery("g.V('User').outV('Ghost').sample(2).by('Random')", schema).ok());
  EXPECT_FALSE(ParseQuery("g.V('User').outV('Click').sample(x).by('Random')", schema).ok());
  EXPECT_FALSE(ParseQuery("g.V('User').outV('Click').sample(2).by('Magic')", schema).ok());
  EXPECT_FALSE(ParseQuery("g.V('User').outV('Click').sample(2)", schema).ok());
}

TEST(Decompose, ChainsTargetTypes) {
  const auto schema = TaobaoSchema();
  SamplingQuery q;
  q.seed_type = 0;
  q.hops = {{0, 25, Strategy::kRandom}, {1, 10, Strategy::kTopK}};
  auto plan = Decompose(q, schema);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.value().one_hop.size(), 2u);
  EXPECT_EQ(plan.value().one_hop[0].hop, 1u);
  EXPECT_EQ(plan.value().one_hop[0].target_type, 0);  // User keys Q1
  EXPECT_EQ(plan.value().one_hop[0].parent, -1);
  EXPECT_EQ(plan.value().one_hop[1].hop, 2u);
  EXPECT_EQ(plan.value().one_hop[1].target_type, 1);  // Item keys Q2
  EXPECT_EQ(plan.value().one_hop[1].parent, 0);
  EXPECT_EQ(plan.value().NumLevels(), 3u);
}

TEST(Decompose, RejectsNonComposingHops) {
  const auto schema = TaobaoSchema();
  SamplingQuery q;
  q.seed_type = 0;
  // Click: User->Item, then Click again needs a User source: invalid.
  q.hops = {{0, 25, Strategy::kRandom}, {0, 10, Strategy::kRandom}};
  EXPECT_FALSE(Decompose(q, schema).ok());
  // Seed type mismatch.
  q.hops = {{1, 25, Strategy::kRandom}};
  EXPECT_FALSE(Decompose(q, schema).ok());
  // Zero fan-out.
  q.hops = {{0, 0, Strategy::kRandom}};
  EXPECT_FALSE(Decompose(q, schema).ok());
  // Fan-out past the u16 slot index cell deltas carry; 65535 still fits.
  q.hops = {{0, 65536, Strategy::kRandom}};
  EXPECT_FALSE(Decompose(q, schema).ok());
  q.hops = {{0, 65535, Strategy::kRandom}};
  EXPECT_TRUE(Decompose(q, schema).ok());
  // No hops.
  q.hops = {};
  EXPECT_FALSE(Decompose(q, schema).ok());
}

TEST(Decompose, SelfLoopEdgeTypeUsableAtEveryHop) {
  // FIN: Account-TransferTo-Account-TransferTo-Account.
  const auto schema = FinSchema();
  SamplingQuery q;
  q.seed_type = 0;
  q.hops = {{0, 25, Strategy::kTopK}, {0, 10, Strategy::kTopK}};
  auto plan = Decompose(q, schema);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().one_hop[0].target_type, 0);
  EXPECT_EQ(plan.value().one_hop[1].target_type, 0);
}

TEST(QueryPlan, LookupCounts) {
  const auto schema = FinSchema();
  SamplingQuery q;
  q.seed_type = 0;
  q.hops = {{0, 25, Strategy::kRandom}, {0, 10, Strategy::kRandom}};
  auto plan = Decompose(q, schema).value();
  // Sample-table lookups: 1 (seed) + 25 (hop-1 samples) = 26.
  EXPECT_EQ(plan.SampleTableLookups(), 26u);
  // Feature lookups: 1 + 25 + 250 = 276.
  EXPECT_EQ(plan.FeatureTableLookups(), 276u);
}

TEST(QueryPlan, ThreeHopLookupCounts) {
  const auto schema = FinSchema();
  SamplingQuery q;
  q.seed_type = 0;
  q.hops = {{0, 25, Strategy::kRandom},
            {0, 10, Strategy::kRandom},
            {0, 5, Strategy::kRandom}};
  auto plan = Decompose(q, schema).value();
  EXPECT_EQ(plan.SampleTableLookups(), 1u + 25u + 250u);
  EXPECT_EQ(plan.FeatureTableLookups(), 1u + 25u + 250u + 1250u);
}

TEST(StrategyNames, AllNamed) {
  EXPECT_STREQ(StrategyName(Strategy::kRandom), "Random");
  EXPECT_STREQ(StrategyName(Strategy::kTopK), "TopK");
  EXPECT_STREQ(StrategyName(Strategy::kEdgeWeight), "EdgeWeight");
}

}  // namespace
}  // namespace helios
