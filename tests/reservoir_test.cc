// Unit and distribution property tests for event-driven reservoir sampling
// (§5.2). The distribution tests verify the paper's claim that "the data
// distribution of reservoir sampling is the same as ad-hoc sampling".
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "helios/reservoir.h"
#include "util/rng.h"

namespace helios {
namespace {

graph::Edge E(graph::VertexId dst, graph::Timestamp ts, float w = 1.0f) {
  return graph::Edge{dst, ts, w};
}

TEST(ReservoirCell, FillsUpToCapacity) {
  util::Rng rng(1);
  ReservoirCell cell(Strategy::kRandom, 3);
  for (graph::VertexId v = 0; v < 3; ++v) {
    const auto outcome = cell.Offer(E(v, static_cast<graph::Timestamp>(v)), rng);
    EXPECT_TRUE(outcome.selected);
    EXPECT_EQ(outcome.evicted, graph::kInvalidVertex);
  }
  EXPECT_EQ(cell.samples().size(), 3u);
  EXPECT_EQ(cell.offers_seen(), 3u);
}

TEST(ReservoirCell, ZeroCapacityClampsToOne) {
  util::Rng rng(1);
  ReservoirCell cell(Strategy::kRandom, 0);
  cell.Offer(E(1, 1), rng);
  EXPECT_EQ(cell.capacity(), 1u);
  EXPECT_EQ(cell.samples().size(), 1u);
}

TEST(ReservoirCell, RandomEvictionReportsEvicted) {
  util::Rng rng(7);
  ReservoirCell cell(Strategy::kRandom, 2);
  cell.Offer(E(10, 1), rng);
  cell.Offer(E(11, 2), rng);
  // Offer many more; every accepted offer must name a valid evictee.
  for (graph::VertexId v = 12; v < 200; ++v) {
    std::set<graph::VertexId> before;
    for (const auto& e : cell.samples()) before.insert(e.dst);
    const auto outcome = cell.Offer(E(v, static_cast<graph::Timestamp>(v)), rng);
    if (outcome.selected) {
      EXPECT_TRUE(before.count(outcome.evicted)) << "evicted a non-member";
      bool found = false;
      for (const auto& e : cell.samples()) found |= e.dst == v;
      EXPECT_TRUE(found);
    }
    EXPECT_EQ(cell.samples().size(), 2u);
  }
}

// Property (Algorithm R): after N offers into capacity C, each offered item
// survives with probability C/N.
TEST(ReservoirCell, RandomIsUniformOverStream) {
  constexpr int kCapacity = 5;
  constexpr int kStream = 50;
  constexpr int kTrials = 20000;
  std::vector<int> survivals(kStream, 0);
  util::Rng rng(42);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirCell cell(Strategy::kRandom, kCapacity);
    for (int i = 0; i < kStream; ++i) {
      cell.Offer(E(static_cast<graph::VertexId>(i), i), rng);
    }
    for (const auto& e : cell.samples()) survivals[e.dst]++;
  }
  const double expected = static_cast<double>(kCapacity) / kStream * kTrials;  // 2000
  for (int i = 0; i < kStream; ++i) {
    EXPECT_NEAR(survivals[i], expected, expected * 0.12) << "position " << i;
  }
}

TEST(ReservoirCell, TopKKeepsLargestTimestamps) {
  util::Rng rng(3);
  ReservoirCell cell(Strategy::kTopK, 3);
  // Shuffled timestamps; cell must end with the 3 largest.
  const std::vector<graph::Timestamp> ts = {5, 1, 9, 3, 7, 2, 8, 6, 4};
  for (std::size_t i = 0; i < ts.size(); ++i) {
    cell.Offer(E(static_cast<graph::VertexId>(100 + ts[i]), ts[i]), rng);
  }
  std::multiset<graph::Timestamp> kept;
  for (const auto& e : cell.samples()) kept.insert(e.ts);
  EXPECT_EQ(kept, (std::multiset<graph::Timestamp>{7, 8, 9}));
}

TEST(ReservoirCell, TopKIgnoresStaleArrivals) {
  util::Rng rng(3);
  ReservoirCell cell(Strategy::kTopK, 2);
  cell.Offer(E(1, 100), rng);
  cell.Offer(E(2, 200), rng);
  const auto outcome = cell.Offer(E(3, 50), rng);
  EXPECT_FALSE(outcome.selected);
  EXPECT_EQ(cell.samples().size(), 2u);
}

TEST(ReservoirCell, TopKEvictsOldest) {
  util::Rng rng(3);
  ReservoirCell cell(Strategy::kTopK, 2);
  cell.Offer(E(1, 100), rng);
  cell.Offer(E(2, 200), rng);
  const auto outcome = cell.Offer(E(3, 300), rng);
  EXPECT_TRUE(outcome.selected);
  EXPECT_EQ(outcome.evicted, 1u);
}

// Property (A-Res): heavier edges survive proportionally more often.
TEST(ReservoirCell, EdgeWeightFavorsHeavyEdges) {
  constexpr int kTrials = 4000;
  int heavy_survived = 0, light_survived = 0;
  util::Rng rng(11);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirCell cell(Strategy::kEdgeWeight, 2);
    // One heavy edge among 19 light ones.
    for (int i = 0; i < 20; ++i) {
      const float w = (i == 7) ? 10.0f : 1.0f;
      cell.Offer(E(static_cast<graph::VertexId>(i), i, w), rng);
    }
    for (const auto& e : cell.samples()) {
      if (e.dst == 7) {
        heavy_survived++;
      } else {
        light_survived++;
      }
    }
  }
  // Expected inclusion ratio heavy:light-per-edge should be >> 1.
  const double light_per_edge = static_cast<double>(light_survived) / 19.0;
  EXPECT_GT(heavy_survived, 3 * light_per_edge);
}

TEST(ReservoirCell, EdgeWeightZeroWeightNeverDisplaces) {
  util::Rng rng(13);
  ReservoirCell cell(Strategy::kEdgeWeight, 2);
  cell.Offer(E(1, 1, 1.0f), rng);
  cell.Offer(E(2, 2, 1.0f), rng);
  for (int i = 0; i < 50; ++i) {
    const auto outcome = cell.Offer(E(100 + i, 10 + i, 0.0f), rng);
    EXPECT_FALSE(outcome.selected);
  }
}

// Parameterized sweep: every strategy respects capacity for all fan-outs.
class CapacitySweep : public ::testing::TestWithParam<std::tuple<Strategy, std::uint32_t>> {};

TEST_P(CapacitySweep, NeverExceedsCapacity) {
  const auto [strategy, capacity] = GetParam();
  util::Rng rng(17);
  ReservoirCell cell(strategy, capacity);
  for (int i = 0; i < 500; ++i) {
    cell.Offer(E(static_cast<graph::VertexId>(rng.Uniform(1000)), i,
                 static_cast<float>(rng.UniformDouble()) + 0.01f),
               rng);
    EXPECT_LE(cell.samples().size(), capacity);
  }
  EXPECT_EQ(cell.samples().size(), capacity);
  EXPECT_EQ(cell.offers_seen(), 500u);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndFanouts, CapacitySweep,
    ::testing::Combine(::testing::Values(Strategy::kRandom, Strategy::kTopK,
                                         Strategy::kEdgeWeight),
                       ::testing::Values(1u, 2u, 5u, 10u, 25u)));

// Parameterized: eviction accounting is exact — a selected offer writes
// the slot it reports (an append reports the old size), and an overwrite
// evicts exactly the member that slot held. Replaying the reported writes
// on a mirror reproduces the cell slot for slot, which is what serving
// caches do with SampleDelta::slot.
class EvictionSweep : public ::testing::TestWithParam<Strategy> {};

TEST_P(EvictionSweep, EvictionInvariants) {
  util::Rng rng(23);
  ReservoirCell cell(GetParam(), 4);
  std::vector<graph::Edge> mirror;
  for (int i = 0; i < 300; ++i) {
    const graph::VertexId v = 1000 + i;
    const graph::Edge e = E(v, i, static_cast<float>(rng.UniformDouble()) + 0.01f);
    const auto outcome = cell.Offer(e, rng);
    if (outcome.selected) {
      if (outcome.slot < mirror.size()) {
        ASSERT_EQ(outcome.evicted, mirror[outcome.slot].dst);
        mirror[outcome.slot] = e;
      } else {
        ASSERT_EQ(outcome.slot, mirror.size());
        ASSERT_EQ(outcome.evicted, graph::kInvalidVertex);
        mirror.push_back(e);
      }
    }
    ASSERT_EQ(cell.samples(), mirror);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, EvictionSweep,
                         ::testing::Values(Strategy::kRandom, Strategy::kTopK,
                                           Strategy::kEdgeWeight));

}  // namespace
}  // namespace helios
