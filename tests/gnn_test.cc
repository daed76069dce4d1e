// Tests for the GNN substrate: tensor ops, GraphSAGE encoding over layered
// samples, and the trainable link-prediction head.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "gen/datasets.h"
#include "gnn/graphsage.h"
#include "gnn/tensor.h"
#include "util/rng.h"
#include "util/simd.h"

namespace helios::gnn {
namespace {

using gen::MakeVertexId;

TEST(Tensor, MatMulKnownValues) {
  Matrix a(2, 3), b(3, 2), out(2, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data().begin());
  std::copy(bv, bv + 6, b.data().begin());
  MatMul(a, b, out);
  EXPECT_FLOAT_EQ(out.At(0, 0), 58.f);
  EXPECT_FLOAT_EQ(out.At(0, 1), 64.f);
  EXPECT_FLOAT_EQ(out.At(1, 0), 139.f);
  EXPECT_FLOAT_EQ(out.At(1, 1), 154.f);
}

TEST(Tensor, AddBiasReluClampsNegatives) {
  Matrix m(1, 3);
  m.At(0, 0) = -5.f;
  m.At(0, 1) = 0.5f;
  m.At(0, 2) = 2.f;
  AddBiasRelu(m, {1.f, -1.f, 0.f}, /*relu=*/true);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.f);
  EXPECT_FLOAT_EQ(m.At(0, 1), 0.f);
  EXPECT_FLOAT_EQ(m.At(0, 2), 2.f);
}

TEST(Tensor, DotAndNormalize) {
  std::vector<float> a{3.f, 4.f};
  EXPECT_FLOAT_EQ(Dot(a, a), 25.f);
  L2NormalizeRow(a.data(), a.size());
  EXPECT_NEAR(Dot(a, a), 1.f, 1e-6);
  EXPECT_FLOAT_EQ(Sigmoid(0.f), 0.5f);
  EXPECT_GT(Sigmoid(10.f), 0.99f);
}

SampledSubgraph MakeSample(float seed_val, float hop1_val, float hop2_val) {
  SampledSubgraph s;
  s.seed = MakeVertexId(0, 1);
  s.layers.resize(3);
  s.layers[0].push_back({s.seed, 0});
  s.layers[1].push_back({MakeVertexId(1, 1), 0});
  s.layers[1].push_back({MakeVertexId(1, 2), 0});
  s.layers[2].push_back({MakeVertexId(1, 11), 0});
  s.layers[2].push_back({MakeVertexId(1, 12), 1});
  s.features.Set(s.seed, {seed_val, seed_val});
  s.features.Set(MakeVertexId(1, 1), {hop1_val, hop1_val});
  s.features.Set(MakeVertexId(1, 2), {hop1_val, -hop1_val});
  s.features.Set(MakeVertexId(1, 11), {hop2_val, 0.f});
  s.features.Set(MakeVertexId(1, 12), {0.f, hop2_val});
  return s;
}

SageConfig SmallConfig() {
  SageConfig c;
  c.input_dim = 2;
  c.hidden_dim = 4;
  c.output_dim = 4;
  c.num_layers = 2;
  c.seed = 7;
  return c;
}

TEST(GraphSage, DeterministicForSeed) {
  GraphSageEncoder a(SmallConfig()), b(SmallConfig());
  const auto sample = MakeSample(1.f, 0.5f, 0.25f);
  EXPECT_EQ(a.EmbedSeed(sample), b.EmbedSeed(sample));
}

TEST(GraphSage, OutputIsUnitNorm) {
  GraphSageEncoder enc(SmallConfig());
  const auto z = enc.EmbedSeed(MakeSample(1.f, 0.5f, 0.25f));
  ASSERT_EQ(z.size(), 4u);
  float norm = 0;
  for (float v : z) norm += v * v;
  EXPECT_NEAR(norm, 1.f, 1e-5);
}

TEST(GraphSage, NeighborhoodChangesEmbedding) {
  GraphSageEncoder enc(SmallConfig());
  const auto z1 = enc.EmbedSeed(MakeSample(1.f, 0.5f, 0.25f));
  const auto z2 = enc.EmbedSeed(MakeSample(1.f, -0.9f, 0.25f));  // same seed feature
  EXPECT_NE(z1, z2) << "hop-1 features must influence the seed embedding";
  const auto z3 = enc.EmbedSeed(MakeSample(1.f, 0.5f, -0.9f));
  EXPECT_NE(z1, z3) << "hop-2 features must influence the seed embedding";
}

TEST(GraphSage, HandlesEmptyAndPartialSamples) {
  GraphSageEncoder enc(SmallConfig());
  SampledSubgraph empty;
  empty.seed = MakeVertexId(0, 1);
  empty.layers.resize(3);
  empty.layers[0].push_back({empty.seed, 0});
  // No features at all (total cache miss): embedding is well-defined.
  const auto z = enc.EmbedSeed(empty);
  EXPECT_EQ(z.size(), 4u);
  for (float v : z) EXPECT_TRUE(std::isfinite(v));

  SampledSubgraph none;
  const auto z0 = enc.EmbedSeed(none);
  EXPECT_EQ(z0.size(), 4u);
}

TEST(GraphSage, MissingFeatureTreatedAsZero) {
  GraphSageEncoder enc(SmallConfig());
  auto with = MakeSample(1.f, 0.5f, 0.25f);
  auto without = with;
  without.features.Erase(MakeVertexId(1, 11));
  auto zeroed = with;
  zeroed.features.Set(MakeVertexId(1, 11), {0.f, 0.f});
  EXPECT_EQ(enc.EmbedSeed(without), enc.EmbedSeed(zeroed));
}

TEST(LinkPredictor, LearnsSeparableSigns) {
  // Positives: embeddings agree (elementwise product positive);
  // negatives: disagree. A logistic head must learn this quickly.
  LinkPredictor head(4);
  util::Rng rng(3);
  auto vec = [&rng](float sign) {
    std::vector<float> v(4);
    for (auto& x : v) {
      x = sign * (0.5f + 0.5f * static_cast<float>(rng.UniformDouble()));
    }
    return v;
  };
  for (int epoch = 0; epoch < 300; ++epoch) {
    const auto u = vec(1.f);
    head.Train(u, vec(1.f), 1.f, 0.1f);
    const auto u2 = vec(1.f);
    head.Train(u2, vec(-1.f), 0.f, 0.1f);
  }
  int correct = 0;
  for (int t = 0; t < 100; ++t) {
    correct += head.Score(vec(1.f), vec(1.f)) > 0.5f;
    correct += head.Score(vec(1.f), vec(-1.f)) < 0.5f;
  }
  EXPECT_GT(correct, 190);
}

TEST(ModelServer, InferMatchesEncoder) {
  ModelServer server(SmallConfig());
  const auto sample = MakeSample(1.f, 0.5f, 0.25f);
  EXPECT_EQ(server.Infer(sample), server.encoder().EmbedSeed(sample));
}

// Parameterized sweep over layer counts and dims: output shape contract.
class SageShapeSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SageShapeSweep, OutputDimMatchesConfig) {
  const auto [layers, out_dim] = GetParam();
  SageConfig c;
  c.input_dim = 2;
  c.hidden_dim = 8;
  c.output_dim = out_dim;
  c.num_layers = layers;
  GraphSageEncoder enc(c);
  const auto z = enc.EmbedSeed(MakeSample(1.f, 0.5f, 0.25f));
  EXPECT_EQ(z.size(), out_dim);
  for (float v : z) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SageShapeSweep,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Values(4u, 16u, 32u)));

// ----------------------------------- SIMD dispatch / quantization parity

namespace {
std::vector<util::simd::SimdLevel> Levels() {
  std::vector<util::simd::SimdLevel> levels = {util::simd::SimdLevel::kScalar};
  if (util::simd::kHasAvx2Kernels && util::simd::CpuHasAvx2()) {
    levels.push_back(util::simd::SimdLevel::kAvx2);
  }
  return levels;
}

// A wide randomized sample (fan-out 25x10, dim 10) so SageApply's AVX2
// tile runs full vector lanes plus remainders.
SampledSubgraph WideSample(std::uint64_t seed) {
  SampledSubgraph s;
  s.seed = 1;
  s.layers.resize(3);
  s.layers[0].push_back({1, 0});
  for (std::uint32_t i = 0; i < 25; ++i) {
    s.layers[1].push_back({100 + i, 0});
    for (std::uint32_t j = 0; j < 10; ++j) s.layers[2].push_back({1000 + i * 10 + j, i});
  }
  util::Rng rng(seed);
  for (const auto& layer : s.layers) {
    for (const auto& node : layer) {
      graph::Feature f(10);
      for (auto& v : f) v = static_cast<float>(rng.UniformDouble() * 2 - 1);
      s.features.Set(node.vertex, f);
    }
  }
  return s;
}
}  // namespace

// Acceptance bar: fp32 embeddings are bit-identical whichever SageApply
// level the dispatcher picks — the AVX2 tile must not change a single
// mantissa bit vs scalar.
TEST(GraphSage, EmbeddingBitIdenticalAcrossDispatchLevels) {
  SageConfig c;
  c.input_dim = 10;
  c.hidden_dim = 13;  // odd width: exercises vector remainder lanes
  c.output_dim = 7;
  c.num_layers = 2;
  GraphSageEncoder enc(c);
  const auto sample = WideSample(21);
  std::vector<std::vector<float>> z;
  for (const auto level : Levels()) {
    util::simd::ForceSimdLevel(level);
    z.push_back(enc.EmbedSeed(sample));
    util::simd::ResetSimdLevel();
  }
  for (std::size_t i = 1; i < z.size(); ++i) {
    ASSERT_EQ(z[i].size(), z[0].size());
    for (std::size_t j = 0; j < z[0].size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(z[i][j]), std::bit_cast<std::uint32_t>(z[0][j]))
          << "lane " << j;
    }
  }
}

// Quantized feature storage perturbs each input by a bounded amount
// (fp16: max(|x|*2^-11, 2^-24); int8: scale/2). The resulting embedding
// must stay close to the fp32 embedding — this bounds the end-to-end
// accuracy cost of the storage formats on a unit-norm output.
TEST(GraphSage, QuantizedFeaturesGiveCloseEmbeddings) {
  SageConfig c;
  c.input_dim = 10;
  c.hidden_dim = 16;
  c.output_dim = 16;
  c.num_layers = 2;
  GraphSageEncoder enc(c);
  const auto fp32 = WideSample(22);
  const auto z32 = enc.EmbedSeed(fp32);

  auto quantize_sample = [&](bool fp16) {
    SampledSubgraph q = fp32;  // copies layers; rebuild features quantized
    q.features.Clear();
    fp32.features.ForEach([&](graph::VertexId v, std::span<const float> f) {
      graph::Feature back(f.size());
      if (fp16) {
        for (std::size_t i = 0; i < f.size(); ++i) {
          back[i] = util::simd::F16ToF32(util::simd::F32ToF16(f[i]));
        }
      } else {
        std::vector<std::int8_t> code(f.size());
        const float scale = util::simd::QuantizeInt8(f.data(), f.size(), code.data());
        util::simd::DequantInt8(code.data(), code.size(), scale, back.data());
      }
      q.features.Set(v, back);
    });
    return q;
  };

  for (const bool fp16 : {true, false}) {
    const auto zq = enc.EmbedSeed(quantize_sample(fp16));
    ASSERT_EQ(zq.size(), z32.size());
    double l2 = 0;
    for (std::size_t j = 0; j < z32.size(); ++j) {
      l2 += (zq[j] - z32[j]) * (zq[j] - z32[j]);
    }
    // Inputs are in [-1,1]: fp16 error <= 2^-11, int8 <= maxabs/254 < 4e-3
    // per element. Both unit-norm embeddings must agree to well under 1%.
    EXPECT_LT(std::sqrt(l2), fp16 ? 1e-3 : 5e-2) << (fp16 ? "fp16" : "int8");
    EXPECT_NE(zq, z32) << "quantization should actually perturb something";
  }
}

// ------------------------- computation-reuse tier parity (docs/PERF.md)

namespace {

graph::GraphSchema ChurnSchema() {
  graph::GraphSchema schema;
  schema.vertex_type_names = {"User", "Item"};
  schema.edge_type_names = {"Click", "CoPurchase"};
  schema.edge_endpoints = {{0, 1}, {1, 1}};
  schema.feature_dim = 6;
  return schema;
}

QueryPlan ChurnPlan() {
  SamplingQuery q;
  q.seed_type = 0;
  q.hops = {{0, 3, Strategy::kTopK}, {1, 2, Strategy::kTopK}};
  return Decompose(q, ChurnSchema()).value();
}

SageConfig ChurnConfig(std::uint64_t seed = 7) {
  SageConfig c;
  c.input_dim = 6;
  c.hidden_dim = 13;  // odd width: exercises vector remainder lanes
  c.output_dim = 7;
  c.num_layers = 2;
  c.seed = seed;
  return c;
}

// One random mutation against the core: a rewritten sample cell, a feature
// update, a single-edge delta patch, or a cell retract. `features` gates
// the feature updates: a hop-2 vertex's feature change shifts the hop-1
// aggregates that sampled it without a structural edit to invalidate them
// — by design that drift is bounded by the staleness bound, not tracked
// per aggregate — so the unbounded (-1) parity run churns structure only.
void ApplyRandomChurn(ServingCore& core, util::Rng& rng, bool features = true) {
  const auto user = [&] { return MakeVertexId(0, rng.Uniform(8)); };
  const auto item = [&] { return MakeVertexId(1, rng.Uniform(16)); };
  switch (rng.Uniform(features ? 4 : 3)) {
    case 0: {  // rewrite a cell (level 1 or 2)
      SampleUpdate su;
      su.level = 1 + rng.Uniform(2);
      su.vertex = su.level == 1 ? user() : item();
      su.event_ts = 1;
      const std::uint32_t n = 1 + rng.Uniform(3);
      for (std::uint32_t i = 0; i < n; ++i) {
        su.samples.push_back({item(), 1, 1.0f});
      }
      core.Apply(ServingMessage::Of(std::move(su)));
      break;
    }
    case 1: {  // single-edge delta patch into a hop-2 cell
      SampleDelta d;
      d.level = 2;
      d.vertex = item();
      d.added = {item(), 2, 1.0f};
      d.slot = static_cast<std::uint16_t>(rng.Uniform(3));  // overwrite or append
      d.event_ts = 2;
      core.Apply(ServingMessage::Of(std::move(d)));
      break;
    }
    case 2: {  // retract a hop-2 cell
      core.Apply(ServingMessage::Of(Retract{2, item()}));
      break;
    }
    default: {  // feature update (only when `features`)
      FeatureUpdate fu;
      fu.vertex = rng.Uniform(2) == 0 ? user() : item();
      fu.feature.resize(6);
      for (auto& v : fu.feature) v = static_cast<float>(rng.UniformDouble() * 2 - 1);
      core.Apply(ServingMessage::Of(std::move(fu)));
      break;
    }
  }
}

}  // namespace

// Acceptance bar (satellite test): the cached serve path must be
// byte-identical to the uncached Serve+EmbedSeed under delta churn, on
// every dispatch level. Bound 0 exercises the recompute path every probe
// (full churn, features included — nothing is ever replayed); bound -1
// exercises hit replay + precise Apply/Retract invalidation under
// structural churn (a hit is only correct because every structural
// mutation since the Put dirtied exactly the vertices it touched).
TEST(GraphSage, CachedEmbedBitIdenticalUnderDeltaChurn) {
  for (const std::int64_t bound : {std::int64_t{0}, std::int64_t{-1}}) {
    for (const auto level : Levels()) {
      util::simd::ForceSimdLevel(level);
      ServingCore::Options opt;
      opt.aggregate_cache_entries = 128;
      opt.aggregate_staleness_us = bound;
      ServingCore core(ChurnPlan(), 0, opt);
      GraphSageEncoder enc(ChurnConfig());

      util::Rng rng(20250808 + static_cast<std::uint64_t>(bound + 1));
      CachedEmbedScratch cs;
      ServeScratch ss;
      SampledSubgraph sub;
      std::vector<float> zc;
      for (int round = 0; round < 300; ++round) {
        ApplyRandomChurn(core, rng, /*features=*/bound == 0);
        if (round % 3 != 0) continue;
        const auto seed = MakeVertexId(0, rng.Uniform(8));
        ASSERT_TRUE(enc.EmbedSeedCached(core, seed, cs, zc));
        core.ServeInto(seed, sub, ss);
        const auto zr = enc.EmbedSeed(sub);
        ASSERT_EQ(zc.size(), zr.size());
        for (std::size_t j = 0; j < zr.size(); ++j) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(zc[j]), std::bit_cast<std::uint32_t>(zr[j]))
              << "round " << round << " lane " << j << " bound " << bound;
        }
      }
      // Bound 0 means every probe recomputed; bound -1 must actually have
      // exercised the hit-replay path for the parity above to mean much.
      if (bound == 0) {
        EXPECT_EQ(cs.result.cache_hits, 0u);
      }
      util::simd::ResetSimdLevel();
    }
  }
}

// Hit replay really serves from the cache: warm queries on a static graph
// hit and still match the uncached embedding bit for bit.
TEST(GraphSage, CachedHitsReplayBitIdenticalEmbeddings) {
  ServingCore::Options opt;
  opt.aggregate_cache_entries = 128;
  opt.aggregate_staleness_us = -1;
  ServingCore core(ChurnPlan(), 0, opt);
  util::Rng rng(4242);
  for (int i = 0; i < 200; ++i) ApplyRandomChurn(core, rng);
  GraphSageEncoder enc(ChurnConfig());

  CachedEmbedScratch cs;
  ServeScratch ss;
  SampledSubgraph sub;
  std::vector<float> zc;
  std::uint64_t hits = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t u = 0; u < 8; ++u) {
      const auto seed = MakeVertexId(0, u);
      ASSERT_TRUE(enc.EmbedSeedCached(core, seed, cs, zc));
      if (pass == 1) hits += cs.result.cache_hits;
      core.ServeInto(seed, sub, ss);
      const auto zr = enc.EmbedSeed(sub);
      ASSERT_EQ(zc.size(), zr.size());
      for (std::size_t j = 0; j < zr.size(); ++j) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(zc[j]), std::bit_cast<std::uint32_t>(zr[j]));
      }
    }
  }
  EXPECT_GT(hits, 0u) << "second pass never hit the aggregate cache";
}


// Two models must never share aggregates: entries are keyed by model
// version, so interleaved serves through different encoders stay exact.
TEST(GraphSage, ModelVersionsDoNotCrossContaminateCache) {
  ServingCore::Options opt;
  opt.aggregate_cache_entries = 128;
  opt.aggregate_staleness_us = -1;
  ServingCore core(ChurnPlan(), 0, opt);
  util::Rng rng(99);
  for (int i = 0; i < 200; ++i) ApplyRandomChurn(core, rng);

  GraphSageEncoder enc_a(ChurnConfig(7)), enc_b(ChurnConfig(8));
  ASSERT_NE(enc_a.model_version(), enc_b.model_version());

  CachedEmbedScratch cs;
  ServeScratch ss;
  SampledSubgraph sub;
  std::vector<float> z;
  for (std::uint64_t u = 0; u < 8; ++u) {
    const auto seed = MakeVertexId(0, u);
    for (GraphSageEncoder* enc : {&enc_a, &enc_b}) {
      ASSERT_TRUE(enc->EmbedSeedCached(core, seed, cs, z));  // warm
      ASSERT_TRUE(enc->EmbedSeedCached(core, seed, cs, z));  // hit
      core.ServeInto(seed, sub, ss);
      const auto zr = enc->EmbedSeed(sub);
      ASSERT_EQ(z.size(), zr.size());
      for (std::size_t j = 0; j < zr.size(); ++j) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(z[j]), std::bit_cast<std::uint32_t>(zr[j]));
      }
    }
  }
}

}  // namespace
}  // namespace helios::gnn
