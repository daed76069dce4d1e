// GraphSAGE (mean aggregator) inference over layered K-hop samples, the
// model-service substrate of §7.4/§7.5 (TensorFlow Serving substitute).
//
// The encoder runs L = K layers over the sampled tree produced by
// helios::ServingCore::ServeInto(): layer l computes, for every node that still
// needs an activation at depth l, h_l = ReLU(W_self h_{l-1}(v) + W_neigh
// mean(h_{l-1}(children)) + b), exactly Equation (1) of §2.1. Weights are
// deterministic functions of a seed; TrainLinkHead() learns the logistic
// link-prediction head on top of frozen encoder embeddings (documented
// substitution: the paper fine-tunes a full GraphSAGE offline, we freeze
// the encoder and train the head — staleness affects both the same way,
// through the sampled neighborhood).
#pragma once

#include <cstdint>
#include <vector>

#include "gnn/tensor.h"
#include "graph/types.h"
#include "helios/serving_core.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace helios::gnn {

struct SageConfig {
  std::size_t input_dim = 16;
  std::size_t hidden_dim = 16;
  std::size_t output_dim = 16;
  std::size_t num_layers = 2;
  std::uint64_t seed = 1234;
};

// Reusable workspace for EmbedSeedCached; all buffers keep capacity across
// queries (one per serving thread, like ServeScratch).
struct CachedEmbedScratch {
  AggregateServeResult result;
  ServeScratch serve;
  util::AlignedVector<float> x;     // zero-padded inputs: row 0 seed, 1+i child i
  util::AlignedVector<float> h1;    // first-layer activations, same row order
  util::AlignedVector<float> mean;  // one aggregate/mean row
  util::AlignedVector<float> h2;    // second-layer activation of the seed
};

class GraphSageEncoder {
 public:
  explicit GraphSageEncoder(const SageConfig& config);

  // Embeds the seed of a layered sample (missing features are treated as
  // zero vectors — the eventual-consistency case).
  std::vector<float> EmbedSeed(const SampledSubgraph& sample) const;

  // Cache-assisted embed through the core's computation-reuse tier
  // (docs/PERF.md "Computation reuse & admission"): children whose hop-1
  // aggregate is cached and fresh skip their hop-2 expansion and feature
  // gather entirely. Bit-identical to ServeInto() + EmbedSeed() — the miss
  // path recomputes aggregates in the exact summation order EmbedSeed
  // uses, and hits replay the stored floats. Returns false (out untouched)
  // when the tier cannot serve this shape — cache disabled, plan not
  // 2-hop, or num_layers != 2 — so callers fall back to the plain path.
  // Zero heap allocations in steady state with a reused scratch + out.
  bool EmbedSeedCached(const ServingCore& core, graph::VertexId seed,
                       CachedEmbedScratch& scratch, std::vector<float>& out) const;

  const SageConfig& config() const { return config_; }

  // Deterministic fingerprint of the weights (a pure function of the
  // config, which fully determines them) — the aggregate-cache key's model
  // component: a weight/shape change must not reuse old aggregates.
  std::uint64_t model_version() const { return model_version_; }

 private:
  struct Layer {
    Matrix w_self;   // in x out
    Matrix w_neigh;  // in x out
    std::vector<float> bias;
  };

  // h-out for one node given its own h-in and its children's mean h-in,
  // both `cur` floats wide; writes w_self.cols() floats to `out`.
  void Apply(const Layer& layer, const float* self, const float* neigh_mean, std::size_t cur,
             float* out, bool relu) const;

  SageConfig config_;
  std::vector<Layer> layers_;
  std::uint64_t model_version_ = 0;
};

// Logistic link-prediction head: P(link u->i) = sigmoid(w . (z_u ⊙ z_i) + b).
class LinkPredictor {
 public:
  explicit LinkPredictor(std::size_t dim) : w_(dim, 0.f) {}

  float Score(const std::vector<float>& zu, const std::vector<float>& zi) const;

  // One SGD step on a labelled pair; returns the loss.
  float Train(const std::vector<float>& zu, const std::vector<float>& zi, float label,
              float lr);

 private:
  std::vector<float> w_;
  float b_ = 0.f;
};

// The model service of Fig 3/Fig 19: embeds sampled subgraphs and scores
// candidate links. Stateless per request; one instance per serving replica.
class ModelServer {
 public:
  ModelServer(const SageConfig& config) : encoder_(config), predictor_(config.output_dim) {}

  GraphSageEncoder& encoder() { return encoder_; }
  LinkPredictor& predictor() { return predictor_; }

  std::vector<float> Infer(const SampledSubgraph& sample) const {
    return encoder_.EmbedSeed(sample);
  }

 private:
  GraphSageEncoder encoder_;
  LinkPredictor predictor_;
};

}  // namespace helios::gnn
