#include "helios/reservoir.h"

#include <cmath>

namespace helios {

ReservoirCell::ReservoirCell(Strategy strategy, std::uint32_t capacity)
    : strategy_(strategy), capacity_(capacity == 0 ? 1 : capacity) {
  samples_.reserve(capacity_);
  if (strategy_ == Strategy::kEdgeWeight) keys_.reserve(capacity_);
}

ReservoirCell::ReservoirCell(Strategy strategy, std::uint32_t capacity,
                             std::uint64_t offers_seen, std::vector<graph::Edge> samples,
                             std::vector<double> keys)
    : strategy_(strategy),
      capacity_(capacity == 0 ? 1 : capacity),
      seen_(offers_seen),
      samples_(std::move(samples)),
      keys_(std::move(keys)) {}

OfferOutcome ReservoirCell::Offer(const graph::Edge& edge, util::Rng& rng) {
  seen_++;
  switch (strategy_) {
    case Strategy::kRandom: return OfferRandom(edge, rng);
    case Strategy::kTopK: return OfferTopK(edge);
    case Strategy::kEdgeWeight: return OfferEdgeWeight(edge, rng);
  }
  return {};
}

OfferOutcome ReservoirCell::Append(const graph::Edge& edge) {
  const OfferOutcome outcome{true, graph::kInvalidVertex,
                             static_cast<std::uint32_t>(samples_.size())};
  samples_.push_back(edge);
  return outcome;
}

OfferOutcome ReservoirCell::Replace(std::size_t slot, const graph::Edge& edge) {
  const OfferOutcome outcome{true, samples_[slot].dst, static_cast<std::uint32_t>(slot)};
  samples_[slot] = edge;
  return outcome;
}

OfferOutcome ReservoirCell::OfferRandom(const graph::Edge& edge, util::Rng& rng) {
  if (samples_.size() < capacity_) return Append(edge);
  // §5.2: draw p in [1, x]; if p <= C, the p-th item is replaced.
  const std::uint64_t p = rng.Uniform(seen_);  // p in [0, seen)
  return p < capacity_ ? Replace(p, edge) : OfferOutcome{};
}

OfferOutcome ReservoirCell::OfferTopK(const graph::Edge& edge) {
  if (samples_.size() < capacity_) return Append(edge);
  // Find the oldest sample; capacity is a fan-out (<= dozens), so a linear
  // scan beats a heap on cache behaviour (Per.16/Per.19).
  std::size_t oldest = 0;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    if (samples_[i].ts < samples_[oldest].ts) oldest = i;
  }
  return edge.ts > samples_[oldest].ts ? Replace(oldest, edge) : OfferOutcome{};
}

OfferOutcome ReservoirCell::OfferEdgeWeight(const graph::Edge& edge, util::Rng& rng) {
  // A-Res: key = u^(1/w). Zero/negative weights never displace a sample
  // but may fill an empty slot (key 0).
  double u = rng.UniformDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  const double key = edge.weight > 0 ? std::pow(u, 1.0 / static_cast<double>(edge.weight)) : 0.0;

  if (samples_.size() < capacity_) {
    keys_.push_back(key);
    return Append(edge);
  }
  std::size_t smallest = 0;
  for (std::size_t i = 1; i < keys_.size(); ++i) {
    if (keys_[i] < keys_[smallest]) smallest = i;
  }
  if (key <= keys_[smallest]) return {};
  keys_[smallest] = key;
  return Replace(smallest, edge);
}

}  // namespace helios
