// Event-driven reservoir sampling (§5.2).
//
// Each one-hop query Qk keeps a reservoir table: key vertex -> a value cell
// of at most C sampled neighbor edges (C = the hop's fan-out). Cells are
// refreshed incrementally as edge updates arrive, in O(C) worst case and
// O(1) amortised — never by traversing all neighbors, which is what gives
// Helios its bounded tail latency.
//
// Distribution guarantees (property-tested in tests/reservoir_test.cc):
//   * Random: Vitter's Algorithm R — after x offers every offered edge is
//     in the cell with probability C/x.
//   * TopK: the C offered edges with the largest timestamps (ties broken
//     towards earlier arrivals, matching a stable sort by -ts).
//   * EdgeWeight: A-Res weighted reservoir (Efraimidis-Spirakis) — the
//     inclusion probability of an edge is proportional to its weight in the
//     large-C limit; each edge draws key u^(1/w) and the top-C keys stay.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "helios/query.h"
#include "util/rng.h"

namespace helios {

// Result of offering one edge to a cell.
struct OfferOutcome {
  bool selected = false;                          // the new edge entered the cell
  graph::VertexId evicted = graph::kInvalidVertex;  // replaced sample, if any
  // Index the new edge was written to when selected: the overwritten slot,
  // or the old size when it was appended. Serving caches replay exactly
  // this write (SampleDelta::slot), so they never re-derive an eviction.
  std::uint32_t slot = 0;
};

// One value cell. Fixed capacity C; samples() exposes the current contents.
class ReservoirCell {
 public:
  ReservoirCell(Strategy strategy, std::uint32_t capacity);
  // Checkpoint restore: the cell exactly as it was serialized. `keys` are
  // the A-Res keys parallel to `samples` (EdgeWeight only; empty
  // otherwise).
  ReservoirCell(Strategy strategy, std::uint32_t capacity, std::uint64_t offers_seen,
                std::vector<graph::Edge> samples, std::vector<double> keys);

  OfferOutcome Offer(const graph::Edge& edge, util::Rng& rng);

  const std::vector<graph::Edge>& samples() const { return samples_; }
  std::uint64_t offers_seen() const { return seen_; }
  const std::vector<double>& keys() const { return keys_; }
  std::uint32_t capacity() const { return capacity_; }
  Strategy strategy() const { return strategy_; }

 private:
  OfferOutcome OfferRandom(const graph::Edge& edge, util::Rng& rng);
  OfferOutcome OfferTopK(const graph::Edge& edge);
  OfferOutcome OfferEdgeWeight(const graph::Edge& edge, util::Rng& rng);
  // The two writes a selected offer makes; each reports its slot.
  OfferOutcome Append(const graph::Edge& edge);
  OfferOutcome Replace(std::size_t slot, const graph::Edge& edge);

  Strategy strategy_;
  std::uint32_t capacity_;
  std::uint64_t seen_ = 0;
  std::vector<graph::Edge> samples_;
  // A-Res keys, parallel to samples_; empty for other strategies.
  std::vector<double> keys_;
};

}  // namespace helios
