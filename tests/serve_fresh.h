// Test helper: one ServingCore::ServeInto into a fresh result with a fresh
// scratch, for tests that want a result by value.
#pragma once

#include "helios/serving_core.h"

namespace helios {

inline SampledSubgraph ServeFresh(const ServingCore& core, graph::VertexId seed) {
  SampledSubgraph out;
  ServeScratch scratch;
  core.ServeInto(seed, out, scratch);
  return out;
}

}  // namespace helios
