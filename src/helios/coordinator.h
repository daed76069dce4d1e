// Coordinator (§4.1): query registration and decomposition.
//
// The coordinator is deliberately thin — it sits on no data path. It
// registers the user's sampling query, validates and decomposes it into the
// one-hop DAG (QueryPlan) that it hands to every worker. Liveness is
// ft::Supervisor's job, and checkpoints are taken when the driver asks
// (ThreadedCluster::Checkpoint).
#pragma once

#include <mutex>
#include <optional>
#include <string>

#include "graph/types.h"
#include "helios/query.h"
#include "util/status.h"

namespace helios {

class Coordinator {
 public:
  // Registers the user-specified query: parses the DSL, decomposes it into
  // one-hop queries (§5.1), and stores the plan for distribution. Only one
  // query may be registered (re-registration replaces it; live workers are
  // expected to be restarted, as in the paper's deployment model).
  util::StatusOr<QueryPlan> RegisterQuery(const std::string& dsl,
                                          const graph::GraphSchema& schema,
                                          const std::string& query_id);
  util::StatusOr<QueryPlan> RegisterQuery(const SamplingQuery& query,
                                          const graph::GraphSchema& schema);

  std::optional<QueryPlan> plan() const;

 private:
  mutable std::mutex mutex_;
  std::optional<QueryPlan> plan_;
};

}  // namespace helios
