#include "helios/coordinator.h"

namespace helios {

util::StatusOr<QueryPlan> Coordinator::RegisterQuery(const std::string& dsl,
                                                     const graph::GraphSchema& schema,
                                                     const std::string& query_id) {
  auto parsed = ParseQuery(dsl, schema);
  if (!parsed.ok()) return parsed.status();
  SamplingQuery query = parsed.value();
  query.id = query_id;
  return RegisterQuery(query, schema);
}

util::StatusOr<QueryPlan> Coordinator::RegisterQuery(const SamplingQuery& query,
                                                     const graph::GraphSchema& schema) {
  auto plan = Decompose(query, schema);
  if (!plan.ok()) return plan.status();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    plan_ = plan.value();
  }
  return plan;
}

std::optional<QueryPlan> Coordinator::plan() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_;
}

}  // namespace helios
