#include "helios/query.h"

#include <cctype>

namespace helios {

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kRandom: return "Random";
    case Strategy::kTopK: return "TopK";
    case Strategy::kEdgeWeight: return "EdgeWeight";
  }
  return "?";
}

std::uint64_t QueryPlan::SampleTableLookups() const {
  // 1 lookup for the seed's cell plus the cells of every sampled vertex up
  // to (but excluding) the last hop: 1 + C1 + C1*C2 + ... = bounded by
  // prod_{i<K} C_i for the fan-outs used in practice; we report the exact
  // count.
  std::uint64_t lookups = 1;
  std::uint64_t frontier = 1;
  for (std::size_t i = 0; i + 1 < one_hop.size(); ++i) {
    frontier *= one_hop[i].fanout;
    lookups += frontier;
  }
  return lookups;
}

std::uint64_t QueryPlan::FeatureTableLookups() const {
  // Seed + every sampled vertex.
  std::uint64_t lookups = 1;
  std::uint64_t frontier = 1;
  for (const auto& hop : one_hop) {
    frontier *= hop.fanout;
    lookups += frontier;
  }
  return lookups;
}

util::StatusOr<QueryPlan> Decompose(const SamplingQuery& query,
                                    const graph::GraphSchema& schema) {
  if (query.hops.empty()) return util::Status::InvalidArgument("query has no hops");
  QueryPlan plan;
  plan.query = query;

  graph::VertexTypeId frontier_type = query.seed_type;
  for (std::size_t k = 0; k < query.hops.size(); ++k) {
    const HopSpec& hop = query.hops[k];
    if (hop.edge_type >= schema.edge_endpoints.size()) {
      return util::Status::InvalidArgument("unknown edge type in hop " + std::to_string(k + 1));
    }
    const auto& ep = schema.edge_endpoints[hop.edge_type];
    if (ep.src_type != frontier_type) {
      return util::Status::InvalidArgument(
          "hop " + std::to_string(k + 1) + " edge '" +
          schema.edge_type_names[hop.edge_type] + "' does not start from vertex type '" +
          schema.vertex_type_names[frontier_type] + "'");
    }
    if (hop.fanout == 0) {
      return util::Status::InvalidArgument("hop " + std::to_string(k + 1) + " has fan-out 0");
    }
    // Cell deltas address reservoir slots as u16 on the wire (SampleDelta).
    if (hop.fanout > 65535) {
      return util::Status::InvalidArgument("hop " + std::to_string(k + 1) + " fan-out " +
                                           std::to_string(hop.fanout) + " exceeds 65535");
    }
    OneHopQuery q;
    q.hop = static_cast<std::uint32_t>(k + 1);
    q.edge_type = hop.edge_type;
    q.target_type = frontier_type;
    q.fanout = hop.fanout;
    q.strategy = hop.strategy;
    q.parent = static_cast<int>(k) - 1;
    plan.one_hop.push_back(q);
    frontier_type = ep.dst_type;
  }
  return plan;
}

namespace {

// Minimal recursive-descent reader over the DSL text.
class DslReader {
 public:
  explicit DslReader(const std::string& text) : text_(text) {}

  bool Literal(const char* s) {
    SkipSpace();
    std::size_t i = pos_;
    for (const char* c = s; *c != '\0'; ++c, ++i) {
      if (i >= text_.size() || text_[i] != *c) return false;
    }
    pos_ = i;
    return true;
  }

  bool QuotedName(std::string& out) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '\'') return false;
    std::size_t end = text_.find('\'', pos_ + 1);
    if (end == std::string::npos) return false;
    out = text_.substr(pos_ + 1, end - pos_ - 1);
    pos_ = end + 1;
    return true;
  }

  bool Integer(std::uint32_t& out) {
    SkipSpace();
    std::size_t i = pos_;
    std::uint64_t value = 0;
    while (i < text_.size() && std::isdigit(static_cast<unsigned char>(text_[i]))) {
      value = value * 10 + static_cast<std::uint64_t>(text_[i] - '0');
      ++i;
    }
    if (i == pos_) return false;
    pos_ = i;
    out = static_cast<std::uint32_t>(value);
    return true;
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ == text_.size();
  }

  std::size_t pos() const { return pos_; }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  const std::string& text_;
  std::size_t pos_ = 0;
};

util::Status ParseError(const DslReader& r, const std::string& what) {
  return util::Status::InvalidArgument("query parse error at byte " + std::to_string(r.pos()) +
                                       ": " + what);
}

}  // namespace

util::StatusOr<SamplingQuery> ParseQuery(const std::string& text,
                                         const graph::GraphSchema& schema) {
  DslReader r(text);
  SamplingQuery query;

  if (!r.Literal("g.V(")) return ParseError(r, "expected g.V(");
  std::string seed_name;
  if (!r.QuotedName(seed_name)) return ParseError(r, "expected quoted seed vertex type");
  const int seed_type = schema.VertexTypeByName(seed_name);
  if (seed_type < 0) return ParseError(r, "unknown vertex type '" + seed_name + "'");
  query.seed_type = static_cast<graph::VertexTypeId>(seed_type);
  if (!r.Literal(")")) return ParseError(r, "expected ) after seed type");

  while (!r.AtEnd()) {
    if (!r.Literal(".outV(")) return ParseError(r, "expected .outV(");
    std::string edge_name;
    if (!r.QuotedName(edge_name)) return ParseError(r, "expected quoted edge type");
    const int edge_type = schema.EdgeTypeByName(edge_name);
    if (edge_type < 0) return ParseError(r, "unknown edge type '" + edge_name + "'");
    if (!r.Literal(")")) return ParseError(r, "expected ) after edge type");

    if (!r.Literal(".sample(")) return ParseError(r, "expected .sample(");
    std::uint32_t fanout = 0;
    if (!r.Integer(fanout)) return ParseError(r, "expected integer fan-out");
    if (!r.Literal(")")) return ParseError(r, "expected ) after fan-out");

    if (!r.Literal(".by(")) return ParseError(r, "expected .by(");
    std::string strategy_name;
    if (!r.QuotedName(strategy_name)) return ParseError(r, "expected quoted strategy");
    if (!r.Literal(")")) return ParseError(r, "expected ) after strategy");

    Strategy strategy;
    if (strategy_name == "Random") {
      strategy = Strategy::kRandom;
    } else if (strategy_name == "TopK") {
      strategy = Strategy::kTopK;
    } else if (strategy_name == "EdgeWeight") {
      strategy = Strategy::kEdgeWeight;
    } else {
      return ParseError(r, "unknown strategy '" + strategy_name + "'");
    }

    query.hops.push_back(HopSpec{static_cast<graph::EdgeTypeId>(edge_type), fanout, strategy});
  }

  if (query.hops.empty()) return ParseError(r, "query needs at least one hop");
  return query;
}

}  // namespace helios
