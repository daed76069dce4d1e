// Shared declarations of the benchmark: workload definitions, the inputs
// generated from a seed, the outcome ledger, and the two run modes (the
// threaded cluster phases and the single-threaded traced replay).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen/datasets.h"
#include "graph/types.h"
#include "helios/query.h"
#include "helios/shard_map.h"
#include "spans.h"
#include "stats.h"

namespace helios::perfbench {

// Allocations made by the calling thread (operator new counter in
// alloc_counter.cc).
std::uint64_t ThreadAllocations();

enum class QueryKind : std::uint8_t {
  kServe,        // ThreadedCluster::Serve: route + K-hop assembly
  kEmbedCached,  // route + GraphSageEncoder::EmbedSeedCached on the owner
};

// Every workload: M=2 sampling workers x S=1 shard, so a shard can
// migrate, and N=1 serving worker; datasets at scale 8000.
inline constexpr helios::ShardMap kTopology{2, 1, 1};
inline constexpr std::uint64_t kScale = 8000;

struct Workload {
  std::string name;
  std::string dataset;  // "INTER" or "FIN"
  helios::Strategy strategy = helios::Strategy::kRandom;
  QueryKind query = QueryKind::kServe;
  double seed_zipf = 0.0;  // 0 = uniform seeds
  std::size_t agg_entries = 0;
  std::int64_t agg_staleness_us = -1;

  std::uint64_t initial_edges = 0;  // edges ingested during set-up
  double query_rate = 0;            // open-loop queries/s
  double update_rate = 0;           // open-loop updates/s beside them
  std::uint64_t drain_updates = 0;  // backlog per saturated drain
  std::uint64_t tail_updates = 0;   // log tail replayed by each recovery
};

// Every workload the benchmark knows; nullptr if `name` is unknown.
const Workload* FindWorkload(const std::string& name);

helios::QueryPlan PlanFor(const Workload& w, const gen::DatasetSpec& spec);
gen::DatasetSpec SpecFor(const Workload& w, std::uint64_t seed);

// The inputs of one run, all derived from the seed.
struct Inputs {
  gen::DatasetSpec spec;
  std::vector<graph::GraphUpdate> initial;  // vertices, then initial_edges edges
  std::vector<graph::EdgeUpdate> pool;      // later edges, replayed in a cycle
  std::vector<graph::VertexId> seeds;       // query seeds, used in a cycle
  double gen_seconds = 0;                   // generation wall time
};
Inputs MakeInputs(const Workload& w, std::uint64_t seed);

// Yields the edge pool in a cycle with strictly increasing timestamps, so a
// run can ingest more updates than the generated stream holds.
class EdgeFeed {
 public:
  explicit EdgeFeed(const Inputs& in);
  graph::GraphUpdate Next();

 private:
  const std::vector<graph::EdgeUpdate>* pool_;
  std::size_t pos_ = 0;
  graph::Timestamp ts_ = 0;
};

// Operations attempted and failed, and the first few failure messages.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 20) errors.push_back(what);
    }
  }
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // scratch files (checkpoints, Chrome trace)
};

// Runs the threaded-cluster phases; appends the end-to-end metrics, and the
// program-side per-layer rows when options.trace is set.
void RunClusterPhases(const Workload& w, const RunOptions& options, Ledger& ledger,
                      std::vector<Metric>& e2e, std::vector<Metric>& layers);

// Replays the same inputs single-threaded through each layer's public calls
// with spans; appends the replay's per-layer metrics and writes the Chrome
// trace into options.out_dir.
void RunTracedReplay(const Workload& w, const RunOptions& options, Ledger& ledger,
                     std::vector<Metric>& layers);

}  // namespace helios::perfbench
