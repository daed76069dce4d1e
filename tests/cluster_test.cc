// End-to-end integration tests: the full threaded Helios deployment
// (broker + sampling workers + serving workers) against a
// ground-truth dynamic graph oracle.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "gen/datasets.h"
#include "gen/update_stream.h"
#include "graph/dynamic_graph.h"
#include "helios/threaded_cluster.h"
#include "util/clock.h"

namespace helios {
namespace {

using gen::MakeVertexId;

graph::GraphSchema Schema() {
  graph::GraphSchema schema;
  schema.vertex_type_names = {"User", "Item"};
  schema.edge_type_names = {"Click", "CoPurchase"};
  schema.edge_endpoints = {{0, 1}, {1, 1}};
  schema.feature_dim = 4;
  return schema;
}

QueryPlan Plan(Strategy s, std::uint32_t f1 = 2, std::uint32_t f2 = 2) {
  SamplingQuery q;
  q.id = "it";
  q.seed_type = 0;
  q.hops = {{0, f1, s}, {1, f2, s}};
  return Decompose(q, Schema()).value();
}

gen::DatasetSpec SmallSpec() {
  gen::DatasetSpec spec;
  spec.name = "small";
  spec.schema = Schema();
  spec.vertices_per_type = {200, 300};
  spec.edge_streams = {{0, 3000, 1.05, 1.05}, {1, 4000, 1.05, 1.05}};
  spec.seed = 7;
  return spec;
}

class ClusterTest : public ::testing::Test {
 protected:
  void RunStream(ThreadedCluster& cluster, graph::DynamicGraphStore* oracle = nullptr) {
    gen::UpdateStream stream(SmallSpec());
    graph::GraphUpdate u;
    while (stream.Next(u)) {
      cluster.PublishUpdate(u);
      if (oracle != nullptr) oracle->Apply(u);
    }
    cluster.WaitForIngestIdle();
  }
};

TEST_F(ClusterTest, IngestsEverythingAndBalances) {
  ClusterOptions options;
  options.map = {2, 2, 2};
  ThreadedCluster cluster(Plan(Strategy::kTopK), options);
  cluster.Start();
  RunStream(cluster);
  const auto stats = cluster.Stats();
  EXPECT_EQ(stats.updates_published, stats.updates_processed);
  EXPECT_EQ(stats.updates_published, 200u + 300u + 3000u + 4000u);
  EXPECT_EQ(stats.serving_msgs_published, stats.serving_msgs_applied);
  EXPECT_EQ(stats.ctrl_sent, stats.ctrl_processed);
  EXPECT_GT(stats.serving_msgs_applied, 0u);
  cluster.Stop();
}

TEST_F(ClusterTest, ServedSamplesAreRealEdgesWithCorrectTypes) {
  ClusterOptions options;
  options.map = {2, 2, 3};
  ThreadedCluster cluster(Plan(Strategy::kTopK), options);
  graph::DynamicGraphStore oracle(2);
  cluster.Start();
  RunStream(cluster, &oracle);

  int served_nonempty = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto seed = MakeVertexId(0, i);
    const auto result = cluster.Serve(seed);
    if (result.layers[1].empty()) continue;
    served_nonempty++;
    ASSERT_EQ(result.layers.size(), 3u);
    EXPECT_LE(result.layers[1].size(), 2u);
    EXPECT_LE(result.layers[2].size(), 4u);
    // Every hop-1 sample is a genuine Click neighbor of the seed.
    std::vector<graph::Edge> neighbors;
    oracle.Neighbors(0, seed, neighbors);
    std::set<graph::VertexId> truth;
    for (const auto& e : neighbors) truth.insert(e.dst);
    for (const auto& node : result.layers[1]) {
      EXPECT_TRUE(truth.count(node.vertex)) << "phantom hop-1 sample";
      EXPECT_EQ(gen::VertexTypeOf(node.vertex), 1);
    }
    // Every hop-2 sample is a CoPurchase neighbor of its parent.
    for (const auto& node : result.layers[2]) {
      const auto parent = result.layers[1][node.parent].vertex;
      oracle.Neighbors(1, parent, neighbors);
      bool found = false;
      for (const auto& e : neighbors) found |= e.dst == node.vertex;
      EXPECT_TRUE(found) << "phantom hop-2 sample";
    }
  }
  EXPECT_GT(served_nonempty, 100);
  cluster.Stop();
}

TEST_F(ClusterTest, TopKServesNewestNeighbors) {
  ClusterOptions options;
  options.map = {1, 2, 2};
  ThreadedCluster cluster(Plan(Strategy::kTopK), options);
  graph::DynamicGraphStore oracle(2);
  cluster.Start();
  RunStream(cluster, &oracle);

  int checked = 0;
  for (std::uint64_t i = 0; i < 200 && checked < 50; ++i) {
    const auto seed = MakeVertexId(0, i);
    std::vector<graph::Edge> neighbors;
    if (oracle.Neighbors(0, seed, neighbors) < 3) continue;  // need eviction pressure
    const auto result = cluster.Serve(seed);
    ASSERT_EQ(result.layers[1].size(), 2u) << "full cell expected";
    // The two served samples must be the two newest Click edges.
    std::sort(neighbors.begin(), neighbors.end(),
              [](const graph::Edge& a, const graph::Edge& b) { return a.ts > b.ts; });
    std::set<graph::VertexId> newest{neighbors[0].dst, neighbors[1].dst};
    for (const auto& node : result.layers[1]) {
      EXPECT_TRUE(newest.count(node.vertex)) << "TopK served a stale neighbor";
    }
    checked++;
  }
  EXPECT_GT(checked, 10);
  cluster.Stop();
}

TEST_F(ClusterTest, FeaturesArriveForSampledVertices) {
  ClusterOptions options;
  options.map = {2, 1, 2};
  ThreadedCluster cluster(Plan(Strategy::kTopK), options);
  cluster.Start();
  RunStream(cluster);
  std::uint64_t present = 0, missing = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto result = cluster.Serve(MakeVertexId(0, i));
    present += result.feature_lookups - result.missing_features;
    missing += result.missing_features;
  }
  // The stream announces every vertex feature up front, so after idle the
  // cache must hold features for everything it serves.
  EXPECT_EQ(missing, 0u);
  EXPECT_GT(present, 0u);
  cluster.Stop();
}

TEST_F(ClusterTest, IngestionLatencyRecorded) {
  ClusterOptions options;
  options.map = {1, 1, 1};
  ThreadedCluster cluster(Plan(Strategy::kTopK), options);
  cluster.Start();
  RunStream(cluster);
  const auto hist = cluster.IngestionLatency();
  EXPECT_GT(hist.count(), 0u);
  EXPECT_GT(hist.Mean(), 0.0);
  cluster.Stop();
}

TEST_F(ClusterTest, ServingStableWhileIngesting) {
  // Sampling/serving separation smoke test (§7.2.3): queries succeed and
  // stay bounded while updates pour in concurrently.
  ClusterOptions options;
  options.map = {2, 2, 2};
  ThreadedCluster cluster(Plan(Strategy::kRandom), options);
  cluster.Start();
  std::thread ingester([&] {
    gen::UpdateStream stream(SmallSpec());
    graph::GraphUpdate u;
    while (stream.Next(u)) cluster.PublishUpdate(u);
  });
  std::uint64_t served = 0;
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < 20; ++i) {
      const auto result = cluster.Serve(MakeVertexId(0, i));
      EXPECT_LE(result.layers[1].size(), 2u);
      served++;
    }
  }
  ingester.join();
  cluster.WaitForIngestIdle();
  EXPECT_EQ(served, 1000u);
  EXPECT_EQ(cluster.Stats().queries_served, 1000u);
  cluster.Stop();
}

TEST_F(ClusterTest, CheckpointAndRestoreIntoFreshCluster) {
  const auto dir = std::filesystem::temp_directory_path() / "helios_cluster_ckpt";
  std::filesystem::remove_all(dir);
  ClusterOptions options;
  options.map = {2, 2, 2};
  const auto plan = Plan(Strategy::kTopK);

  ThreadedCluster first(plan, options);
  first.Start();
  RunStream(first);
  ASSERT_TRUE(first.Checkpoint(dir.string()).ok());
  const auto cells_before = first.MetricsSnapshot().GaugeTotal("sampling.cells");
  first.Stop();

  ThreadedCluster second(plan, options);
  ASSERT_TRUE(second.Restore(dir.string()).ok());
  // Restored reservoir/subscription tables: replaying one more edge for a
  // known seed must flow through to serving.
  second.Start();
  second.WaitForIngestIdle();
  EXPECT_EQ(second.MetricsSnapshot().GaugeTotal("sampling.cells"), cells_before);
  second.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(ClusterTest, RepeatedCheckpointsFlipAtomicallyInOneStoreFile) {
  const auto dir = std::filesystem::temp_directory_path() / "helios_cluster_ckpt_flip";
  std::filesystem::remove_all(dir);
  ClusterOptions options;
  options.map = {2, 2, 2};
  const auto plan = Plan(Strategy::kTopK);

  ThreadedCluster first(plan, options);
  first.Start();
  RunStream(first);
  ASSERT_TRUE(first.Checkpoint(dir.string()).ok());
  // Keep ingesting, checkpoint again into the SAME directory: the named
  // "last complete" pointers flip to the new round, old rounds are retired.
  RunStream(first);
  ASSERT_TRUE(first.Checkpoint(dir.string()).ok());
  const auto cells_before = first.MetricsSnapshot().GaugeTotal("sampling.cells");
  first.Stop();

  // The whole checkpoint is one segment-store file, and it restores the
  // SECOND round's state.
  ASSERT_TRUE(std::filesystem::exists(dir / "checkpoints.hstore"));
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);

  ThreadedCluster second(plan, options);
  ASSERT_TRUE(second.Restore(dir.string()).ok());
  second.Start();
  second.WaitForIngestIdle();
  EXPECT_EQ(second.MetricsSnapshot().GaugeTotal("sampling.cells"), cells_before);
  second.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(ClusterTest, DurableLogDirPersistsBrokerLogAcrossClusters) {
  const auto dir = std::filesystem::temp_directory_path() / "helios_cluster_mqlog";
  std::filesystem::remove_all(dir);
  ClusterOptions options;
  options.map = {2, 2, 2};
  options.durable_log_dir = dir.string();
  const auto plan = Plan(Strategy::kTopK);
  std::uint64_t published = 0;
  {
    ThreadedCluster cluster(plan, options);
    cluster.Start();
    RunStream(cluster);
    published = cluster.Stats().updates_published;
    cluster.Stop();
  }
  // The cluster's destructor group-commits the bound store; the updates
  // topic's records (every published update, plus dissemination fan-out)
  // are all on disk.
  store::StoreOptions so;
  so.path = (dir / "mqlog.hstore").string();
  auto st = store::SegmentStore::Open(so, /*create=*/false);
  ASSERT_TRUE(st.ok()) << st.status().message();
  std::uint64_t durable_records = 0;
  for (const auto& info : st.value()->List("mq/updates/")) durable_records += info.records;
  EXPECT_GE(durable_records, published);
  EXPECT_TRUE(st.value()->CheckInvariants().ok());
  st.value().reset();

  // A second cluster over the same directory restores the log and keeps
  // working (ingest + serve a fresh stream on top of the recovered state).
  ThreadedCluster second(plan, options);
  second.Start();
  RunStream(second);
  EXPECT_EQ(second.Stats().updates_published, published);
  second.Stop();
  std::filesystem::remove_all(dir);
}

// Asking for a durable log that cannot open stops the process with the
// directory named, instead of running memory-only.
TEST(ClusterDeathTest, UnopenableDurableLogDirExits) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto file = std::filesystem::temp_directory_path() /
                    ("helios_cluster_not_a_dir_" + std::to_string(::getpid()));
  std::ofstream(file) << "a regular file";
  ClusterOptions options;
  options.map = {1, 1, 1};
  options.durable_log_dir = (file / "mqlog").string();
  EXPECT_EXIT(ThreadedCluster(Plan(Strategy::kTopK), options), ::testing::ExitedWithCode(2),
              "durable log .*helios_cluster_not_a_dir_.*/mqlog: cannot create");
  std::filesystem::remove(file);
}

TEST_F(ClusterTest, RestoreFailsOnMissingDirectory) {
  ClusterOptions options;
  options.map = {1, 1, 1};
  ThreadedCluster cluster(Plan(Strategy::kTopK), options);
  EXPECT_FALSE(cluster.Restore("/nonexistent/helios/ckpt").ok());
}

TEST_F(ClusterTest, TtlPruneShrinksState) {
  ClusterOptions options;
  options.map = {1, 1, 1};
  options.ttl = 1;
  ThreadedCluster cluster(Plan(Strategy::kTopK), options);
  cluster.Start();
  RunStream(cluster);
  const auto before = cluster.Stats();
  ASSERT_GT(before.serving_msgs_applied, 0u);
  // Everything is older than a cutoff beyond the stream's last event time.
  cluster.PruneTTL(/*cutoff=*/10'000'000);
  cluster.WaitForIngestIdle();
  // Serving now returns empty hop-1 layers (cells were pruned/evicted).
  std::size_t nonempty = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    nonempty += !cluster.Serve(MakeVertexId(0, i)).layers[1].empty();
  }
  EXPECT_EQ(nonempty, 0u);
  cluster.Stop();
}

TEST_F(ClusterTest, RandomStrategyEndToEnd) {
  ClusterOptions options;
  options.map = {2, 2, 2};
  ThreadedCluster cluster(Plan(Strategy::kRandom, 3, 2), options);
  graph::DynamicGraphStore oracle(2);
  cluster.Start();
  RunStream(cluster, &oracle);
  std::uint64_t phantom = 0, total = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto seed = MakeVertexId(0, i);
    const auto result = cluster.Serve(seed);
    std::vector<graph::Edge> neighbors;
    oracle.Neighbors(0, seed, neighbors);
    std::set<graph::VertexId> truth;
    for (const auto& e : neighbors) truth.insert(e.dst);
    for (const auto& node : result.layers[1]) {
      total++;
      phantom += !truth.count(node.vertex);
    }
  }
  EXPECT_GT(total, 100u);
  EXPECT_EQ(phantom, 0u);
  cluster.Stop();
}

TEST_F(ClusterTest, EdgePlacementBoth) {
  // kBoth: every edge is also stored reversed, so a CoPurchase i->j makes
  // j a sampleable neighbor of i AND i a sampleable neighbor of j.
  ClusterOptions options;
  options.map = {1, 2, 1};
  options.edge_placement = graph::EdgePlacement::kBoth;
  // Item-Item query so reversal stays type-correct.
  SamplingQuery q;
  q.seed_type = 1;
  q.hops = {{1, 2, Strategy::kTopK}};
  graph::GraphSchema schema = Schema();
  ThreadedCluster cluster(Decompose(q, schema).value(), options);
  cluster.Start();
  const auto i = MakeVertexId(1, 1), j = MakeVertexId(1, 2);
  cluster.PublishUpdate(graph::EdgeUpdate{1, i, j, 10, 1.f});
  cluster.WaitForIngestIdle();
  const auto from_i = cluster.Serve(i);
  const auto from_j = cluster.Serve(j);
  ASSERT_EQ(from_i.layers[1].size(), 1u);
  EXPECT_EQ(from_i.layers[1][0].vertex, j);
  ASSERT_EQ(from_j.layers[1].size(), 1u);
  EXPECT_EQ(from_j.layers[1][0].vertex, i);
  EXPECT_EQ(cluster.Stats().updates_published, 2u);  // original + mirror
  cluster.Stop();
}

TEST_F(ClusterTest, EdgePlacementByDest) {
  // kByDest: only the reversed edge is stored — sampling sees in-neighbors.
  ClusterOptions options;
  options.map = {1, 1, 1};
  options.edge_placement = graph::EdgePlacement::kByDest;
  SamplingQuery q;
  q.seed_type = 1;
  q.hops = {{1, 2, Strategy::kTopK}};
  graph::GraphSchema schema = Schema();
  ThreadedCluster cluster(Decompose(q, schema).value(), options);
  cluster.Start();
  const auto i = MakeVertexId(1, 1), j = MakeVertexId(1, 2);
  cluster.PublishUpdate(graph::EdgeUpdate{1, i, j, 10, 1.f});
  cluster.WaitForIngestIdle();
  EXPECT_TRUE(cluster.Serve(i).layers[1].empty());
  const auto from_j = cluster.Serve(j);
  ASSERT_EQ(from_j.layers[1].size(), 1u);
  EXPECT_EQ(from_j.layers[1][0].vertex, i);
  cluster.Stop();
}

// ---------------------------------------------------------------------------
// Admission front door + computation-reuse tier at the cluster level
// (docs/PERF.md "Computation reuse & admission").

// Caller threads serve while the admission pump serves tickets: each thread
// assembles its queries in its own serve scratch, so none is shared (the
// TSan CI job runs this).
TEST_F(ClusterTest, CallerThreadsServeWhileAdmissionPumpServes) {
  ClusterOptions options;
  options.map = {2, 2, 2};
  options.enable_admission = true;
  ThreadedCluster cluster(Plan(Strategy::kTopK), options);
  cluster.Start();
  RunStream(cluster);

  std::thread caller([&] {
    for (std::uint64_t u = 0; u < 100; ++u) cluster.Serve(MakeVertexId(0, u));
  });
  const std::int64_t deadline = util::NowMicros() + 1'000'000;
  for (std::uint64_t u = 0; u < 100; ++u) {
    EXPECT_EQ(cluster.SubmitQuery(MakeVertexId(0, u), deadline),
              AdmissionQueue::Outcome::kAdmitted);
    EXPECT_EQ(cluster.Serve(MakeVertexId(0, u)).seed, MakeVertexId(0, u));
  }
  caller.join();
  cluster.WaitForQueryIdle();
  EXPECT_EQ(cluster.Stats().queries_served, 300u);
  cluster.Stop();
}

TEST_F(ClusterTest, AdmissionFrontDoorServesRoutedQueries) {
  ClusterOptions options;
  options.map = {2, 2, 2};
  options.enable_admission = true;
  options.aggregate_cache_entries = 256;
  ThreadedCluster cluster(Plan(Strategy::kTopK), options);
  cluster.Start();
  RunStream(cluster);

  const std::int64_t deadline = util::NowMicros() + 1'000'000;
  for (std::uint64_t u = 0; u < 100; ++u) {
    EXPECT_EQ(cluster.SubmitQuery(MakeVertexId(0, u), deadline),
              AdmissionQueue::Outcome::kAdmitted);
  }
  cluster.WaitForQueryIdle();

  std::uint64_t admitted = 0, shed = 0;
  for (std::uint32_t w = 0; w < options.map.serving_workers; ++w) {
    const auto s = cluster.admission_queue(w)->stats();
    admitted += s.admitted;
    shed += s.shed() + s.shed_deadline;
  }
  EXPECT_EQ(admitted, 100u);
  EXPECT_EQ(shed, 0u);
  EXPECT_EQ(cluster.Stats().queries_served, 100u);
  cluster.Stop();
}

TEST_F(ClusterTest, AdmissionShedsOnFullQueueAndExpiredDeadlines) {
  ClusterOptions options;
  options.map = {1, 1, 1};  // one serving worker: every query shares a queue
  options.enable_admission = true;
  options.admission.max_depth = 2;
  ThreadedCluster cluster(Plan(Strategy::kTopK), options);

  // No pump yet (Start() below): the queue fills deterministically.
  const std::int64_t deadline = util::NowMicros() + 10'000'000;
  EXPECT_EQ(cluster.SubmitQuery(MakeVertexId(0, 1), deadline),
            AdmissionQueue::Outcome::kAdmitted);
  EXPECT_EQ(cluster.SubmitQuery(MakeVertexId(0, 2), deadline),
            AdmissionQueue::Outcome::kAdmitted);
  EXPECT_EQ(cluster.SubmitQuery(MakeVertexId(0, 3), deadline),
            AdmissionQueue::Outcome::kShedFull);

  cluster.Start();
  cluster.WaitForQueryIdle();  // pump drains the two admitted queries
  EXPECT_EQ(cluster.Stats().queries_served, 2u);

  // An already-expired deadline is admitted but shed at pop, and
  // WaitForQueryIdle's accounting still converges.
  EXPECT_EQ(cluster.SubmitQuery(MakeVertexId(0, 4), util::NowMicros() - 1000),
            AdmissionQueue::Outcome::kAdmitted);
  cluster.WaitForQueryIdle();
  const auto s = cluster.admission_queue(0)->stats();
  EXPECT_EQ(s.shed_full, 1u);
  EXPECT_EQ(s.shed_deadline, 1u);
  EXPECT_EQ(cluster.Stats().queries_served, 2u);  // the expired one never served

  const auto snapshot = cluster.MetricsSnapshot();
  EXPECT_EQ(snapshot.CounterTotal("serving.admission.shed_full"), 1u);
  EXPECT_EQ(snapshot.CounterTotal("serving.admission.shed_deadline"), 1u);
  EXPECT_EQ(snapshot.CounterTotal("serving.cache.shed"), 2u);
  cluster.Stop();
}

// An admitted ticket is scored from enqueue: one that waits 50 ms in the
// queue before the pump starts reaches the hub with at least that latency,
// not just its serve time.
TEST_F(ClusterTest, AdmittedLatencyIncludesQueueWait) {
  ClusterOptions options;
  options.map = {1, 1, 2};
  options.enable_admission = true;
  obs::MetricsRegistry hub_registry;
  obs::TelemetryHub::Options topt;
  topt.num_lanes = options.map.serving_workers;
  obs::TelemetryHub hub(&hub_registry, topt);
  options.telemetry = &hub;
  ThreadedCluster cluster(Plan(Strategy::kTopK), options);

  const graph::VertexId seed = MakeVertexId(0, 1);
  ASSERT_EQ(cluster.SubmitQuery(seed, util::NowMicros() + 10'000'000),
            AdmissionQueue::Outcome::kAdmitted);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cluster.Start();
  cluster.WaitForQueryIdle();
  hub.Advance(util::NowMicros());
  EXPECT_GE(hub.P99Of(cluster.RouteOf(seed)), 50'000u);
  EXPECT_EQ(cluster.admission_queue(cluster.RouteOf(seed))->stats().completed_in_deadline, 1u);
  cluster.Stop();
}

// SubmitQuery on a cluster built without admission is a checked
// precondition, not a silent synchronous serve.
TEST(ClusterDeathTest, SubmitQueryWithoutAdmissionAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ClusterOptions options;
  options.map = {1, 1, 1};
  ThreadedCluster cluster(Plan(Strategy::kTopK), options);
  EXPECT_DEATH(cluster.SubmitQuery(MakeVertexId(0, 1), util::NowMicros() + 1000),
               "SubmitQuery needs ClusterOptions::enable_admission");
}

// Chaos bar (satellite): crash recovery must cold-start the reuse tier —
// replay may re-apply deltas the caches served around, so nothing cached
// survives a RestartNode, and post-recovery serves recompute fresh.
TEST_F(ClusterTest, RecoveryColdStartsAggregateCaches) {
  ClusterOptions options;
  options.map = {2, 2, 2};
  options.aggregate_cache_entries = 256;
  ThreadedCluster cluster(Plan(Strategy::kTopK), options);
  cluster.Start();
  RunStream(cluster);

  // Warm every worker's cache through the cache-assisted serve path.
  AggregateServeResult r;
  ServeScratch scratch;
  for (std::uint64_t u = 0; u < 50; ++u) {
    const auto seed = MakeVertexId(0, u);
    ASSERT_TRUE(
        cluster.serving_core(cluster.RouteOf(seed)).ServeAggregatesInto(seed, 4, 1, r, scratch));
  }
  std::size_t cached = 0;
  for (std::uint32_t w = 0; w < options.map.serving_workers; ++w) {
    cached += cluster.serving_core(w).aggregate_cache().size();
  }
  ASSERT_GT(cached, 0u);

  ASSERT_TRUE(cluster.KillNode(0));
  ASSERT_TRUE(cluster.RestartNode(0));
  cluster.WaitForIngestIdle();
  for (std::uint32_t w = 0; w < options.map.serving_workers; ++w) {
    EXPECT_EQ(cluster.serving_core(w).aggregate_cache().size(), 0u) << "worker " << w;
  }

  // The tier still serves after the flush — recomputing, not replaying.
  r.Reset(graph::kInvalidVertex);
  const auto seed = MakeVertexId(0, 7);
  ASSERT_TRUE(
      cluster.serving_core(cluster.RouteOf(seed)).ServeAggregatesInto(seed, 4, 1, r, scratch));
  EXPECT_EQ(r.cache_hits, 0u);
  EXPECT_GT(r.cache_misses + r.missing_cells, 0u);
  cluster.Stop();
}

}  // namespace
}  // namespace helios
