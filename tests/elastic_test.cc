// Elastic scale-out tests (docs/ELASTICITY.md): the versioned ShardMap and
// its double-buffered flip, the migration ledger's protocol/crash-
// convergence contract, the load-aware rebalancer policy, and the threaded
// runtime's live shard handoff — including the headline exactly-once
// property (a migrated run serves byte-identical caches to one that never
// migrated) and the three chaos fail points (source mid-checkpoint,
// destination mid-replay, coordinator between epoch bump and map flip).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "elastic/migrator.h"
#include "elastic/rebalancer.h"
#include "elastic/shard_map.h"
#include "ft/supervisor.h"
#include "gen/datasets.h"
#include "gen/update_stream.h"
#include "gen/workload.h"
#include "helios/threaded_cluster.h"
#include "obs/metrics.h"

namespace helios {
namespace {

using gen::MakeVertexId;

// ---------------------------------------------------------------- ShardMap

TEST(ElasticShardMap, ContiguousMatchesStaticLayout) {
  const ShardMap layout{3, 4, 2};
  const auto placement = elastic::ShardMap::Contiguous(layout.TotalShards(),
                                                       layout.shards_per_worker);
  for (std::uint32_t s = 0; s < layout.TotalShards(); ++s) {
    EXPECT_EQ(placement.OwnerOf(s), layout.WorkerOfShard(s)) << "shard " << s;
  }
  EXPECT_EQ(placement.version(), 1u);
  EXPECT_EQ(placement.NumShards(), 12u);
  EXPECT_EQ(placement.ShardsOf(1), (std::vector<std::uint32_t>{4, 5, 6, 7}));
}

TEST(ElasticShardMap, FlipPublishesNewVersionWithoutDisturbingOldViews) {
  auto map = elastic::ShardMap::Striped(6, 3);
  const elastic::ShardMap::View before = map.Current();
  EXPECT_EQ(map.OwnerOf(4), 1u);

  EXPECT_EQ(map.Flip(4, 2), 2u);
  EXPECT_EQ(map.OwnerOf(4), 2u);
  EXPECT_EQ(map.version(), 2u);
  // The double-buffered flip: an in-flight frame routing under the old view
  // keeps seeing the old placement until it drains.
  EXPECT_EQ(before->OwnerOf(4), 1u);
  EXPECT_EQ(before->version, 1u);

  EXPECT_EQ(map.FlipMany({{0, 2}, {1, 2}}), 3u);
  EXPECT_EQ(map.ShardsOf(2), (std::vector<std::uint32_t>{0, 1, 2, 4, 5}));
}

// ------------------------------------------------------------ ShardMigrator

TEST(ShardMigrator, LedgerWalksTheProtocolAndFlipsExactlyOnce) {
  obs::MetricsRegistry registry;
  auto map = elastic::ShardMap::Striped(4, 2);
  elastic::ShardMigrator mig({/*max_concurrent=*/2, &registry}, &map);

  const std::uint64_t id = mig.Begin(/*shard=*/3, /*from=*/1, /*to=*/0, /*now=*/100);
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(mig.Migrating(3));
  EXPECT_EQ(mig.InFlight(), 1u);
  EXPECT_EQ(mig.Begin(3, 1, 0, 101), 0u);  // shard already in flight
  EXPECT_EQ(mig.Begin(2, 0, 0, 101), 0u);  // from == to

  mig.Advance(id, elastic::MigrationState::kTransferring);
  mig.NoteCheckpoint(id, /*pos=*/42, /*bytes=*/1000);
  mig.Advance(id, elastic::MigrationState::kReplaying);
  mig.NoteReplayed(id, 7);
  mig.NoteEpoch(id, 5);
  mig.Advance(id, elastic::MigrationState::kEpochBumped);
  // The crash-convergence window: armed epoch, unpublished flip.
  ASSERT_EQ(mig.NeedingFlip().size(), 1u);
  EXPECT_EQ(mig.NeedingFlip()[0].shard, 3u);

  const std::uint64_t v = mig.Flip(id);
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(map.OwnerOf(3), 0u);
  EXPECT_EQ(mig.Flip(id), v);  // idempotent re-drive publishes nothing new
  EXPECT_EQ(map.version(), 2u);
  EXPECT_TRUE(mig.NeedingFlip().empty());

  mig.Complete(id, 900);
  EXPECT_EQ(mig.InFlight(), 0u);
  EXPECT_FALSE(mig.Migrating(3));
  const auto rec = mig.Get(id);
  EXPECT_EQ(rec.state, elastic::MigrationState::kDone);
  EXPECT_EQ(rec.ckpt_pos, 42u);
  EXPECT_EQ(rec.replayed, 7u);
  EXPECT_EQ(rec.epoch, 5u);
  EXPECT_EQ(rec.map_version, 2u);

  const auto snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.CounterTotal("elastic.migrations_started"), 1u);
  EXPECT_EQ(snap.CounterTotal("elastic.migrations_completed"), 1u);
  EXPECT_EQ(snap.CounterTotal("elastic.records_replayed"), 7u);
  EXPECT_EQ(snap.CounterTotal("elastic.ckpt_bytes_moved"), 1000u);
}

TEST(ShardMigrator, ConcurrencyBudgetRefusesExcessMigrations) {
  auto map = elastic::ShardMap::Striped(8, 4);
  obs::MetricsRegistry registry;
  elastic::ShardMigrator mig({/*max_concurrent=*/2, &registry}, &map);
  const std::uint64_t a = mig.Begin(0, 0, 1, 0);
  const std::uint64_t b = mig.Begin(1, 1, 2, 0);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(mig.Begin(2, 2, 3, 0), 0u);  // budget exhausted
  mig.Abort(a, 10);
  EXPECT_NE(mig.Begin(2, 2, 3, 11), 0u);  // slot freed
  EXPECT_EQ(mig.Get(a).state, elastic::MigrationState::kAborted);
}

// --------------------------------------------------------------- Rebalancer

elastic::ShardLoad Load(std::uint32_t shard, double qps) {
  elastic::ShardLoad l;
  l.shard = shard;
  l.qps = qps;
  return l;
}

TEST(Rebalancer, BalancedClusterPlansNothing) {
  obs::MetricsRegistry registry;
  elastic::RebalancerOptions opt;
  opt.registry = &registry;
  opt.decision_interval_us = 0;
  elastic::Rebalancer reb(opt);
  auto map = elastic::ShardMap::Striped(4, 2);
  elastic::NodeSet nodes(2, 2);
  const std::vector<elastic::ShardLoad> loads = {Load(0, 100), Load(1, 100), Load(2, 100),
                                                 Load(3, 100)};
  const auto plan = reb.Tick(1'000'000, loads, *map.Current(), nodes, 0);
  EXPECT_TRUE(plan.migrations.empty());
  EXPECT_TRUE(plan.drain.empty());
}

TEST(Rebalancer, MovesHottestShardOffOverloadedNode) {
  obs::MetricsRegistry registry;
  elastic::RebalancerOptions opt;
  opt.registry = &registry;
  opt.decision_interval_us = 0;
  opt.shard_cooldown_us = 0;
  elastic::Rebalancer reb(opt);
  auto map = elastic::ShardMap::Striped(4, 2);  // node0: {0,2}, node1: {1,3}
  elastic::NodeSet nodes(2, 2);
  // Node 0 carries 900 qps vs node 1's 100: far beyond the 1.25x watermark.
  const std::vector<elastic::ShardLoad> loads = {Load(0, 600), Load(1, 50), Load(2, 300),
                                                 Load(3, 50)};
  const auto plan = reb.Tick(1'000'000, loads, *map.Current(), nodes, 0);
  ASSERT_FALSE(plan.migrations.empty());
  const auto& m = plan.migrations[0];
  EXPECT_EQ(m.from, 0u);
  EXPECT_EQ(m.to, 1u);
  // Moving the hottest shard (600) would leave node0 at 300 < node1's 650;
  // the planner must pick a move that actually reduces the donor's load
  // below the donor's current level — shard 0 (600) to node 1 gives
  // node1=700 > node0=300, still an improvement over 900 vs 100.
  EXPECT_TRUE(m.shard == 0u || m.shard == 2u);
}

TEST(Rebalancer, AutoscaleTargetsTrackOfferedLoad) {
  obs::MetricsRegistry registry;
  elastic::RebalancerOptions opt;
  opt.registry = &registry;
  opt.decision_interval_us = 0;
  opt.node_capacity_qps = 1000;
  opt.min_nodes = 1;
  opt.max_nodes = 4;
  elastic::Rebalancer reb(opt);
  elastic::NodeSet two(4, 2);  // 4 provisioned, 2 active

  // 1900 qps over 2 nodes = 95% utilisation > scale_up_util: grow.
  auto narrow = elastic::ShardMap::Striped(8, 2);
  std::vector<elastic::ShardLoad> hot;
  for (std::uint32_t s = 0; s < 8; ++s) hot.push_back(Load(s, 237.5));
  const auto up = reb.Tick(1'000'000, hot, *narrow.Current(), two, 0);
  EXPECT_GT(up.target_nodes, 2u);
  EXPECT_LE(up.target_nodes, 4u);

  // 200 qps over 4 nodes = 5% utilisation < scale_down_util: shrink and
  // name concrete nodes to drain.
  auto wide = elastic::ShardMap::Striped(8, 4);
  elastic::NodeSet four(4, 4);
  std::vector<elastic::ShardLoad> cold;
  for (std::uint32_t s = 0; s < 8; ++s) cold.push_back(Load(s, 25));
  const auto down = reb.Tick(2'000'000, cold, *wide.Current(), four, 0);
  EXPECT_LT(down.target_nodes, 4u);
  EXPECT_GE(down.target_nodes, 1u);
  EXPECT_EQ(down.drain.size(), 4u - down.target_nodes);
  // Every shard on a drained node is evacuated to a surviving node.
  for (const auto& m : down.migrations) {
    EXPECT_TRUE(std::find(down.drain.begin(), down.drain.end(), m.from) != down.drain.end());
    EXPECT_TRUE(std::find(down.drain.begin(), down.drain.end(), m.to) == down.drain.end());
  }
}

TEST(Rebalancer, HysteresisAndBudgetThrottleMoves) {
  obs::MetricsRegistry registry;
  elastic::RebalancerOptions opt;
  opt.registry = &registry;
  opt.decision_interval_us = 1'000'000;
  opt.shard_cooldown_us = 0;
  opt.max_concurrent_migrations = 1;
  elastic::Rebalancer reb(opt);
  auto map = elastic::ShardMap::Striped(4, 2);
  elastic::NodeSet nodes(2, 2);
  const std::vector<elastic::ShardLoad> loads = {Load(0, 600), Load(1, 50), Load(2, 300),
                                                 Load(3, 50)};
  // In-flight migrations consume the whole budget: nothing planned.
  auto plan = reb.Tick(1'000'000, loads, *map.Current(), nodes, /*in_flight=*/1);
  EXPECT_TRUE(plan.migrations.empty());
  // Inside the decision interval: the tick is a no-op.
  plan = reb.Tick(1'500'000, loads, *map.Current(), nodes, 0);
  EXPECT_FALSE(plan.acted);
  // Past the interval with budget free: at most one move (budget = 1).
  plan = reb.Tick(2'100'000, loads, *map.Current(), nodes, 0);
  EXPECT_TRUE(plan.acted);
  EXPECT_EQ(plan.migrations.size(), 1u);
}

// ------------------------------------------------- Supervisor::Deregister

TEST(Supervisor, DeregisterRetiresNodeWithoutDetection) {
  obs::MetricsRegistry registry;
  int recoveries = 0;
  ft::Supervisor sup({/*heartbeat_timeout=*/1000}, &registry,
                     [&](std::uint64_t, std::uint32_t epoch, util::Micros) {
                       ++recoveries;
                       ft::RecoveryReport r;
                       r.ok = true;
                       r.epoch = epoch;
                       return r;
                     });
  sup.Register(3, 0);
  EXPECT_EQ(sup.GrantEpoch(3), 2u);
  sup.Deregister(3);
  EXPECT_EQ(sup.state(3), ft::NodeState::kRetired);
  // Intentional silence: a retired node is never "detected" as failed, and
  // its late heartbeats are ignored.
  EXPECT_TRUE(sup.Tick(1'000'000).empty());
  sup.Heartbeat(3, 1'000'000);
  EXPECT_EQ(sup.state(3), ft::NodeState::kRetired);
  EXPECT_EQ(recoveries, 0);
  // Re-registration (revive) continues the epoch ledger monotonically.
  sup.Register(3, 2'000'000);
  EXPECT_EQ(sup.state(3), ft::NodeState::kAlive);
  EXPECT_EQ(sup.GrantEpoch(3), 3u);
}

// --------------------------------------------- threaded runtime migrations

graph::GraphSchema Schema() {
  graph::GraphSchema schema;
  schema.vertex_type_names = {"User", "Item"};
  schema.edge_type_names = {"Click", "CoPurchase"};
  schema.edge_endpoints = {{0, 1}, {1, 1}};
  schema.feature_dim = 4;
  return schema;
}

QueryPlan Plan() {
  SamplingQuery q;
  q.id = "it";
  q.seed_type = 0;
  q.hops = {{0, 2, Strategy::kTopK}, {1, 2, Strategy::kTopK}};
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

std::vector<graph::GraphUpdate> SmallStream() {
  gen::UpdateStream stream(SmallSpec());
  return stream.Drain();
}

void ExpectCacheParity(ThreadedCluster& golden, ThreadedCluster& cluster,
                       std::uint32_t serving_workers) {
  for (std::uint32_t w = 0; w < serving_workers; ++w) {
    const auto want = golden.DumpServingCache(w);
    const auto got = cluster.DumpServingCache(w);
    EXPECT_GT(want.size(), 0u);
    EXPECT_EQ(want, got) << "serving worker " << w;
  }
}

// The headline exactly-once property: a run that live-migrates shards
// mid-stream serves byte-identical caches to one that never migrated.
TEST(ElasticMigration, LiveMigrationMatchesNoMigrationGoldenRun) {
  const auto updates = SmallStream();
  const auto plan = Plan();
  ClusterOptions options;
  options.map = {2, 2, 2};

  ThreadedCluster golden(plan, options);
  golden.Start();
  for (const auto& u : updates) golden.PublishUpdate(u);
  golden.WaitForIngestIdle();

  ThreadedCluster cluster(plan, options);
  cluster.Start();
  const std::size_t third = updates.size() / 3;
  for (std::size_t i = 0; i < third; ++i) cluster.PublishUpdate(updates[i]);
  // Handoff #1 with traffic still in flight behind it.
  ASSERT_TRUE(cluster.MigrateShard(/*shard=*/0, /*dst=*/1));
  EXPECT_EQ(cluster.sampling_assignment().OwnerOf(0), 1u);
  EXPECT_EQ(cluster.sampling_assignment().version(), 2u);
  for (std::size_t i = third; i < 2 * third; ++i) cluster.PublishUpdate(updates[i]);
  // Handoff #2 moves a shard of the other node the opposite way.
  ASSERT_TRUE(cluster.MigrateShard(/*shard=*/3, /*dst=*/0));
  EXPECT_EQ(cluster.sampling_assignment().OwnerOf(3), 0u);
  for (std::size_t i = 2 * third; i < updates.size(); ++i) cluster.PublishUpdate(updates[i]);
  cluster.WaitForIngestIdle();

  // The migrated shard keeps working: migrate it again, back to its home.
  ASSERT_TRUE(cluster.MigrateShard(0, 0));
  cluster.WaitForIngestIdle();

  ExpectCacheParity(golden, cluster, options.map.serving_workers);

  const auto snap = cluster.MetricsSnapshot();
  EXPECT_EQ(snap.CounterTotal("elastic.migrations_completed"), 3u);
  EXPECT_EQ(snap.CounterTotal("elastic.migrations_aborted"), 0u);
  EXPECT_EQ(cluster.migrator().InFlight(), 0u);
  cluster.Stop();
  golden.Stop();
}

TEST(ElasticMigration, RefusesNonsenseMigrations) {
  const auto plan = Plan();
  ClusterOptions options;
  options.map = {2, 2, 2};
  ThreadedCluster cluster(plan, options);
  cluster.Start();
  EXPECT_FALSE(cluster.MigrateShard(0, 0));   // already the owner
  EXPECT_FALSE(cluster.MigrateShard(99, 1));  // unknown shard
  EXPECT_FALSE(cluster.MigrateShard(0, 99));  // unknown node
  ASSERT_TRUE(cluster.KillNode(1));
  EXPECT_FALSE(cluster.MigrateShard(0, 1));   // dead destination
  EXPECT_FALSE(cluster.MigrateShard(3, 0));   // dead source
  cluster.Stop();
}

// Satellite regression: a post-migration serve can never hit the previous
// owner's aggregates — the flip flushes the AggregateCache and the
// admission hot-seed table, so the first post-flip query recomputes.
TEST(ElasticMigration, OwnershipChangeFlushesAggregatesAndHotSeeds) {
  const auto updates = SmallStream();
  const auto plan = Plan();
  ClusterOptions options;
  options.map = {2, 2, 2};
  options.aggregate_cache_entries = 1024;
  options.enable_admission = true;
  ThreadedCluster cluster(plan, options);
  cluster.Start();
  for (const auto& u : updates) cluster.PublishUpdate(u);
  cluster.WaitForIngestIdle();

  // Warm the reuse tier by hand: a cached aggregate on every serving worker
  // and a hot-seed hint on every admission queue.
  const graph::VertexId seed = MakeVertexId(0, 1);
  const std::vector<float> agg = {1.f, 2.f, 3.f, 4.f};
  for (std::uint32_t w = 0; w < options.map.serving_workers; ++w) {
    cluster.serving_core(w).aggregate_cache().Put(seed, /*version=*/1, agg.size(), /*now=*/0,
                                                  agg.data());
    ASSERT_GT(cluster.serving_core(w).aggregate_cache().size(), 0u);
    cluster.admission_queue(w)->NoteServed(seed);
    ASSERT_TRUE(cluster.admission_queue(w)->SeedLooksHot(seed));
  }

  ASSERT_TRUE(cluster.MigrateShard(0, 1));

  for (std::uint32_t w = 0; w < options.map.serving_workers; ++w) {
    // The stale aggregate is gone in full — a lookup misses, so the serve
    // path recomputes against post-migration state.
    EXPECT_EQ(cluster.serving_core(w).aggregate_cache().size(), 0u);
    std::vector<float> out(agg.size(), 0.f);
    bool stale = false;
    EXPECT_FALSE(cluster.serving_core(w).aggregate_cache().Lookup(
        seed, 1, out.size(), /*now=*/0, /*staleness_bound_us=*/-1, out.data(), &stale));
    // And the admission queue no longer classifies the seed hit-likely.
    EXPECT_FALSE(cluster.admission_queue(w)->SeedLooksHot(seed));
  }
  cluster.Stop();
}

// ------------------------------------------------------- chaos fail points

// Per-process checkpoint directory: concurrent runs of this binary (repeat
// loops) must not delete or overwrite each other's checkpoints.
std::filesystem::path CheckpointDir(const std::string& name) {
  return std::filesystem::temp_directory_path() / (name + "-" + std::to_string(::getpid()));
}

// Source dies while serializing the shard: nothing was installed anywhere,
// the migration aborts, and ordinary crash recovery owns the source.
TEST(ElasticChaos, SourceCrashMidCheckpointConverges) {
  const auto updates = SmallStream();
  const auto plan = Plan();
  ClusterOptions options;
  options.map = {2, 2, 2};

  ThreadedCluster golden(plan, options);
  golden.Start();
  for (const auto& u : updates) golden.PublishUpdate(u);
  golden.WaitForIngestIdle();

  ThreadedCluster cluster(plan, options);
  cluster.Start();
  const std::size_t half = updates.size() / 2;
  for (std::size_t i = 0; i < half; ++i) cluster.PublishUpdate(updates[i]);
  cluster.WaitForIngestIdle();
  const auto dir = CheckpointDir("helios_elastic_chaos_src");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(cluster.Checkpoint(dir.string()).ok());
  for (std::size_t i = half; i < updates.size(); ++i) cluster.PublishUpdate(updates[i]);

  EXPECT_FALSE(
      cluster.MigrateShard(0, 1, ThreadedCluster::MigrationFailPoint::kSourceMidCheckpoint));
  EXPECT_FALSE(cluster.NodeAlive(0));
  // The shard never moved.
  EXPECT_EQ(cluster.sampling_assignment().OwnerOf(0), 0u);
  EXPECT_EQ(cluster.MetricsSnapshot().CounterTotal("elastic.migrations_aborted"), 1u);

  ASSERT_TRUE(cluster.RestartNode(0));
  cluster.WaitForIngestIdle();
  ExpectCacheParity(golden, cluster, options.map.serving_workers);
  cluster.Stop();
  golden.Stop();
  std::filesystem::remove_all(dir);
}

// Destination dies while the replay tail is in flight: the map already
// flipped, so recovery rebuilds the shard on its NEW owner from the
// migration checkpoint, and parity still holds.
TEST(ElasticChaos, DestCrashMidReplayConverges) {
  const auto updates = SmallStream();
  const auto plan = Plan();
  ClusterOptions options;
  options.map = {2, 2, 2};

  ThreadedCluster golden(plan, options);
  golden.Start();
  for (const auto& u : updates) golden.PublishUpdate(u);
  golden.WaitForIngestIdle();

  ThreadedCluster cluster(plan, options);
  cluster.Start();
  const std::size_t half = updates.size() / 2;
  for (std::size_t i = 0; i < half; ++i) cluster.PublishUpdate(updates[i]);
  cluster.WaitForIngestIdle();
  const auto dir = CheckpointDir("helios_elastic_chaos_dst");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(cluster.Checkpoint(dir.string()).ok());
  for (std::size_t i = half; i < updates.size(); ++i) cluster.PublishUpdate(updates[i]);

  EXPECT_TRUE(cluster.MigrateShard(0, 1, ThreadedCluster::MigrationFailPoint::kDestMidReplay));
  EXPECT_FALSE(cluster.NodeAlive(1));
  EXPECT_EQ(cluster.sampling_assignment().OwnerOf(0), 1u);

  ASSERT_TRUE(cluster.RestartNode(1));
  EXPECT_TRUE(cluster.NodeAlive(1));
  cluster.WaitForIngestIdle();
  // Still owned by the destination after its recovery.
  EXPECT_EQ(cluster.sampling_assignment().OwnerOf(0), 1u);
  ExpectCacheParity(golden, cluster, options.map.serving_workers);
  cluster.Stop();
  golden.Stop();
  std::filesystem::remove_all(dir);
}

// Coordinator dies between the epoch bump and the map flip: the ledger
// remembers the stranded migration and a recovering control plane re-drives
// the flip idempotently (ResumeMigrations), after which parity holds.
TEST(ElasticChaos, CoordinatorCrashBeforeFlipConverges) {
  const auto updates = SmallStream();
  const auto plan = Plan();
  ClusterOptions options;
  options.map = {2, 2, 2};

  ThreadedCluster golden(plan, options);
  golden.Start();
  for (const auto& u : updates) golden.PublishUpdate(u);
  golden.WaitForIngestIdle();

  ThreadedCluster cluster(plan, options);
  cluster.Start();
  const std::size_t half = updates.size() / 2;
  for (std::size_t i = 0; i < half; ++i) cluster.PublishUpdate(updates[i]);

  EXPECT_TRUE(
      cluster.MigrateShard(0, 1, ThreadedCluster::MigrationFailPoint::kCoordinatorBeforeFlip));
  // Stranded: epoch armed, map not flipped, source still the routed owner.
  EXPECT_EQ(cluster.sampling_assignment().OwnerOf(0), 0u);
  ASSERT_EQ(cluster.migrator().NeedingFlip().size(), 1u);

  // The recovering control plane converges; a second resume is a no-op.
  EXPECT_EQ(cluster.ResumeMigrations(), 1u);
  EXPECT_EQ(cluster.ResumeMigrations(), 0u);
  EXPECT_EQ(cluster.sampling_assignment().OwnerOf(0), 1u);
  EXPECT_TRUE(cluster.migrator().NeedingFlip().empty());

  for (std::size_t i = half; i < updates.size(); ++i) cluster.PublishUpdate(updates[i]);
  cluster.WaitForIngestIdle();
  ExpectCacheParity(golden, cluster, options.map.serving_workers);
  cluster.Stop();
  golden.Stop();
}

// ------------------------------------------------------ drain-then-retire

TEST(ElasticDrain, DrainRetireReviveKeepsParityAndSupervisionQuiet) {
  const auto updates = SmallStream();
  const auto plan = Plan();
  ClusterOptions options;
  options.map = {3, 2, 2};
  options.supervision_timeout = 150'000;  // armed: a drain must stay silent

  ThreadedCluster golden(plan, options);
  golden.Start();
  for (const auto& u : updates) golden.PublishUpdate(u);
  golden.WaitForIngestIdle();

  ThreadedCluster cluster(plan, options);
  cluster.Start();
  const std::size_t half = updates.size() / 2;
  for (std::size_t i = 0; i < half; ++i) cluster.PublishUpdate(updates[i]);

  // Scale down: node 2 hands its shards to the survivors and retires.
  ASSERT_TRUE(cluster.DrainNode(2));
  EXPECT_FALSE(cluster.NodeAlive(2));
  EXPECT_TRUE(cluster.NodeDrained(2));
  EXPECT_TRUE(cluster.sampling_assignment().ShardsOf(2).empty());
  EXPECT_FALSE(cluster.DrainNode(2));     // already drained
  EXPECT_FALSE(cluster.RestartNode(2));   // retired, not crashed
  EXPECT_FALSE(cluster.MigrateShard(0, 2));  // not a migration target

  for (std::size_t i = half; i < updates.size(); ++i) cluster.PublishUpdate(updates[i]);
  cluster.WaitForIngestIdle();
  ExpectCacheParity(golden, cluster, options.map.serving_workers);

  // The supervisor must treat the retirement as intentional silence.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  for (const auto& r : cluster.RecoveryReports()) EXPECT_NE(r.node, 2u);
  EXPECT_EQ(cluster.supervisor()->state(2), ft::NodeState::kRetired);

  // Scale back up: revive and hand a shard back.
  ASSERT_TRUE(cluster.ReviveNode(2));
  EXPECT_TRUE(cluster.NodeAlive(2));
  EXPECT_FALSE(cluster.NodeDrained(2));
  ASSERT_TRUE(cluster.MigrateShard(4, 2));
  EXPECT_EQ(cluster.sampling_assignment().OwnerOf(4), 2u);
  cluster.WaitForIngestIdle();
  ExpectCacheParity(golden, cluster, options.map.serving_workers);
  cluster.Stop();
  golden.Stop();
}

// ------------------------------------------------------- diurnal workload

TEST(DiurnalWorkload, CurveAndArrivalsAreDeterministic) {
  gen::DiurnalSpec spec;
  spec.base_qps = 100;
  spec.peak_qps = 1000;
  spec.period_us = 1'000'000;
  spec.seed = 9;
  // Trough at t=0, peak at half period.
  EXPECT_NEAR(gen::DiurnalRateAtUs(spec, 0), 100.0, 1e-6);
  EXPECT_NEAR(gen::DiurnalRateAtUs(spec, 500'000), 1000.0, 1e-6);
  EXPECT_NEAR(gen::DiurnalRateAtUs(spec, 1'000'000), 100.0, 1e-6);  // periodic

  gen::DiurnalArrivals a(spec), b(spec);
  std::int64_t ta = 0, tb = 0;
  std::size_t peak_half = 0, trough_half = 0;
  for (int i = 0; i < 4000; ++i) {
    ta = a.NextAfter(ta);
    tb = b.NextAfter(tb);
    ASSERT_EQ(ta, tb) << "arrival " << i;  // same spec -> same timestamps
    const std::int64_t phase = ta % spec.period_us;
    if (phase >= 250'000 && phase < 750'000) {
      ++peak_half;
    } else {
      ++trough_half;
    }
  }
  // The peak half of the day must carry the large majority of arrivals.
  EXPECT_GT(peak_half, 2 * trough_half);
}

}  // namespace
}  // namespace helios
