// Fault-tolerance tests (docs/FAULT_TOLERANCE.md): epoch/sequence fencing,
// the heartbeat supervisor state machine, and crash -> restore -> replay
// recovery on both runtimes, including the crash-parity golden property —
// a recovered cluster serves byte-identical caches to one that never
// crashed (zero lost, zero duplicated updates).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/harness.h"
#include "ft/fence.h"
#include "ft/supervisor.h"
#include "gen/datasets.h"
#include "gen/update_stream.h"
#include "helios/threaded_cluster.h"
#include "obs/metrics.h"

namespace helios {
namespace {

using gen::MakeVertexId;

// ------------------------------------------------------------- EpochFence

TEST(EpochFence, FrameWatermarkAdmitsOnlyFreshSeqs) {
  ft::EpochFence fence;
  // First frame from (src=3, epoch=1): everything is fresh.
  auto t1 = fence.BeginFrame(3, 1);
  EXPECT_FALSE(t1.stale);
  EXPECT_EQ(t1.watermark, 0u);
  fence.Advance(3, 1);
  fence.Advance(3, 2);
  fence.Advance(3, 3);

  // A replayed frame re-covering seqs 1..3 plus new 4..5: the watermark
  // captured at BeginFrame separates duplicates from fresh emissions even
  // when coalescing permuted the order inside the frame.
  auto t2 = fence.BeginFrame(3, 1);
  EXPECT_EQ(t2.watermark, 3u);
  EXPECT_LE(2u, t2.watermark);  // seq 2 is a duplicate
  EXPECT_GT(4u, t2.watermark);  // seq 4 is fresh
  fence.Advance(3, 5);
  fence.Advance(3, 4);  // out-of-order within the frame is fine
  EXPECT_EQ(fence.BeginFrame(3, 1).watermark, 5u);
}

TEST(EpochFence, EpochBumpResetsWatermarkAndFencesOldEpoch) {
  ft::EpochFence fence;
  fence.BeginFrame(7, 1);
  fence.Advance(7, 100);

  // Re-admission under epoch 2: seq numbering restarts at 1.
  auto t = fence.BeginFrame(7, 2);
  EXPECT_FALSE(t.stale);
  EXPECT_EQ(t.watermark, 0u);
  fence.Advance(7, 1);

  // A straggler frame from the dead incarnation is stale in full.
  EXPECT_TRUE(fence.BeginFrame(7, 1).stale);
  // Unstamped legacy traffic is always admitted.
  EXPECT_FALSE(fence.BeginFrame(7, 0).stale);
  EXPECT_EQ(fence.BeginFrame(7, 0).watermark, 0u);
}

TEST(EpochFence, PointAdmissionForControlDeltas) {
  ft::EpochFence fence;
  EXPECT_TRUE(fence.Admit(1, 1, 1));
  EXPECT_TRUE(fence.Admit(1, 1, 2));
  EXPECT_FALSE(fence.Admit(1, 1, 2));  // duplicate
  EXPECT_FALSE(fence.Admit(1, 1, 1));  // replayed duplicate
  EXPECT_TRUE(fence.Admit(1, 1, 3));
  EXPECT_TRUE(fence.Admit(1, 0, 999));  // epoch 0: always admitted
  EXPECT_TRUE(fence.Admit(1, 2, 1));    // new epoch resets
  EXPECT_FALSE(fence.Admit(1, 1, 50));  // old epoch fences
}

TEST(EpochFence, ExportRestoreRoundTrip) {
  ft::EpochFence fence;
  fence.Admit(1, 1, 10);
  fence.Admit(2, 3, 7);
  const auto exported = fence.Export();
  EXPECT_EQ(exported.size(), 2u);

  ft::EpochFence restored;
  restored.Restore(exported);
  EXPECT_EQ(restored.sources(), 2u);
  // The restored fence fences exactly what the original would.
  EXPECT_FALSE(restored.Admit(1, 1, 10));
  EXPECT_TRUE(restored.Admit(1, 1, 11));
  EXPECT_FALSE(restored.Admit(2, 2, 100));  // pre-crash epoch
  EXPECT_TRUE(restored.Admit(2, 3, 8));
}

// ------------------------------------------------------------- Supervisor

TEST(Supervisor, DetectsTimeoutRunsRecoveryAndReAdmits) {
  obs::MetricsRegistry registry;
  std::vector<std::uint64_t> recovered;
  ft::Supervisor sup({/*heartbeat_timeout=*/1000}, &registry,
                     [&](std::uint64_t node, std::uint32_t epoch, util::Micros now) {
                       recovered.push_back(node);
                       ft::RecoveryReport r;
                       r.ok = true;
                       r.epoch = epoch;
                       r.restore_us = 5;
                       (void)now;
                       return r;
                     });
  sup.Register(4, 0);
  sup.Heartbeat(4, 500);
  EXPECT_TRUE(sup.Tick(1200).empty());  // age 700 <= timeout

  auto reports = sup.Tick(2000);  // age 1500 > timeout
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].node, 4u);
  EXPECT_TRUE(reports[0].ok);
  EXPECT_EQ(reports[0].epoch, 2u);  // epoch 1 was the first incarnation
  EXPECT_EQ(reports[0].time_to_detect_us, 1500);
  EXPECT_EQ(reports[0].detected_at_us, 2000);
  EXPECT_EQ(sup.state(4), ft::NodeState::kRecovering);
  EXPECT_EQ(recovered, std::vector<std::uint64_t>{4});

  // While recovering, Tick does not re-detect.
  EXPECT_TRUE(sup.Tick(5000).empty());

  // First heartbeat after restoration re-admits.
  sup.Heartbeat(4, 6000);
  EXPECT_EQ(sup.state(4), ft::NodeState::kAlive);

  // A second crash grants a higher epoch — seqs can never collide.
  auto again = sup.Tick(10'000);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].epoch, 3u);

  const auto snapshot = registry.TakeSnapshot();
  EXPECT_EQ(snapshot.CounterTotal("ft.failures_detected"), 2u);
  EXPECT_EQ(snapshot.CounterTotal("ft.recoveries"), 2u);
}

TEST(Supervisor, FailedRecoveryIsTerminal) {
  obs::MetricsRegistry registry;
  ft::Supervisor sup({/*heartbeat_timeout=*/100}, &registry,
                     [](std::uint64_t, std::uint32_t, util::Micros) {
                       ft::RecoveryReport r;
                       r.ok = false;
                       r.error = "checkpoint missing";
                       return r;
                     });
  sup.Register(1, 0);
  auto reports = sup.Tick(500);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].ok);
  EXPECT_EQ(sup.state(1), ft::NodeState::kFailed);
  EXPECT_TRUE(sup.Tick(5000).empty());  // terminal: never re-detected
  EXPECT_EQ(registry.TakeSnapshot().CounterTotal("ft.recovery_failures"), 1u);
  // Unregistered nodes are not supervised.
  sup.Heartbeat(99, 0);
  EXPECT_EQ(sup.state(99), ft::NodeState::kUnknown);
}

// -------------------------------------------------- threaded runtime e2e

graph::GraphSchema Schema() {
  graph::GraphSchema schema;
  schema.vertex_type_names = {"User", "Item"};
  schema.edge_type_names = {"Click", "CoPurchase"};
  schema.edge_endpoints = {{0, 1}, {1, 1}};
  schema.feature_dim = 4;
  return schema;
}

QueryPlan Plan(Strategy strategy = Strategy::kTopK) {
  SamplingQuery q;
  q.id = "it";
  q.seed_type = 0;
  q.hops = {{0, 2, strategy}, {1, 2, strategy}};
  return Decompose(q, Schema()).value();
}

// The cache-parity properties below hold for every sampling strategy:
// serving caches replay the reservoir's own slot writes, so no strategy's
// eviction policy is re-derived anywhere. Each parity test runs its body
// once per strategy.
constexpr Strategy kStrategies[] = {Strategy::kTopK, Strategy::kRandom, Strategy::kEdgeWeight};
template <typename Body>
void ForEachStrategy(Body body) {
  for (const Strategy s : kStrategies) {
    SCOPED_TRACE(StrategyName(s));
    body(s);
  }
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

// Per-process checkpoint directory: concurrent runs of this binary (repeat
// loops) must not delete or overwrite each other's checkpoints.
std::filesystem::path CheckpointDir(const std::string& name) {
  return std::filesystem::temp_directory_path() / (name + "-" + std::to_string(::getpid()));
}

// Kill a node mid-stream, restart it from the checkpoint, and compare every
// serving cache byte-for-byte against a cluster that never crashed.
void CrashRestoreReplayMatchesUninterruptedRun(Strategy strategy) {
  const auto updates = SmallStream();
  const auto plan = Plan(strategy);
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
  const auto dir = CheckpointDir("helios_ft_parity_ckpt");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(cluster.Checkpoint(dir.string()).ok());
  // Publish the tail and crash while it is (potentially) still in flight.
  for (std::size_t i = half; i < updates.size(); ++i) cluster.PublishUpdate(updates[i]);
  ASSERT_TRUE(cluster.KillNode(0));
  EXPECT_FALSE(cluster.NodeAlive(0));
  EXPECT_FALSE(cluster.KillNode(0));  // already dead

  ASSERT_TRUE(cluster.RestartNode(0));
  EXPECT_TRUE(cluster.NodeAlive(0));
  cluster.WaitForIngestIdle();

  const auto snapshot = cluster.MetricsSnapshot();
  EXPECT_GT(snapshot.CounterTotal("ft.updates_replayed"), 0u);

  for (std::uint32_t w = 0; w < options.map.serving_workers; ++w) {
    const auto want = golden.DumpServingCache(w);
    const auto got = cluster.DumpServingCache(w);
    EXPECT_GT(want.size(), 0u);
    EXPECT_EQ(want, got) << "serving worker " << w;

  }
  cluster.Stop();
  golden.Stop();
  std::filesystem::remove_all(dir);
}

TEST(ThreadedRecovery, CrashRestoreReplayMatchesUninterruptedRun) {
  ForEachStrategy(CrashRestoreReplayMatchesUninterruptedRun);
}

// Same property with no checkpoint ever taken: recovery replays the whole
// broker log from offset zero.
void RestartWithoutCheckpointReplaysFromStart(Strategy strategy) {
  const auto updates = SmallStream();
  const auto plan = Plan(strategy);
  ClusterOptions options;
  options.map = {2, 2, 2};

  ThreadedCluster golden(plan, options);
  golden.Start();
  for (const auto& u : updates) golden.PublishUpdate(u);
  golden.WaitForIngestIdle();

  ThreadedCluster cluster(plan, options);
  cluster.Start();
  for (const auto& u : updates) cluster.PublishUpdate(u);
  ASSERT_TRUE(cluster.KillNode(1));
  ASSERT_TRUE(cluster.RestartNode(1));
  cluster.WaitForIngestIdle();

  for (std::uint32_t w = 0; w < options.map.serving_workers; ++w) {
    EXPECT_EQ(golden.DumpServingCache(w), cluster.DumpServingCache(w)) << "serving worker " << w;
  }
  cluster.Stop();
  golden.Stop();
}

TEST(ThreadedRecovery, RestartWithoutCheckpointReplaysFromStart) {
  ForEachStrategy(RestartWithoutCheckpointReplaysFromStart);
}

// sampling.cells is set from the restored tables, not added on top of the
// count the dead incarnation left in the same registry cell.
TEST(ThreadedRecovery, RestartKeepsSamplingCellsGaugeTotal) {
  const auto updates = SmallStream();
  ClusterOptions options;
  options.map = {2, 2, 2};
  ThreadedCluster cluster(Plan(), options);
  cluster.Start();
  for (const auto& u : updates) cluster.PublishUpdate(u);
  cluster.WaitForIngestIdle();
  const auto before = cluster.MetricsSnapshot().GaugeTotal("sampling.cells");
  EXPECT_GT(before, 0);
  ASSERT_TRUE(cluster.KillNode(0));
  ASSERT_TRUE(cluster.RestartNode(0));
  cluster.WaitForIngestIdle();
  EXPECT_EQ(cluster.MetricsSnapshot().GaugeTotal("sampling.cells"), before);
  cluster.Stop();
}

// Records published while a node is dead are first-time work: recovery
// must count their frames in dissemination.* exactly once. Checkpointing at
// idle right before the kill leaves nothing to re-derive, so nothing fences
// and every published message is counted.
TEST(ThreadedRecovery, DeadWindowRecordsCountedExactlyOnce) {
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
  const auto dir = CheckpointDir("helios_ft_dead_window_ckpt");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(cluster.Checkpoint(dir.string()).ok());
  ASSERT_TRUE(cluster.KillNode(0));
  for (std::size_t i = half; i < updates.size(); ++i) cluster.PublishUpdate(updates[i]);
  ASSERT_TRUE(cluster.RestartNode(0));
  cluster.WaitForIngestIdle();

  const auto snapshot = cluster.MetricsSnapshot();
  EXPECT_GT(snapshot.CounterTotal("ft.updates_replayed"), 0u);
  EXPECT_EQ(snapshot.CounterTotal("ft.deltas_fenced"), 0u);
  EXPECT_EQ(snapshot.CounterTotal("dissemination.messages"),
            cluster.Stats().serving_msgs_published);
  for (std::uint32_t w = 0; w < options.map.serving_workers; ++w) {
    EXPECT_EQ(golden.DumpServingCache(w), cluster.DumpServingCache(w)) << "serving worker " << w;
  }
  cluster.Stop();
  golden.Stop();
  std::filesystem::remove_all(dir);
}

// A kill that lands while frames are in flight must not lose a frame its
// shard already counted: a running mailbox slice finishes, and its frames
// are appended inside it. Every counted message then reaches a serving
// worker's apply exactly once, and re-derivations after the restart fence.
// Where the kill falls varies run to run, so CI repeats this test.
TEST(ThreadedRecovery, MidStreamKillCountsEveryAdmittedMessageOnce) {
  const auto updates = SmallStream();
  ClusterOptions options;
  options.map = {2, 2, 2};
  ThreadedCluster cluster(Plan(), options);
  cluster.Start();
  const std::size_t third = updates.size() / 3;
  for (std::size_t i = 0; i < third; ++i) cluster.PublishUpdate(updates[i]);
  cluster.WaitForIngestIdle();
  const auto dir = CheckpointDir("helios_ft_mid_stream_ckpt");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(cluster.Checkpoint(dir.string()).ok());
  for (std::size_t i = third; i < 2 * third; ++i) cluster.PublishUpdate(updates[i]);
  ASSERT_TRUE(cluster.KillNode(0));
  for (std::size_t i = 2 * third; i < updates.size(); ++i) cluster.PublishUpdate(updates[i]);
  ASSERT_TRUE(cluster.RestartNode(0));
  cluster.WaitForIngestIdle();

  const auto snapshot = cluster.MetricsSnapshot();
  EXPECT_GT(snapshot.CounterTotal("dissemination.messages"), 0u);
  EXPECT_EQ(snapshot.CounterTotal("dissemination.messages"),
            snapshot.CounterTotal("dissemination.messages_admitted"));
  cluster.Stop();
  std::filesystem::remove_all(dir);
}

// A checkpoint that exists but cannot be read fails the recovery instead of
// silently replaying the shard from offset 0.
TEST(ThreadedRecovery, CorruptCheckpointFailsRecovery) {
  const auto updates = SmallStream();
  ClusterOptions options;
  options.map = {2, 2, 2};
  ThreadedCluster cluster(Plan(), options);
  cluster.Start();
  for (const auto& u : updates) cluster.PublishUpdate(u);
  cluster.WaitForIngestIdle();
  const auto dir = CheckpointDir("helios_ft_corrupt_ckpt");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(cluster.Checkpoint(dir.string()).ok());
  ASSERT_TRUE(cluster.KillNode(0));

  // Flip every byte past the two metadata copies (2 x 8 clusters of 64 KiB
  // in the checkpoint store): the segment directory still opens, but every
  // checkpoint record fails its CRC.
  const auto path = dir / "checkpoints.hstore";
  const std::uintmax_t data_start = 2 * 8 * 64 * 1024;
  const std::uintmax_t size = std::filesystem::file_size(path);
  ASSERT_GT(size, data_start);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    std::vector<char> bytes(size - data_start);
    f.seekg(static_cast<std::streamoff>(data_start));
    f.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    for (char& c : bytes) c = static_cast<char>(c ^ 0xFF);
    f.seekp(static_cast<std::streamoff>(data_start));
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  EXPECT_FALSE(cluster.RestartNode(0));
  EXPECT_FALSE(cluster.NodeAlive(0));
  cluster.Stop();
  std::filesystem::remove_all(dir);
}

// A checkpoint written after a recovery carries the recovered epoch, and the
// peers' control fences in it hold that epoch. Restoring it into a fresh
// cluster must re-admit each shard above it, or the peers fence (drop) every
// new control delta. Nothing replays after a restore, so nothing may fence.
TEST(ThreadedRecovery, RestoreOfRecoveredCheckpointKeepsControlFlowing) {
  const auto updates = SmallStream();
  const auto plan = Plan();
  ClusterOptions options;
  options.map = {2, 2, 2};
  const std::size_t half = updates.size() / 2;
  const std::size_t three_quarters = updates.size() * 3 / 4;
  const auto dir = CheckpointDir("helios_ft_restore_recovered_ckpt");
  std::filesystem::remove_all(dir);
  {
    ThreadedCluster cluster(plan, options);
    cluster.Start();
    for (std::size_t i = 0; i < half; ++i) cluster.PublishUpdate(updates[i]);
    cluster.WaitForIngestIdle();
    ASSERT_TRUE(cluster.KillNode(0));
    ASSERT_TRUE(cluster.RestartNode(0));
    cluster.WaitForIngestIdle();
    // Control traffic under the recovered epoch: the peers' fences hold it.
    for (std::size_t i = half; i < three_quarters; ++i) cluster.PublishUpdate(updates[i]);
    cluster.WaitForIngestIdle();
    ASSERT_TRUE(cluster.Checkpoint(dir.string()).ok());
    cluster.Stop();
  }

  ThreadedCluster restored(plan, options);
  ASSERT_TRUE(restored.Restore(dir.string()).ok());
  restored.Start();
  for (std::size_t i = three_quarters; i < updates.size(); ++i) restored.PublishUpdate(updates[i]);
  restored.WaitForIngestIdle();
  const auto snapshot = restored.MetricsSnapshot();
  const auto stats = restored.Stats();
  EXPECT_GT(snapshot.CounterTotal("cluster.ctrl_processed"), 0u);
  EXPECT_EQ(snapshot.CounterTotal("ft.ctrl_deltas_fenced"), 0u);
  EXPECT_EQ(snapshot.CounterTotal("ft.deltas_fenced"), 0u);
  EXPECT_EQ(stats.serving_msgs_published, stats.serving_msgs_applied);
  restored.Stop();
  std::filesystem::remove_all(dir);
}

// A checkpoint restored into a fresh cluster carries every subscription but
// none of the serving caches: the restored shards re-send each subscribed
// cell, so after the tail every cache equals that of a cluster that
// ingested the whole stream.
void RestoreIntoFreshClusterMatchesUninterruptedRun(Strategy strategy) {
  const auto updates = SmallStream();
  const auto plan = Plan(strategy);
  ClusterOptions options;
  options.map = {2, 2, 2};
  const std::size_t half = updates.size() / 2;
  const auto dir = CheckpointDir("helios_ft_restore_refill");
  std::filesystem::remove_all(dir);

  ThreadedCluster golden(plan, options);
  golden.Start();
  for (const auto& u : updates) golden.PublishUpdate(u);
  golden.WaitForIngestIdle();
  {
    ThreadedCluster first(plan, options);
    first.Start();
    for (std::size_t i = 0; i < half; ++i) first.PublishUpdate(updates[i]);
    first.WaitForIngestIdle();
    ASSERT_TRUE(first.Checkpoint(dir.string()).ok());
    first.Stop();
  }
  ThreadedCluster restored(plan, options);
  ASSERT_TRUE(restored.Restore(dir.string()).ok());
  restored.Start();
  for (std::size_t i = half; i < updates.size(); ++i) restored.PublishUpdate(updates[i]);
  restored.WaitForIngestIdle();
  for (std::uint32_t w = 0; w < options.map.serving_workers; ++w) {
    const auto want = golden.DumpServingCache(w);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(restored.DumpServingCache(w), want) << "serving worker " << w;
  }
  const auto stats = restored.Stats();
  EXPECT_EQ(stats.serving_msgs_published, stats.serving_msgs_applied);
  restored.Stop();
  golden.Stop();
  std::filesystem::remove_all(dir);
}

TEST(ThreadedRecovery, RestoreIntoFreshClusterRefillsServingCaches) {
  ForEachStrategy(RestoreIntoFreshClusterMatchesUninterruptedRun);
}

TEST(ThreadedRecovery, SupervisorAutoRecoversKilledNode) {
  const auto updates = SmallStream();
  const auto plan = Plan();
  ClusterOptions options;
  options.map = {2, 2, 2};
  options.supervision_timeout = 150'000;  // 150 ms
  ThreadedCluster cluster(plan, options);
  cluster.Start();
  for (const auto& u : updates) cluster.PublishUpdate(u);
  cluster.WaitForIngestIdle();

  ASSERT_TRUE(cluster.KillNode(0));
  EXPECT_FALSE(cluster.NodeAlive(0));
  // The monitor thread must detect the missing heartbeats and bring the
  // node back without any manual restart.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!cluster.NodeAlive(0) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(cluster.NodeAlive(0));
  cluster.WaitForIngestIdle();

  const auto reports = cluster.RecoveryReports();
  ASSERT_GE(reports.size(), 1u);
  EXPECT_EQ(reports[0].node, 0u);
  EXPECT_TRUE(reports[0].ok);
  EXPECT_GE(reports[0].epoch, 2u);
  EXPECT_GT(reports[0].time_to_detect_us, 0);
  EXPECT_EQ(cluster.supervisor()->state(0), ft::NodeState::kAlive);

  // The cluster still serves after re-admission.
  const auto result = cluster.Serve(MakeVertexId(0, 1));
  EXPECT_EQ(result.seed, MakeVertexId(0, 1));
  cluster.Stop();
}

// ------------------------------------------------------- DES runtime e2e

// The virtual-time counterpart of the golden test: crash a sampling node
// inside the emulator, recover from the entry snapshot + durable shard
// logs, and require byte parity with a crash-free emulation (fig20).
void CrashRecoveryMatchesCrashFreeRun(Strategy strategy) {
  gen::DatasetSpec spec = SmallSpec();
  gen::UpdateStream stream(spec);
  const auto updates = stream.Drain();
  const auto plan = Plan(strategy);

  bench::HeliosEmuConfig hc;
  hc.sampling_nodes = 2;
  hc.sampling_threads = 2;
  hc.serving_nodes = 2;
  hc.serving_threads = 2;

  // Paced arrivals, not saturation: virtual arrival times then depend only
  // on the offered rate, not on measured (host-load-sensitive) service
  // times, so the mid-stream kill below deterministically leaves a log tail
  // to replay even when the host is oversubscribed (parallel ctest).
  const double rate_mps = 0.05;
  bench::HeliosDeployment golden(plan, hc);
  const auto base = golden.EmulateIngestion(updates, rate_mps);
  ASSERT_GT(base.makespan_us, 0);

  bench::DesFaultSpec fault;
  fault.victim_node = 0;
  fault.checkpoint_at_us = base.makespan_us / 4;
  fault.kill_at_us = base.makespan_us / 2;
  fault.detect_timeout_us = std::max<sim::SimTime>(base.makespan_us / 20, 500);
  bench::HeliosDeployment faulty(plan, hc);
  const auto report = faulty.EmulateIngestion(updates, rate_mps, nullptr, &fault);

  // Crash/recovery markers are ordered and the exactly-once accounting ran.
  EXPECT_EQ(report.fault_killed_at_us, fault.kill_at_us);
  EXPECT_GT(report.fault_detected_at_us, report.fault_killed_at_us);
  EXPECT_GT(report.fault_recovered_at_us, report.fault_detected_at_us);
  EXPECT_EQ(report.fault_epoch, 2u);
  EXPECT_GT(report.fault_updates_replayed, 0u);
  EXPECT_EQ(report.updates, base.updates);
  EXPECT_FALSE(report.applied_timeline.empty());

  for (std::uint32_t n = 0; n < hc.serving_nodes; ++n) {
    const auto want = golden.serving_core(n).DumpCache();
    const auto got = faulty.serving_core(n).DumpCache();
    EXPECT_GT(want.size(), 0u);
    EXPECT_EQ(want, got) << "serving worker " << n;
  }
  // fig20's exactly-once counting invariant: every counted dissemination
  // message was applied at serving, and every applied one was counted.
  std::uint64_t applied = 0;
  for (const std::uint64_t v : report.applied_timeline) applied += v;
  EXPECT_EQ(report.diss_messages, applied);
}

TEST(DesRecovery, CrashRecoveryMatchesCrashFreeRun) {
  ForEachStrategy(CrashRecoveryMatchesCrashFreeRun);
}

// ------------------------------------------------------ both runtimes

// One stream through both runtimes, whose recoveries run through the one
// control plane (helios/control_plane.h): a threaded cluster and a DES
// deployment of the same layout (2 sampling nodes x 2 shards, 2 serving
// workers) serve byte-identical caches crash-free, after a threaded
// kill/restart, and after a supervised DES recovery.
void CachesMatchCrashFreeAndAfterEitherRuntimesRecovery(Strategy strategy) {
  const auto updates = SmallStream();
  const auto plan = Plan(strategy);
  ClusterOptions options;
  options.map = {2, 2, 2};
  bench::HeliosEmuConfig hc;
  hc.sampling_nodes = 2;
  hc.sampling_threads = 2;
  hc.serving_nodes = 2;
  hc.serving_threads = 2;
  auto expect_parity = [&](bench::HeliosDeployment& des, ThreadedCluster& threaded,
                           const char* what) {
    for (std::uint32_t w = 0; w < options.map.serving_workers; ++w) {
      const auto want = des.serving_core(w).DumpCache();
      EXPECT_GT(want.size(), 0u) << what;
      EXPECT_EQ(want, threaded.DumpServingCache(w)) << what << ", serving worker " << w;
    }
  };

  bench::HeliosDeployment des(plan, hc);
  const auto base = des.EmulateIngestion(updates, 0.05);
  ThreadedCluster threaded(plan, options);
  threaded.Start();
  for (const auto& u : updates) threaded.PublishUpdate(u);
  threaded.WaitForIngestIdle();
  expect_parity(des, threaded, "crash-free");

  ThreadedCluster recovered(plan, options);
  recovered.Start();
  const std::size_t half = updates.size() / 2;
  for (std::size_t i = 0; i < half; ++i) recovered.PublishUpdate(updates[i]);
  recovered.WaitForIngestIdle();
  const auto dir = CheckpointDir("helios_ft_cross_runtime_ckpt");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(recovered.Checkpoint(dir.string()).ok());
  for (std::size_t i = half; i < updates.size(); ++i) recovered.PublishUpdate(updates[i]);
  ASSERT_TRUE(recovered.KillNode(0));
  ASSERT_TRUE(recovered.RestartNode(0));
  recovered.WaitForIngestIdle();
  expect_parity(des, recovered, "threaded kill/restart");

  bench::DesFaultSpec fault;
  fault.victim_node = 0;
  fault.checkpoint_at_us = base.makespan_us / 4;
  fault.kill_at_us = base.makespan_us / 2;
  fault.detect_timeout_us = std::max<sim::SimTime>(base.makespan_us / 20, 500);
  bench::HeliosDeployment faulty(plan, hc);
  const auto report = faulty.EmulateIngestion(updates, 0.05, nullptr, &fault);
  EXPECT_EQ(report.fault_epoch, 2u);
  EXPECT_GT(report.fault_updates_replayed, 0u);
  expect_parity(faulty, threaded, "DES recovery");

  recovered.Stop();
  threaded.Stop();
  std::filesystem::remove_all(dir);
}

TEST(CrossRuntime, CachesMatchCrashFreeAndAfterEitherRuntimesRecovery) {
  ForEachStrategy(CachesMatchCrashFreeAndAfterEitherRuntimesRecovery);
}

// The emulator is reproducible under Random sampling: two saturated
// emulations and the untimed IngestAll path of one stream build the same
// serving caches byte-for-byte, although their message interleavings
// differ (the reservoirs draw identically, and every cached cell is a slot
// copy of its reservoir).
TEST(DesRecovery, EmulationsAndIngestAllBuildIdenticalRandomCaches) {
  const auto updates = SmallStream();
  const auto plan = Plan(Strategy::kRandom);
  bench::HeliosEmuConfig hc;
  hc.sampling_nodes = 2;
  hc.sampling_threads = 2;
  hc.serving_nodes = 2;
  hc.serving_threads = 2;
  bench::HeliosDeployment first(plan, hc), second(plan, hc), untimed(plan, hc);
  first.EmulateIngestion(updates, 0);
  second.EmulateIngestion(updates, 0);
  untimed.IngestAll(updates);
  for (std::uint32_t w = 0; w < hc.serving_nodes; ++w) {
    const auto want = first.serving_core(w).DumpCache();
    EXPECT_GT(want.size(), 0u);
    EXPECT_EQ(want, second.serving_core(w).DumpCache()) << "second emulation, worker " << w;
    EXPECT_EQ(want, untimed.serving_core(w).DumpCache()) << "IngestAll, worker " << w;
  }
}

// Foundational property behind the golden-parity tests above: two
// independent crash-free runs of the threaded runtime converge to
// byte-identical serving caches, even though thread interleavings make the
// emitted message streams differ (subscription windows open and close at
// racy times). Cell existence is a function of subscription refcounts, and
// refcount conservation is interleaving-invariant; cell contents are the
// owning reservoir's, slot for slot.
void CrashFreeRunsConvergeToIdenticalCaches(Strategy strategy) {
  const auto updates = SmallStream();
  const auto plan = Plan(strategy);
  ClusterOptions options;
  options.map = {2, 2, 2};
  ThreadedCluster a(plan, options), b(plan, options);
  a.Start();
  b.Start();
  for (const auto& u : updates) a.PublishUpdate(u);
  for (const auto& u : updates) b.PublishUpdate(u);
  a.WaitForIngestIdle();
  b.WaitForIngestIdle();
  for (std::uint32_t w = 0; w < options.map.serving_workers; ++w) {
    const auto da = a.DumpServingCache(w), db = b.DumpServingCache(w);
    int miss = 0, extra = 0, diff = 0;
    for (const auto& [k, v] : da) {
      auto it = db.find(k);
      if (it == db.end()) ++miss;
      else if (it->second != v) ++diff;
    }
    for (const auto& [k, v] : db) if (!da.count(k)) ++extra;
    EXPECT_EQ(miss + extra + diff, 0) << "worker " << w << " miss=" << miss << " extra=" << extra
                                      << " diff=" << diff;
  }
  a.Stop();
  b.Stop();
}

TEST(ThreadedRecovery, CrashFreeRunsConvergeToIdenticalCaches) {
  ForEachStrategy(CrashFreeRunsConvergeToIdenticalCaches);
}

}  // namespace
}  // namespace helios
