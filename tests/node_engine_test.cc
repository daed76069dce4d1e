// Node engine tests (helios/node_engine.h), single-threaded: no actors, no
// DES. A small rig feeds per-shard logs through ShardSteps into
// FrameAppliers and ServingCores, and checks the engine's exactly-once
// contract directly — a crash plus Install() from a checkpoint at any
// offset converges to the same serving bytes as an uninterrupted run, and
// dissemination.* counts exactly the messages the fences admit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "gen/datasets.h"
#include "gen/update_stream.h"
#include "graph/update_codec.h"
#include "helios/node_engine.h"
#include "helios/query.h"
#include "mq/mq.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace helios {
namespace {

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
  q.id = "engine";
  q.seed_type = 0;
  q.hops = {{0, 2, Strategy::kTopK}, {1, 2, Strategy::kTopK}};
  return Decompose(q, Schema()).value();
}

std::vector<graph::GraphUpdate> Stream() {
  gen::DatasetSpec spec;
  spec.name = "engine";
  spec.schema = Schema();
  spec.vertices_per_type = {60, 90};
  spec.edge_streams = {{0, 700, 1.05, 1.05}, {1, 900, 1.05, 1.05}};
  spec.seed = 11;
  gen::UpdateStream stream(spec);
  return stream.Drain();
}

// One sampling node with three shards and two serving workers, driven in
// rounds: each round every shard consumes up to `chunk` records of its log.
class Rig : private ShardStep::Sink {
 public:
  explicit Rig(const QueryPlan& plan)
      : plan_(plan), log_("updates", map_.TotalShards()), ledgers_(map_.TotalShards()) {
    for (std::uint32_t s = 0; s < map_.TotalShards(); ++s) steps_.push_back(MakeStep(s));
    appliers_.reserve(map_.serving_workers);
    for (std::uint32_t w = 0; w < map_.serving_workers; ++w) {
      serving_.push_back(std::make_unique<ServingCore>(plan_, w));
      appliers_.emplace_back(&registry_, nullptr, w);
    }
  }

  void Publish(const std::vector<graph::GraphUpdate>& updates) {
    for (const auto& u : updates) {
      const auto* e = std::get_if<graph::EdgeUpdate>(&u);
      const graph::VertexId v = e != nullptr ? e->src : std::get<graph::VertexUpdate>(u).id;
      log_.partition(map_.ShardOf(v)).Append(std::string(), graph::EncodeUpdate(u), ++clock_);
    }
  }

  // Consumes shard `s`'s log from its applied offset, at most `max` records
  // and never past `limit`. Returns the records consumed.
  std::size_t Step(std::uint32_t s, std::size_t max, std::uint64_t limit = ~0ULL) {
    ShardStep& step = *steps_[s];
    const std::uint64_t from = step.core().applied_offset();
    const std::uint64_t end = std::min(log_.partition(s).end_offset(), limit);
    if (end <= from) return 0;
    std::vector<mq::Record> records;
    log_.partition(s).ReadFrom(from, std::min<std::uint64_t>(max, end - from), records);
    step.Consume(records, *this);
    return records.size();
  }

  // Rounds until every log is fully consumed; shard 0 uses `chunk0`.
  void Drain(std::size_t chunk, std::size_t chunk0) {
    for (bool progress = true; progress;) {
      progress = false;
      for (std::uint32_t s = 0; s < map_.TotalShards(); ++s) {
        progress = Step(s, s == 0 ? chunk0 : chunk) > 0 || progress;
      }
    }
  }

  // Runs rounds until shard 0 has applied exactly `offset` (other shards
  // keep pace with `chunk`).
  void RunShard0To(std::uint64_t offset, std::size_t chunk) {
    while (steps_[0]->core().applied_offset() < offset) {
      ASSERT_GT(Step(0, chunk, offset), 0u) << "shard 0 log ends before offset " << offset;
      for (std::uint32_t s = 1; s < map_.TotalShards(); ++s) Step(s, chunk);
    }
  }

  std::string Checkpoint0() const {
    graph::ByteWriter w;
    steps_[0]->core().Serialize(w);
    return w.Take();
  }

  // Crash: shard 0's step and its pending state die; a fresh incarnation
  // installs `checkpoint` and replays its log to the current end. Returns
  // the records to replay.
  std::uint64_t CrashAndInstall0(const std::string& checkpoint, std::uint32_t epoch) {
    steps_[0] = MakeStep(0);
    const std::uint64_t end = log_.partition(0).end_offset();
    EXPECT_TRUE(steps_[0]->Install(&checkpoint, end, epoch).ok());
    return end - steps_[0]->core().applied_offset();
  }

  std::uint64_t Applied0() { return steps_[0]->core().applied_offset(); }
  void Prune0(graph::Timestamp cutoff) { steps_[0]->Prune(cutoff, *this); }

  std::uint64_t Counter(const std::string& name) const {
    return registry_.TakeSnapshot().CounterTotal(name);
  }
  std::uint64_t admitted() const { return admitted_; }
  std::map<std::string, std::string> Cache(std::uint32_t w) const { return serving_[w]->DumpCache(); }
  std::uint32_t serving_workers() const { return map_.serving_workers; }

 private:
  std::unique_ptr<ShardStep> MakeStep(std::uint32_t s) {
    return std::make_unique<ShardStep>(
        std::make_unique<SamplingShardCore>(plan_, map_, s, /*seed=*/5),
        ShardStep::Wiring{&registry_, &wall_, nullptr, nullptr, 0, &ledgers_[s]});
  }

  void Frame(std::uint32_t sew, const std::string& frame, std::uint32_t) override {
    appliers_[sew].Deliver(frame, [&](std::uint32_t, const ServingMessage& m) {
      serving_[sew]->Apply(m);
      ++admitted_;
    });
  }
  void Ctrl(std::uint32_t shard, const SubscriptionDelta& delta) override {
    log_.partition(shard).Append(std::string(), EncodeCtrlRecord(delta), ++clock_);
  }

  QueryPlan plan_;
  ShardMap map_{1, 3, 2};
  obs::MetricsRegistry registry_;
  obs::WallClock wall_;
  mq::Topic log_;
  std::vector<ShardLedger> ledgers_;
  std::vector<std::unique_ptr<ShardStep>> steps_;
  std::vector<std::unique_ptr<ServingCore>> serving_;
  std::vector<FrameApplier> appliers_;
  std::int64_t clock_ = 0;
  std::uint64_t admitted_ = 0;
};

TEST(NodeEngine, UninterruptedRunCountsEveryAdmittedMessage) {
  Rig rig(Plan());
  rig.Publish(Stream());
  rig.Drain(7, 7);
  EXPECT_GT(rig.admitted(), 0u);
  EXPECT_EQ(rig.Counter("dissemination.messages"), rig.admitted());
  EXPECT_EQ(rig.Counter("ft.deltas_fenced"), 0u);
}

// Crash shard 0 after it ran `crash_after` records past a checkpoint taken
// at `ckpt`, install the checkpoint into a fresh step, replay with a
// different frame size, and compare against an uninterrupted run.
void CrashInstallMatchesStraightRun(std::uint64_t ckpt, std::uint64_t crash_after) {
  const auto plan = Plan();
  const auto updates = Stream();
  Rig straight(plan);
  straight.Publish(updates);
  straight.Drain(7, 7);

  Rig crashed(plan);
  crashed.Publish(updates);
  crashed.RunShard0To(ckpt, 7);
  const std::string checkpoint = crashed.Checkpoint0();
  crashed.RunShard0To(ckpt + crash_after, 7);
  const std::uint64_t to_replay = crashed.CrashAndInstall0(checkpoint, /*epoch=*/2);
  crashed.Drain(7, 5);

  for (std::uint32_t w = 0; w < straight.serving_workers(); ++w) {
    const auto want = straight.Cache(w);
    EXPECT_GT(want.size(), 0u);
    EXPECT_EQ(want, crashed.Cache(w)) << "serving worker " << w << ", checkpoint at " << ckpt;
  }
  // Re-derived frames are fenced and uncounted; first-time ones are
  // counted and admitted: counted == admitted, exactly once.
  EXPECT_EQ(crashed.Counter("dissemination.messages"), crashed.admitted()) << "checkpoint at "
                                                                           << ckpt;
  if (crash_after > 0) {
    EXPECT_GT(crashed.Counter("ft.deltas_fenced"), 0u);
  } else {
    EXPECT_EQ(crashed.Counter("ft.deltas_fenced"), 0u);
  }
  EXPECT_GE(to_replay, crash_after);
  EXPECT_EQ(crashed.Counter("ft.updates_replayed"), to_replay);
}

TEST(NodeEngine, CrashInstallFromOffsetZeroMatchesStraightRun) {
  CrashInstallMatchesStraightRun(0, 40);
}

TEST(NodeEngine, CrashInstallFromMidFrameCheckpointMatchesStraightRun) {
  // 7-record frames in the first incarnation: 13 and 100 sit mid-frame.
  CrashInstallMatchesStraightRun(13, 29);
  CrashInstallMatchesStraightRun(100, 61);
}

// Nothing ran past the checkpoint: the replay is all first-time work.
TEST(NodeEngine, CrashRightAfterCheckpointFencesNothing) {
  CrashInstallMatchesStraightRun(60, 0);
}

// A second crash after a replay already bumped the shard to epoch 2: the
// receivers fence at epoch 2 now, so a replay from the older epoch-1
// checkpoint must repeat that bump (from the ledger) at the same offset, or
// everything it re-derives past the first incarnation's last delivery
// would arrive as stale epoch-1 traffic and be dropped.
TEST(NodeEngine, SecondCrashAfterReplayRepeatsTheEpochBump) {
  const auto plan = Plan();
  const auto updates = Stream();
  const auto cut = updates.begin() + static_cast<std::ptrdiff_t>(updates.size() * 2 / 3);
  Rig straight(plan);
  straight.Publish(updates);
  straight.Drain(7, 7);

  Rig crashed(plan);
  crashed.Publish({updates.begin(), cut});
  crashed.RunShard0To(30, 7);
  const std::string checkpoint = crashed.Checkpoint0();
  crashed.RunShard0To(70, 7);
  crashed.CrashAndInstall0(checkpoint, /*epoch=*/2);
  crashed.Drain(7, 7);  // replays through the target and bumps to epoch 2
  crashed.Publish({cut, updates.end()});
  crashed.RunShard0To(crashed.Applied0() + 50, 7);  // epoch-2 frames land
  crashed.CrashAndInstall0(checkpoint, /*epoch=*/3);
  crashed.Drain(7, 5);

  for (std::uint32_t w = 0; w < straight.serving_workers(); ++w) {
    EXPECT_EQ(straight.Cache(w), crashed.Cache(w)) << "serving worker " << w;
  }
  EXPECT_EQ(crashed.Counter("dissemination.messages"), crashed.admitted());
  EXPECT_GT(crashed.Counter("ft.deltas_fenced"), 0u);
}

// A TTL pass that reaches a replaying shard runs when the replay ends: mid-
// replay its messages would take serving seqs the re-derived frames reuse,
// so the fences would drop them, or admit shifted duplicates after them.
// Same schedule twice: the pass requested mid-replay must match the pass
// requested right after the replay, and count like any admitted frame.
TEST(NodeEngine, TtlPassDuringReplayRunsWhenTheReplayEnds) {
  const auto plan = Plan();
  const auto updates = Stream();
  const auto* mid = std::get_if<graph::EdgeUpdate>(&updates[updates.size() / 2]);
  ASSERT_NE(mid, nullptr);
  auto run = [&](Rig& rig, bool prune_mid_replay) {
    rig.Publish(updates);
    rig.RunShard0To(20, 7);
    const std::string checkpoint = rig.Checkpoint0();
    rig.RunShard0To(200, 7);
    const std::uint64_t end = 20 + rig.CrashAndInstall0(checkpoint, /*epoch=*/2);
    rig.RunShard0To(60, 7);
    if (prune_mid_replay) rig.Prune0(mid->ts);
    rig.RunShard0To(end, 7);
    if (!prune_mid_replay) rig.Prune0(mid->ts);
    rig.Drain(7, 7);
  };
  Rig after(plan);
  run(after, false);
  Rig during(plan);
  run(during, true);

  for (std::uint32_t w = 0; w < after.serving_workers(); ++w) {
    EXPECT_EQ(after.Cache(w), during.Cache(w)) << "serving worker " << w;
  }
  EXPECT_EQ(during.Counter("ft.deltas_fenced"), after.Counter("ft.deltas_fenced"));
  EXPECT_EQ(during.Counter("dissemination.messages"), during.admitted());
}

// Re-admission is always above the installed incarnation's epoch, even
// when the runtime's grant is not: the peers' control fences restored with
// the checkpoint hold that epoch, and would drop a restarted seq numbering
// under it.
TEST(NodeEngine, InstallReadmitsAboveTheInstalledEpoch) {
  const auto plan = Plan();
  ShardLedger ledger;
  obs::MetricsRegistry registry;
  obs::WallClock wall;
  const ShardMap map{1, 3, 2};
  auto core = std::make_unique<SamplingShardCore>(plan, map, 1, 5);
  core->BumpEpoch(3);
  graph::ByteWriter w;
  core->Serialize(w);
  const std::string checkpoint = w.Take();

  ShardStep step(std::make_unique<SamplingShardCore>(plan, map, 1, 5),
                 ShardStep::Wiring{&registry, &wall, nullptr, nullptr, 0, &ledger});
  ASSERT_TRUE(step.Install(&checkpoint, 0, /*epoch=*/2).ok());
  EXPECT_EQ(step.core().epoch(), 4u);
  ASSERT_TRUE(step.Install(&checkpoint, 0, /*epoch=*/7).ok());
  EXPECT_EQ(step.core().epoch(), 7u);
}

TEST(NodeEngine, InstallRejectsCorruptCheckpointNamingTheShard) {
  const auto plan = Plan();
  ShardLedger ledger;
  obs::MetricsRegistry registry;
  obs::WallClock wall;
  ShardStep step(std::make_unique<SamplingShardCore>(plan, ShardMap{1, 3, 2}, 2, 5),
                 ShardStep::Wiring{&registry, &wall, nullptr, nullptr, 0, &ledger});
  const std::string garbage = "not a checkpoint";
  const util::Status status = step.Install(&garbage, 0, 2);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("shard 2"), std::string::npos) << status.message();
}

// The fence drops a whole frame from an epoch older than one it has seen.
TEST(NodeEngine, FrameApplierDropsStaleEpochFrames) {
  obs::MetricsRegistry registry;
  FrameApplier applier(&registry, nullptr, 0);
  ServingBatchBuilder b;
  FeatureUpdate fu;
  fu.vertex = 7;
  fu.feature = {1, 2, 3, 4};
  ServingMessage m = ServingMessage::Of(fu);
  m.seq = 1;
  b.Add(m);
  b.Stamp(/*src_shard=*/3, /*epoch=*/2);
  const std::string fresh = b.EncodeToArena();
  b.Stamp(3, 1);
  const std::string stale = b.EncodeToArena();

  std::uint32_t applied = 0;
  auto count = [&](std::uint32_t src, const ServingMessage&) {
    EXPECT_EQ(src, 3u);
    ++applied;
  };
  EXPECT_EQ(applier.Deliver(fresh, count).fenced, 0u);
  const FrameApplier::Delivery d = applier.Deliver(stale, count);
  EXPECT_EQ(d.messages, 1u);
  EXPECT_EQ(d.fenced, 1u);
  EXPECT_TRUE(d.ok);
  EXPECT_EQ(applied, 1u);
  EXPECT_EQ(registry.TakeSnapshot().CounterTotal("ft.deltas_fenced"), 1u);
}

}  // namespace
}  // namespace helios
