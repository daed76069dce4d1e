// Control-plane tests (helios/control_plane.h) over a fake driver: the
// supervision window of a migration, the per-shard epoch rule, and the
// checkpoint rounds recovery reads.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "ft/supervisor.h"
#include "control_plane_rig.h"

namespace helios {
namespace {

using testing::Rig;

// Heartbeats stop while the control plane holds a source's poller
// quiesced; a supervisor tick inside that window, with both endpoints'
// heartbeats long past the timeout, must not declare either dead.
TEST(ControlPlane, StopAndCopyWindowNeverTripsSupervisionOfItsEndpoints) {
  constexpr util::Micros kTimeout = 1000;
  Rig rig(/*nodes=*/2, /*shards_per_node=*/2, kTimeout);
  ft::Supervisor& supervisor = *rig.plane->supervisor();
  std::size_t ticks = 0;
  std::vector<ft::RecoveryReport> fired;
  rig.on_snapshot = [&](std::uint32_t) {
    ++ticks;
    for (auto& r : supervisor.Tick(rig.now + 2 * kTimeout)) fired.push_back(r);
  };
  ASSERT_TRUE(rig.plane->Migrate(/*shard=*/0, /*dst=*/1));
  EXPECT_EQ(ticks, 1u);
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(rig.registry.TakeSnapshot().CounterTotal("ft.failures_detected"), 0u);
  EXPECT_EQ(rig.plane->placement().OwnerOf(0), 1u);
  EXPECT_EQ(rig.pollers,
            (std::vector<std::string>{"quiesce 0", "quiesce 1", "rebuild 0", "rebuild 1"}));

  // The window closed: both endpoints are supervised again, and a real
  // silence after it is detected and recovered.
  EXPECT_EQ(supervisor.state(0), ft::NodeState::kAlive);
  EXPECT_EQ(supervisor.state(1), ft::NodeState::kAlive);
  rig.now += 10 * kTimeout;
  rig.on_snapshot = nullptr;
  const auto reports = supervisor.Tick(rig.now);
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& r : reports) EXPECT_TRUE(r.ok) << r.error;
}

// Receivers fence by source shard, but grants are monotonic only per node:
// a shard that hops nodes must re-enter strictly above every epoch it used.
TEST(ControlPlane, ShardReentersAboveEveryEpochItUsedOnAnyOwner) {
  Rig rig(/*nodes=*/2, /*shards_per_node=*/1);
  ASSERT_TRUE(rig.plane->Migrate(0, 1));  // node 1 grants 2
  ASSERT_TRUE(rig.plane->Migrate(0, 0));  // node 0 grants 2: shard 0 needs 3
  ASSERT_TRUE(rig.plane->Migrate(0, 1));  // node 1 grants 3: shard 0 needs 4
  EXPECT_EQ(rig.steps[0]->core().epoch(), 4u);
  std::uint32_t last = 0;
  for (const auto& m : rig.plane->migrator().History()) {
    EXPECT_GT(m.epoch, last);
    last = m.epoch;
  }
  // Node 1's next grant is 4, which shard 0 already used there.
  ASSERT_TRUE(rig.plane->Kill(1));
  EXPECT_FALSE(rig.plane->NodeAlive(1));
  ASSERT_TRUE(rig.plane->Restart(1));
  EXPECT_EQ(rig.steps[0]->core().epoch(), 5u);
  EXPECT_EQ(rig.steps[1]->core().epoch(), 4u);
}

// A round skips the shards of dead nodes, which keep their previous
// segment; recovery reads the last committed round of each shard.
TEST(ControlPlane, DeadShardKeepsItsPreviousCheckpointSegment) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("helios_control_plane_ckpt-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  Rig rig(/*nodes=*/2, /*shards_per_node=*/1);
  rig.steps[0]->core().set_applied_offset(7);
  rig.steps[1]->core().set_applied_offset(7);
  ASSERT_TRUE(rig.plane->Checkpoint(dir.string()).ok());
  ASSERT_TRUE(rig.plane->Kill(1));
  rig.steps[0]->core().set_applied_offset(9);
  rig.steps[1]->core().set_applied_offset(9);  // the dead incarnation's state
  ASSERT_TRUE(rig.plane->Checkpoint(dir.string()).ok());

  ASSERT_TRUE(rig.plane->Restart(1));
  EXPECT_EQ(rig.steps[1]->core().applied_offset(), 7u);
  ASSERT_TRUE(rig.plane->Kill(0));
  ASSERT_TRUE(rig.plane->Restart(0));
  EXPECT_EQ(rig.steps[0]->core().applied_offset(), 9u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace helios
