// A failed fdatasync fails the commit (docs/STORAGE.md). This binary links
// with -Wl,--wrap=fdatasync: every fdatasync the store issues goes through
// the wrapper below, which fails on demand with EIO.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string>

#include "store/segment_store.h"
#include "control_plane_rig.h"

namespace {
// -1: pass every call; k >= 0: pass k calls, then fail one and disarm.
std::atomic<int> g_fail_after{-1};
}  // namespace

extern "C" int __real_fdatasync(int fd);
extern "C" int __wrap_fdatasync(int fd) {
  int k = g_fail_after.load();
  while (k >= 0 && !g_fail_after.compare_exchange_weak(k, k - 1)) {
  }
  if (k == 0) {
    errno = EIO;
    return -1;
  }
  return __real_fdatasync(fd);
}

namespace helios {
namespace {

std::filesystem::path TempDir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (name + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Either fdatasync of a commit (data, then metadata) failing fails the
// commit with the errno and flips nothing: no commit counted, committed
// sizes unchanged. A retry returns the first error and flips nothing
// either, though fdatasync succeeds again.
TEST(StoreSync, FailedFdatasyncFailsTheCommitAndFlipsNothing) {
  for (const int which : {0, 1}) {
    const auto dir = TempDir("helios_store_sync");
    store::StoreOptions o;
    o.path = (dir / "s.hstore").string();
    o.cluster_size = 512;
    o.group_commit_bytes = 0;
    auto opened = store::SegmentStore::Open(o);
    ASSERT_TRUE(opened.ok());
    store::SegmentStore& st = *opened.value();
    const std::uint64_t seg = st.Create("log").value();
    ASSERT_TRUE(st.Append(seg, "k1", "v1").ok());
    ASSERT_TRUE(st.Commit().ok());
    const std::uint64_t commits = st.GetStats().commits;
    const std::uint64_t committed = st.Info(seg).value().committed_bytes;

    ASSERT_TRUE(st.Append(seg, "k2", "v2").ok());
    g_fail_after = which;
    const util::Status failed = st.Commit();
    ASSERT_FALSE(failed.ok()) << "sync " << which;
    EXPECT_EQ(failed.code(), util::StatusCode::kInternal);
    EXPECT_NE(failed.message().find("fdatasync"), std::string::npos) << failed.message();
    EXPECT_NE(failed.message().find(std::strerror(EIO)), std::string::npos) << failed.message();
    EXPECT_EQ(st.GetStats().commits, commits);
    EXPECT_EQ(st.Info(seg).value().committed_bytes, committed);

    const util::Status retried = st.Commit();
    EXPECT_EQ(retried.code(), failed.code());
    EXPECT_EQ(retried.message(), failed.message());
    EXPECT_EQ(st.GetStats().commits, commits);
    EXPECT_EQ(st.Info(seg).value().committed_bytes, committed);
    opened.value().reset();
    std::filesystem::remove_all(dir);
  }
}

// The close does not commit what a failed commit left behind: a round
// whose fdatasync failed stays absent after the store is closed (with
// fdatasync working again) and reopened, and the previous round is still
// what recovery reads.
TEST(StoreSync, FailedCheckpointRoundStaysAbsentAfterCloseAndReopen) {
  const auto dir = TempDir("helios_store_sync_close");
  testing::Rig rig(/*nodes=*/1, /*shards_per_node=*/2);
  rig.steps[0]->core().set_applied_offset(3);
  ASSERT_TRUE(rig.plane->Checkpoint(dir.string()).ok());

  rig.steps[0]->core().set_applied_offset(8);
  g_fail_after = 0;  // the round's data fdatasync; the close's would pass
  ASSERT_FALSE(rig.plane->Checkpoint(dir.string()).ok());
  ASSERT_EQ(g_fail_after.load(), -1);

  ASSERT_TRUE(rig.plane->Kill(0));
  ASSERT_TRUE(rig.plane->Restart(0));
  EXPECT_EQ(rig.steps[0]->core().applied_offset(), 3u);
  std::filesystem::remove_all(dir);
}

// A checkpoint round whose commit fails returns the error and does not
// become the recovery source: recovery still reads the previous round.
TEST(StoreSync, FailedCheckpointCommitKeepsThePreviousRecoverySource) {
  const auto good = TempDir("helios_store_sync_good");
  const auto bad = TempDir("helios_store_sync_bad");
  testing::Rig rig(/*nodes=*/1, /*shards_per_node=*/2);
  rig.steps[0]->core().set_applied_offset(3);
  ASSERT_TRUE(rig.plane->Checkpoint(bad.string()).ok());
  rig.steps[0]->core().set_applied_offset(5);
  ASSERT_TRUE(rig.plane->Checkpoint(good.string()).ok());

  // The bad round's store already exists, so the next fdatasync is its
  // commit's.
  rig.steps[0]->core().set_applied_offset(8);
  g_fail_after = 0;
  const util::Status failed = rig.plane->Checkpoint(bad.string());
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("fdatasync"), std::string::npos) << failed.message();

  ASSERT_TRUE(rig.plane->Kill(0));
  ASSERT_TRUE(rig.plane->Restart(0));
  EXPECT_EQ(rig.steps[0]->core().applied_offset(), 5u);
  std::filesystem::remove_all(good);
  std::filesystem::remove_all(bad);
}

}  // namespace
}  // namespace helios
