// The control plane (docs/FAULT_TOLERANCE.md, docs/ELASTICITY.md): the one
// implementation of checkpointing, crash recovery and shard migration, driven
// by both runtimes. It steers the node engine (node_engine.h); a runtime
// supplies only the mechanics, through Driver. It owns:
//   * the shard -> owner placement, the migration ledger, node liveness and
//     drain state, and each shard's ledger (node_engine.h);
//   * the per-shard epoch rule: a shard re-enters service strictly above
//     every epoch it used on any owner, since the receivers fence by source
//     shard while grants are monotonic only per node;
//   * checkpoints: one SegmentStore file per directory; a round writes every
//     live shard's segment and commits once, a dead shard keeps its previous
//     segment, and only a committed round becomes the recovery source;
//   * the recover sequence: grant, read every owned checkpoint before
//     touching any slot, Install fresh steps up to the log end, adopt,
//     re-admit;
//   * supervision (with a timeout): both endpoints of a migration are
//     deregistered while it holds the source's poller quiesced, so a handoff
//     never trips supervision of its own endpoints.
// Every public call serializes on mutex(), which runtimes also lock to read
// the shard slots these sequences replace.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "elastic/migrator.h"
#include "elastic/shard_map.h"
#include "ft/supervisor.h"
#include "graph/update_codec.h"
#include "helios/node_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/status.h"

namespace helios {

class ControlPlane {
 public:
  // A runtime's mechanics. new_step, snapshot and adopt are required; the
  // others default to no-ops (a runtime without pollers leaves those unset).
  struct Driver {
    // Stops `node`'s poller; afterwards nothing more reaches its shards and
    // the committed consumer offsets are exact.
    std::function<void(std::uint32_t node)> quiesce_poller;
    // Replaces `node`'s stopped poller with one over the current placement.
    std::function<void(std::uint32_t node)> rebuild_poller;
    // Crash: stops `node`'s poller and shards, dropping their queued work.
    std::function<void(std::uint32_t node)> tear_down;
    // A fresh step for `shard` hosted on `node`, wired to `ledger`.
    std::function<std::unique_ptr<ShardStep>(std::uint32_t shard, std::uint32_t node,
                                             ShardLedger& ledger)>
        new_step;
    // End offset of `shard`'s log (the replay target); 0 when unset.
    std::function<std::uint64_t(std::uint32_t shard)> log_end;
    // Serializes `shard` at a frame boundary; returns its applied offset.
    std::function<std::uint64_t(std::uint32_t shard, graph::ByteWriter& w)> snapshot;
    // Puts an installed step in `shard`'s slot on `node` (mailbox or queue,
    // consumer rewound to its applied offset); `install_ns` is what the
    // Install cost.
    std::function<void(std::uint32_t shard, std::uint32_t node, std::unique_ptr<ShardStep> step,
                       util::Nanos install_ns)>
        adopt;
    // Re-admits a recovered `node` under `epoch` once its replay is queued.
    std::function<void(std::uint32_t node, std::uint32_t epoch)> readmit;
    // Drops caches that describe a previous owner.
    std::function<void()> flush_ownership_caches;
  };

  struct Options {
    std::uint32_t nodes = 0;
    std::vector<std::uint32_t> owners;  // initial shard -> node placement
    std::uint32_t max_concurrent_migrations = 2;
    obs::MetricsRegistry* registry = nullptr;
    const obs::Clock* clock = nullptr;  // supervision and migration times
    // Non-zero: a node whose heartbeat is older is recovered.
    util::Micros supervision_timeout = 0;
  };

  // Simulated crashes inside one migration (elastic_test's chaos suite).
  enum class FailPoint : std::uint8_t {
    kNone = 0,
    kSourceMidCheckpoint,    // the source dies while serializing the shard
    kDestMidReplay,          // the destination dies while replaying the tail
    kCoordinatorBeforeFlip,  // the coordinator dies after the epoch bump,
                             // before the map flip (ResumeMigrations ends it)
  };

  ControlPlane(Options options, Driver driver);

  std::recursive_mutex& mutex() const { return mutex_; }
  ft::Supervisor* supervisor() { return supervisor_.get(); }
  elastic::ShardMap& placement() { return placement_; }
  const elastic::ShardMap& placement() const { return placement_; }
  elastic::ShardMigrator& migrator() { return migrator_; }
  ShardLedger& ledger(std::uint32_t shard) { return ledgers_[shard]; }
  bool NodeAlive(std::uint32_t node) const {
    return node < options_.nodes && !dead_[node].load(std::memory_order_acquire);
  }
  bool NodeDrained(std::uint32_t node) const;

  // One round into <dir>/checkpoints.hstore; only a committed round becomes
  // the recovery source, a failed one returns its error.
  util::Status Checkpoint(const std::string& dir);
  // Cold start: every shard restored from `dir`, re-admitted above every
  // grant and its checkpoint's epoch.
  util::Status Restore(const std::string& dir);

  // Marks `node` dead and tears it down. False for an unknown or dead node.
  bool Kill(std::uint32_t node);
  // Recovers a crashed (not drained) node under a fresh grant.
  bool Restart(std::uint32_t node);
  // The recover sequence, also the supervisor's hook; tears a node that is
  // still marked alive down first.
  ft::RecoveryReport Recover(std::uint32_t node, std::uint32_t grant);

  // Stop-and-copy handoff of `shard` to `dst`. False when refused (unknown
  // shard or node, dst == owner, dead or drained endpoint, budget).
  bool Migrate(std::uint32_t shard, std::uint32_t dst, FailPoint fail = FailPoint::kNone);
  // The same, step by step, so a runtime can put its wire transfer between
  // checkpoint and install. Begin returns 0 when refused.
  std::uint64_t BeginMigration(std::uint32_t shard, std::uint32_t dst);
  // The source's checkpoint, also kept at the recovery source if any.
  std::string CheckpointMigration(std::uint64_t id);
  // Installs on the destination under a bumped epoch; aborts on failure.
  util::Status InstallMigration(std::uint64_t id, const std::string& checkpoint);
  // Flips the map, flushes ownership caches, rebuilds both endpoints'
  // pollers and completes the migration.
  void FlipMigration(std::uint64_t id);
  // Flips migrations stranded between epoch bump and flip. Idempotent.
  std::size_t ResumeMigrations();
  // Migrates every shard off `node` round-robin, then retires it.
  bool Drain(std::uint32_t node);
  // Re-adds a drained node with no shards; they arrive by migration.
  bool Revive(std::uint32_t node);

 private:
  struct Installed {
    std::unique_ptr<ShardStep> step;
    std::uint64_t to_replay = 0;  // log records below the replay target
    util::Nanos ns = 0;           // measured Install cost
  };
  std::uint32_t GrantEpoch(std::uint32_t node);
  // A fresh step for `shard` on `node` with `checkpoint` (null = empty
  // state) installed up to the log end under `grant`'s per-shard epoch.
  util::StatusOr<Installed> Install(std::uint32_t shard, std::uint32_t node,
                                    const std::string* checkpoint, std::uint32_t grant);
  // Reads every checkpoint of `shards` from `dir` before any slot changes,
  // installs them (a missing one replays the whole log, unless `require`)
  // and adopts them on their owners.
  util::Status InstallAll(const std::string& dir, const std::vector<std::uint32_t>& shards,
                          std::uint32_t grant, bool require, ft::RecoveryReport& report);
  // Ends a migration's window: fresh pollers on both live endpoints, both
  // supervised again.
  void Release(const elastic::MigrationRecord& m);
  template <typename Fn, typename... Args>
  static void Call(const Fn& fn, Args&&... args) {
    if (fn) fn(std::forward<Args>(args)...);
  }

  Options options_;
  Driver driver_;
  mutable std::recursive_mutex mutex_;
  elastic::ShardMap placement_;
  elastic::ShardMigrator migrator_;
  std::unique_ptr<ShardLedger[]> ledgers_;
  std::vector<std::uint32_t> shard_epochs_;  // highest epoch each shard entered
  std::vector<std::uint32_t> node_epochs_;   // grants without a supervisor
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::vector<std::uint8_t> drained_;
  std::unique_ptr<ft::Supervisor> supervisor_;
  std::string recovery_dir_;  // last committed checkpoint round
};

}  // namespace helios
