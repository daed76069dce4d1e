#include "helios/control_plane.h"

#include <algorithm>
#include <filesystem>
#include <initializer_list>
#include <numeric>
#include <optional>
#include <utility>

#include "store/segment_store.h"
#include "util/logging.h"

namespace helios {

namespace {

using Lock = std::lock_guard<std::recursive_mutex>;

// One segment-store file per checkpoint directory (docs/STORAGE.md): each
// shard's state is a "ckpt/shard-<i>" segment whose name a round flips to a
// fresh one, so a crash mid-round leaves the previous complete checkpoint.
store::StoreOptions CheckpointStoreOptions(const std::string& dir) {
  store::StoreOptions opt;
  opt.path = dir + "/checkpoints.hstore";
  opt.cluster_size = 64 * 1024;
  opt.meta_clusters = 8;
  opt.group_commit_bytes = 0;  // the round commits explicitly, exactly once
  return opt;
}

std::string SegmentName(std::uint32_t shard) { return "ckpt/shard-" + std::to_string(shard); }

// Writes `bytes_of(s)` as each shard's new segment, retires the superseded
// ones, and commits them all at once.
util::Status WriteShardCheckpoints(const std::string& dir, const std::vector<std::uint32_t>& shards,
                                   const std::function<std::string(std::uint32_t)>& bytes_of) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  auto opened = store::SegmentStore::Open(CheckpointStoreOptions(dir));
  if (!opened.ok()) return opened.status();
  store::SegmentStore& st = *opened.value();
  for (const std::uint32_t s : shards) {
    const std::string name = SegmentName(s);
    auto created = st.Create(name);
    if (!created.ok()) return created.status();
    auto appended = st.Append(created.value(), name, bytes_of(s));
    if (!appended.ok()) return appended.status();
    const auto old = st.GetNamed(name);
    util::Status status = st.Seal(created.value());
    if (status.ok()) status = st.SetNamed(name, created.value());
    if (!status.ok()) return status;
    if (old.ok()) (void)st.Retire(old.value());
  }
  return st.Commit();
}

// The last committed checkpoint of `shard`: kNotFound when it never
// completed one, Internal on a CRC failure.
util::Status ReadShardCheckpoint(const store::SegmentStore& st, std::uint32_t shard,
                                 std::string& bytes) {
  auto seg = st.GetNamed(SegmentName(shard));
  if (!seg.ok()) return seg.status();
  bool got = false;
  auto status = st.Scan(seg.value(), [&](const store::RecordLocator&, std::string_view,
                                         std::string_view value) {
    bytes.assign(value);
    got = true;
    return true;
  });
  if (status.ok() && !got) return util::Status::NotFound("empty checkpoint segment");
  return status;
}

}  // namespace

ControlPlane::ControlPlane(Options options, Driver driver)
    : options_(std::move(options)),
      driver_(std::move(driver)),
      placement_(options_.owners),
      migrator_({options_.max_concurrent_migrations, options_.registry}, &placement_),
      ledgers_(std::make_unique<ShardLedger[]>(options_.owners.size())),
      shard_epochs_(options_.owners.size(), 1),
      node_epochs_(options_.nodes, 1),
      dead_(std::make_unique<std::atomic<bool>[]>(options_.nodes)),
      drained_(options_.nodes, 0) {
  if (options_.supervision_timeout <= 0) return;
  supervisor_ = std::make_unique<ft::Supervisor>(
      ft::Supervisor::Options{options_.supervision_timeout}, options_.registry,
      [this](std::uint64_t node, std::uint32_t grant, util::Micros) {
        return Recover(static_cast<std::uint32_t>(node), grant);
      });
  for (std::uint32_t n = 0; n < options_.nodes; ++n) {
    supervisor_->Register(n, options_.clock->NowMicros());
  }
}

bool ControlPlane::NodeDrained(std::uint32_t node) const {
  Lock lock(mutex_);
  return node < drained_.size() && drained_[node] != 0;
}

std::uint32_t ControlPlane::GrantEpoch(std::uint32_t node) {
  return supervisor_ != nullptr ? supervisor_->GrantEpoch(node) : ++node_epochs_[node];
}

util::StatusOr<ControlPlane::Installed> ControlPlane::Install(std::uint32_t shard,
                                                              std::uint32_t node,
                                                              const std::string* checkpoint,
                                                              std::uint32_t grant) {
  Installed out;
  out.step = driver_.new_step(shard, node, ledgers_[shard]);
  const std::uint32_t epoch = std::max(grant, shard_epochs_[shard] + 1);
  // Everything up to the log's end replays under the restored epoch; the
  // receivers fence its re-emissions.
  const std::uint64_t end = driver_.log_end ? driver_.log_end(shard) : 0;
  util::Status status;
  out.ns = util::TimeItNanos([&] { status = out.step->Install(checkpoint, end, epoch); });
  if (!status.ok()) return status;
  // The step may re-admit above `epoch` (a checkpoint from a later one).
  shard_epochs_[shard] = out.step->granted_epoch();
  const std::uint64_t applied = out.step->core().applied_offset();
  out.to_replay = end > applied ? end - applied : 0;
  return out;
}

util::Status ControlPlane::InstallAll(const std::string& dir,
                                      const std::vector<std::uint32_t>& shards,
                                      std::uint32_t grant, bool require,
                                      ft::RecoveryReport& report) {
  std::vector<std::optional<std::string>> bytes(shards.size());
  if (!dir.empty()) {
    auto opened = store::SegmentStore::Open(CheckpointStoreOptions(dir), /*create=*/false);
    if (!opened.ok()) return opened.status();
    for (std::size_t i = 0; i < shards.size(); ++i) {
      std::string b;
      const util::Status read = ReadShardCheckpoint(*opened.value(), shards[i], b);
      if (read.ok()) {
        bytes[i] = std::move(b);
      } else if (read.code() != util::StatusCode::kNotFound) {
        // An unreadable checkpoint fails instead of silently replaying from 0.
        return util::Status::Internal("checkpoint for shard " + std::to_string(shards[i]) +
                                      ": " + read.message());
      }
    }
  }
  std::vector<Installed> installed;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (require && !bytes[i]) {
      return util::Status::NotFound("missing checkpoint for shard " + std::to_string(shards[i]));
    }
    auto step = Install(shards[i], placement_.OwnerOf(shards[i]), bytes[i] ? &*bytes[i] : nullptr,
                        grant);
    if (!step.ok()) return step.status();
    report.shards_restored += bytes[i] ? 1 : 0;
    report.records_to_replay += step.value().to_replay;
    installed.push_back(std::move(step.value()));
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    driver_.adopt(shards[i], placement_.OwnerOf(shards[i]), std::move(installed[i].step),
                  installed[i].ns);
  }
  return util::Status::Ok();
}

// ---- checkpoints

util::Status ControlPlane::Checkpoint(const std::string& dir) {
  Lock lock(mutex_);
  // A dead shard keeps its previous segment: each shard's stream is
  // consistent on its own, so a round may mix checkpoint ages.
  std::vector<std::uint32_t> live;
  const elastic::ShardMap::View view = placement_.Current();
  for (std::uint32_t s = 0; s < view->NumShards(); ++s) {
    if (NodeAlive(view->OwnerOf(s))) live.push_back(s);
  }
  const util::Status status = WriteShardCheckpoints(dir, live, [this](std::uint32_t s) {
    graph::ByteWriter w;
    driver_.snapshot(s, w);
    return w.Take();
  });
  if (status.ok()) recovery_dir_ = dir;
  return status;
}

util::Status ControlPlane::Restore(const std::string& dir) {
  Lock lock(mutex_);
  std::vector<std::uint32_t> all(placement_.NumShards());
  std::iota(all.begin(), all.end(), 0);
  ft::RecoveryReport report;
  const util::Status status = InstallAll(dir, all, /*grant=*/0, /*require=*/true, report);
  // Restored state may predate whatever the caches were built from.
  if (status.ok()) Call(driver_.flush_ownership_caches);
  return status;
}

// ---- crashes

bool ControlPlane::Kill(std::uint32_t node) {
  Lock lock(mutex_);
  if (!NodeAlive(node)) return false;
  dead_[node].store(true, std::memory_order_release);
  // Queued work dies with the node by design: the log keeps it for replay.
  Call(driver_.tear_down, node);
  HLOG(kWarn, "ft") << "killed sampling node " << node;
  return true;
}

bool ControlPlane::Restart(std::uint32_t node) {
  Lock lock(mutex_);
  if (node >= options_.nodes || NodeAlive(node) || drained_[node] != 0) return false;
  return Recover(node, GrantEpoch(node)).ok;
}

ft::RecoveryReport ControlPlane::Recover(std::uint32_t node, std::uint32_t grant) {
  Lock lock(mutex_);
  ft::RecoveryReport report;
  report.node = node;
  report.epoch = grant;
  if (node >= options_.nodes) {
    report.error = "unknown node";
    return report;
  }
  const util::Micros start = util::NowMicros();
  // A supervisor may find the node merely unresponsive: tear it down first.
  if (NodeAlive(node)) Kill(node);
  // The shards it owns under the current placement: a migrated-in shard
  // recovers here, a migrated-away one with its new owner.
  const util::Status status =
      InstallAll(recovery_dir_, placement_.ShardsOf(node), grant, /*require=*/false, report);
  report.restore_us = util::NowMicros() - start;
  if (!status.ok()) {
    report.error = status.message();
    HLOG(kError, "ft") << "recovery of sampling node " << node << " failed: " << report.error;
    return report;
  }
  dead_[node].store(false, std::memory_order_release);
  Call(driver_.rebuild_poller, node);
  // Replay re-applies deltas the caches may have served around.
  Call(driver_.flush_ownership_caches);
  Call(driver_.readmit, node, grant);
  report.ok = true;
  HLOG(kWarn, "ft") << "recovered sampling node " << node << " at epoch " << grant << ": "
                    << report.shards_restored << " shard(s) restored, "
                    << report.records_to_replay << " log records to replay";
  return report;
}

// ---- migration

bool ControlPlane::Migrate(std::uint32_t shard, std::uint32_t dst, FailPoint fail) {
  Lock lock(mutex_);
  const std::uint64_t id = BeginMigration(shard, dst);
  if (id == 0) return false;
  const elastic::MigrationRecord m = migrator_.Get(id);
  if (fail == FailPoint::kSourceMidCheckpoint) {
    // Nothing was installed anywhere: the migration aborts, and ordinary
    // crash recovery owns the now-dead source.
    Kill(m.from);
    migrator_.Abort(id, options_.clock->NowMicros());
    Release(m);
    return false;
  }
  if (!InstallMigration(id, CheckpointMigration(id)).ok()) {
    // Cannot happen for bytes just serialized: treat it as a source crash,
    // so recovery rebuilds the shard from the durable log.
    Kill(m.from);
    return false;
  }
  // The coordinator dies with the epoch armed and the map unflipped: routing
  // names the quiesced source until ResumeMigrations flips it.
  if (fail == FailPoint::kCoordinatorBeforeFlip) return true;
  FlipMigration(id);
  // The destination dies mid-replay: recovery restores the shard on its new
  // owner, from the migration checkpoint when one is on disk.
  if (fail == FailPoint::kDestMidReplay) Kill(m.to);
  return true;
}

std::uint64_t ControlPlane::BeginMigration(std::uint32_t shard, std::uint32_t dst) {
  Lock lock(mutex_);
  if (shard >= placement_.NumShards() || !NodeAlive(dst) || drained_[dst] != 0) return 0;
  const std::uint32_t src = placement_.OwnerOf(shard);
  if (src == dst || !NodeAlive(src)) return 0;
  const std::uint64_t id = migrator_.Begin(shard, src, dst, options_.clock->NowMicros());
  if (id == 0) return 0;
  // The stop-and-copy window: the source's poller, and with it its
  // heartbeat, stops; nothing more reaches its shards (records wait in the
  // log), and supervision leaves both endpoints alone until Release.
  if (supervisor_ != nullptr) {
    supervisor_->Deregister(src);
    supervisor_->Deregister(dst);
  }
  Call(driver_.quiesce_poller, src);
  return id;
}

void ControlPlane::Release(const elastic::MigrationRecord& m) {
  // The source's poller stopped at BeginMigration; the destination's stops
  // now. Fresh pollers resume from the committed offsets over the current
  // placement, so what buffered in the log meanwhile drains now.
  if (NodeAlive(m.to)) Call(driver_.quiesce_poller, m.to);
  for (const std::uint32_t node : {m.from, m.to}) {
    if (NodeAlive(node)) Call(driver_.rebuild_poller, node);
    if (supervisor_ != nullptr) supervisor_->Register(node, options_.clock->NowMicros());
  }
}

std::string ControlPlane::CheckpointMigration(std::uint64_t id) {
  Lock lock(mutex_);
  const elastic::MigrationRecord m = migrator_.Get(id);
  // Behind everything the quiesced poller delivered, so every frame the
  // source emitted is in the log ahead of the destination's.
  graph::ByteWriter w;
  const std::uint64_t applied = driver_.snapshot(m.shard, w);
  std::string checkpoint = w.Take();
  migrator_.NoteCheckpoint(id, applied, checkpoint.size());
  migrator_.Advance(id, elastic::MigrationState::kTransferring);
  // Kept where recovery looks: a destination that dies mid-replay restores
  // from here instead of replaying the whole log.
  if (!recovery_dir_.empty()) {
    const util::Status status = WriteShardCheckpoints(
        recovery_dir_, {m.shard}, [&checkpoint](std::uint32_t) { return checkpoint; });
    if (!status.ok()) {
      HLOG(kWarn, "elastic") << "migration " << id << ": checkpoint of shard " << m.shard
                             << " not persisted: " << status.ToString();
    }
  }
  return checkpoint;
}

util::Status ControlPlane::InstallMigration(std::uint64_t id, const std::string& checkpoint) {
  Lock lock(mutex_);
  const elastic::MigrationRecord m = migrator_.Get(id);
  migrator_.Advance(id, elastic::MigrationState::kReplaying);
  // Re-emissions carry the checkpointed epoch and seqs, so the receivers
  // fence them; the bump to the fresh epoch lands at the replay target.
  auto installed = Install(m.shard, m.to, &checkpoint, GrantEpoch(m.to));
  if (!installed.ok()) {
    HLOG(kError, "elastic") << "migration " << id << ": " << installed.status().message();
    migrator_.Abort(id, options_.clock->NowMicros());
    Release(m);
    return installed.status();
  }
  migrator_.NoteReplayed(id, installed.value().to_replay);
  migrator_.NoteEpoch(id, installed.value().step->granted_epoch());
  migrator_.Advance(id, elastic::MigrationState::kEpochBumped);
  driver_.adopt(m.shard, m.to, std::move(installed.value().step), installed.value().ns);
  return util::Status::Ok();
}

void ControlPlane::FlipMigration(std::uint64_t id) {
  Lock lock(mutex_);
  const std::uint64_t version = migrator_.Flip(id);
  Call(driver_.flush_ownership_caches);
  const elastic::MigrationRecord m = migrator_.Get(id);
  Release(m);
  migrator_.Complete(id, options_.clock->NowMicros());
  HLOG(kInfo, "elastic") << "migrated shard " << m.shard << ": node " << m.from << " -> " << m.to
                         << " (ckpt " << m.ckpt_bytes << " B at offset " << m.ckpt_pos << ", "
                         << m.replayed << " records to replay, epoch " << m.epoch << ", map v"
                         << version << ")";
}

std::size_t ControlPlane::ResumeMigrations() {
  Lock lock(mutex_);
  const std::vector<elastic::MigrationRecord> stranded = migrator_.NeedingFlip();
  for (const elastic::MigrationRecord& m : stranded) {
    FlipMigration(m.id);
    HLOG(kWarn, "elastic") << "resumed migration " << m.id << ": flipped shard " << m.shard
                           << " to node " << m.to << " after coordinator loss";
  }
  return stranded.size();
}

// ---- drain and revive

bool ControlPlane::Drain(std::uint32_t node) {
  std::vector<std::uint32_t> owned;
  std::vector<std::uint32_t> targets;
  {
    Lock lock(mutex_);
    if (!NodeAlive(node) || drained_[node] != 0) return false;
    for (std::uint32_t w = 0; w < options_.nodes; ++w) {
      if (w != node && NodeAlive(w) && drained_[w] == 0) targets.push_back(w);
    }
    if (targets.empty()) return false;  // last node standing
    drained_[node] = 1;                  // no longer a migration target
    owned = placement_.ShardsOf(node);
  }
  // Each handoff is its own stop-and-copy window, so the rest of the
  // cluster keeps serving between moves.
  bool all_moved = true;
  for (std::size_t i = 0; i < owned.size(); ++i) {
    all_moved = Migrate(owned[i], targets[i % targets.size()]) && all_moved;
  }
  Lock lock(mutex_);
  if (!all_moved) {
    drained_[node] = 0;  // leave the node serving whatever remains
    return false;
  }
  // Retire: the node owns nothing now, and its silence is intentional.
  if (supervisor_ != nullptr) supervisor_->Deregister(node);
  dead_[node].store(true, std::memory_order_release);
  Call(driver_.tear_down, node);
  HLOG(kInfo, "elastic") << "drained and retired sampling node " << node << " ("
                         << owned.size() << " shard(s) evacuated)";
  return true;
}

bool ControlPlane::Revive(std::uint32_t node) {
  Lock lock(mutex_);
  if (node >= options_.nodes || NodeAlive(node) || drained_[node] == 0) return false;
  drained_[node] = 0;
  dead_[node].store(false, std::memory_order_release);
  Call(driver_.rebuild_poller, node);
  // Re-registration continues the supervisor's epoch ledger.
  if (supervisor_ != nullptr) supervisor_->Register(node, options_.clock->NowMicros());
  HLOG(kInfo, "elastic") << "revived sampling node " << node;
  return true;
}

}  // namespace helios
