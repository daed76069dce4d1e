// Fault-tolerance plumbing shared by both runtimes (§4.1).
//
// The recovery contract: a crashed sampling node is restored from the
// latest per-shard checkpoint, its update log is replayed from the
// checkpointed applied offset, and every message it re-emits while catching
// up is de-duplicated downstream by epoch/sequence fencing (ft::EpochFence).
// These are the value types that cross the Supervisor <-> runtime boundary;
// the ft library depends only on util/obs so either runtime (real threads or
// the DES emulator) can drive it.
#pragma once

#include <cstdint>
#include <string>

#include "util/clock.h"

namespace helios::ft {

// What one recovery attempt did. Produced by the runtime's recovery hook,
// annotated by the Supervisor (detection timing, granted epoch) and surfaced
// through the ft.* metrics.
struct RecoveryReport {
  std::uint64_t node = 0;
  bool ok = false;
  std::string error;

  // Epoch granted for re-admission. Supervisor-issued and monotonic per
  // node across restarts, so a second crash can never resurrect sequence
  // numbers the serving side has already fenced.
  std::uint32_t epoch = 0;

  util::Micros detected_at_us = 0;
  util::Micros time_to_detect_us = 0;  // detection - last heartbeat
  util::Micros restore_us = 0;         // checkpoint deserialize + rewind cost
  std::uint64_t shards_restored = 0;
  std::uint64_t records_to_replay = 0;  // log tail scheduled for replay
};

}  // namespace helios::ft
