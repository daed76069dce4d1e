// The runtime-agnostic node engine (docs/FAULT_TOLERANCE.md): the one
// implementation of a sampling shard's log consumption, dissemination
// counting, checkpoint install and replay, and of the serving side's
// epoch-fenced frame apply. ThreadedCluster runs it inside actors over the
// real broker; the DES harness runs it on virtual time over an in-process
// broker.
//
// Exactly-once (paper §4.1-4.2): a shard's processing is a pure function of
// its checkpoint and its one ordered log; Install() replays the log tail
// under the old epoch and bumps into the granted one at the replay target;
// each serving worker's FrameApplier fences re-emissions by (source shard,
// epoch, seq).
//
// Dissemination counting rule: a frame counts toward "dissemination.*"
// iff the records it was derived from sit at or above the shard's
// counted-through offset, which the runtime keeps across incarnations and a
// counted frame advances to the shard's applied offset. Replay re-derives
// frames below it (already counted, fenced at the receivers) and counts
// first-time work above it; a TTL pass is never re-derived and always
// counts. Both runtimes deliver every frame they are handed before a crash
// can land (a DES job in service completes; a threaded shard actor appends
// its frames inside the mailbox slice that counted them, and a kill lets
// that slice finish), so "dissemination.messages" equals the fences'
// "dissemination.messages_admitted".
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ft/fence.h"
#include "helios/messages.h"
#include "helios/sampling_core.h"
#include "helios/serving_core.h"
#include "mq/mq.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "util/clock.h"
#include "util/status.h"

namespace helios {

// What a runtime keeps per shard across the shard's incarnations.
struct ShardLedger {
  // The counting rule's offset (see header).
  std::atomic<std::uint64_t> counted_through{0};
  // Epoch bumps of the shard's incarnations, as (applied offset, epoch). A
  // replay repeats those past its checkpoint at the same offsets, so what it
  // re-derives carries the (epoch, seq) the receivers already fenced on.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> bumps;
};

// One sampling shard: its core, its long-lived output batches, and its
// replay state. Single-threaded: the runtime serializes every call (an actor
// mailbox, or a DES serial queue).
class ShardStep {
 public:
  // Where a step's output goes.
  class Sink {
   public:
    virtual ~Sink() = default;
    // One stamped, encoded ServingBatch frame for serving worker `sew`
    // holding `messages` messages. `frame` is valid only during the call.
    virtual void Frame(std::uint32_t sew, const std::string& frame, std::uint32_t messages) = 0;
    // A control delta for peer shard `shard`; the runtime appends it to that
    // shard's log.
    virtual void Ctrl(std::uint32_t shard, const SubscriptionDelta& delta) = 0;
  };

  struct Wiring {
    // Receives dissemination.*, ft.updates_replayed, ft.time_to_replay_us,
    // cluster.{updates,ctrl}_processed and the pipeline.stage.* spans.
    obs::MetricsRegistry* registry = nullptr;
    // Wall (threaded) or virtual (DES) time for span starts, queue waits,
    // flows and replay duration; span durations are measured wall compute.
    const obs::Clock* clock = nullptr;
    obs::TraceBuffer* trace = nullptr;           // optional causal flows
    obs::TraceIdAllocator* trace_ids = nullptr;  // required with `trace`
    std::uint32_t node = 0;  // hosting sampling node: trace lane, worker label
    ShardLedger* ledger = nullptr;  // runtime-kept, outlives the step
  };

  ShardStep(std::unique_ptr<SamplingShardCore> core, const Wiring& wiring);

  SamplingShardCore& core() { return *core_; }
  // Hands the core back (the step is unusable afterwards).
  std::unique_ptr<SamplingShardCore> TakeCore() { return std::move(core_); }

  // Restores `checkpoint` (null = keep the current state, e.g. a fresh core
  // replaying from offset 0) and arms replay: records below `replay_end` run
  // under the restored epoch and the ledger's later bumps; at `replay_end`
  // the step bumps to max(`epoch`, installed epoch + 1) on a frame boundary
  // (at once if already there). Fails, naming the shard, on a corrupt
  // checkpoint.
  util::Status Install(const std::string* checkpoint, std::uint64_t replay_end,
                       std::uint32_t epoch);
  // The epoch the last Install re-admits the shard under.
  std::uint32_t granted_epoch() const { return granted_epoch_; }

  // Processes log records in offset order and flushes the resulting frames
  // and control deltas to `sink`. Frames break at the counted-through
  // offset and at the replay target so each frame has one counting
  // decision and one epoch.
  void Consume(std::span<const mq::Record> records, Sink& sink);

  // TTL pass (§4.2) on the core. Its frames always count: no replay
  // re-derives them. A replaying shard runs it when the replay ends.
  void Prune(graph::Timestamp cutoff, Sink& sink);

 private:
  void ConsumeOne(const mq::Record& r);
  // `from_log` outputs count only at or above the counted-through offset.
  void Flush(Sink& sink, bool from_log = true);
  // Applies the replay's epoch bumps due at the applied offset, flushing
  // first so each frame carries one epoch.
  void BumpDue(Sink* sink);
  void FinishReplay();

  std::unique_ptr<SamplingShardCore> core_;
  Wiring wiring_;
  obs::StageTracer tracer_;
  // Long-lived output sink: batch builders and the encode arena keep their
  // allocations across flushes.
  SamplingShardCore::Outputs out_;
  // Offset of the first record behind the pending outputs (kNoWindow when
  // none has been consumed since the last flush).
  static constexpr std::uint64_t kNoWindow = ~0ULL;
  std::uint64_t window_first_ = kNoWindow;
  // Start of the current Consume on the runtime's clock and on wall time.
  std::int64_t consume_start_us_ = 0;
  util::Micros consume_wall_start_ = 0;
  graph::GraphUpdate update_;
  SubscriptionDelta delta_;

  bool replaying_ = false;
  std::size_t next_bump_ = 0;  // into the ledger's bumps
  std::uint64_t replay_target_ = 0;
  std::uint32_t granted_epoch_ = 0;
  std::int64_t replay_started_us_ = 0;
  std::uint64_t replayed_ = 0;
  std::optional<graph::Timestamp> deferred_prune_;  // TTL cutoff awaiting the replay's end

  struct Metrics {
    obs::Counter* batches;
    obs::Counter* messages;
    obs::Counter* coalesced;
    obs::Counter* bytes_wire;
    obs::LatencyMetric* batch_occupancy;
    obs::Counter* updates_processed;
    obs::Counter* ctrl_processed;
    obs::Counter* updates_replayed;
    obs::LatencyMetric* time_to_replay_us;
  };
  Metrics m_;
};

// The serving side of one worker: decodes ServingBatch frames, drops stale
// frames and replayed duplicates with its EpochFence, and hands every
// admitted message to the caller. Single-threaded per worker, like the
// fence it owns.
class FrameApplier {
 public:
  struct Delivery {
    std::uint32_t src_shard = 0;
    std::uint32_t messages = 0;  // decoded, fenced ones included
    std::uint64_t fenced = 0;    // changes dropped (ft.deltas_fenced)
    bool ok = true;              // false: malformed frame
  };

  // `tracer` (nullable) closes the frame's "batch" flow and each admitted
  // update's "update" flow on lane `pid`.
  FrameApplier(obs::MetricsRegistry* registry, obs::StageTracer* tracer, std::uint32_t pid)
      : deltas_fenced_(registry->GetCounter("ft.deltas_fenced")),
        messages_admitted_(registry->GetCounter("dissemination.messages_admitted")),
        tracer_(tracer),
        pid_(pid) {}

  // apply(src_shard, const ServingMessage&) runs once per admitted
  // (possibly trimmed) message, in frame order.
  template <typename ApplyFn>
  Delivery Deliver(const std::string& frame, ApplyFn&& apply) {
    ServingBatchReader reader(frame);
    Delivery d;
    d.src_shard = reader.src_shard();
    obs::TraceBuffer* trace = tracer_ != nullptr ? tracer_->trace() : nullptr;
    if (trace != nullptr && reader.flow_id() != 0) {
      trace->AddFlowEnd("batch", "dissemination", tracer_->Now(), pid_, 0, reader.flow_id());
    }
    const ft::EpochFence::FrameToken token = fence_.BeginFrame(d.src_shard, reader.epoch());
    // Messages of one update sit adjacent in a frame: one flow end per run.
    std::uint64_t last_update_flow = 0;
    std::uint64_t admitted = 0;
    while (reader.Next(msg_)) {
      ++d.messages;
      if (token.stale) {
        // The whole frame predates the sender's current epoch (published by
        // a dead incarnation, drained after re-admission).
        d.fenced += msg_.kind() == ServingMessage::Kind::kSampleDelta ? msg_.delta().num_changes()
                                                                      : 1;
        continue;
      }
      d.fenced += FenceInto(fence_, d.src_shard, token, msg_, [&](const ServingMessage& m) {
        ++admitted;
        apply(d.src_shard, m);
        if (trace != nullptr && m.trace.active() && m.trace.trace_id != last_update_flow) {
          last_update_flow = m.trace.trace_id;
          trace->AddFlowEnd("update", "causal", tracer_->Now(), pid_, 0, m.trace.trace_id);
        }
      });
    }
    if (d.fenced > 0) deltas_fenced_->Add(d.fenced);
    if (admitted > 0) messages_admitted_->Add(admitted);
    d.ok = reader.ok();
    return d;
  }

 private:
  ft::EpochFence fence_;  // keyed by source shard
  obs::Counter* deltas_fenced_;
  obs::Counter* messages_admitted_;  // one per message handed to apply
  obs::StageTracer* tracer_;
  std::uint32_t pid_;
  ServingMessage msg_;  // decode buffer, reused across frames
};

}  // namespace helios
