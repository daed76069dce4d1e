#include "helios/node_engine.h"

#include <algorithm>
#include <utility>

#include "graph/update_codec.h"
#include "util/clock.h"
#include "util/logging.h"

namespace helios {

namespace {
// Origin of work driven by a control record: the record carries none, so
// the messages it spawns are unstamped (no end-to-end latency sample).
constexpr std::int64_t kNoOrigin = -1;
}  // namespace

ShardStep::ShardStep(std::unique_ptr<SamplingShardCore> core, const Wiring& wiring)
    : core_(std::move(core)),
      wiring_(wiring),
      tracer_(wiring.registry, wiring.clock, wiring.trace,
              obs::Labels{{"shard", std::to_string(core_->shard_id())},
                          {"worker", std::to_string(wiring.node)}}) {
  obs::MetricsRegistry& r = *wiring.registry;
  m_.batches = r.GetCounter("dissemination.batches");
  m_.messages = r.GetCounter("dissemination.messages");
  m_.coalesced = r.GetCounter("dissemination.coalesced_msgs");
  m_.bytes_wire = r.GetCounter("dissemination.bytes_wire");
  m_.batch_occupancy = r.GetLatency("dissemination.batch_occupancy");
  m_.updates_processed = r.GetCounter("cluster.updates_processed");
  m_.ctrl_processed = r.GetCounter("cluster.ctrl_processed");
  m_.updates_replayed = r.GetCounter("ft.updates_replayed");
  m_.time_to_replay_us = r.GetLatency("ft.time_to_replay_us");
}

util::Status ShardStep::Install(const std::string* checkpoint, std::uint64_t replay_end,
                                std::uint32_t epoch) {
  if (checkpoint != nullptr) {
    graph::ByteReader r(*checkpoint);
    if (!SamplingShardCore::Deserialize(r, *core_)) {
      return util::Status::Internal("corrupt checkpoint for shard " +
                                    std::to_string(core_->shard_id()));
    }
  }
  replaying_ = true;
  deferred_prune_.reset();  // was meant for the state this replaces
  deferred_resubscribe_ = false;
  next_bump_ = 0;
  replay_target_ = replay_end;
  // Never at or below the installed epoch: the peers' control fences hold it
  // and would drop every delta of a restarted seq numbering under it.
  granted_epoch_ = std::max(epoch, core_->epoch() + 1);
  replay_started_us_ = tracer_.Now();
  replayed_ = 0;
  BumpDue(nullptr);  // nothing is pending yet: no frame to close
  if (core_->applied_offset() >= replay_target_) FinishReplay();
  return util::Status::Ok();
}

void ShardStep::BumpDue(Sink* sink) {
  // Earlier incarnations' bumps: this replay's own lands after its last call.
  const auto& bumps = wiring_.ledger->bumps;
  for (; next_bump_ < bumps.size() && bumps[next_bump_].first <= core_->applied_offset();
       ++next_bump_) {
    // Bumps the checkpoint already reflects are not repeated.
    const std::uint32_t epoch = bumps[next_bump_].second;
    if (epoch <= core_->epoch()) continue;
    if (sink != nullptr) Flush(*sink);
    core_->BumpEpoch(epoch);
  }
}

void ShardStep::Consume(std::span<const mq::Record> records, Sink& sink) {
  if (records.empty()) return;
  consume_start_us_ = tracer_.Now();
  consume_wall_start_ = util::NowMicros();
  for (const mq::Record& r : records) {
    const std::uint64_t counted = wiring_.ledger->counted_through.load(std::memory_order_acquire);
    if (window_first_ < counted && r.offset >= counted) Flush(sink);
    // Queue wait: log append -> shard dequeue.
    if (consume_start_us_ > r.append_time) {
      tracer_.RecordDuration(obs::Stage::kIngest,
                             static_cast<std::uint64_t>(consume_start_us_ - r.append_time));
    }
    if (window_first_ == kNoWindow) window_first_ = r.offset;
    ConsumeOne(r);
    core_->set_applied_offset(r.offset + 1);
    if (replaying_) {
      if (r.offset < replay_target_) ++replayed_;
      BumpDue(&sink);
      if (core_->applied_offset() >= replay_target_) {
        // A frame carries one epoch: flush what the old epoch emitted before
        // seqs restart under the new one.
        Flush(sink);
        FinishReplay();
        if (std::exchange(deferred_resubscribe_, false)) Resubscribe(sink);
        if (deferred_prune_) Prune(*std::exchange(deferred_prune_, std::nullopt), sink);
      }
    }
  }
  tracer_.RecordSpan(obs::Stage::kSample, consume_start_us_,
                     util::NowMicros() - consume_wall_start_, wiring_.node, core_->shard_id());
  Flush(sink);
}

void ShardStep::ConsumeOne(const mq::Record& r) {
  if (IsCtrlRecord(r.value)) {
    if (!DecodeCtrlRecord(r.value, delta_)) {
      HLOG(kWarn, "shard") << "undecodable ctrl record at offset " << r.offset;
      return;
    }
    m_.ctrl_processed->Add(1);
    // A replaying peer's re-emitted delta fences here.
    if (!core_->AdmitCtrl(delta_)) return;
    // Span start on the runtime's clock: the batch start plus the compute
    // elapsed since (no extra clock read on the hot path).
    const util::Micros wall_start = util::NowMicros();
    core_->OnSubscriptionDelta(delta_, kNoOrigin, out_);
    tracer_.RecordSpan(obs::Stage::kCascade,
                       consume_start_us_ + (wall_start - consume_wall_start_),
                       util::NowMicros() - wall_start, wiring_.node, core_->shard_id());
    return;
  }
  if (!graph::DecodeUpdate(r.value, update_)) {
    HLOG(kWarn, "shard") << "undecodable update at offset " << r.offset;
    return;
  }
  obs::TraceContext trace;  // inactive unless traced
  if (wiring_.trace != nullptr) {
    // The single point every update enters its shard: mint its causal
    // context and open its flow on this sampling lane; the serving-side
    // FrameApplier closes it.
    trace = wiring_.trace_ids->Root();
    wiring_.trace->AddFlowStart("update", "causal", tracer_.Now(), wiring_.node,
                                core_->shard_id(), trace.trace_id);
  }
  core_->OnGraphUpdate(update_, r.append_time, out_, trace);
  m_.updates_processed->Add(1);
}

void ShardStep::Prune(graph::Timestamp cutoff, Sink& sink) {
  if (replaying_) {
    // Mid-replay it would take serving seqs the re-derived frames reuse.
    deferred_prune_ = std::max(deferred_prune_.value_or(cutoff), cutoff);
    return;
  }
  core_->Prune(cutoff, out_);
  // No replay re-derives a TTL pass (it is not in the log): always counted.
  Flush(sink, /*from_log=*/false);
}

void ShardStep::Resubscribe(Sink& sink) {
  if (replaying_) {
    deferred_resubscribe_ = true;
    return;
  }
  core_->ResendSubscribed(out_);
  Flush(sink, /*from_log=*/false);
}

void ShardStep::Flush(Sink& sink, bool from_log) {
  const std::uint64_t first =
      window_first_ == kNoWindow ? core_->applied_offset() : window_first_;
  window_first_ = kNoWindow;
  const bool count =
      !from_log || first >= wiring_.ledger->counted_through.load(std::memory_order_acquire);
  for (const std::uint32_t sew : out_.to_serving.active()) {
    ServingBatchBuilder& b = out_.to_serving.builder(sew);
    if (b.empty()) continue;
    // Frame provenance for the serving-side fence: which shard emitted it,
    // under which incarnation.
    b.Stamp(core_->shard_id(), core_->epoch());
    if (wiring_.trace != nullptr) {
      // Frame-level flow, closed by the FrameApplier that decodes it.
      const std::uint64_t flow = wiring_.trace_ids->Next();
      b.StampFlow(flow);
      wiring_.trace->AddFlowStart("batch", "dissemination", tracer_.Now(), wiring_.node,
                                  core_->shard_id(), flow);
    }
    const std::string& frame = b.EncodeToArena();
    if (count) {
      m_.batches->Add(1);
      m_.messages->Add(b.size());
      m_.coalesced->Add(b.coalesced());
      m_.bytes_wire->Add(frame.size());
      m_.batch_occupancy->Record(b.size());
    }
    sink.Frame(sew, frame, static_cast<std::uint32_t>(b.size()));
  }
  for (const auto& [shard, delta] : out_.to_shards) sink.Ctrl(shard, delta);
  out_.Clear();
  if (count) {
    std::atomic<std::uint64_t>& through = wiring_.ledger->counted_through;
    through.store(std::max(through.load(std::memory_order_relaxed), core_->applied_offset()),
                  std::memory_order_release);
  }
}

void ShardStep::FinishReplay() {
  core_->BumpEpoch(granted_epoch_);
  wiring_.ledger->bumps.emplace_back(core_->applied_offset(), granted_epoch_);
  replaying_ = false;
  m_.updates_replayed->Add(replayed_);
  m_.time_to_replay_us->Record(
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, tracer_.Now() - replay_started_us_)));
  HLOG(kInfo, "ft") << "shard " << core_->shard_id() << " replayed " << replayed_
                    << " records, re-admitted at epoch " << granted_epoch_;
}

}  // namespace helios
