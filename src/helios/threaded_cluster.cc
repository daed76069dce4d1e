#include "helios/threaded_cluster.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <optional>
#include <thread>

#include "helios/node_engine.h"
#include "store/segment_store.h"
#include "util/logging.h"

namespace helios {

namespace {
constexpr const char* kUpdatesTopic = "updates";
constexpr const char* kSamplesTopic = "samples";
// Records per consumer poll, for both sampling and serving pollers.
constexpr std::size_t kPollBatch = 512;

// Each sampling node's shard actors run on its own pool, so a teardown joins
// exactly that node's threads.
std::string PoolOf(std::uint32_t node) { return "sampling-" + std::to_string(node); }

// A durable log the caller asked for but that cannot open stops the
// process, naming the directory and the reason.
[[noreturn]] void DurableLogFailed(const std::string& dir, const std::string& why) {
  std::fprintf(stderr, "cluster: durable log %s: %s\n", dir.c_str(), why.c_str());
  std::exit(2);
}

}  // namespace

// One logical shard: a mailbox over the shard's engine step (all access is
// serialized by the actor). Frames go to the serving workers' samples
// partitions, control deltas to the destination shard's updates partition.
class ThreadedCluster::ShardActor : public actor::Actor, private ShardStep::Sink {
 public:
  ShardActor(ThreadedCluster* cluster, std::unique_ptr<ShardStep> step)
      : cluster_(cluster), step_(std::move(step)) {}

  void IngestBatch(std::vector<mq::Record> records) {
    Tell([this, records = std::move(records)] {
      step_->Consume(records, *this);
      // Published after the consume so the frames and control appends this
      // batch spawned are already in their partitions when the idle
      // detector sees this shard caught up.
      cluster_->shard_applied_[step_->core().shard_id()].store(step_->core().applied_offset(),
                                                               std::memory_order_release);
    });
  }

  void Prune(graph::Timestamp cutoff) {
    Tell([this, cutoff] { step_->Prune(cutoff, *this); });
  }

  // Runs fn with exclusive access to the step (blocking the caller).
  template <typename F>
  void WithStep(F&& fn) {
    std::promise<void> done;
    if (!Tell([&] {
          fn(*step_);
          done.set_value();
        })) {
      // Killed or shutting down: the step is quiescent, access it directly.
      fn(*step_);
      return;
    }
    done.get_future().wait();
  }

 private:
  // Frames are encoded and appended on the shard thread, inside the mailbox
  // slice that counted them. A kill lets a running slice finish, so every
  // frame dissemination.* counted reaches the log (node_engine.h).
  void Frame(std::uint32_t sew, const std::string& frame, std::uint32_t messages) override {
    mq::Producer(*cluster_->broker_)
        .Send(kSamplesTopic, std::string(), frame, static_cast<int>(sew));
    // Flow balance counts messages, not frames: the idle detector pairs
    // this with one serving_applied per decoded record.
    cluster_->flow_.serving_published->Add(messages);
  }
  // Control plane rides the destination shard's updates partition as a
  // tagged record: one totally-ordered log per shard (deterministic replay),
  // and a delta bound for a dead shard survives in the broker until it
  // comes back.
  void Ctrl(std::uint32_t shard, const SubscriptionDelta& delta) override {
    cluster_->flow_.ctrl_sent->Add(1);
    mq::Producer(*cluster_->broker_)
        .Send(kUpdatesTopic, std::string(), EncodeCtrlRecord(delta), static_cast<int>(shard));
  }

  ThreadedCluster* cluster_;
  std::unique_ptr<ShardStep> step_;
};

// Polling actor of one sampling worker (§4.2 polling threads): drains the
// worker's update partitions and hands record batches to shard actors. The
// partition list is the node's slice of the *current* sampling assignment
// (partition id == logical shard id), pinned at construction: ownership
// changes rebuild the poller rather than mutate it, so one poller
// incarnation routes one placement generation (the double-buffered flip of
// docs/ELASTICITY.md).
class ThreadedCluster::SamplingPollActor : public actor::Actor {
 public:
  SamplingPollActor(ThreadedCluster* cluster, std::uint32_t worker_id,
                    std::vector<std::uint32_t> partitions)
      : cluster_(cluster), worker_id_(worker_id), partitions_(std::move(partitions)) {
    consumer_ = std::make_unique<mq::Consumer>(*cluster_->broker_, "sampling", kUpdatesTopic,
                                               partitions_);
  }

  void Loop() {
    Tell([this] {
      if (stop_.load(std::memory_order_acquire)) return;
      if (!cluster_->running_.load(std::memory_order_acquire)) return;
      if (ft::Supervisor* supervisor = cluster_->control_.supervisor()) {
        supervisor->Heartbeat(worker_id_, util::NowMicros());
      }
      std::vector<mq::Record> records;
      std::vector<std::uint32_t> partitions;
      consumer_->PollWithPartitions(kPollBatch, records, partitions);
      if (records.empty()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      } else {
        // Group per shard, preserving order within each shard.
        std::vector<std::vector<mq::Record>> per_shard(partitions_.size());
        for (std::size_t i = 0; i < records.size(); ++i) {
          per_shard[SlotOf(partitions[i])].push_back(std::move(records[i]));
        }
        for (std::uint32_t slot = 0; slot < per_shard.size(); ++slot) {
          if (!per_shard[slot].empty()) {
            cluster_->shards_[partitions_[slot]]->IngestBatch(std::move(per_shard[slot]));
          }
        }
        consumer_->Commit();
      }
      Loop();
    });
  }

  // Migration quiesce. Unlike Kill() — which models a crash and drops the
  // mailbox — this lets the in-flight poll slice finish and proves
  // quiescence with a barrier: Loop()'s deliver+commit pair runs inside one
  // mailbox closure, so when this returns the committed group offsets are
  // exact, every delivered record is already queued at its shard actor, and
  // no further polls will run. Idempotent; a no-op on a killed actor.
  void StopAndJoin() {
    stop_.store(true, std::memory_order_release);
    std::promise<void> done;
    if (!Tell([&done] { done.set_value(); })) return;
    done.get_future().wait();
  }

 private:
  std::size_t SlotOf(std::uint32_t partition) const {
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
      if (partitions_[i] == partition) return i;
    }
    return 0;  // unreachable: the consumer only yields subscribed partitions
  }

  ThreadedCluster* cluster_;
  std::uint32_t worker_id_;
  std::vector<std::uint32_t> partitions_;
  std::atomic<bool> stop_{false};
  std::unique_ptr<mq::Consumer> consumer_;
};

// Data-updating actor of one serving worker (§4.3): a mailbox over the
// worker's FrameApplier, applying sample/feature updates to the cache in
// queue order. One thread applies every frame of this worker, so the
// applier's fence admission per source shard is race-free by construction.
class ThreadedCluster::ServingUpdateActor : public actor::Actor {
 public:
  ServingUpdateActor(ThreadedCluster* cluster, std::uint32_t worker_id)
      : cluster_(cluster),
        worker_id_(worker_id),
        applier_(&cluster->registry_, cluster->serving_tracers_[worker_id].get(),
                 kServingPidBase + worker_id) {}

  void ApplyBatch(std::vector<mq::Record> records) {
    Tell([this, records = std::move(records)] {
      ServingCore& core = *cluster_->serving_cores_[worker_id_];
      obs::StageTracer& tracer = *cluster_->serving_tracers_[worker_id_];
      const std::int64_t start_us = tracer.Now();
      for (const auto& r : records) {
        const FrameApplier::Delivery d =
            applier_.Deliver(r.value, [&](std::uint32_t src, const ServingMessage& msg) {
              // Frame provenance labels the freshness histograms.
              core.SetApplySource(src);
              core.Apply(msg);
              // origin <= 0 means unstamped under wall time (prune- and
              // control-spawned messages); only measure stamped updates.
              if (msg.OriginMicros() > 0) tracer.RecordEndToEnd(msg.OriginMicros(), start_us);
            });
        // Fenced messages still count: the shard counted them as published,
        // and the idle detector pairs published with applied.
        cluster_->flow_.serving_applied->Add(d.messages);
        if (!d.ok) {
          HLOG(kWarn, "serving") << "malformed serving batch at offset " << r.offset;
        }
      }
      // Cache-apply stage: one span per drained batch on this worker's lane.
      tracer.RecordSpan(obs::Stage::kCacheApply, start_us, tracer.Now() - start_us,
                        kServingPidBase + worker_id_, 0);
    });
  }

 private:
  ThreadedCluster* cluster_;
  std::uint32_t worker_id_;
  FrameApplier applier_;
};

// Polling actor of one serving worker (§4.3): drains the sample queue.
class ThreadedCluster::ServingPollActor : public actor::Actor {
 public:
  ServingPollActor(ThreadedCluster* cluster, std::uint32_t worker_id)
      : cluster_(cluster), worker_id_(worker_id) {
    consumer_ = std::make_unique<mq::Consumer>(*cluster_->broker_, "serving", kSamplesTopic,
                                               std::vector<std::uint32_t>{worker_id});
  }

  void Loop() {
    Tell([this] {
      if (!cluster_->running_.load(std::memory_order_acquire)) return;
      std::vector<mq::Record> records;
      consumer_->Poll(kPollBatch, records);
      if (records.empty()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      } else {
        cluster_->serving_updaters_[worker_id_]->ApplyBatch(std::move(records));
        consumer_->Commit();
      }
      Loop();
    });
  }

 private:
  ThreadedCluster* cluster_;
  std::uint32_t worker_id_;
  std::unique_ptr<mq::Consumer> consumer_;
};

ThreadedCluster::ThreadedCluster(QueryPlan plan, ClusterOptions options)
    : plan_(std::move(plan)),
      options_(std::move(options)),
      // Placement starts as the static layout, so a cluster that never
      // migrates routes exactly as before; the serving tier's lane -> worker
      // assignment starts as the identity.
      control_({options_.map.sampling_workers,
                elastic::ShardMap::Contiguous(options_.map.TotalShards(),
                                              options_.map.shards_per_worker)
                    .Current()
                    ->owner,
                /*max_concurrent_migrations=*/2, &registry_, &wall_clock_,
                options_.supervision_timeout},
               Mechanics()) {
  flow_.updates_published = registry_.GetCounter("cluster.updates_published");
  flow_.updates_processed = registry_.GetCounter("cluster.updates_processed");
  flow_.serving_published = registry_.GetCounter("cluster.serving_msgs_published");
  flow_.serving_applied = registry_.GetCounter("cluster.serving_msgs_applied");
  flow_.ctrl_sent = registry_.GetCounter("cluster.ctrl_sent");
  flow_.ctrl_processed = registry_.GetCounter("cluster.ctrl_processed");
  flow_.queries_served = registry_.GetCounter("cluster.queries_served");
  broker_ = std::make_unique<mq::Broker>();
  if (!options_.durable_log_dir.empty()) {
    const std::string& dir = options_.durable_log_dir;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) DurableLogFailed(dir, "cannot create the directory: " + ec.message());
    store::StoreOptions sopt;
    sopt.path = dir + "/mqlog.hstore";
    sopt.cluster_size = 64 * 1024;
    auto opened = store::SegmentStore::Open(sopt);
    if (!opened.ok()) DurableLogFailed(dir, "open: " + opened.status().ToString());
    mq_store_ = std::move(opened.value());
    const util::Status bound = broker_->BindStore(mq_store_.get());
    if (!bound.ok()) DurableLogFailed(dir, "bind: " + bound.ToString());
  }
  broker_->CreateTopic(kUpdatesTopic, options_.map.TotalShards());
  broker_->CreateTopic(kSamplesTopic, options_.map.serving_workers);
  system_ = std::make_unique<actor::ActorSystem>();

  // One thread per workload class and worker, as in §4.2/§4.3. The shard
  // pools are per worker ("sampling-<w>") so KillNode can join exactly one
  // node's threads; the polling and update pools are shared (pollers of a
  // killed node are stopped, not joined).
  system_->AddPool("poll", options_.map.sampling_workers + options_.map.serving_workers);
  system_->AddPool("update", options_.map.serving_workers);

  shard_applied_ = std::make_unique<std::atomic<std::uint64_t>[]>(options_.map.TotalShards());
  const elastic::ShardMap::View placement = control_.placement().Current();
  for (std::uint32_t s = 0; s < options_.map.TotalShards(); ++s) {
    const std::uint32_t owner = placement->OwnerOf(s);
    (void)system_->AddPool(PoolOf(owner), options_.map.shards_per_worker);
    auto shard = std::make_shared<ShardActor>(this, NewStep(s, owner, control_.ledger(s)));
    system_->Attach(shard, PoolOf(owner));
    shards_.push_back(std::move(shard));
  }
  for (std::uint32_t w = 0; w < options_.map.sampling_workers; ++w) {
    auto poller = std::make_shared<SamplingPollActor>(this, w, placement->ShardsOf(w));
    system_->Attach(poller, "poll");
    sampling_pollers_.push_back(std::move(poller));
  }

  if (control_.supervisor() != nullptr && options_.telemetry != nullptr) {
    // Cluster-health probe: the monitor loop advances the hub each tick, so
    // Overloaded() is at most one tick stale when the supervisor reads it.
    // Overload never triggers recovery — it is counted and logged.
    control_.supervisor()->SetOverloadProbe(
        [hub = options_.telemetry] { return hub->Overloaded(); });
  }
  for (std::uint32_t w = 0; w < options_.map.serving_workers; ++w) {
    ServingCore::Options so;
    so.kv = options_.serving_kv;
    if (!so.kv.spill_dir.empty()) {
      so.kv.spill_dir += "/sew-" + std::to_string(w);
    }
    so.ttl = options_.ttl;
    so.registry = &registry_;
    so.aggregate_cache_entries = options_.aggregate_cache_entries;
    so.aggregate_staleness_us = options_.aggregate_staleness_us;
    // One freshness tracker per serving worker, lanes keyed by source
    // sampling shard; the core invokes it at apply (visibility) and serve
    // (first read) time under wall clock.
    freshness_.push_back(std::make_unique<obs::FreshnessTracker>(
        &registry_, options_.map.TotalShards(), obs::Labels{{"worker", std::to_string(w)}}));
    so.freshness = freshness_.back().get();
    so.freshness_clock = &wall_clock_;
    serving_cores_.push_back(std::make_unique<ServingCore>(plan_, w, std::move(so)));
    serving_tracers_.push_back(std::make_unique<obs::StageTracer>(
        &registry_, &wall_clock_, options_.trace,
        obs::Labels{{"worker", std::to_string(w)}}));
    auto updater = std::make_shared<ServingUpdateActor>(this, w);
    system_->Attach(updater, "update");
    serving_updaters_.push_back(std::move(updater));
    auto poller = std::make_shared<ServingPollActor>(this, w);
    system_->Attach(poller, "poll");
    serving_pollers_.push_back(std::move(poller));
  }
  if (options_.enable_admission) {
    admission_queues_ = AdmissionQueue::ForWorkers(options_.map.serving_workers,
                                                   options_.admission, &registry_,
                                                   options_.telemetry);
  }

  if (options_.trace != nullptr) {
    options_.trace->BindDroppedCounter(registry_.GetCounter("obs.trace.dropped_events"));
    for (std::uint32_t w = 0; w < options_.map.sampling_workers; ++w) {
      options_.trace->SetProcessName(w, "sampling-worker-" + std::to_string(w));
    }
    for (std::uint32_t w = 0; w < options_.map.serving_workers; ++w) {
      options_.trace->SetProcessName(kServingPidBase + w, "serving-worker-" + std::to_string(w));
    }
  }
}

ThreadedCluster::~ThreadedCluster() { Stop(); }

void ThreadedCluster::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  for (auto& poller : sampling_pollers_) poller->Loop();
  for (auto& poller : serving_pollers_) poller->Loop();
  if (control_.supervisor() != nullptr) monitor_ = std::thread([this] { MonitorLoop(); });
  if (!admission_queues_.empty()) query_pump_ = std::thread([this] { QueryPumpLoop(); });
}

void ThreadedCluster::MonitorLoop() {
  // Tick cadence: a quarter of the timeout keeps detection latency within
  // ~1.25x the configured timeout without busy-spinning.
  const auto interval = std::chrono::microseconds(
      std::max<util::Micros>(500, options_.supervision_timeout / 4));
  while (running_.load(std::memory_order_acquire)) {
    if (options_.telemetry != nullptr) {
      options_.telemetry->Advance(static_cast<std::int64_t>(util::NowMicros()));
    }
    std::vector<ft::RecoveryReport> reports = control_.supervisor()->Tick(util::NowMicros());
    if (!reports.empty()) {
      std::lock_guard<std::mutex> lock(reports_mutex_);
      for (auto& r : reports) reports_.push_back(std::move(r));
    }
    std::this_thread::sleep_for(interval);
  }
}

void ThreadedCluster::Stop() {
  running_.store(false, std::memory_order_release);
  if (monitor_.joinable()) monitor_.join();
  if (query_pump_.joinable()) query_pump_.join();
  // Fence semantics: admitted queries are answered before shutdown, never
  // dropped (serving is synchronous and needs no actor pools).
  for (std::uint32_t w = 0; w < admission_queues_.size(); ++w) {
    while (PumpOnce(w, /*drain=*/true)) {
    }
  }
  system_->Shutdown();
  // Every pool thread is joined: no drain slice can reference a replaced
  // actor incarnation any more, so the graveyard can finally be freed.
  std::lock_guard<std::recursive_mutex> lock(control_.mutex());
  retired_actors_.clear();
}

void ThreadedCluster::PublishUpdate(const graph::GraphUpdate& update) {
  mq::Producer producer(*broker_);
  auto publish_to = [&](graph::VertexId owner, const graph::GraphUpdate& u) {
    producer.Send(kUpdatesTopic, std::string(), graph::EncodeUpdate(u),
                  static_cast<int>(options_.map.ShardOf(owner)));
    flow_.updates_published->Add(1);
  };
  if (const auto* v = std::get_if<graph::VertexUpdate>(&update)) {
    publish_to(v->id, update);
    return;
  }
  const auto& e = std::get<graph::EdgeUpdate>(update);
  // §4.2 edge storage policies. BySrc keys out-neighbor sampling at the
  // source; ByDest stores the reversed edge at the destination (in-
  // neighbor sampling); Both replicates to both partitions (undirected).
  if (options_.edge_placement != graph::EdgePlacement::kByDest) {
    publish_to(e.src, update);
  }
  if (options_.edge_placement != graph::EdgePlacement::kBySrc) {
    graph::EdgeUpdate reversed = e;
    std::swap(reversed.src, reversed.dst);
    publish_to(reversed.src, graph::GraphUpdate{reversed});
  }
}

void ThreadedCluster::WaitForIngestIdle() {
  // Idle = every live shard has applied its updates partition up to the
  // end offset (this covers control deltas too — they ride the same log),
  // no sampling-side mailbox holds work, the serving side has applied
  // everything published, and all of it is stable over two consecutive
  // probes. Cumulative publish/process counters are deliberately not
  // compared: log replay after a crash re-counts processed records, while
  // offsets stay exact. Partitions of dead nodes are excluded — they drain
  // when the node is re-admitted.
  mq::Topic* updates = broker_->GetTopic(kUpdatesTopic);
  std::uint64_t last_fingerprint = ~0ULL;
  int stable = 0;
  while (stable < 2) {
    bool drained = true;
    std::uint64_t applied_sum = 0;
    {
      std::lock_guard<std::recursive_mutex> lock(control_.mutex());
      const elastic::ShardMap::View view = control_.placement().Current();
      for (std::uint32_t s = 0; s < options_.map.TotalShards(); ++s) {
        if (!control_.NodeAlive(view->OwnerOf(s))) continue;
        const std::uint64_t applied = shard_applied_[s].load(std::memory_order_acquire);
        applied_sum += applied;
        if (applied < updates->partition(s).end_offset()) drained = false;
        if (shards_[s]->MailboxDepth() != 0) drained = false;
      }
    }
    for (const auto& updater : serving_updaters_) {
      if (updater->MailboxDepth() != 0) drained = false;
    }
    const std::uint64_t spub = flow_.serving_published->Value();
    const std::uint64_t sapp = flow_.serving_applied->Value();
    const bool balanced = drained && spub == sapp;
    const std::uint64_t fingerprint = applied_sum * 1000003ULL + sapp * 10007ULL + spub;
    if (balanced && fingerprint == last_fingerprint) {
      stable++;
    } else {
      stable = 0;
    }
    last_fingerprint = fingerprint;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

SampledSubgraph ThreadedCluster::Serve(graph::VertexId seed) {
  SampledSubgraph result;
  const std::uint32_t worker = RouteOf(seed);
  const std::int64_t t0 = options_.telemetry != nullptr ? wall_clock_.NowMicros() : 0;
  ServeOn(worker, seed, result);
  if (options_.telemetry != nullptr) {
    const std::int64_t t1 = wall_clock_.NowMicros();
    options_.telemetry->RecordQuery(worker, t1, static_cast<std::uint64_t>(t1 - t0),
                                    ResponseBytes(result));
  }
  return result;
}

void ThreadedCluster::ServeOn(std::uint32_t worker, graph::VertexId seed, SampledSubgraph& out) {
  // One scratch per thread: the query pump and every caller thread each
  // reuse their own, so a steady-state serve allocates only its result.
  static thread_local ServeScratch scratch;
  flow_.queries_served->Add(1);
  obs::ScopedStage span(*serving_tracers_[worker], obs::Stage::kServe, kServingPidBase + worker, 1);
  serving_cores_[worker]->ServeInto(seed, out, scratch);
}

// ---- admission front door (docs/PERF.md "Computation reuse & admission")

AdmissionQueue::Outcome ThreadedCluster::SubmitQuery(graph::VertexId seed,
                                                     std::int64_t deadline_us) {
  if (admission_queues_.empty()) {
    std::fprintf(stderr, "cluster: SubmitQuery needs ClusterOptions::enable_admission\n");
    std::abort();
  }
  QueryTicket t;
  t.seed = seed;
  t.deadline_us = deadline_us;
  return admission_queues_[RouteOf(seed)]->Offer(t, wall_clock_.NowMicros());
}

bool ThreadedCluster::PumpOnce(std::uint32_t worker, bool drain) {
  // Nobody reads a pumped result: one per thread, reused like ServeOn's
  // scratch, so a steady-state ticket allocates nothing.
  static thread_local SampledSubgraph result;
  AdmissionQueue& queue = *admission_queues_[worker];
  const std::int64_t now = wall_clock_.NowMicros();
  QueryTicket t;
  if (!(drain ? queue.Drain(now, t) : queue.Next(now, t))) return false;
  ServeOn(worker, t.seed, result);
  queue.Complete(t, wall_clock_.NowMicros(), ResponseBytes(result));
  return true;
}

void ThreadedCluster::QueryPumpLoop() {
  while (running_.load(std::memory_order_acquire)) {
    bool any = false;
    for (std::uint32_t w = 0; w < admission_queues_.size(); ++w) {
      any = PumpOnce(w, /*drain=*/false) || any;
    }
    if (!any) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void ThreadedCluster::WaitForQueryIdle() {
  while (!std::all_of(admission_queues_.begin(), admission_queues_.end(),
                      [](const auto& q) { return q->Idle(); })) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::vector<std::shared_ptr<ThreadedCluster::ShardActor>> ThreadedCluster::LiveShards() const {
  std::vector<std::shared_ptr<ShardActor>> live;
  std::lock_guard<std::recursive_mutex> lock(control_.mutex());
  const elastic::ShardMap::View view = control_.placement().Current();
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (control_.NodeAlive(view->OwnerOf(s))) live.push_back(shards_[s]);
  }
  return live;
}

void ThreadedCluster::PruneTTL(graph::Timestamp cutoff) {
  const std::vector<std::shared_ptr<ShardActor>> live = LiveShards();
  for (auto& shard : live) shard->Prune(cutoff);
  // Barrier: a no-op behind each Prune in every mailbox guarantees the
  // prune itself ran; WaitForIngestIdle then drains whatever it emitted.
  // (ActorSystem::Quiesce cannot be used here — the polling actors
  // perpetually reschedule themselves, so the system is never "idle".)
  for (auto& shard : live) shard->WithStep([](ShardStep&) {});
  WaitForIngestIdle();
  for (auto& core : serving_cores_) core->EvictOlderThan(cutoff);
}

// ---- control-plane mechanics (control_plane.h)

ControlPlane::Driver ThreadedCluster::Mechanics() {
  ControlPlane::Driver d;
  // Migration quiesce: the in-flight poll slice finishes, so the committed
  // group offsets are exact and every delivered record is queued at its
  // shard actor.
  d.quiesce_poller = [this](std::uint32_t node) { sampling_pollers_[node]->StopAndJoin(); };
  // The fresh consumer resumes from the committed group offsets, so the gap
  // between the two incarnations loses nothing.
  d.rebuild_poller = [this](std::uint32_t node) {
    system_->Detach(sampling_pollers_[node]);
    retired_actors_.push_back(sampling_pollers_[node]);
    sampling_pollers_[node] =
        std::make_shared<SamplingPollActor>(this, node, control_.placement().ShardsOf(node));
    system_->Attach(sampling_pollers_[node], "poll");
    if (running_.load(std::memory_order_acquire)) sampling_pollers_[node]->Loop();
  };
  // Intake first (the poller feeds the shards), then the shards, then the
  // node's pool, so nothing of the node runs afterwards. The poller runs on
  // the shared poll pool, which is never joined: wait out its in-flight
  // slice, or it could commit offsets past the recovery's rewind. A shard
  // slice already running finishes with its frames appended.
  d.tear_down = [this](std::uint32_t node) {
    sampling_pollers_[node]->StopAndJoin();
    sampling_pollers_[node]->Kill();
    for (const std::uint32_t s : control_.placement().ShardsOf(node)) shards_[s]->Kill();
    system_->StopPool(PoolOf(node));
  };
  d.new_step = [this](std::uint32_t s, std::uint32_t node, ShardLedger& ledger) {
    return NewStep(s, node, ledger);
  };
  d.log_end = [this](std::uint32_t s) {
    return broker_->GetTopic(kUpdatesTopic)->partition(s).end_offset();
  };
  // The WithStep barrier queues behind whatever the poller already
  // delivered, so the state and its applied offset sit on a frame boundary.
  d.snapshot = [this](std::uint32_t s, graph::ByteWriter& w) {
    std::uint64_t applied = 0;
    shards_[s]->WithStep([&](ShardStep& step) {
      step.core().Serialize(w);
      applied = step.core().applied_offset();
    });
    return applied;
  };
  d.adopt = [this](std::uint32_t s, std::uint32_t node, std::unique_ptr<ShardStep> step,
                   util::Nanos) {
    // Rewind the consumer group to the restored offset: broker commits can
    // run ahead of the checkpoint.
    const auto rewound =
        broker_->ReplayFrom("sampling", kUpdatesTopic, s, step->core().applied_offset());
    shard_applied_[s].store(rewound.ValueOr(0), std::memory_order_release);
    // Retire the old incarnation, killed before detached so no stray Tell
    // lands between the two. A live owner's pool keeps running (migration),
    // so a queued slice may still touch the actor: park it until Stop(). A
    // dead owner's pool is already joined, so the actor can go now.
    std::shared_ptr<ShardActor> old = std::move(shards_[s]);
    old->Kill();
    system_->Detach(old);
    if (control_.NodeAlive(control_.placement().OwnerOf(s))) retired_actors_.push_back(old);
    (void)system_->AddPool(PoolOf(node), options_.map.shards_per_worker);  // after a teardown
    shards_[s] = std::make_shared<ShardActor>(this, std::move(step));
    system_->Attach(shards_[s], PoolOf(node));
  };
  // An aggregate cached under the previous owner must never serve under the
  // new one, and hot-seed hints describe the old owner's cache.
  d.flush_ownership_caches = [this] {
    for (auto& core : serving_cores_) core->FlushAggregateCache();
    for (auto& q : admission_queues_) q->FlushHotSeeds();
  };
  return d;
}

std::unique_ptr<ShardStep> ThreadedCluster::NewStep(std::uint32_t s, std::uint32_t node,
                                                    ShardLedger& ledger) {
  // `node` labels the trace lane; the core itself is placement-agnostic.
  return std::make_unique<ShardStep>(
      std::make_unique<SamplingShardCore>(plan_, options_.map, s, options_.seed,
                                          SamplingShardCore::Options{options_.ttl, &registry_}),
      ShardStep::Wiring{&registry_, &wall_clock_, options_.trace, &trace_ids_, node, &ledger});
}

std::vector<ft::RecoveryReport> ThreadedCluster::RecoveryReports() const {
  std::lock_guard<std::mutex> lock(reports_mutex_);
  return reports_;
}

ClusterStats ThreadedCluster::Stats() const {
  ClusterStats stats;
  stats.updates_published = flow_.updates_published->Value();
  stats.updates_processed = flow_.updates_processed->Value();
  stats.serving_msgs_published = flow_.serving_published->Value();
  stats.serving_msgs_applied = flow_.serving_applied->Value();
  stats.ctrl_sent = flow_.ctrl_sent->Value();
  stats.ctrl_processed = flow_.ctrl_processed->Value();
  stats.queries_served = flow_.queries_served->Value();
  return stats;
}

util::Histogram ThreadedCluster::IngestionLatency() const {
  return registry_.TakeSnapshot().LatencyTotal("pipeline.ingest_e2e");
}

obs::MetricsRegistry::Snapshot ThreadedCluster::MetricsSnapshot() {
  broker_->PublishTo(&registry_);
  for (auto& core : serving_cores_) core->PublishCacheStats();
  return registry_.TakeSnapshot();
}

std::vector<kv::KvStats> ThreadedCluster::ServingCacheStats() const {
  std::vector<kv::KvStats> stats;
  stats.reserve(serving_cores_.size());
  for (const auto& core : serving_cores_) stats.push_back(core->CacheStats());
  return stats;
}

std::map<std::string, std::string> ThreadedCluster::DumpServingCache(std::uint32_t worker) const {
  return serving_cores_.at(worker)->DumpCache();
}

}  // namespace helios
