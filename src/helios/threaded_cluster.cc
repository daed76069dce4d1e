#include "helios/threaded_cluster.h"

#include <algorithm>
#include <chrono>
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

// Checkpoints live in one segment-store file per checkpoint directory
// (docs/STORAGE.md): each round writes every live shard's serialized state
// as a fresh "ckpt/shard-<i>" segment, flips that shard's named pointer,
// retires the superseded segment, and makes the whole round durable with a
// single Commit() — so a crash mid-round recovers the previous complete
// checkpoint for every shard, never a torn mix.
store::StoreOptions CheckpointStoreOptions(const std::string& dir) {
  store::StoreOptions opt;
  opt.path = dir + "/checkpoints.hstore";
  opt.cluster_size = 64 * 1024;
  opt.meta_clusters = 8;
  opt.group_commit_bytes = 0;  // the round commits explicitly, exactly once
  return opt;
}

// Writes one shard's state as a sealed single-record segment and points
// "ckpt/shard-<i>" at it. Durable (and visible to recovery) only after the
// store's next Commit().
util::Status WriteShardCheckpoint(store::SegmentStore& st, std::uint32_t shard,
                                  std::string_view bytes) {
  const std::string name = "ckpt/shard-" + std::to_string(shard);
  auto created = st.Create(name);
  if (!created.ok()) return created.status();
  auto appended = st.Append(created.value(), name, bytes);
  if (!appended.ok()) return appended.status();
  auto status = st.Seal(created.value());
  if (!status.ok()) return status;
  const auto old = st.GetNamed(name);
  status = st.SetNamed(name, created.value());
  if (!status.ok()) return status;
  if (old.ok()) (void)st.Retire(old.value());  // superseded checkpoint
  return util::Status::Ok();
}

// Reads the last complete checkpoint of `shard`. kNotFound when the shard
// has never completed one; CRC failures surface as Internal.
util::Status ReadShardCheckpoint(const store::SegmentStore& st, std::uint32_t shard,
                                 std::string& bytes) {
  auto seg = st.GetNamed("ckpt/shard-" + std::to_string(shard));
  if (!seg.ok()) return seg.status();
  bool got = false;
  auto status = st.Scan(seg.value(), [&](const store::RecordLocator&, std::string_view,
                                         std::string_view value) {
    bytes.assign(value);
    got = true;
    return true;
  });
  if (!status.ok()) return status;
  if (!got) return util::Status::NotFound("empty checkpoint segment");
  return util::Status::Ok();
}
}  // namespace

// One logical shard: a mailbox over the shard's engine step (all access is
// serialized by the actor). Frames go to the serving workers' samples
// partitions, control deltas to the destination shard's updates partition.
class ThreadedCluster::ShardActor : public actor::Actor, private ShardStep::Sink {
 public:
  // `owner` is the hosting node under the current sampling assignment — the
  // static layout's worker at construction, the migration destination after
  // a handoff (the core itself is placement-agnostic; only trace labels
  // care).
  ShardActor(ThreadedCluster* cluster, std::uint32_t shard_id, std::uint32_t owner)
      : cluster_(cluster),
        step_(std::make_unique<SamplingShardCore>(
                  cluster->plan_, cluster->options_.map, shard_id, cluster->options_.seed,
                  SamplingShardCore::Options{cluster->options_.ttl, &cluster->registry_}),
              ShardStep::Wiring{&cluster->registry_, &cluster->wall_clock_,
                                cluster->options_.trace, &cluster->trace_ids_, owner,
                                &cluster->ledgers_[shard_id]}) {}

  void IngestBatch(std::vector<mq::Record> records) {
    Tell([this, records = std::move(records)] {
      step_.Consume(records, *this);
      // Published after the consume so the frames and control appends this
      // batch spawned are already in their partitions when the idle
      // detector sees this shard caught up.
      cluster_->shard_applied_[step_.core().shard_id()].store(step_.core().applied_offset(),
                                                              std::memory_order_release);
    });
  }

  void Prune(graph::Timestamp cutoff) {
    Tell([this, cutoff] { step_.Prune(cutoff, *this); });
  }

  // Direct step access for an actor that is not attached yet (install).
  ShardStep& step() { return step_; }

  // Runs fn with exclusive access to the step (blocking the caller).
  template <typename F>
  void WithStep(F&& fn) {
    std::promise<void> done;
    if (!Tell([&] {
          fn(step_);
          done.set_value();
        })) {
      // System shutting down: the step is quiescent, access it directly.
      fn(step_);
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
  ShardStep step_;
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
      if (cluster_->supervisor_ != nullptr) {
        cluster_->supervisor_->Heartbeat(worker_id_, util::NowMicros());
      }
      std::vector<mq::Record> records;
      std::vector<std::uint32_t> partitions;
      consumer_->PollWithPartitions(cluster_->options_.poll_batch, records, partitions);
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
      consumer_->Poll(cluster_->options_.poll_batch, records);
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
      sampling_assignment_(elastic::ShardMap::Contiguous(options_.map.TotalShards(),
                                                         options_.map.shards_per_worker)),
      serving_assignment_(
          elastic::ShardMap::Contiguous(options_.map.serving_workers, 1)) {
  flow_.updates_published = registry_.GetCounter("cluster.updates_published");
  flow_.updates_processed = registry_.GetCounter("cluster.updates_processed");
  flow_.serving_published = registry_.GetCounter("cluster.serving_msgs_published");
  flow_.serving_applied = registry_.GetCounter("cluster.serving_msgs_applied");
  flow_.ctrl_sent = registry_.GetCounter("cluster.ctrl_sent");
  flow_.ctrl_processed = registry_.GetCounter("cluster.ctrl_processed");
  flow_.queries_served = registry_.GetCounter("cluster.queries_served");
  broker_ = std::make_unique<mq::Broker>();
  if (!options_.durable_log_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.durable_log_dir, ec);
    store::StoreOptions sopt;
    sopt.path = options_.durable_log_dir + "/mqlog.hstore";
    sopt.cluster_size = 64 * 1024;
    auto opened = store::SegmentStore::Open(sopt);
    if (opened.ok()) {
      mq_store_ = std::move(opened.value());
      auto bound = broker_->BindStore(mq_store_.get());
      if (!bound.ok()) {
        HLOG(kWarn, "cluster") << "durable log bind failed, staying memory-only: "
                               << bound.message();
        mq_store_.reset();
      }
    } else {
      HLOG(kWarn, "cluster") << "durable log open failed, staying memory-only: "
                             << opened.status().message();
    }
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

  node_dead_ = std::make_unique<std::atomic<bool>[]>(options_.map.sampling_workers);
  shard_applied_ = std::make_unique<std::atomic<std::uint64_t>[]>(options_.map.TotalShards());
  ledgers_ = std::make_unique<ShardLedger[]>(options_.map.TotalShards());
  for (std::uint32_t w = 0; w < options_.map.sampling_workers; ++w) node_dead_[w] = false;
  for (std::uint32_t s = 0; s < options_.map.TotalShards(); ++s) shard_applied_[s] = 0;
  node_epochs_.assign(options_.map.sampling_workers, 1);
  shard_epochs_.assign(options_.map.TotalShards(), 1);
  node_drained_.assign(options_.map.sampling_workers, 0);
  migrator_ = std::make_unique<elastic::ShardMigrator>(
      elastic::ShardMigrator::Options{/*max_concurrent=*/2, &registry_}, &sampling_assignment_);

  const elastic::ShardMap::View placement = sampling_assignment_.Current();
  for (std::uint32_t w = 0; w < options_.map.sampling_workers; ++w) {
    system_->AddPool("sampling-" + std::to_string(w), options_.map.shards_per_worker);
  }
  for (std::uint32_t s = 0; s < options_.map.TotalShards(); ++s) {
    const std::uint32_t owner = placement->OwnerOf(s);
    auto shard = std::make_shared<ShardActor>(this, s, owner);
    system_->Attach(shard, "sampling-" + std::to_string(owner));
    shards_.push_back(std::move(shard));
  }
  for (std::uint32_t w = 0; w < options_.map.sampling_workers; ++w) {
    auto poller = std::make_shared<SamplingPollActor>(this, w, placement->ShardsOf(w));
    system_->Attach(poller, "poll");
    sampling_pollers_.push_back(std::move(poller));
  }

  if (options_.supervision_timeout > 0) {
    supervisor_ = std::make_unique<ft::Supervisor>(
        ft::Supervisor::Options{options_.supervision_timeout}, &registry_,
        [this](std::uint64_t node, std::uint32_t epoch, util::Micros) {
          std::lock_guard<std::mutex> lock(fault_mutex_);
          return RecoverNode(static_cast<std::uint32_t>(node), epoch);
        });
    for (std::uint32_t w = 0; w < options_.map.sampling_workers; ++w) {
      supervisor_->Register(w, util::NowMicros());
    }
    if (options_.telemetry != nullptr) {
      // Cluster-health probe: the monitor loop advances the hub each tick,
      // so Overloaded() is at most one tick stale when the supervisor reads
      // it. Overload never triggers recovery — it is counted and logged.
      supervisor_->SetOverloadProbe(
          [hub = options_.telemetry] { return hub->Overloaded(); });
    }
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
    if (options_.enable_admission) {
      AdmissionQueue::Options ao = options_.admission;
      ao.registry = &registry_;
      ao.lane = std::to_string(w);
      if (options_.telemetry != nullptr && !ao.overloaded) {
        ao.overloaded = [hub = options_.telemetry] { return hub->Overloaded(); };
      }
      admission_queues_.push_back(std::make_unique<AdmissionQueue>(std::move(ao)));
    }
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
  if (supervisor_ != nullptr) monitor_ = std::thread([this] { MonitorLoop(); });
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
    std::vector<ft::RecoveryReport> reports = supervisor_->Tick(util::NowMicros());
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
  DrainQueries();
  system_->Shutdown();
  // Every pool thread is joined: no drain slice can reference a replaced
  // actor incarnation any more, so the graveyard can finally be freed.
  std::lock_guard<std::mutex> lock(fault_mutex_);
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
      std::lock_guard<std::mutex> lock(fault_mutex_);
      const elastic::ShardMap::View view = sampling_assignment_.Current();
      for (std::uint32_t s = 0; s < options_.map.TotalShards(); ++s) {
        if (node_dead_[view->OwnerOf(s)].load(std::memory_order_acquire)) continue;
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
  // Layout hashes the seed to a logical lane; the versioned serving
  // assignment names the lane's current physical owner.
  const std::uint32_t worker = RouteOf(seed);
  flow_.queries_served->Add(1);
  if (options_.telemetry == nullptr) {
    obs::ScopedStage span(*serving_tracers_[worker], obs::Stage::kServe, kServingPidBase + worker,
                          1);
    return serving_cores_[worker]->Serve(seed);
  }
  const std::int64_t t0 = wall_clock_.NowMicros();
  SampledSubgraph result;
  {
    obs::ScopedStage span(*serving_tracers_[worker], obs::Stage::kServe, kServingPidBase + worker,
                          1);
    result = serving_cores_[worker]->Serve(seed);
  }
  const std::int64_t t1 = wall_clock_.NowMicros();
  // Reply-size proxy: topology nodes plus the feature floats the query
  // gathered (the arena holds exactly this query's features).
  const std::uint64_t bytes =
      result.TotalNodes() * sizeof(SampledSubgraph::Node) +
      result.features.arena_floats() * sizeof(float);
  options_.telemetry->RecordQuery(worker, t1, static_cast<std::uint64_t>(t1 - t0), bytes);
  return result;
}

// ---- admission front door (docs/PERF.md "Computation reuse & admission")

AdmissionQueue::Outcome ThreadedCluster::SubmitQuery(graph::VertexId seed,
                                                     std::int64_t deadline_us) {
  // Admission consults the versioned serving assignment, like Serve().
  const std::uint32_t worker = RouteOf(seed);
  if (worker >= admission_queues_.size()) {
    // Admission disabled: serve synchronously, preserving the old
    // front-door semantics.
    Serve(seed);
    return AdmissionQueue::Outcome::kAdmitted;
  }
  QueryTicket t;
  t.seed = seed;
  t.deadline_us = deadline_us;
  // The queue accounts sheds itself (it shares the serving.cache.shed cell
  // with the worker's ServingCore).
  return admission_queues_[worker]->Offer(t, wall_clock_.NowMicros());
}

void ThreadedCluster::ServeTicket(std::uint32_t worker, const QueryTicket& ticket) {
  const std::int64_t t0 = wall_clock_.NowMicros();
  SampledSubgraph result;
  {
    obs::ScopedStage span(*serving_tracers_[worker], obs::Stage::kServe, kServingPidBase + worker,
                          1);
    result = serving_cores_[worker]->Serve(ticket.seed);
  }
  flow_.queries_served->Add(1);
  if (options_.telemetry != nullptr) {
    const std::int64_t t1 = wall_clock_.NowMicros();
    const std::uint64_t bytes = result.TotalNodes() * sizeof(SampledSubgraph::Node) +
                                result.features.arena_floats() * sizeof(float);
    // The hub scores SLO against the per-query *budget* (latency vs
    // deadline-minus-enqueue), queue wait included.
    const std::int64_t budget = ticket.deadline_us - ticket.enqueue_us;
    options_.telemetry->RecordQuery(worker, t1, static_cast<std::uint64_t>(t1 - t0), bytes,
                                    budget > 0 ? static_cast<std::uint64_t>(budget) : 0);
  }
  admission_queues_[worker]->NoteServed(ticket.seed);
  queries_pumped_.fetch_add(1, std::memory_order_release);
}

void ThreadedCluster::QueryPumpLoop() {
  std::vector<QueryTicket> batch;
  while (running_.load(std::memory_order_acquire)) {
    bool any = false;
    for (std::uint32_t w = 0; w < admission_queues_.size(); ++w) {
      batch.clear();
      admission_queues_[w]->NextBatch(wall_clock_.NowMicros(), batch);
      for (const QueryTicket& t : batch) ServeTicket(w, t);
      any = any || !batch.empty();
    }
    if (!any) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::size_t ThreadedCluster::DrainQueries() {
  std::size_t served = 0;
  std::vector<QueryTicket> batch;
  for (std::uint32_t w = 0; w < admission_queues_.size(); ++w) {
    batch.clear();
    admission_queues_[w]->Drain(batch);
    for (const QueryTicket& t : batch) ServeTicket(w, t);
    served += batch.size();
  }
  return served;
}

void ThreadedCluster::WaitForQueryIdle() {
  // Every admitted ticket ends up either pumped (queries_pumped_) or shed
  // at pop time (shed_deadline); idle once the books balance and the
  // queues are empty.
  while (true) {
    std::uint64_t admitted = 0;
    std::uint64_t shed_deadline = 0;
    std::size_t depth = 0;
    for (const auto& q : admission_queues_) {
      const AdmissionQueue::Stats s = q->stats();
      admitted += s.admitted;
      shed_deadline += s.shed_deadline;
      depth += q->depth();
    }
    if (depth == 0 &&
        admitted == queries_pumped_.load(std::memory_order_acquire) + shed_deadline) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void ThreadedCluster::PruneTTL(graph::Timestamp cutoff) {
  std::vector<std::shared_ptr<ShardActor>> live;
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    const elastic::ShardMap::View view = sampling_assignment_.Current();
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      if (!node_dead_[view->OwnerOf(s)].load(std::memory_order_acquire)) {
        live.push_back(shards_[s]);
      }
    }
  }
  for (auto& shard : live) shard->Prune(cutoff);
  // Barrier: a no-op behind each Prune in every mailbox guarantees the
  // prune itself ran; WaitForIngestIdle then drains whatever it emitted.
  // (ActorSystem::Quiesce cannot be used here — the polling actors
  // perpetually reschedule themselves, so the system is never "idle".)
  for (auto& shard : live) shard->WithStep([](ShardStep&) {});
  WaitForIngestIdle();
  for (auto& core : serving_cores_) core->EvictOlderThan(cutoff);
}

util::Status ThreadedCluster::Checkpoint(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  auto opened = store::SegmentStore::Open(CheckpointStoreOptions(dir));
  if (!opened.ok()) return opened.status();
  store::SegmentStore& st = *opened.value();
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    std::shared_ptr<ShardActor> shard;
    {
      std::lock_guard<std::mutex> lock(fault_mutex_);
      // A dead shard keeps its previous checkpoint segment: each shard's
      // stream is internally consistent on its own (per-shard log +
      // epoch/seq state), so a round may mix checkpoint ages.
      if (node_dead_[sampling_assignment_.OwnerOf(s)].load(std::memory_order_acquire)) continue;
      shard = shards_[s];
    }
    graph::ByteWriter w;
    shard->WithStep([&w](ShardStep& step) { step.core().Serialize(w); });
    auto status = WriteShardCheckpoint(st, s, w.buffer());
    if (!status.ok()) return status;
  }
  // One commit flips every shard's last-complete pointer together.
  auto status = st.Commit();
  if (!status.ok()) return status;
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    last_checkpoint_dir_ = dir;
  }
  return util::Status::Ok();
}

util::Status ThreadedCluster::Restore(const std::string& dir) {
  auto opened = store::SegmentStore::Open(CheckpointStoreOptions(dir), /*create=*/false);
  if (!opened.ok()) return opened.status();
  const store::SegmentStore& st = *opened.value();
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    std::string bytes;
    auto read = ReadShardCheckpoint(st, s, bytes);
    if (!read.ok()) {
      return util::Status::NotFound("missing checkpoint for shard " + std::to_string(s) + ": " +
                                    read.message());
    }
    std::lock_guard<std::mutex> lock(fault_mutex_);
    util::Status installed;
    shards_[s]->WithStep([&](ShardStep& step) {
      // Nothing to replay: the restored shard re-enters as a new incarnation,
      // above this cluster's grants and the checkpoint's own epoch alike.
      installed = step.Install(&bytes, 0, NextShardEpochLocked(s, 0));
      shard_epochs_[s] = step.core().epoch();
    });
    if (!installed.ok()) return installed;
  }
  // Restored state may predate whatever the caches were built from.
  for (auto& core : serving_cores_) core->FlushAggregateCache();
  return util::Status::Ok();
}

// ---- fault injection & recovery (docs/FAULT_TOLERANCE.md)

bool ThreadedCluster::KillNode(std::uint32_t node) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  return KillNodeLocked(node);
}

bool ThreadedCluster::KillNodeLocked(std::uint32_t node) {
  if (node >= options_.map.sampling_workers) return false;
  if (node_dead_[node].load(std::memory_order_acquire)) return false;
  node_dead_[node].store(true, std::memory_order_release);
  // Order matters: stop the intake first (poller feeds shards), then the
  // shards, then join the node's pool so nothing of the node is still
  // running when we return. Queued mailbox contents are dropped — a crash
  // loses in-flight work by design; recovery replays it from the broker
  // log, which is exactly what the single-log design makes safe. A slice
  // already running finishes with its frames appended, so nothing it
  // counted is lost.
  // The poller runs on the shared poll pool, which is never joined: wait
  // out its in-flight slice, or that slice could commit offsets past the
  // recovery's rewind, or deliver records to the replacement shard actors.
  sampling_pollers_[node]->StopAndJoin();
  sampling_pollers_[node]->Kill();
  std::size_t dropped = 0;
  for (const std::uint32_t s : sampling_assignment_.ShardsOf(node)) {
    dropped += shards_[s]->Kill();
  }
  system_->StopPool("sampling-" + std::to_string(node));
  HLOG(kWarn, "ft") << "killed sampling node " << node << " (dropped " << dropped
                    << " in-flight mailbox messages)";
  return true;
}

std::uint32_t ThreadedCluster::NextEpochFor(std::uint32_t node) {
  if (supervisor_ != nullptr) return supervisor_->GrantEpoch(node);
  return ++node_epochs_[node];
}

bool ThreadedCluster::RestartNode(std::uint32_t node) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  if (node >= options_.map.sampling_workers) return false;
  if (!node_dead_[node].load(std::memory_order_acquire)) return false;
  if (node_drained_[node] != 0) return false;  // retired, not crashed: ReviveNode
  return RecoverNode(node, NextEpochFor(node)).ok;
}

// The recovery sequence (§4.1 / docs/FAULT_TOLERANCE.md): fresh actors and
// shard pool, state restored from the latest checkpoint, MQ consumer group
// rewound to each shard's restored offset, log tail replayed under the old
// epoch (receivers fence the re-emissions), node re-admitted under `epoch`.
// Caller holds fault_mutex_.
ft::RecoveryReport ThreadedCluster::RecoverNode(std::uint32_t node, std::uint32_t epoch) {
  ft::RecoveryReport report;
  report.node = node;
  report.epoch = epoch;
  if (node >= options_.map.sampling_workers) {
    report.error = "unknown node";
    return report;
  }
  // A supervisor-driven recovery may find the node merely unresponsive
  // rather than injector-killed; tear it down first either way.
  if (!node_dead_[node].load(std::memory_order_acquire)) KillNodeLocked(node);

  const util::Micros restore_start = util::NowMicros();
  auto fail = [&](std::string error) {
    report.error = std::move(error);
    report.restore_us = util::NowMicros() - restore_start;
    HLOG(kError, "ft") << "recovery of sampling node " << node << " failed: " << report.error;
    return report;
  };
  // The node's shard set under the *current* placement, not the static
  // layout — a migrated-in shard recovers here, a migrated-away one with
  // its new owner.
  const std::vector<std::uint32_t> owned = sampling_assignment_.ShardsOf(node);
  // Recovery reads through the same store Checkpoint() writes: the named
  // pointer only ever references a fully committed round, so a crash during
  // a checkpoint leaves the previous complete one here. A shard that never
  // completed a checkpoint replays its whole log; one whose checkpoint
  // cannot be read fails the recovery instead of silently replaying from 0.
  std::vector<std::optional<std::string>> checkpoints(owned.size());
  if (!last_checkpoint_dir_.empty()) {
    auto opened =
        store::SegmentStore::Open(CheckpointStoreOptions(last_checkpoint_dir_), /*create=*/false);
    for (std::size_t i = 0; i < owned.size(); ++i) {
      std::string bytes;
      const util::Status read =
          opened.ok() ? ReadShardCheckpoint(*opened.value(), owned[i], bytes) : opened.status();
      if (read.ok()) {
        checkpoints[i] = std::move(bytes);
      } else if (!opened.ok() || read.code() != util::StatusCode::kNotFound) {
        return fail("checkpoint for shard " + std::to_string(owned[i]) + ": " + read.message());
      }
    }
  }
  system_->AddPool("sampling-" + std::to_string(node), options_.map.shards_per_worker);
  for (std::size_t i = 0; i < owned.size(); ++i) {
    // The serving fences are keyed by source shard, so a shard that
    // migrated here earlier may already have entered service under an epoch
    // above this node's grant; re-admit strictly above both.
    auto replay = InstallShardLocked(owned[i], node,
                                     checkpoints[i] ? &*checkpoints[i] : nullptr,
                                     NextShardEpochLocked(owned[i], epoch));
    if (!replay.ok()) return fail(replay.status().message());
    report.shards_restored += checkpoints[i] ? 1 : 0;
    report.records_to_replay += replay.value();
  }

  report.restore_us = util::NowMicros() - restore_start;
  node_dead_[node].store(false, std::memory_order_release);
  // Fresh poller: its consumer reads the rewound committed offsets.
  RebuildPollerLocked(node);
  // Replay re-applies deltas the caches may have served around; cold-start
  // every aggregate cache (and admission hot-seed table) so nothing stale
  // survives recovery.
  FlushOwnershipCachesLocked();
  report.ok = true;
  HLOG(kWarn, "ft") << "recovered sampling node " << node << " at epoch " << epoch << ": "
                    << report.shards_restored << " shard(s) restored, "
                    << report.records_to_replay << " log records to replay";
  return report;
}

// ---- elastic scale-out (docs/ELASTICITY.md)

std::uint32_t ThreadedCluster::NextShardEpochLocked(std::uint32_t s, std::uint32_t node_grant) {
  // The serving-side fence is keyed by SOURCE SHARD; node grants are only
  // monotonic per node. A shard that hops nodes must still re-enter under a
  // strictly increasing epoch, or the receivers would fence its genuinely
  // new frames (or admit stale ones).
  const std::uint32_t eff = std::max(node_grant, shard_epochs_[s] + 1);
  shard_epochs_[s] = eff;
  return eff;
}

util::StatusOr<std::uint64_t> ThreadedCluster::InstallShardLocked(std::uint32_t s,
                                                                 std::uint32_t node,
                                                                 const std::string* checkpoint,
                                                                 std::uint32_t epoch) {
  auto fresh = std::make_shared<ShardActor>(this, s, node);
  // Everything up to the partition's current end replays under the
  // restored epoch; its re-emissions fence at the receivers.
  const std::uint64_t end = broker_->GetTopic(kUpdatesTopic)->partition(s).end_offset();
  // Not attached yet: direct step access is safe.
  const util::Status installed = fresh->step().Install(checkpoint, end, epoch);
  if (!installed.ok()) return installed;
  const std::uint64_t applied = fresh->step().core().applied_offset();
  // Rewind the consumer group to the restored offset: broker commits can
  // run ahead of the checkpoint.
  broker_->ReplayFrom("sampling", kUpdatesTopic, s, applied);
  shard_applied_[s].store(applied, std::memory_order_release);
  // Retire the old incarnation; kill before detach so no stray Tell lands
  // between the two. A live owner's pool keeps running (migration), so a
  // queued drain slice may still touch the actor: park it until Stop(). A
  // dead owner's pool is already joined, so the actor can go now.
  std::shared_ptr<ShardActor> old = std::move(shards_[s]);
  old->Kill();
  system_->Detach(old);
  if (!node_dead_[sampling_assignment_.OwnerOf(s)].load(std::memory_order_acquire)) {
    retired_actors_.push_back(std::move(old));
  }
  system_->Attach(fresh, "sampling-" + std::to_string(node));
  shards_[s] = std::move(fresh);
  return end > applied ? end - applied : 0;
}

void ThreadedCluster::RebuildPollerLocked(std::uint32_t node) {
  // The old incarnation must already be quiesced (StopAndJoin) or killed;
  // the fresh consumer resumes from the committed group offsets, so the gap
  // between the two incarnations loses nothing — records buffered in the
  // broker while no poller ran drain now.
  system_->Detach(sampling_pollers_[node]);
  auto poller =
      std::make_shared<SamplingPollActor>(this, node, sampling_assignment_.ShardsOf(node));
  system_->Attach(poller, "poll");
  retired_actors_.push_back(sampling_pollers_[node]);
  sampling_pollers_[node] = std::move(poller);
  if (running_.load(std::memory_order_acquire)) sampling_pollers_[node]->Loop();
}

void ThreadedCluster::FlushOwnershipCachesLocked() {
  // An aggregate cached under the previous owner must never serve under the
  // new one, and hot-seed admission hints describing the old owner's cache
  // would misclassify tickets against the (flushed) new one.
  for (auto& core : serving_cores_) core->FlushAggregateCache();
  for (auto& q : admission_queues_) q->FlushHotSeeds();
}

bool ThreadedCluster::MigrateShard(std::uint32_t shard, std::uint32_t dst,
                                   MigrationFailPoint fail) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  if (shard >= shards_.size() || dst >= options_.map.sampling_workers) return false;
  const std::uint32_t src = sampling_assignment_.OwnerOf(shard);
  if (src == dst) return false;
  if (node_dead_[src].load(std::memory_order_acquire) ||
      node_dead_[dst].load(std::memory_order_acquire)) {
    return false;
  }
  if (node_drained_[dst] != 0) return false;
  const std::uint64_t id =
      migrator_->Begin(shard, src, dst, static_cast<std::int64_t>(util::NowMicros()));
  if (id == 0) return false;

  // Stop-and-copy window opens: quiesce the source's poller so nothing more
  // is delivered for any of its shards (records buffer durably in the
  // broker and drain when the pollers rebuild below).
  sampling_pollers_[src]->StopAndJoin();

  if (fail == MigrationFailPoint::kSourceMidCheckpoint) {
    // Chaos: the source dies while serializing. Nothing was installed
    // anywhere, so the migration aborts cleanly and the ordinary fault
    // machinery (supervisor / RestartNode) owns the now-dead source.
    migrator_->Abort(id, static_cast<std::int64_t>(util::NowMicros()));
    KillNodeLocked(src);
    return false;
  }

  // Checkpoint at a frame boundary: the WithStep barrier queues behind
  // whatever the quiesced poller already delivered, so the serialized state
  // and its applied_offset are exact, and every frame the source emitted is
  // in the log ahead of the destination's bumped-epoch frames.
  graph::ByteWriter w;
  std::uint64_t applied = 0;
  shards_[shard]->WithStep([&](ShardStep& step) {
    step.core().Serialize(w);
    applied = step.core().applied_offset();
  });
  const std::string checkpoint = w.Take();
  migrator_->Advance(id, elastic::MigrationState::kTransferring);
  migrator_->NoteCheckpoint(id, applied, checkpoint.size());
  // Drop the migration checkpoint where RecoverNode looks: a destination
  // that dies mid-replay restores this shard from here instead of replaying
  // the whole log.
  if (!last_checkpoint_dir_.empty()) {
    auto opened = store::SegmentStore::Open(CheckpointStoreOptions(last_checkpoint_dir_));
    util::Status status = opened.status();
    if (opened.ok()) status = WriteShardCheckpoint(*opened.value(), shard, checkpoint);
    if (status.ok()) status = opened.value()->Commit();
    if (!status.ok()) {
      HLOG(kWarn, "elastic") << "migration " << id << ": checkpoint of shard " << shard
                             << " not persisted: " << status.ToString();
    }
  }

  // Destination install: a fresh incarnation restores the checkpoint and
  // replays the log tail. Re-emissions carry the checkpointed epoch/seqs, so
  // the receivers fence them (exactly-once); the bump to the fresh epoch
  // happens at the replay frame boundary.
  migrator_->Advance(id, elastic::MigrationState::kReplaying);
  const std::uint32_t epoch = NextShardEpochLocked(shard, NextEpochFor(dst));
  auto replay = InstallShardLocked(shard, dst, &checkpoint, epoch);
  if (!replay.ok()) {
    // Cannot happen for bytes we just serialized; treat as a source crash
    // so recovery rebuilds the shard from the durable log.
    HLOG(kError, "elastic") << "migration " << id << ": " << replay.status().message();
    migrator_->Abort(id, static_cast<std::int64_t>(util::NowMicros()));
    KillNodeLocked(src);
    return false;
  }
  migrator_->NoteReplayed(id, replay.value());
  migrator_->NoteEpoch(id, epoch);
  migrator_->Advance(id, elastic::MigrationState::kEpochBumped);

  if (fail == MigrationFailPoint::kCoordinatorBeforeFlip) {
    // Chaos: the coordinator dies with the epoch armed but the map not yet
    // flipped. Routing still names the source (whose poller is quiesced) —
    // the cluster is degraded, not wrong — until ResumeMigrations()
    // re-drives the flip idempotently.
    return true;
  }

  sampling_pollers_[dst]->StopAndJoin();
  const std::uint64_t version = migrator_->Flip(id);
  FlushOwnershipCachesLocked();
  RebuildPollerLocked(src);
  RebuildPollerLocked(dst);
  migrator_->Complete(id, static_cast<std::int64_t>(util::NowMicros()));
  HLOG(kInfo, "elastic") << "migrated shard " << shard << ": node " << src << " -> " << dst
                         << " (ckpt " << checkpoint.size() << " B at offset " << applied
                         << ", " << replay.value() << " records to replay, epoch " << epoch << ", map v"
                         << version << ")";

  if (fail == MigrationFailPoint::kDestMidReplay) {
    // Chaos: the destination dies while the replay tail is still in flight.
    // The ordinary fault machinery recovers it — from the migration
    // checkpoint when one is on disk, from the full log otherwise — and the
    // byte-parity contract must still hold. The migration itself completed.
    KillNodeLocked(dst);
  }
  return true;
}

std::size_t ThreadedCluster::ResumeMigrations() {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  return ResumeMigrationsLocked();
}

std::size_t ThreadedCluster::ResumeMigrationsLocked() {
  std::size_t completed = 0;
  for (const elastic::MigrationRecord& r : migrator_->NeedingFlip()) {
    const bool from_alive = !node_dead_[r.from].load(std::memory_order_acquire);
    const bool to_alive = !node_dead_[r.to].load(std::memory_order_acquire);
    if (from_alive) sampling_pollers_[r.from]->StopAndJoin();
    if (to_alive) sampling_pollers_[r.to]->StopAndJoin();
    migrator_->Flip(r.id);
    FlushOwnershipCachesLocked();
    if (from_alive) RebuildPollerLocked(r.from);
    if (to_alive) RebuildPollerLocked(r.to);
    migrator_->Complete(r.id, static_cast<std::int64_t>(util::NowMicros()));
    HLOG(kWarn, "elastic") << "resumed migration " << r.id << ": flipped shard " << r.shard
                           << " to node " << r.to << " after coordinator loss";
    ++completed;
  }
  return completed;
}

bool ThreadedCluster::DrainNode(std::uint32_t node) {
  std::vector<std::uint32_t> owned;
  std::vector<std::uint32_t> targets;
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    if (node >= options_.map.sampling_workers) return false;
    if (node_dead_[node].load(std::memory_order_acquire) || node_drained_[node] != 0) {
      return false;
    }
    for (std::uint32_t w = 0; w < options_.map.sampling_workers; ++w) {
      if (w != node && !node_dead_[w].load(std::memory_order_acquire) &&
          node_drained_[w] == 0) {
        targets.push_back(w);
      }
    }
    if (targets.empty()) return false;  // last node standing
    node_drained_[node] = 1;  // no longer a migration target
    owned = sampling_assignment_.ShardsOf(node);
  }
  // Evacuate round-robin; each handoff is its own stop-and-copy window, so
  // the rest of the cluster keeps serving between moves.
  bool all_moved = true;
  for (std::size_t i = 0; i < owned.size(); ++i) {
    all_moved = MigrateShard(owned[i], targets[i % targets.size()]) && all_moved;
  }
  std::lock_guard<std::mutex> lock(fault_mutex_);
  if (!all_moved) {
    node_drained_[node] = 0;  // leave the node serving whatever remains
    return false;
  }
  // Retire: the node owns nothing now, and each migration's barrier already
  // put the source's last frames in the log. Stop its poller and pool, and
  // deregister from supervision so the intentional silence is not
  // "detected".
  sampling_pollers_[node]->StopAndJoin();
  sampling_pollers_[node]->Kill();
  system_->StopPool("sampling-" + std::to_string(node));
  if (supervisor_ != nullptr) supervisor_->Deregister(node);
  node_dead_[node].store(true, std::memory_order_release);
  HLOG(kInfo, "elastic") << "drained and retired sampling node " << node << " ("
                         << owned.size() << " shard(s) evacuated)";
  return true;
}

bool ThreadedCluster::ReviveNode(std::uint32_t node) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  if (node >= options_.map.sampling_workers) return false;
  if (!node_dead_[node].load(std::memory_order_acquire) || node_drained_[node] == 0) {
    return false;
  }
  // Scale-up: a fresh shard pool and an (initially partition-less) poller;
  // shards arrive via subsequent migrations. Re-registration continues the
  // supervisor's epoch ledger where the drain left it.
  system_->AddPool("sampling-" + std::to_string(node), options_.map.shards_per_worker);
  node_drained_[node] = 0;
  node_dead_[node].store(false, std::memory_order_release);
  RebuildPollerLocked(node);
  if (supervisor_ != nullptr) supervisor_->Register(node, util::NowMicros());
  HLOG(kInfo, "elastic") << "revived sampling node " << node;
  return true;
}

bool ThreadedCluster::NodeDrained(std::uint32_t node) const {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  return node < node_drained_.size() && node_drained_[node] != 0;
}

bool ThreadedCluster::NodeAlive(std::uint32_t node) const {
  if (node >= options_.map.sampling_workers) return false;
  return !node_dead_[node].load(std::memory_order_acquire);
}

std::vector<ft::RecoveryReport> ThreadedCluster::RecoveryReports() const {
  std::lock_guard<std::mutex> lock(reports_mutex_);
  return reports_;
}

ft::FaultInjector ThreadedCluster::Injector() {
  ft::FaultInjector injector;
  injector.kill = [this](std::uint32_t node) { return KillNode(node); };
  injector.restart = [this](std::uint32_t node) { return RestartNode(node); };
  return injector;
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
  std::vector<std::shared_ptr<ShardActor>> live;
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    const elastic::ShardMap::View view = sampling_assignment_.Current();
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      if (!node_dead_[view->OwnerOf(s)].load(std::memory_order_acquire)) {
        live.push_back(shards_[s]);
      }
    }
  }
  for (const auto& shard : live) {
    shard->WithStep([&stats](ShardStep& step) {
      const auto& s = step.core().stats();
      stats.sampling.updates_processed += s.updates_processed;
      stats.sampling.edges_offered += s.edges_offered;
      stats.sampling.cells += s.cells;
      stats.sampling.sample_updates_sent += s.sample_updates_sent;
      stats.sampling.sample_deltas_sent += s.sample_deltas_sent;
      stats.sampling.feature_updates_sent += s.feature_updates_sent;
      stats.sampling.retracts_sent += s.retracts_sent;
      stats.sampling.sub_deltas_sent += s.sub_deltas_sent;
      stats.sampling.features_stored += s.features_stored;
    });
  }
  for (const auto& core : serving_cores_) {
    const auto& s = core->stats();
    stats.serving.sample_updates_applied += s.sample_updates_applied;
    stats.serving.sample_deltas_applied += s.sample_deltas_applied;
    stats.serving.feature_updates_applied += s.feature_updates_applied;
    stats.serving.retracts_applied += s.retracts_applied;
    stats.serving.queries_served += s.queries_served;
    stats.serving.cache_miss_cells += s.cache_miss_cells;
    stats.serving.cache_miss_features += s.cache_miss_features;
  }
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
