#include "bench/harness.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>

#include "graph/update_codec.h"
#include "helios/control_plane.h"
#include "helios/node_engine.h"
#include "mq/mq.h"
#include "util/clock.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"

namespace helios::bench {

namespace {
constexpr std::size_t kChunk = 1024;  // updates per arrival/service batch

// One-time calibration of the timer's own cost, subtracted from every
// measured service so millions of tiny jobs are not inflated by
// measurement overhead.
util::Nanos TimerOverheadNs() {
  static const util::Nanos overhead = [] {
    constexpr int kReps = 20000;
    const util::Nanos t = util::TimeItNanos([] {
      for (int i = 0; i < kReps; ++i) {
        volatile util::Nanos x = util::TimeItNanos([] {});
        (void)x;
      }
    });
    return t / kReps;
  }();
  return overhead;
}

// Serializes work for one logical owner (a shard or a serving worker) on a
// shared multi-server CPU: the DES equivalent of an actor mailbox.
// Service functions report *nanoseconds*; the queue carries the sub-
// microsecond remainder forward so no measured compute is lost to the
// emulator's microsecond clock.
class SerialQueue {
 public:
  void Attach(sim::Resource* cpu) { cpu_ = cpu; }

  // service_fn runs at dispatch (computing the measured service time in ns
  // and side outputs); completion_fn runs at virtual completion.
  void Submit(std::function<util::Nanos()> service_fn, std::function<void()> completion_fn) {
    jobs_.push_back({std::move(service_fn), std::move(completion_fn)});
    Pump();
  }

 private:
  struct Job {
    std::function<util::Nanos()> service_fn;
    std::function<void()> completion_fn;
  };

  void Pump() {
    if (busy_ || jobs_.empty()) return;
    busy_ = true;
    Job job = std::move(jobs_.front());
    jobs_.pop_front();
    carry_ns_ += std::max<util::Nanos>(job.service_fn() - TimerOverheadNs(), 0);
    const sim::SimTime service = static_cast<sim::SimTime>(carry_ns_ / 1000);
    carry_ns_ %= 1000;
    cpu_->Enqueue(service, [this, done = std::move(job.completion_fn)] {
      done();
      busy_ = false;
      Pump();
    });
  }

  sim::Resource* cpu_ = nullptr;
  std::deque<Job> jobs_;
  util::Nanos carry_ns_ = 0;
  bool busy_ = false;
};

// The vertex whose owner shard ingests an update (out-neighbor sampling:
// an edge lives at its source).
graph::VertexId RoutingVertex(const graph::GraphUpdate& u) {
  if (const auto* e = std::get_if<graph::EdgeUpdate>(&u)) return e->src;
  return std::get<graph::VertexUpdate>(u).id;
}
}  // namespace

// ============================================================ Helios

HeliosDeployment::HeliosDeployment(QueryPlan plan, HeliosEmuConfig config)
    : plan_(std::move(plan)), config_(std::move(config)) {
  map_.sampling_workers = config_.sampling_nodes;
  map_.shards_per_worker = config_.sampling_threads;
  map_.serving_workers = config_.serving_nodes;
  for (std::uint32_t s = 0; s < map_.TotalShards(); ++s) {
    SamplingShardCore::Options opts;
    opts.registry = &registry_;
    shards_.push_back(
        std::make_unique<SamplingShardCore>(plan_, map_, s, config_.seed, opts));
  }
  for (std::uint32_t n = 0; n < map_.serving_workers; ++n) {
    ServingCore::Options so;
    so.kv = config_.serving_kv;
    if (!so.kv.spill_dir.empty()) so.kv.spill_dir += "/sew-" + std::to_string(n);
    so.registry = &registry_;
    so.feature_format = config_.feature_format;
    so.aggregate_cache_entries = config_.aggregate_cache_entries;
    so.aggregate_staleness_us = config_.aggregate_staleness_us;
    serving_.push_back(std::make_unique<ServingCore>(plan_, n, std::move(so)));
  }
}

void HeliosDeployment::DrainOutputs(SamplingShardCore::Outputs& out) {
  // Breadth-first delta pump, applying serving messages inline.
  std::deque<std::pair<std::uint32_t, SubscriptionDelta>> deltas;
  out.to_serving.ForEach([&](std::uint32_t sew, const ServingMessage& msg) {
    serving_[sew]->Apply(msg);
  });
  for (auto& d : out.to_shards) deltas.push_back(d);
  out.Clear();
  SamplingShardCore::Outputs next;
  while (!deltas.empty()) {
    auto [shard, delta] = deltas.front();
    deltas.pop_front();
    shards_[shard]->OnSubscriptionDelta(delta, 0, next);
    next.to_serving.ForEach([&](std::uint32_t sew, const ServingMessage& msg) {
      serving_[sew]->Apply(msg);
    });
    for (auto& d : next.to_shards) deltas.push_back(d);
    next.Clear();
  }
}

void HeliosDeployment::IngestAll(const std::vector<graph::GraphUpdate>& updates) {
  SamplingShardCore::Outputs out;
  for (const auto& u : updates) {
    shards_[map_.ShardOf(RoutingVertex(u))]->OnGraphUpdate(u, 0, out);
    DrainOutputs(out);
  }
}

IngestReport HeliosDeployment::EmulateIngestion(const std::vector<graph::GraphUpdate>& updates,
                                                double offered_rate_mps,
                                                obs::TraceBuffer* trace,
                                                const DesFaultSpec* fault,
                                                const IngestObs* obs) {
  sim::SimEnv env;
  // Identical instrumentation to the threaded runtime, but clocked on the
  // DES virtual time: per-run registry so repeated emulations do not mix.
  obs::MetricsRegistry run_registry;
  obs::FunctionClock virtual_clock([&env] { return env.now(); });
  obs::StageTracer tracer(&run_registry, &virtual_clock, trace);
  // Causal trace ids for this run: counter-based (never wall time or RNG),
  // so traced runs stay as deterministic as untraced ones.
  obs::TraceIdAllocator trace_ids(0);
  if (trace != nullptr) {
    trace->BindDroppedCounter(run_registry.GetCounter("obs.trace.dropped_events"));
  }
  // Nodes 0..M-1 sampling, M..M+N-1 serving.
  const std::uint32_t M = config_.sampling_nodes;
  const std::uint32_t N = config_.serving_nodes;
  const std::uint32_t S = map_.TotalShards();
  sim::SimCluster::Options copt;
  copt.num_nodes = M + N + 1;  // +1: the producer/front-end node
  copt.cores_per_node = std::max(config_.sampling_threads, config_.serving_threads);
  copt.net_latency_us = config_.net_latency_us;
  copt.gbps = config_.gbps;
  sim::SimCluster cluster(env, copt);
  const std::uint32_t producer_node = M + N;

  // Dedicated resources honouring per-role thread counts.
  std::vector<std::unique_ptr<sim::Resource>> sampling_cpu, serving_cpu;
  for (std::uint32_t m = 0; m < M; ++m) {
    sampling_cpu.push_back(std::make_unique<sim::Resource>(env, config_.sampling_threads));
  }
  for (std::uint32_t n = 0; n < N; ++n) {
    serving_cpu.push_back(std::make_unique<sim::Resource>(env, config_.serving_threads));
  }
  if (trace != nullptr) {
    for (std::uint32_t m = 0; m < M; ++m) {
      trace->SetProcessName(m, "sampling-node-" + std::to_string(m));
      sampling_cpu[m]->EnableTrace(trace, 2000 + m, "cpu");
      trace->SetProcessName(2000 + m, "sampling-node-" + std::to_string(m) + "-cpu");
    }
    for (std::uint32_t n = 0; n < N; ++n) {
      trace->SetProcessName(M + n, "serving-node-" + std::to_string(n));
      serving_cpu[n]->EnableTrace(trace, 2000 + M + n, "cpu");
      trace->SetProcessName(2000 + M + n, "serving-node-" + std::to_string(n) + "-cpu");
    }
  }

  std::vector<SerialQueue> shard_queues(S);
  for (std::uint32_t s = 0; s < S; ++s) {
    shard_queues[s].Attach(sampling_cpu[map_.WorkerOfShard(s)].get());
  }
  // §4.3: each serving worker runs several data-updating threads; updates
  // are sub-sharded by vertex so per-key order is preserved.
  constexpr std::uint32_t kUpdateThreads = 4;
  std::vector<SerialQueue> serving_queues(static_cast<std::size_t>(N) * kUpdateThreads);
  for (std::uint32_t n = 0; n < N; ++n) {
    for (std::uint32_t u = 0; u < kUpdateThreads; ++u) {
      serving_queues[n * kUpdateThreads + u].Attach(serving_cpu[n].get());
    }
  }
  auto update_queue_of = [&](std::uint32_t sew, const ServingMessage& m) -> std::uint32_t {
    return sew * kUpdateThreads +
           static_cast<std::uint32_t>(util::MixHash(m.TargetVertex()) % kUpdateThreads);
  };

  IngestReport report;
  report.updates = updates.size();
  std::uint64_t applied_at_serving = 0;
  const bool fault_mode = fault != nullptr;
  std::vector<std::uint64_t> timeline;
  const std::uint64_t ctrl_fenced_before =
      fault_mode ? registry_.TakeSnapshot().CounterTotal("ft.ctrl_deltas_fenced") : 0;

  // The durable log, as in the threaded runtime: one partition per shard
  // holding its graph updates and inbound control deltas in one total
  // order. Records land when they reach the shard's node, even a dead one,
  // so a crashed node replays its tail from the checkpointed offset.
  mq::Broker broker;
  broker.CreateTopic("updates", S);
  mq::Topic& log = *broker.GetTopic("updates");

  // The node engine (helios/node_engine.h) for this run, steered by the
  // control plane (helios/control_plane.h) exactly as in the threaded
  // runtime: one step per shard, wrapping the deployment's cores (handed
  // back at the end), and one fenced frame applier per serving worker. The
  // run's log starts at 0.
  std::vector<std::unique_ptr<ShardStep>> steps(S);
  // Killing a node bumps its shards' incarnation: jobs queued on the dead
  // incarnation become no-ops, mirroring the threaded runtime's mailbox
  // drop. A job already in service when the crash lands still completes
  // (the crash falls between jobs), so every frame the engine counted is
  // delivered.
  std::vector<std::uint64_t> incarnation(S, 0);
  std::vector<char> replaying(M, 0);  // re-admitted, no heartbeats until caught up
  std::uint32_t pending_shards = 0;
  bool monitoring = fault_mode;
  std::function<void(std::uint32_t)> consume;
  std::unique_ptr<ControlPlane> control;
  auto wiring = [&](std::uint32_t node, ShardLedger& ledger) {
    return ShardStep::Wiring{&run_registry, &virtual_clock, trace, &trace_ids, node, &ledger};
  };
  // Serialize and restore run as real compute at the control plane's call;
  // the shard's queue is charged their measured cost.
  auto charge = [&](std::uint32_t s, util::Nanos ns) {
    shard_queues[s].Submit([ns]() -> util::Nanos { return ns; }, [] {});
  };
  ControlPlane::Driver driver;
  driver.tear_down = [&](std::uint32_t node) {
    for (std::uint32_t s = 0; s < S; ++s) incarnation[s] += map_.WorkerOfShard(s) == node;
  };
  driver.new_step = [&](std::uint32_t s, std::uint32_t node, ShardLedger& ledger) {
    return std::make_unique<ShardStep>(
        std::make_unique<SamplingShardCore>(plan_, map_, s, config_.seed,
                                            SamplingShardCore::Options{0, &registry_}),
        wiring(node, ledger));
  };
  driver.log_end = [&](std::uint32_t s) { return log.partition(s).end_offset(); };
  driver.snapshot = [&](std::uint32_t s, graph::ByteWriter& w) {
    charge(s, util::TimeItNanos([&] { steps[s]->core().Serialize(w); }));
    return steps[s]->core().applied_offset();
  };
  driver.adopt = [&](std::uint32_t s, std::uint32_t, std::unique_ptr<ShardStep> step,
                     util::Nanos install_ns) {
    // Jobs of the dead incarnation are no-ops, so the new step can take the
    // slot now; the queue pays for the restore first.
    steps[s] = std::move(step);
    charge(s, install_ns);
  };
  // One job per shard replays its log tail (the engine bumps into the
  // granted epoch at the replay target), then a marker; the last marker
  // re-admits the node.
  driver.readmit = [&](std::uint32_t node, std::uint32_t epoch) {
    replaying[node] = 1;
    for (std::uint32_t s = 0; s < S; ++s) {
      if (map_.WorkerOfShard(s) != node) continue;
      ++pending_shards;
      consume(s);
      shard_queues[s].Submit([]() -> util::Nanos { return 0; },
                             [&, node, epoch] {
                               if (--pending_shards != 0) return;
                               report.fault_recovered_at_us = env.now();
                               report.fault_epoch = epoch;
                               replaying[node] = 0;
                               control->supervisor()->Heartbeat(node, env.now());
                               monitoring = false;  // single-fault runs
                             });
    }
  };
  control = std::make_unique<ControlPlane>(
      ControlPlane::Options{M,
                            elastic::ShardMap::Contiguous(S, map_.shards_per_worker).Current()->owner,
                            /*max_concurrent_migrations=*/2, &run_registry, &virtual_clock,
                            fault_mode ? fault->detect_timeout_us : 0},
      std::move(driver));
  for (std::uint32_t s = 0; s < S; ++s) {
    shards_[s]->set_applied_offset(0);
    steps[s] = std::make_unique<ShardStep>(std::move(shards_[s]),
                                           wiring(map_.WorkerOfShard(s), control->ledger(s)));
  }
  std::vector<FrameApplier> appliers;
  appliers.reserve(N);
  for (std::uint32_t n = 0; n < N; ++n) appliers.emplace_back(&run_registry, &tracer, M + n);

  // Delivery of one serving-bound frame, priced at its encoded size. The
  // applier fences it at delivery (one event, so the fence sees each
  // shard -> worker stream in order), then the admitted messages split
  // across the worker's data-updating threads.
  auto deliver_frame = [&](std::uint32_t from_node, std::uint32_t sew, std::string frame) {
    const std::size_t bytes = frame.size();
    cluster.Send(from_node, M + sew, bytes, [&, sew, bytes, frame = std::move(frame)] {
      if (obs != nullptr && obs->telemetry != nullptr) {
        obs->telemetry->RecordBytes(sew, env.now(), bytes);
      }
      std::map<std::uint32_t, std::vector<ServingMessage>> per_queue;
      const std::uint32_t src_shard =
          appliers[sew]
              .Deliver(frame, [&](std::uint32_t, const ServingMessage& m) {
                per_queue[update_queue_of(sew, m)].push_back(m);
              })
              .src_shard;
      for (auto& [q, sub] : per_queue) {
        serving_queues[q].Submit(
            [&, sew, src_shard, batch = std::move(sub)]() -> util::Nanos {
              const auto t = util::TimeItNanos([&] {
                for (const auto& m : batch) serving_[sew]->Apply(m);
              });
              tracer.RecordSpan(obs::Stage::kCacheApply, env.now(), t / 1000, M + sew, 0);
              for (const auto& m : batch) {
                tracer.RecordEndToEnd(m.OriginMicros(), env.now());
                applied_at_serving++;
                if (obs != nullptr && m.OriginMicros() > 0 && env.now() >= m.OriginMicros()) {
                  if (obs->freshness != nullptr) {
                    obs->freshness->OnApply(m.TargetVertex(), src_shard, m.OriginMicros(),
                                            env.now());
                  }
                  if (obs->telemetry != nullptr) {
                    obs->telemetry->RecordStaleness(
                        sew, env.now(), static_cast<std::uint64_t>(env.now() - m.OriginMicros()));
                  }
                }
              }
              if (fault_mode && fault->timeline_bucket_us > 0) {
                const std::size_t b =
                    static_cast<std::size_t>(env.now() / fault->timeline_bucket_us);
                if (timeline.size() <= b) timeline.resize(b + 1, 0);
                timeline[b] += batch.size();
              }
              return t;
            },
            [] {});
      }
    });
  };

  // ---- shard jobs
  // What one job emitted, routed at its virtual completion.
  struct Emission : ShardStep::Sink {
    std::vector<std::pair<std::uint32_t, std::string>> frames;
    std::vector<std::pair<std::uint32_t, SubscriptionDelta>> ctrl;
    void Frame(std::uint32_t sew, const std::string& frame, std::uint32_t) override {
      frames.emplace_back(sew, frame);
    }
    void Ctrl(std::uint32_t shard, const SubscriptionDelta& delta) override {
      ctrl.emplace_back(shard, delta);
    }
  };
  // Sends records to shard `s`'s node, priced at their encoded size; they
  // join its log on arrival, stamped with their send time, and a job
  // consumes them.
  auto ship = [&](std::uint32_t from_node, std::uint32_t s, std::vector<std::string> records,
                  sim::SimTime sent_us) {
    std::size_t bytes = 0;
    for (const auto& r : records) bytes += r.size();
    cluster.Send(from_node, map_.WorkerOfShard(s), bytes,
                 [&, s, records = std::move(records), sent_us] {
                   for (const auto& r : records) log.partition(s).Append(std::string(), r, sent_us);
                   consume(s);
                 });
  };
  auto route = [&](std::uint32_t shard, Emission& em) {
    const std::uint32_t node = map_.WorkerOfShard(shard);
    for (auto& [sew, frame] : em.frames) deliver_frame(node, sew, std::move(frame));
    // Control deltas: one network message per destination shard.
    std::map<std::uint32_t, std::vector<std::string>> per_shard;
    for (const auto& [dest, delta] : em.ctrl) per_shard[dest].push_back(EncodeCtrlRecord(delta));
    for (auto& [dest, records] : per_shard) ship(node, dest, std::move(records), env.now());
  };
  // Queues a job that consumes shard `s`'s log through everything appended
  // so far. A dead node takes no work; its records wait in the log. The
  // log read is the poller's work (its own thread in the threaded
  // runtime), so only the step itself is charged to the shard.
  consume = [&](std::uint32_t s) {
    if (!control->NodeAlive(map_.WorkerOfShard(s))) return;
    const std::uint64_t end = log.partition(s).end_offset();
    const std::uint64_t inc = incarnation[s];
    auto em = std::make_shared<Emission>();
    shard_queues[s].Submit(
        [&, s, end, inc, em]() -> util::Nanos {
          if (inc != incarnation[s]) return 0;  // job of a crashed incarnation
          ShardStep& step = *steps[s];
          const std::uint64_t from = step.core().applied_offset();
          if (end <= from) return 0;
          std::vector<mq::Record> records;
          log.partition(s).ReadFrom(from, end - from, records);
          return util::TimeItNanos([&] { step.Consume(records, *em); });
        },
        [&, s, em] { route(s, *em); });
  };

  // Arrival process: chunks of the stream arrive at the producer and are
  // scattered (one network hop) to the owning sampling nodes' logs.
  const double rate_per_us = offered_rate_mps;  // M updates/s == updates/us
  for (std::size_t start = 0; start < updates.size(); start += kChunk) {
    const std::size_t end = std::min(start + kChunk, updates.size());
    const sim::SimTime arrival =
        rate_per_us > 0 ? static_cast<sim::SimTime>(static_cast<double>(start) / rate_per_us)
                        : 0;
    env.ScheduleAt(arrival, [&, start, end, arrival] {
      // Split the chunk by shard, preserving order. The send time is each
      // update's origin (it entered the system at the producer).
      std::vector<std::vector<std::string>> per_shard(S);
      for (std::size_t i = start; i < end; ++i) {
        per_shard[map_.ShardOf(RoutingVertex(updates[i]))].push_back(
            graph::EncodeUpdate(updates[i]));
      }
      for (std::uint32_t s = 0; s < S; ++s) {
        if (!per_shard[s].empty()) ship(producer_node, s, std::move(per_shard[s]), arrival);
      }
    });
  }

  // Periodic telemetry snapshots on virtual time. The tick re-arms only
  // while applies are still landing, so it cannot keep the DES event loop
  // alive once the pipeline has quiesced.
  std::function<void()> telemetry_tick;
  std::uint64_t snap_last_applied = ~0ULL;
  if (obs != nullptr && obs->telemetry != nullptr && obs->snapshots != nullptr &&
      obs->telemetry_interval_us > 0) {
    telemetry_tick = [&] {
      obs->snapshots->push_back(obs->telemetry->SnapshotJson(env.now()));
      if (applied_at_serving == snap_last_applied) return;  // quiesced
      snap_last_applied = applied_at_serving;
      env.ScheduleAfter(obs->telemetry_interval_us, telemetry_tick);
    };
    env.ScheduleAfter(obs->telemetry_interval_us, telemetry_tick);
  }

  // ---- crash / detect / restore / replay (fault mode only): the control
  // plane's checkpoint store, per-shard epoch rule and recover sequence, on
  // virtual time. Checkpoints live in a directory this run owns.
  static std::atomic<std::uint64_t> runs{0};
  const std::filesystem::path ckpt_dir =
      std::filesystem::temp_directory_path() /
      ("helios-des-ckpt-" + std::to_string(::getpid()) + "-" + std::to_string(++runs));
  auto checkpoint = [&] {
    const util::Status status = control->Checkpoint(ckpt_dir.string());
    if (!status.ok()) {
      HLOG(kError, "ft") << "DES checkpoint failed: " << status.ToString();
    }
  };
  std::function<void()> beat_all;  // recurring events; must outlive env.Run()
  std::function<void()> tick_supervisor;
  if (fault_mode) {
    // Entry-state checkpoint (virtual t=0, before any stream event):
    // recovery never starts cold even when the crash lands before the first
    // periodic one. State built outside this emulation (IngestAll warm-up)
    // is not log-derived, so a fresh core + full replay would lose it.
    checkpoint();
    if (fault->checkpoint_at_us > 0) env.ScheduleAt(fault->checkpoint_at_us, checkpoint);
    // The crash: queued jobs die with the incarnation; the log keeps their
    // records. The supervisor's Tick detects it and runs the control
    // plane's recovery, whose readmit re-admits the node.
    env.ScheduleAt(fault->kill_at_us, [&] {
      report.fault_killed_at_us = env.now();
      control->Kill(fault->victim_node);
    });
    ft::Supervisor& supervisor = *control->supervisor();
    const sim::SimTime hb_period = std::max<sim::SimTime>(1, fault->detect_timeout_us / 5);
    beat_all = [&, hb_period] {
      if (!monitoring) return;
      for (std::uint32_t m = 0; m < M; ++m) {
        if (control->NodeAlive(m) && replaying[m] == 0) supervisor.Heartbeat(m, env.now());
      }
      env.ScheduleAfter(hb_period, beat_all);
    };
    tick_supervisor = [&, hb_period] {
      if (!monitoring) return;
      for (const ft::RecoveryReport& r : supervisor.Tick(env.now())) {
        report.fault_detected_at_us = r.detected_at_us;
      }
      env.ScheduleAfter(hb_period, tick_supervisor);
    };
    env.ScheduleAfter(hb_period, beat_all);
    env.ScheduleAfter(hb_period, tick_supervisor);
  }

  env.Run();
  if (fault_mode) std::filesystem::remove_all(ckpt_dir);
  for (std::uint32_t s = 0; s < S; ++s) shards_[s] = steps[s]->TakeCore();
  report.makespan_us = env.now();
  report.throughput_mps =
      report.makespan_us > 0
          ? static_cast<double>(updates.size()) / static_cast<double>(report.makespan_us)
          : 0;
  for (const auto& cpu : sampling_cpu) report.sampling_busy_us.push_back(cpu->busy_time());
  for (const auto& cpu : serving_cpu) report.serving_busy_us.push_back(cpu->busy_time());
  if (obs != nullptr && obs->telemetry != nullptr && obs->snapshots != nullptr) {
    // Closing snapshot so short runs always produce at least one.
    obs->snapshots->push_back(obs->telemetry->SnapshotJson(env.now()));
  }

  const auto snapshot = run_registry.TakeSnapshot();
  report.latency_us = snapshot.LatencyTotal("pipeline.ingest_e2e");
  report.stage_ingest_us = snapshot.LatencyTotal("pipeline.stage.ingest");
  report.stage_sample_us = snapshot.LatencyTotal("pipeline.stage.sample");
  report.stage_cascade_us = snapshot.LatencyTotal("pipeline.stage.cascade");
  report.stage_cache_apply_us = snapshot.LatencyTotal("pipeline.stage.cache_apply");
  report.diss_batches = snapshot.CounterTotal("dissemination.batches");
  report.diss_messages = snapshot.CounterTotal("dissemination.messages");
  report.diss_coalesced = snapshot.CounterTotal("dissemination.coalesced_msgs");
  report.diss_bytes_wire = snapshot.CounterTotal("dissemination.bytes_wire");
  report.batch_occupancy = snapshot.LatencyTotal("dissemination.batch_occupancy");
  if (fault_mode) {
    report.fault_updates_replayed = snapshot.CounterTotal("ft.updates_replayed");
    report.fault_deltas_fenced = snapshot.CounterTotal("ft.deltas_fenced");
    report.fault_ctrl_fenced =
        registry_.TakeSnapshot().CounterTotal("ft.ctrl_deltas_fenced") - ctrl_fenced_before;
    report.timeline_bucket_us = fault->timeline_bucket_us;
    report.applied_timeline = std::move(timeline);
  }
  return report;
}

ServeReport HeliosDeployment::EmulateServing(const std::vector<graph::VertexId>& seeds,
                                             std::uint32_t concurrency,
                                             std::uint64_t total_requests,
                                             gnn::ModelServer* model,
                                             std::uint32_t model_nodes,
                                             const std::vector<ServingMessage>* background,
                                             double background_rate_mps,
                                             const ServeObs* obs) {
  sim::SimEnv env;
  const std::uint32_t N = config_.serving_nodes;
  obs::TraceBuffer* trace = obs != nullptr ? obs->trace : nullptr;
  obs::MetricsRegistry serve_registry;
  obs::FunctionClock virtual_clock([&env] { return env.now(); });
  obs::StageTracer tracer(&serve_registry, &virtual_clock, trace);
  if (trace != nullptr) {
    trace->BindDroppedCounter(serve_registry.GetCounter("obs.trace.dropped_events"));
    for (std::uint32_t n = 0; n < N; ++n) {
      trace->SetProcessName(n, "serving-node-" + std::to_string(n));
    }
  }
  const std::uint32_t first_model = N;
  const std::uint32_t client_node = N + (model != nullptr ? model_nodes : 0);
  sim::SimCluster::Options copt;
  copt.num_nodes = client_node + 1;
  copt.cores_per_node = config_.serving_threads;
  copt.net_latency_us = config_.net_latency_us;
  copt.gbps = config_.gbps;
  sim::SimCluster cluster(env, copt);

  ServeReport report;
  util::Rng rng(config_.seed ^ 0xC0FFEE);
  std::uint64_t issued = 0, completed = 0;
  sim::SimTime last_completion = 0;
  // One ServeScratch per serving worker: ServeInto runs synchronously
  // inside the TimeIt below, so requests on the same worker never share a
  // scratch concurrently, and reuse keeps the measured read path on its
  // zero-allocation steady state.
  std::vector<ServeScratch> scratch(N);

  std::function<void()> issue = [&] {
    if (issued >= total_requests) return;
    issued++;
    const graph::VertexId seed = seeds[rng.Uniform(seeds.size())];
    const std::uint32_t worker = map_.ServingWorkerOf(seed);
    const sim::SimTime t0 = env.now();
    cluster.Send(client_node, worker, 64, [&, seed, worker, t0] {
      // Execute the real local-cache assembly; measured time is the
      // virtual service time on the worker's serving threads. The result
      // outlives this callback (model inference happens later on the DES
      // timeline), so it is per-request; the scratch is reused.
      auto result = std::make_shared<SampledSubgraph>();
      const util::Nanos service_ns =
          util::TimeItNanos([&] { serving_[worker]->ServeInto(seed, *result, scratch[worker]); });
      report.read_path_ns.Record(static_cast<std::uint64_t>(std::max<util::Nanos>(service_ns, 0)));
      const sim::SimTime service = static_cast<sim::SimTime>(service_ns / 1000);
      if (obs != nullptr && obs->freshness != nullptr) {
        // First-serve staleness: did this query read any cache cell an
        // armed update was waiting on? feat_vertices is exactly the set of
        // cells the read touched.
        for (const graph::VertexId v : scratch[worker].feat_vertices) {
          const std::int64_t st = obs->freshness->OnServe(v, env.now());
          if (st >= 0 && obs->telemetry != nullptr) {
            obs->telemetry->RecordStaleness(worker, env.now(), st);
          }
        }
      }
      cluster.cpu(worker).Enqueue(std::max<sim::SimTime>(service, 1), [&, result, worker, t0,
                                                                       service] {
        if (trace != nullptr) {
          tracer.RecordSpan(obs::Stage::kServe, env.now() - service, service, worker, 0);
        }
        report.missing_cells += result->missing_cells;
        report.missing_features += result->missing_features;
        const std::size_t bytes = ResponseBytes(*result);
        // Single completion point for both the direct and the model path:
        // records client-observed latency and, when telemetry is wired,
        // feeds the per-worker qps/bytes/p99 window and the deadline/SLO
        // tracker.
        auto record_done = [&, worker, t0, bytes] {
          const sim::SimTime lat = env.now() - t0;
          report.latency_us.Record(static_cast<std::uint64_t>(lat));
          if (obs != nullptr && obs->telemetry != nullptr) {
            obs->telemetry->RecordQuery(worker, env.now(), static_cast<std::int64_t>(lat), bytes,
                                        obs->deadline_us);
          }
          completed++;
          last_completion = env.now();
          issue();
        };
        auto finish = [&, record_done](std::uint32_t from_node) {
          cluster.Send(from_node, client_node, 128, record_done);
        };
        if (model == nullptr) {
          cluster.Send(worker, client_node, bytes, record_done);
        } else {
          const std::uint32_t mnode =
              first_model + static_cast<std::uint32_t>(rng.Uniform(model_nodes));
          cluster.Send(worker, mnode, bytes, [&, result, mnode, finish] {
            const auto infer = util::TimeIt([&] { (void)model->Infer(*result); });
            cluster.cpu(mnode).Enqueue(std::max<sim::SimTime>(infer, 1),
                                       [mnode, finish] { finish(mnode); });
          });
        }
      });
    });
  };

  // Background ingestion load on the serving nodes (Fig 12): the
  // data-updating threads keep applying sample-queue messages while the
  // serving threads answer queries. Batches of 64 arrive at the modelled
  // rate until the query workload completes.
  std::function<void(std::uint64_t)> background_tick = [&](std::uint64_t cursor) {
    if (background == nullptr || background->empty() || background_rate_mps <= 0) return;
    if (completed >= total_requests) return;
    constexpr std::uint64_t kBatch = 64;
    const sim::SimTime gap =
        std::max<sim::SimTime>(1, static_cast<sim::SimTime>(kBatch / background_rate_mps));
    env.ScheduleAfter(gap, [&, cursor] {
      if (completed >= total_requests) return;
      const std::uint32_t sew = static_cast<std::uint32_t>(cursor % N);
      const std::int64_t applied_at = env.now();
      const auto service = util::TimeIt([&] {
        for (std::uint64_t i = 0; i < kBatch; ++i) {
          const ServingMessage& m = (*background)[(cursor + i) % background->size()];
          serving_[sew]->Apply(m);
          if (obs != nullptr && obs->freshness != nullptr) {
            // Arm first-serve tracking for the touched cell. Replayed
            // background messages may predate this run's clock; fall back
            // to the apply instant so staleness measures serve - apply.
            const std::int64_t origin = m.OriginMicros() > 0 ? m.OriginMicros() : applied_at;
            obs->freshness->OnApply(m.TargetVertex(), map_.ShardOf(m.TargetVertex()), origin,
                                    applied_at);
          }
        }
      });
      cluster.cpu(sew).Enqueue(std::max<sim::SimTime>(service, 1), [] {});
      background_tick(cursor + kBatch);
    });
  };
  background_tick(0);

  // Periodic telemetry snapshots on the virtual timeline; stops re-arming
  // once the query workload drains so env.Run() can terminate.
  std::function<void()> telemetry_tick;
  if (obs != nullptr && obs->telemetry != nullptr && obs->snapshots != nullptr &&
      obs->telemetry_interval_us > 0) {
    telemetry_tick = [&] {
      obs->snapshots->push_back(obs->telemetry->SnapshotJson(env.now()));
      if (completed >= total_requests) return;
      env.ScheduleAfter(obs->telemetry_interval_us, telemetry_tick);
    };
    env.ScheduleAfter(obs->telemetry_interval_us, telemetry_tick);
  }

  for (std::uint32_t c = 0; c < concurrency && c < total_requests; ++c) issue();
  env.Run();

  if (obs != nullptr && obs->telemetry != nullptr && obs->snapshots != nullptr) {
    obs->snapshots->push_back(obs->telemetry->SnapshotJson(env.now()));
  }

  report.requests = completed;
  if (last_completion > 0) {
    report.qps = static_cast<double>(completed) * 1e6 / static_cast<double>(last_completion);
  }
  return report;
}

HeliosDeployment::AdmissionServeReport HeliosDeployment::EmulateAdmissionServing(
    const std::vector<graph::VertexId>& seeds, double rate_qps, std::uint64_t total_requests,
    std::int64_t deadline_us, AdmissionQueue::Options admission, gnn::GraphSageEncoder* encoder,
    obs::TelemetryHub* telemetry) {
  sim::SimEnv env;
  const std::uint32_t N = config_.serving_nodes;
  sim::SimCluster::Options copt;
  copt.num_nodes = N;
  copt.cores_per_node = config_.serving_threads;
  copt.net_latency_us = config_.net_latency_us;
  copt.gbps = config_.gbps;
  sim::SimCluster cluster(env, copt);

  AdmissionServeReport report;
  // Per-worker front doors on the deployment registry (lane = worker).
  const auto queues = AdmissionQueue::ForWorkers(N, admission, &registry_, telemetry);

  const bool cached = encoder != nullptr && config_.aggregate_cache_entries > 0;
  std::vector<ServeScratch> scratch(N);
  std::vector<SampledSubgraph> results(N);
  std::vector<gnn::CachedEmbedScratch> cscratch(cached ? N : 0);
  std::vector<std::vector<float>> embeds(cached ? N : 0);

  sim::SimTime last_completion = 0;
  std::vector<char> busy(N, 0);

  std::function<void(std::uint32_t)> pump = [&](std::uint32_t w) {
    QueryTicket t;
    if (busy[w] || !queues[w]->Next(env.now(), t)) return;
    busy[w] = 1;
    // Execute the real serve now; the measured wall time becomes the
    // virtual service time (the harness's executed-compute contract).
    std::size_t bytes = 0;
    const util::Nanos ns = util::TimeItNanos([&] {
      bool ok = false;
      if (cached) {
        ok = encoder->EmbedSeedCached(*serving_[w], t.seed, cscratch[w], embeds[w]);
      }
      if (ok) {
        bytes = 64 + embeds[w].size() * 4;
      } else {
        serving_[w]->ServeInto(t.seed, results[w], scratch[w]);
        bytes = ResponseBytes(results[w]);
      }
    });
    if (cached) {
      report.cache_hits += cscratch[w].result.cache_hits;
      report.cache_misses += cscratch[w].result.cache_misses;
      report.stale_recomputes += cscratch[w].result.stale_recomputes;
    }
    const sim::SimTime service =
        std::max<sim::SimTime>(static_cast<sim::SimTime>(ns / 1000), 1);
    cluster.cpu(w).Enqueue(service, [&, w, t, bytes] {
      queues[w]->Complete(t, env.now(), bytes);
      last_completion = env.now();
      busy[w] = 0;
      pump(w);
    });
  };

  gen::ArrivalProcess arrivals(rate_qps, config_.seed ^ 0xAD0515);
  util::Rng pick(config_.seed ^ 0x5EED5);
  const double per_us = rate_qps / 1e6;
  double credit = 0;  // fractional arrivals carried across 1µs ticks
  std::uint64_t offered = 0;
  std::function<void()> arrive = [&] {
    if (offered >= total_requests) return;
    // Above 1M qps the emulator's µs clock cannot space arrivals out;
    // batch the per-tick surplus instead of silently capping the rate.
    std::uint64_t n = 1;
    if (per_us > 1.0) {
      credit += per_us;
      n = static_cast<std::uint64_t>(credit);
      credit -= static_cast<double>(n);
    }
    for (std::uint64_t i = 0; i < n && offered < total_requests; ++i) {
      offered++;
      const graph::VertexId seed = seeds[pick.Uniform(seeds.size())];
      const std::uint32_t w = map_.ServingWorkerOf(seed);
      QueryTicket t;
      t.seed = seed;
      t.deadline_us = static_cast<std::int64_t>(env.now()) + deadline_us;
      if (queues[w]->Offer(t, env.now()) == AdmissionQueue::Outcome::kAdmitted) pump(w);
    }
    if (offered < total_requests) {
      const sim::SimTime gap =
          per_us > 1.0 ? 1 : arrivals.NextAfter(env.now()) - env.now();
      env.ScheduleAfter(gap, arrive);
    }
  };

  // Periodic window advance keeps the overload signal live on virtual time;
  // self-terminates once the run drains so env.Run() can return.
  std::function<void()> advance_tick;
  if (telemetry != nullptr) {
    advance_tick = [&] {
      telemetry->Advance(env.now());
      if (offered >= total_requests &&
          std::all_of(queues.begin(), queues.end(), [](const auto& q) { return q->Idle(); })) {
        return;
      }
      env.ScheduleAfter(100'000, advance_tick);
    };
    env.ScheduleAfter(100'000, advance_tick);
  }

  arrive();
  env.Run();

  for (const auto& q : queues) {
    report.books += q->stats();
    report.latency_us.Merge(q->latency());
  }
  const auto completed = static_cast<double>(report.books.completed);
  if (last_completion > 0) report.qps = completed * 1e6 / static_cast<double>(last_completion);
  if (completed > 0) {
    report.slo_hit_rate = static_cast<double>(report.books.completed_in_deadline) / completed;
  }
  return report;
}

std::size_t HeliosDeployment::ServingCacheBytes() const {
  std::size_t bytes = 0;
  for (const auto& core : serving_) {
    const auto stats = core->CacheStats();
    bytes += stats.memory_bytes + stats.disk_bytes;
  }
  return bytes;
}

// ============================================================ MiniGraphDB

GraphDbDeployment::GraphDbDeployment(QueryPlan plan, graphdb::CostProfile profile,
                                     GraphDbEmuConfig config)
    : plan_(std::move(plan)), profile_(std::move(profile)), config_(std::move(config)) {
  db_ = std::make_unique<graphdb::MiniGraphDB>(config_.nodes, 8, profile_);
}

void GraphDbDeployment::IngestAll(const std::vector<graph::GraphUpdate>& updates) {
  for (const auto& u : updates) db_->Ingest(u);
}

IngestReport GraphDbDeployment::EmulateIngestion(const std::vector<graph::GraphUpdate>& updates,
                                                 double offered_rate_mps) {
  sim::SimEnv env;
  sim::SimCluster::Options copt;
  copt.num_nodes = config_.nodes + 1;
  copt.cores_per_node = config_.threads;
  copt.net_latency_us = config_.net_latency_us;
  copt.gbps = config_.gbps;
  sim::SimCluster cluster(env, copt);
  const std::uint32_t producer = config_.nodes;

  // Strong consistency: one writer queue per partition (coarse lock).
  std::vector<SerialQueue> queues(config_.nodes);
  std::vector<std::unique_ptr<sim::Resource>> cpus;
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    cpus.push_back(std::make_unique<sim::Resource>(env, config_.threads));
    queues[n].Attach(cpus[n].get());
  }

  IngestReport report;
  report.updates = updates.size();
  const double rate_per_us = offered_rate_mps;

  for (std::size_t start = 0; start < updates.size(); start += kChunk) {
    const std::size_t end = std::min(start + kChunk, updates.size());
    const sim::SimTime arrival =
        rate_per_us > 0 ? static_cast<sim::SimTime>(static_cast<double>(start) / rate_per_us)
                        : 0;
    env.ScheduleAt(arrival, [&, start, end, arrival] {
      std::vector<std::vector<graph::GraphUpdate>> per_part(config_.nodes);
      for (std::size_t i = start; i < end; ++i) {
        per_part[db_->PartitionOf(RoutingVertex(updates[i]))].push_back(updates[i]);
      }
      for (std::uint32_t p = 0; p < config_.nodes; ++p) {
        if (per_part[p].empty()) continue;
        const std::size_t count = per_part[p].size();
        cluster.Send(producer, p, count * 40,
                     [&, p, batch = std::move(per_part[p]), arrival, count]() mutable {
                       queues[p].Submit(
                           [&, p, batch = std::move(batch), count]() -> util::Nanos {
                             const auto t = util::TimeItNanos([&] {
                               for (const auto& u : batch) db_->Ingest(u);
                             });
                             // WAL / replication overhead per write.
                             return t + static_cast<util::Nanos>(count) *
                                            profile_.per_write_overhead_us * 1000;
                           },
                           [&, arrival, count] {
                             for (std::size_t i = 0; i < count; ++i) {
                               report.latency_us.Record(
                                   static_cast<std::uint64_t>(env.now() - arrival));
                             }
                           });
                     });
      }
    });
  }

  env.Run();
  report.makespan_us = env.now();
  report.throughput_mps =
      report.makespan_us > 0
          ? static_cast<double>(updates.size()) / static_cast<double>(report.makespan_us)
          : 0;
  return report;
}

ServeReport GraphDbDeployment::EmulateServing(const std::vector<graph::VertexId>& seeds,
                                              std::uint32_t concurrency,
                                              std::uint64_t total_requests) {
  sim::SimEnv env;
  sim::SimCluster::Options copt;
  copt.num_nodes = config_.nodes + 1;
  copt.cores_per_node = config_.threads;
  copt.net_latency_us = config_.net_latency_us;
  copt.gbps = config_.gbps;
  sim::SimCluster cluster(env, copt);
  const std::uint32_t client_node = config_.nodes;

  ServeReport report;
  util::Rng rng(config_.seed ^ 0xBA5E);
  std::uint64_t issued = 0, completed = 0;
  sim::SimTime last_completion = 0;

  struct Request {
    graph::VertexId seed;
    std::uint32_t qnode = 0;  // node executing the query
    sim::SimTime t0 = 0;
    std::vector<graphdb::QueryTrace::Node> frontier;
    std::vector<std::vector<graphdb::QueryTrace::Node>> layers;
    std::size_t hop = 0;
    std::size_t pending_partitions = 0;
    std::vector<graphdb::HopSample> hop_samples;
    double interpret_us = 0;  // query-node interpretation debt this hop
  };

  std::function<void()> issue;
  std::function<void(std::shared_ptr<Request>)> run_hop;
  std::function<void(std::shared_ptr<Request>)> finish;

  finish = [&](std::shared_ptr<Request> req) {
    // Feature fetch round: sampled vertices grouped by owner partition.
    std::size_t response_bytes = 64;
    for (const auto& layer : req->layers) response_bytes += layer.size() * 24;
    cluster.Send(req->qnode, client_node, response_bytes, [&, req] {
      report.latency_us.Record(static_cast<std::uint64_t>(env.now() - req->t0));
      completed++;
      last_completion = env.now();
      issue();
    });
  };

  run_hop = [&](std::shared_ptr<Request> req) {
    if (req->hop >= plan_.num_hops()) {
      finish(req);
      return;
    }
    const OneHopQuery& hop = plan_.one_hop[req->hop];
    // Scatter the frontier by owner partition.
    auto by_partition = std::make_shared<
        std::vector<std::vector<std::pair<std::uint32_t, graph::VertexId>>>>(config_.nodes);
    for (std::uint32_t i = 0; i < req->frontier.size(); ++i) {
      (*by_partition)[db_->PartitionOf(req->frontier[i].vertex)].emplace_back(
          i, req->frontier[i].vertex);
    }
    req->pending_partitions = 0;
    req->hop_samples.clear();
    for (std::uint32_t p = 0; p < config_.nodes; ++p) {
      if (!(*by_partition)[p].empty()) req->pending_partitions++;
    }
    if (req->pending_partitions == 0) {
      req->layers.push_back({});
      req->frontier.clear();
      req->hop++;
      run_hop(req);
      return;
    }
    auto partition_done = [&, req] {
      if (--req->pending_partitions > 0) return;
      // Gather complete: build the next frontier.
      std::vector<graphdb::QueryTrace::Node> next;
      next.reserve(req->hop_samples.size());
      for (const auto& s : req->hop_samples) next.push_back({s.edge.dst, s.parent_index});
      req->layers.push_back(next);
      req->frontier = std::move(next);
      req->hop++;
      // Interpretation of this hop's adjacency, single-threaded on the
      // query node (a query is one GSQL thread), plus per-hop overhead.
      const sim::SimTime service =
          profile_.per_hop_overhead_us +
          std::max<sim::SimTime>(static_cast<sim::SimTime>(req->interpret_us), 1);
      req->interpret_us = 0;
      cluster.cpu(req->qnode).Enqueue(service, [&, req] { run_hop(req); });
    };
    // "Regular query mode" (§7.1): the query executes on one server
    // (qnode). Remote partitions only serve storage reads — they ship the
    // scanned adjacency back, paying a small storage-access share of the
    // per-visit cost; the interpretation cost (the dominant term) is paid
    // on the query node, serialized per query. This is what makes
    // distributed execution *slower* than single-machine (Fig 4(d)): same
    // total compute, plus per-hop network rounds and adjacency shipping.
    for (std::uint32_t p = 0; p < config_.nodes; ++p) {
      if ((*by_partition)[p].empty()) continue;
      const std::size_t req_bytes = 32 + (*by_partition)[p].size() * 12;
      cluster.Send(req->qnode, p, req_bytes, [&, req, p, by_partition, &hop = hop,
                                              partition_done] {
        auto samples = std::make_shared<std::vector<graphdb::HopSample>>();
        std::uint64_t traversed = 0;
        const auto measured = util::TimeIt([&] {
          util::Rng hop_rng(rng.Next());
          db_->SampleHopOnPartition(p, (*by_partition)[p], hop, hop_rng, *samples, traversed);
        });
        const double visit_cost =
            static_cast<double>(traversed) * profile_.per_vertex_visit_us;
        const bool local = p == req->qnode;
        // Storage-access share at the owning partition (parallel across
        // partitions — genuinely concurrent disks/machines).
        const sim::SimTime storage_service = std::max<sim::SimTime>(
            measured + static_cast<sim::SimTime>(visit_cost * 0.25), 1);
        // Interpretation debt accrues to the query node; remote slices
        // additionally pay (de)serialization of the shipped adjacency.
        req->interpret_us += visit_cost * (local ? 0.75 : 1.25);
        cluster.cpu(p).Enqueue(storage_service, [&, req, p, samples, traversed,
                                                 partition_done] {
          const std::size_t resp_bytes = 32 + traversed * 20;  // shipped adjacency
          cluster.Send(p, req->qnode, resp_bytes, [req, samples, partition_done] {
            req->hop_samples.insert(req->hop_samples.end(), samples->begin(),
                                    samples->end());
            partition_done();
          });
        });
      });
    }
  };

  issue = [&] {
    if (issued >= total_requests) return;
    issued++;
    auto req = std::make_shared<Request>();
    req->seed = seeds[rng.Uniform(seeds.size())];
    req->qnode = db_->PartitionOf(req->seed);
    req->t0 = env.now();
    req->frontier.push_back({req->seed, 0});
    req->layers.push_back(req->frontier);
    cluster.Send(client_node, req->qnode, 64, [&, req] {
      cluster.cpu(req->qnode).Enqueue(profile_.per_query_overhead_us,
                                      [&, req] { run_hop(req); });
    });
  };

  for (std::uint32_t c = 0; c < concurrency && c < total_requests; ++c) issue();
  env.Run();

  report.requests = completed;
  if (last_completion > 0) {
    report.qps = static_cast<double>(completed) * 1e6 / static_cast<double>(last_completion);
  }
  return report;
}

// ============================================================ helpers

QueryPlan PaperQuery(const gen::DatasetSpec& spec, Strategy strategy, std::size_t hops) {
  SamplingQuery q;
  q.id = spec.name + "-" + StrategyName(strategy);
  std::vector<std::uint32_t> fanouts = hops >= 3 ? std::vector<std::uint32_t>{25, 10, 5}
                                                 : std::vector<std::uint32_t>{25, 10};
  // Table 2 meta-paths, expressed over each dataset's schema.
  std::vector<graph::EdgeTypeId> edges;
  if (spec.name == "BI") {
    q.seed_type = 0;  // Person-Knows-Person-Likes-Comment
    edges = {0, 1};
  } else if (spec.name == "INTER") {
    q.seed_type = 0;  // Forum-Has-Person-Knows-Person[-Knows-Person]
    edges = hops >= 3 ? std::vector<graph::EdgeTypeId>{0, 1, 1}
                      : std::vector<graph::EdgeTypeId>{0, 1};
  } else if (spec.name == "FIN") {
    q.seed_type = 0;  // Account-TransferTo-Account-TransferTo-Account
    edges = {0, 0};
  } else {  // Taobao
    q.seed_type = 0;  // User-Click-Item-CoPurchase-Item
    edges = {0, 1};
  }
  for (std::size_t k = 0; k < edges.size(); ++k) {
    q.hops.push_back({edges[k], fanouts[k], strategy});
  }
  auto plan = Decompose(q, spec.schema);
  return plan.value();
}

std::pair<graph::VertexTypeId, std::uint64_t> PaperSeeds(const gen::DatasetSpec& spec) {
  // Seed type 0 for every Table 2 query.
  return {0, spec.vertices_per_type[0]};
}

void PrintHeader(const std::string& title, const std::string& columns) {
  std::printf("\n== %s ==\n%s\n", title.c_str(), columns.c_str());
}

void PrintServeRow(const std::string& system, const std::string& dataset,
                   const std::string& strategy, std::uint32_t concurrency,
                   const ServeReport& report) {
  std::printf("%-12s %-8s %-10s conc=%-4u qps=%-9.0f avg_ms=%-8.2f p99_ms=%-8.2f",
              system.c_str(), dataset.c_str(), strategy.c_str(), concurrency, report.qps,
              report.latency_us.Mean() / 1000.0,
              static_cast<double>(report.latency_us.P99()) / 1000.0);
  if (report.read_path_ns.count() > 0) {
    // Real-CPU cost of the cache read path alone (what BM_ServePath
    // micro-benchmarks), as opposed to the emulated end-to-end latency.
    std::printf(" read_us=%.1f/p99=%.1f", report.read_path_ns.Mean() / 1000.0,
                static_cast<double>(report.read_path_ns.P99()) / 1000.0);
  }
  std::printf("\n");
}

void IngestReport::PrintStageBreakdown() const {
  struct Row {
    const char* name;
    const util::Histogram* hist;
  };
  const Row rows[] = {{"ingest (queue wait)", &stage_ingest_us},
                      {"sample (shard core)", &stage_sample_us},
                      {"cascade (sub-delta)", &stage_cascade_us},
                      {"cache_apply (serving)", &stage_cache_apply_us},
                      {"e2e (publish->applied)", &latency_us}};
  std::printf("  %-24s %10s %10s %10s %10s %10s\n", "stage", "count", "mean_us", "p50_us",
              "p99_us", "p999_us");
  for (const auto& row : rows) {
    std::printf("  %-24s %10llu %10.1f %10llu %10llu %10llu\n", row.name,
                static_cast<unsigned long long>(row.hist->count()), row.hist->Mean(),
                static_cast<unsigned long long>(row.hist->P50()),
                static_cast<unsigned long long>(row.hist->P99()),
                static_cast<unsigned long long>(row.hist->P999()));
  }
  if (diss_batches > 0) {
    std::printf(
        "  dissemination: %llu batches, %llu msgs (occupancy mean=%.1f p99=%llu), "
        "%llu coalesced away, %.2f MB on wire\n",
        static_cast<unsigned long long>(diss_batches),
        static_cast<unsigned long long>(diss_messages), batch_occupancy.Mean(),
        static_cast<unsigned long long>(batch_occupancy.P99()),
        static_cast<unsigned long long>(diss_coalesced),
        static_cast<double>(diss_bytes_wire) / 1e6);
  }
}

void DumpObservability(const util::Config& config,
                       const obs::MetricsRegistry::Snapshot* snapshot,
                       const obs::TraceBuffer* trace) {
  // Canonical spellings are --metrics-out= / --trace-out= (shared across all
  // fig binaries); the legacy metrics= / trace= keys stay accepted.
  const std::string metrics_path = config.GetString("metrics-out", config.GetString("metrics", ""));
  if (!metrics_path.empty() && snapshot != nullptr) {
    const bool json = metrics_path.size() > 5 &&
                      metrics_path.compare(metrics_path.size() - 5, 5, ".json") == 0;
    const std::string body = json ? snapshot->ToJson() : snapshot->Dump();
    if (metrics_path == "-") {
      std::printf("%s", body.c_str());
    } else if (std::FILE* f = std::fopen(metrics_path.c_str(), "wb")) {
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
      std::printf("  metrics snapshot -> %s\n", metrics_path.c_str());
    } else {
      std::printf("  ! cannot write metrics file %s\n", metrics_path.c_str());
    }
  }
  const std::string trace_path = config.GetString("trace-out", config.GetString("trace", ""));
  if (!trace_path.empty() && trace != nullptr) {
    const auto status = trace->WriteFile(trace_path);
    if (status.ok()) {
      std::printf("  trace (%zu events, %llu dropped) -> %s\n", trace->size(),
                  static_cast<unsigned long long>(trace->dropped()), trace_path.c_str());
    } else {
      std::printf("  ! %s\n", status.message().c_str());
    }
  }
}

bool TraceRequested(const util::Config& config) {
  return !config.GetString("trace-out", config.GetString("trace", "")).empty();
}

bool TelemetryRequested(const util::Config& config) {
  return !config.GetString("telemetry-out", "").empty();
}

std::int64_t TelemetryIntervalUs(const util::Config& config) {
  const std::int64_t interval = config.GetInt("telemetry-interval", 250'000);
  return interval > 0 ? interval : 250'000;
}

void DumpTelemetry(const util::Config& config, const std::vector<std::string>& snapshots) {
  const std::string path = config.GetString("telemetry-out", "");
  if (path.empty() || snapshots.empty()) return;
  std::string body = "[\n";
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    body += snapshots[i];
    body += i + 1 < snapshots.size() ? ",\n" : "\n";
  }
  body += "]\n";
  if (path == "-") {
    std::printf("%s", body.c_str());
  } else if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("  telemetry (%zu snapshots) -> %s\n", snapshots.size(), path.c_str());
  } else {
    std::printf("  ! cannot write telemetry file %s\n", path.c_str());
  }
}

std::uint64_t ScaleFromConfig(const util::Config& config, std::uint64_t fallback) {
  const auto scale = static_cast<std::uint64_t>(config.GetInt("scale", 0));
  if (scale > 0) return scale;
  if (config.GetBool("quick", false)) return fallback * 8;
  return fallback;
}

gen::QuerySkew QuerySkewFromConfig(const util::Config& config, double fallback_alpha) {
  gen::QuerySkew skew;
  skew.alpha = config.GetDouble("zipf", fallback_alpha);
  skew.seed = static_cast<std::uint64_t>(config.GetInt("zipf-seed", 77));
  return skew;
}

}  // namespace helios::bench
