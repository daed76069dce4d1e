// The fig21 elastic autoscaling scenario on the DES emulator.
//
// Open-loop queries arrive on a deterministic diurnal curve (gen::
// DiurnalArrivals) and route shard -> node through a versioned
// elastic::ShardMap placement. A control loop runs every
// decision_interval_us: obs::TelemetryHub::WindowLoads feeds
// elastic::Rebalancer::Tick, and the resulting Plan is executed through the
// control plane's migration steps (helios/control_plane.h, the threaded
// runtime's): checkpoint (a real SamplingShardCore::Serialize), wire transfer
// on the SimCluster NIC, install and epoch bump under the per-shard epoch
// rule, a destination-side cutover pause, and the map flip. A failed install
// aborts the migration and is counted (ElasticReport::migrations_failed).
// Node adds and drain-then-retire follow the plan's target_nodes / drain
// lists.
//
// Parity contract: every response payload is *executed* (ServeInto) and
// folded into an FNV-1a hash. The arrival times, seed draws, and service
// times are all independent of placement, so a run with
// migrations_enabled == false is a golden run over the identical workload,
// and a byte-identical served_hash proves the migration machinery never
// touched a served result (ISSUE acceptance; the threaded-runtime twin of
// this assertion lives in tests/elastic_test.cc).
#include "bench/harness.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "helios/control_plane.h"
#include "util/rng.h"

namespace helios::bench {

namespace {

void FoldHash(std::uint64_t& h, std::uint64_t v) {
  // FNV-1a over the value's 8 bytes.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

// Canonical digest of one served response: structure + feature payload bit
// patterns. Deterministic because the same query sequence builds the same
// subgraph (and thus the same FeatureTable iteration order) in both runs.
void FoldResponse(std::uint64_t& h, std::uint64_t query_idx, const SampledSubgraph& out) {
  FoldHash(h, query_idx);
  FoldHash(h, static_cast<std::uint64_t>(out.seed));
  FoldHash(h, out.layers.size());
  for (const auto& layer : out.layers) {
    FoldHash(h, layer.size());
    for (const auto& node : layer) {
      FoldHash(h, static_cast<std::uint64_t>(node.vertex));
      FoldHash(h, node.parent);
    }
  }
  out.features.ForEach([&](graph::VertexId v, std::span<const float> f) {
    FoldHash(h, static_cast<std::uint64_t>(v));
    for (float x : f) {
      std::uint32_t bits;
      static_assert(sizeof(bits) == sizeof(x));
      __builtin_memcpy(&bits, &x, sizeof(bits));
      FoldHash(h, bits);
    }
  });
}

}  // namespace

gen::DiurnalSpec DiurnalFromConfig(const util::Config& config, gen::DiurnalSpec fallback) {
  gen::DiurnalSpec spec = fallback;
  spec.base_qps = config.GetDouble("diurnal-base", spec.base_qps);
  spec.peak_qps = config.GetDouble("diurnal-peak", spec.peak_qps);
  const double period_s =
      config.GetDouble("diurnal-period-s", static_cast<double>(spec.period_us) / 1e6);
  spec.period_us = static_cast<std::int64_t>(period_s * 1e6);
  spec.phase = config.GetDouble("diurnal-phase", spec.phase);
  spec.seed = static_cast<std::uint64_t>(
      config.GetInt("diurnal-seed", static_cast<std::int64_t>(spec.seed)));
  return spec;
}

void HeliosDeployment::ElasticReport::PrintTimeline() const {
  std::printf("%8s %10s %6s %7s %9s %5s  %s\n", "t_s", "offered", "nodes", "spread",
              "p99_ms", "migr", "nodes|load");
  for (const Bucket& b : timeline) {
    std::string bar(b.active_nodes, '#');
    bar += '|';
    const int load_ticks = static_cast<int>(std::min(40.0, b.offered_qps / 250.0));
    bar.append(static_cast<std::size_t>(std::max(0, load_ticks)), '=');
    std::printf("%8.1f %10.1f %6u %7.2f %9.3f %5u  %s\n",
                static_cast<double>(b.t_us) / 1e6, b.offered_qps, b.active_nodes,
                b.load_spread, static_cast<double>(b.p99_us) / 1e3, b.migrations,
                bar.c_str());
  }
}

HeliosDeployment::ElasticReport HeliosDeployment::EmulateElastic(
    const std::vector<graph::VertexId>& seeds, const ElasticSpec& spec,
    obs::TraceBuffer* trace) {
  ElasticReport report;
  if (seeds.empty() || !spec.diurnal.Enabled() || spec.duration_us <= 0) return report;

  const std::uint32_t shards = map_.TotalShards();
  const std::uint32_t max_nodes = std::max(spec.max_nodes, std::max(spec.initial_nodes, 1u));

  sim::SimEnv env;
  sim::SimCluster::Options copt;
  copt.num_nodes = max_nodes;
  copt.cores_per_node = config_.serving_threads;
  copt.net_latency_us = config_.net_latency_us;
  copt.gbps = config_.gbps;
  sim::SimCluster cluster(env, copt);
  if (trace != nullptr) {
    cluster.EnableTracing(trace);
    trace->SetProcessName(1000, "elastic-control-plane");
  }

  // Placement and migration ledger (the control plane's), policy, node
  // lifecycle, load gauges. A migration installs into the deployment's core
  // slot; the serving phase appends no update log, so the replay tail is
  // empty and the epoch bump lands at once.
  obs::FunctionClock virtual_clock([&env] { return env.now(); });
  ControlPlane::Driver driver;
  driver.new_step = [&](std::uint32_t s, std::uint32_t node, ShardLedger& ledger) {
    return std::make_unique<ShardStep>(
        std::make_unique<SamplingShardCore>(plan_, map_, s, config_.seed,
                                            SamplingShardCore::Options{0, &registry_}),
        ShardStep::Wiring{&registry_, &virtual_clock, nullptr, nullptr, node, &ledger});
  };
  driver.snapshot = [&](std::uint32_t s, graph::ByteWriter& w) {
    shards_[s]->Serialize(w);
    return shards_[s]->applied_offset();
  };
  driver.adopt = [&](std::uint32_t s, std::uint32_t, std::unique_ptr<ShardStep> step,
                     util::Nanos) { shards_[s] = step->TakeCore(); };
  ControlPlane plane(
      {max_nodes, elastic::ShardMap::Striped(shards, spec.initial_nodes).Current()->owner,
       spec.max_concurrent_migrations, &registry_, &virtual_clock},
      std::move(driver));
  elastic::ShardMap& placement = plane.placement();
  elastic::ShardMigrator& migrator = plane.migrator();
  elastic::RebalancerOptions ropt;
  ropt.node_capacity_qps =
      spec.node_capacity_qps * (spec.policy_headroom > 0 ? spec.policy_headroom : 1.0);
  ropt.min_nodes = spec.min_nodes;
  ropt.max_nodes = max_nodes;
  ropt.max_concurrent_migrations = spec.max_concurrent_migrations;
  ropt.shard_cooldown_us = spec.shard_cooldown_us;
  ropt.decision_interval_us = spec.decision_interval_us;
  ropt.registry = &registry_;
  elastic::Rebalancer rebalancer(ropt);
  elastic::NodeSet nodes(max_nodes, spec.initial_nodes);
  obs::TelemetryHub::Options topt;
  topt.num_lanes = shards;
  topt.window_us = std::max<std::int64_t>(500'000, 2 * spec.decision_interval_us);
  topt.lane_label = "shard";
  obs::TelemetryHub telemetry(&registry_, topt);

  // Autoscaler calibration requires deterministic service times (measured
  // wall time would make the golden and elastic runs diverge), so queries
  // cost exactly capacity's worth of virtual CPU: one node saturates at
  // node_capacity_qps.
  const sim::SimTime service_us = std::max<sim::SimTime>(
      1, static_cast<sim::SimTime>(
             std::llround(1e6 * config_.serving_threads / spec.node_capacity_qps)));

  // Timeline buckets.
  const sim::SimTime bucket_us = std::max<sim::SimTime>(1, spec.timeline_bucket_us);
  const std::size_t nb =
      static_cast<std::size_t>((spec.duration_us + bucket_us - 1) / bucket_us);
  std::vector<std::uint64_t> bucket_offered(nb, 0);
  std::vector<util::Histogram> bucket_latency(nb);
  std::vector<std::uint32_t> bucket_migrations(nb, 0);
  std::vector<std::uint32_t> bucket_nodes(nb, 0);
  std::vector<std::vector<std::uint64_t>> bucket_node_done(
      nb, std::vector<std::uint64_t>(max_nodes, 0));
  auto bucket_of = [&](sim::SimTime t) {
    return std::min(nb - 1, static_cast<std::size_t>(std::max<sim::SimTime>(0, t) / bucket_us));
  };

  report.peak_nodes = nodes.ActiveCount();

  // ---- query flow ------------------------------------------------------
  gen::DiurnalArrivals arrivals(spec.diurnal);
  util::Rng seed_rng(spec.seed_pick_seed ^ config_.seed);
  SampledSubgraph out;
  ServeScratch scratch;
  std::uint64_t hash = 0xCBF29CE484222325ULL;  // FNV-1a offset basis

  std::function<void(std::int64_t)> arrive_at = [&](std::int64_t t) {
    if (t >= spec.duration_us) return;
    env.ScheduleAt(t, [&, t] {
      const std::uint64_t idx = report.offered++;
      const graph::VertexId seed = seeds[seed_rng.Uniform(seeds.size())];
      const std::uint32_t shard = map_.ShardOf(seed);
      const std::uint32_t node = placement.Current()->OwnerOf(shard);
      // Execute the real read path; the payload digest is the parity gate.
      serving_[map_.ServingWorkerOf(seed)]->ServeInto(seed, out, scratch);
      FoldResponse(hash, idx, out);
      const std::uint64_t bytes = ResponseBytes(out);
      bucket_offered[bucket_of(t)]++;
      // The load gauges record at *arrival* (offered load, service cost as
      // the latency sample): an autoscaler fed by completion rates can
      // never see demand above current capacity, so it chases its own
      // tail while the backlog grows. End-to-end latency (with queueing)
      // is scored engine-side into the timeline and the SLO band.
      telemetry.RecordQuery(shard, t, static_cast<std::uint64_t>(service_us), bytes);
      cluster.cpu(node).Enqueue(service_us, [&, t, node] {
        const std::int64_t lat = env.now() - t;
        report.completed++;
        report.latency_us.Record(static_cast<std::uint64_t>(lat));
        const std::size_t b = bucket_of(env.now());
        bucket_latency[b].Record(static_cast<std::uint64_t>(lat));
        bucket_node_done[b][node]++;
      });
      arrive_at(arrivals.NextAfter(t));
    });
  };
  arrive_at(arrivals.NextAfter(0));

  // ---- migration ---------------------------------------------------------
  auto run_migration = [&](const elastic::MigrationOrder& m) {
    if (placement.Current()->OwnerOf(m.shard) != m.from) return;
    if (m.to >= max_nodes || nodes.active[m.to] == 0 || nodes.draining[m.to] != 0) return;
    const std::uint64_t id = plane.BeginMigration(m.shard, m.to);
    if (id == 0) return;
    rebalancer.NoteMigration(m.shard, env.now());
    const std::int64_t started = env.now();
    // The source really serializes the shard; the blob's true size pays the
    // wire.
    auto blob = std::make_shared<std::string>(plane.CheckpointMigration(id));
    report.ckpt_bytes_moved += blob->size();
    cluster.Send(m.from, m.to, blob->size(), [&, id, m, blob, started] {
      if (!plane.InstallMigration(id, *blob).ok()) {
        report.migrations_failed++;
        return;
      }
      // Cutover: the destination stalls one pause while the flip publishes.
      cluster.cpu(m.to).Enqueue(spec.cutover_pause_us, [&, id, m, started] {
        plane.FlipMigration(id);
        report.migrations++;
        bucket_migrations[bucket_of(env.now())]++;
        if (trace != nullptr) {
          trace->AddComplete("migrate-shard-" + std::to_string(m.shard) + "-n" +
                                 std::to_string(m.from) + "->n" + std::to_string(m.to),
                             "elastic", started, env.now() - started, 1000, m.shard);
        }
      });
    });
  };

  // ---- control loop ----------------------------------------------------
  std::function<void()> control = [&] {
    const std::int64_t now = env.now();
    telemetry.Advance(now);
    const auto lanes = telemetry.WindowLoads();
    std::vector<elastic::ShardLoad> loads;
    loads.reserve(lanes.size());
    for (std::uint32_t i = 0; i < lanes.size(); ++i)
      loads.push_back({i, lanes[i].qps, lanes[i].bytes_per_s, lanes[i].p99_us});
    const elastic::Plan plan =
        rebalancer.Tick(now, loads, *placement.Current(), nodes, migrator.InFlight());
    if (spec.migrations_enabled && plan.acted) {
      // Scale up: wake the lowest-index parked nodes first.
      for (std::uint32_t n = 0; n < max_nodes && nodes.ActiveCount() < plan.target_nodes;
           ++n) {
        if (nodes.active[n] == 0) {
          nodes.active[n] = 1;
          nodes.draining[n] = 0;
          report.nodes_added++;
          if (trace != nullptr) trace->AddInstant("node-add-" + std::to_string(n),
                                                  "elastic", now, 1000, 0);
        }
      }
      for (std::uint32_t n : plan.drain) {
        if (n < max_nodes && nodes.active[n] != 0 && nodes.draining[n] == 0) {
          nodes.draining[n] = 1;
          if (trace != nullptr) trace->AddInstant("node-drain-" + std::to_string(n),
                                                  "elastic", now, 1000, 0);
        }
      }
      for (const elastic::MigrationOrder& m : plan.migrations) run_migration(m);
    }
    if (spec.migrations_enabled) {
      // Drain-then-retire: a draining node whose shards all flipped away
      // (and with no migration still in flight) parks.
      for (std::uint32_t n = 0; n < max_nodes; ++n) {
        if (nodes.draining[n] != 0 && placement.Current()->ShardsOf(n).empty() &&
            migrator.InFlight() == 0) {
          nodes.active[n] = 0;
          nodes.draining[n] = 0;
          report.nodes_retired++;
          if (trace != nullptr) trace->AddInstant("node-retire-" + std::to_string(n),
                                                  "elastic", now, 1000, 0);
        }
      }
    }
    report.peak_nodes = std::max(report.peak_nodes, nodes.ActiveCount());
    bucket_nodes[bucket_of(now)] = nodes.ActiveCount();
    if (trace != nullptr)
      trace->AddCounter("elastic.active_nodes", now, 1000, "nodes", nodes.ActiveCount());
    if (now < spec.duration_us) env.ScheduleAfter(spec.decision_interval_us, control);
  };
  env.ScheduleAfter(spec.decision_interval_us, control);

  env.Run();

  // ---- assemble the report ---------------------------------------------
  report.served_hash = hash;
  report.final_nodes = nodes.ActiveCount();
  report.final_map_version = placement.version();
  report.timeline_bucket_us = bucket_us;
  std::uint32_t last_nodes = spec.initial_nodes;
  for (std::size_t b = 0; b < nb; ++b) {
    if (bucket_nodes[b] == 0) bucket_nodes[b] = last_nodes;  // forward-fill
    last_nodes = bucket_nodes[b];
    ElasticReport::Bucket row;
    row.t_us = static_cast<sim::SimTime>(b) * bucket_us;
    row.offered_qps = static_cast<double>(bucket_offered[b]) * 1e6 / bucket_us;
    row.active_nodes = bucket_nodes[b];
    std::uint64_t done = 0, peak = 0;
    for (std::uint32_t n = 0; n < max_nodes; ++n) {
      done += bucket_node_done[b][n];
      peak = std::max(peak, bucket_node_done[b][n]);
    }
    const double mean =
        row.active_nodes > 0 ? static_cast<double>(done) / row.active_nodes : 0.0;
    row.load_spread = mean > 0 ? static_cast<double>(peak) / mean : 0.0;
    row.p99_us = bucket_latency[b].count() > 0 ? bucket_latency[b].P99() : 0;
    row.migrations = bucket_migrations[b];
    report.timeline.push_back(row);
  }
  return report;
}

}  // namespace helios::bench
