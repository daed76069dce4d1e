// Figure 21 (extension): elastic scale-out under a diurnal load curve.
//
// The autoscaling DES scenario of docs/ELASTICITY.md: open-loop inference
// queries arrive on a deterministic raised-cosine "day" (trough at both
// ends, prime-time in the middle), and the elastic control plane —
// per-shard telemetry -> Rebalancer -> ShardMigrator — migrates shards,
// adds serving capacity on the ramp, and drain-then-retires nodes on the
// way back down. Two runs over the *identical* workload:
//
//   golden   migrations_enabled=false — placement frozen at the initial
//            striping; every response payload folded into an FNV-1a hash
//   elastic  the full control plane live
//
// Gates (exit 1 on violation):
//   parity      elastic.served_hash == golden.served_hash (byte-identical
//               served results; the ISSUE acceptance bar)
//   scale-up    peak node count exceeds the initial allocation
//   scale-down  at least one node drained and retired
//   migrations  shards actually moved (with real Serialize/Deserialize
//               checkpoints paying the wire), and no install failed
//   slo         >= 60% of buckets with traffic keep p99 within the band
//
// Usage: fig21_elastic [scale=2000] [duration-s=30] [capacity=2000]
//        [initial-nodes=2] [max-nodes=8] [slo-ms=100] [quick=1]
//        [diurnal-base=500] [diurnal-peak=10000] [diurnal-period-s=<dur>]
//        [--trace-out=trace.json] [--metrics-out=-]
#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace helios;

int main(int argc, char** argv) {
  const auto config = util::Config::FromArgs(argc, argv);
  const bool quick = config.GetInt("quick", 0) != 0;
  const std::uint64_t scale = bench::ScaleFromConfig(config, quick ? 8000 : 2000);
  const double duration_s = config.GetDouble("duration-s", quick ? 12.0 : 30.0);

  const auto spec = gen::MakeInter(scale);
  const auto plan = bench::PaperQuery(spec, Strategy::kRandom, 2);
  gen::UpdateStream stream(spec);
  const auto updates = stream.Drain();
  const auto [seed_type, population] = bench::PaperSeeds(spec);
  gen::SeedGenerator seed_gen(seed_type, population, 0.0, 17);
  const auto seeds = seed_gen.Batch(quick ? 4000 : 10000);

  // A small shard universe (16 logical shards) keeps evacuations inside the
  // migration budget over a short simulated day; the protocol is identical
  // at any S.
  bench::HeliosEmuConfig hc;
  hc.sampling_nodes = 2;
  hc.sampling_threads = 16;
  hc.serving_nodes = 4;
  bench::HeliosDeployment helios(plan, hc);
  helios.IngestAll(updates);

  bench::HeliosDeployment::ElasticSpec espec;
  espec.duration_us = static_cast<sim::SimTime>(duration_s * 1e6);
  espec.node_capacity_qps = config.GetDouble("capacity", 2000);
  espec.initial_nodes = static_cast<std::uint32_t>(config.GetInt("initial-nodes", 2));
  espec.max_nodes = static_cast<std::uint32_t>(config.GetInt("max-nodes", 8));
  espec.min_nodes = 1;
  espec.max_concurrent_migrations = 8;
  espec.decision_interval_us = 250'000;
  espec.slo_deadline_us = static_cast<std::uint64_t>(config.GetInt("slo-ms", 100)) * 1000;
  gen::DiurnalSpec fallback;
  fallback.base_qps = 500;
  fallback.peak_qps = 10'000;
  fallback.period_us = espec.duration_us;  // one full day over the run
  espec.diurnal = bench::DiurnalFromConfig(config, fallback);

  obs::TraceBuffer trace_buffer;
  obs::TraceBuffer* trace = bench::TraceRequested(config) ? &trace_buffer : nullptr;

  // Golden run: identical arrivals and seed draws, placement frozen.
  auto golden_spec = espec;
  golden_spec.migrations_enabled = false;
  const auto golden = helios.EmulateElastic(seeds, golden_spec);
  const auto elastic = helios.EmulateElastic(seeds, espec, trace);

  bench::PrintHeader("Fig 21: elastic autoscaling over a diurnal day (INTER 2-hop)",
                     "run        offered    completed  p99_ms   nodes(peak/final)  migr");
  std::printf("%-10s %-10llu %-10llu %-8.2f %u/%-16u %llu\n", "golden",
              static_cast<unsigned long long>(golden.offered),
              static_cast<unsigned long long>(golden.completed),
              static_cast<double>(golden.latency_us.P99()) / 1e3, golden.peak_nodes,
              golden.final_nodes, static_cast<unsigned long long>(golden.migrations));
  std::printf("%-10s %-10llu %-10llu %-8.2f %u/%-16u %llu\n", "elastic",
              static_cast<unsigned long long>(elastic.offered),
              static_cast<unsigned long long>(elastic.completed),
              static_cast<double>(elastic.latency_us.P99()) / 1e3, elastic.peak_nodes,
              elastic.final_nodes, static_cast<unsigned long long>(elastic.migrations));
  std::printf("\nelastic timeline (node count vs offered load; %llu migrations, "
              "%.1f MB of checkpoints moved, map v%llu):\n",
              static_cast<unsigned long long>(elastic.migrations),
              static_cast<double>(elastic.ckpt_bytes_moved) / 1e6,
              static_cast<unsigned long long>(elastic.final_map_version));
  elastic.PrintTimeline();

  // ---- gates ----
  int failures = 0;
  if (elastic.served_hash != golden.served_hash || elastic.offered != golden.offered ||
      elastic.completed != golden.completed) {
    std::printf("FAIL parity: golden hash %016llx (%llu/%llu) vs elastic %016llx (%llu/%llu)\n",
                static_cast<unsigned long long>(golden.served_hash),
                static_cast<unsigned long long>(golden.offered),
                static_cast<unsigned long long>(golden.completed),
                static_cast<unsigned long long>(elastic.served_hash),
                static_cast<unsigned long long>(elastic.offered),
                static_cast<unsigned long long>(elastic.completed));
    ++failures;
  } else {
    std::printf("parity: served results byte-identical with and without migrations "
                "(hash %016llx over %llu responses)\n",
                static_cast<unsigned long long>(elastic.served_hash),
                static_cast<unsigned long long>(elastic.completed));
  }
  if (elastic.migrations == 0) {
    std::printf("FAIL migrations: control plane never moved a shard\n");
    ++failures;
  }
  if (elastic.migrations_failed != 0) {
    std::printf("FAIL migrations: %llu checkpoint install(s) failed and were aborted\n",
                static_cast<unsigned long long>(elastic.migrations_failed));
    ++failures;
  }
  if (elastic.peak_nodes <= espec.initial_nodes) {
    std::printf("FAIL scale-up: peak nodes %u never exceeded initial %u\n", elastic.peak_nodes,
                espec.initial_nodes);
    ++failures;
  }
  if (elastic.nodes_retired == 0) {
    std::printf("FAIL scale-down: no node was drained and retired\n");
    ++failures;
  }
  std::size_t with_traffic = 0, in_band = 0;
  for (const auto& b : elastic.timeline) {
    if (b.p99_us == 0) continue;
    ++with_traffic;
    if (b.p99_us <= espec.slo_deadline_us) ++in_band;
  }
  const double band_frac =
      with_traffic > 0 ? static_cast<double>(in_band) / static_cast<double>(with_traffic) : 1.0;
  std::printf("slo: p99 within %llums band in %zu/%zu buckets (%.0f%%)\n",
              static_cast<unsigned long long>(espec.slo_deadline_us / 1000), in_band,
              with_traffic, band_frac * 100);
  if (band_frac < 0.60) {
    std::printf("FAIL slo: fewer than 60%% of buckets inside the band\n");
    ++failures;
  }

  const auto snapshot = helios.registry().TakeSnapshot();
  bench::DumpObservability(config, &snapshot, trace ? &trace_buffer : nullptr);
  if (failures != 0) {
    std::printf("\n%d gate(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall gates passed: node count tracks the diurnal curve, served bytes "
              "identical, drain-then-retire clean\n");
  return 0;
}
