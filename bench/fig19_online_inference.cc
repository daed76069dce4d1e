// Figure 19: end-to-end online GNN inference — Helios sampling (4 sampling
// + 6 serving nodes) feeding a TensorFlow-Serving stand-in (4 model nodes)
// — on the INTER 2-hop query, sweeping request concurrency.
//
// Paper shape: up to ~17000 QPS with P99/avg below 100ms in most
// configurations; P99 slightly exceeds 100ms only at concurrency 800
// (client-side overload).
//
// This bench is also the observability showcase (docs/OBSERVABILITY.md):
// with the shared obs flags it holds back a tail of the update stream,
// pushes it through the emulated ingestion pipeline, and then runs the
// serving sweep with background sample-queue traffic, emitting
//   --trace-out=      one stitched Chrome trace: per-update causal flow
//                     events crossing sampler -> serving lanes, plus
//                     per-query kServe spans from the serving phase
//   --telemetry-out=  a JSON array of windowed TelemetryHub snapshots
//                     (per-worker qps/bytes/p99 + update->visibility and
//                     update->first-serve staleness percentiles)
//   --metrics-out=    the final cumulative metrics snapshot
//
// Fig 19b (docs/PERF.md "Computation reuse & admission") pushes 1-100x the
// measured sustainable rate through the SLO-aware admission front door
// under zipfian query skew: each serve pops one ticket in hit-first/EDF
// order out of the computation-reuse tier, expired tickets shed at the pop,
// overflow sheds (serving.admission.*), and the completed queries' p99
// stays bounded instead of collapsing. The run
// exits 1, naming the failed check, unless at every rate the admission
// books balance, the completed p99 is at most 1.5x the deadline, and the
// 1x rate sheds nothing.
//
// Usage: fig19_online_inference [scale=2000] [requests=1500]
//        [zipf=0.99] [zipf-seed=77] [deadline=20000]
//        [diurnal-base= diurnal-peak= diurnal-period-s=  -> sample the fig21
//         day curve instead of the fixed 1-100x multipliers]
//        [--trace-out=trace.json] [--telemetry-out=telemetry.json]
//        [--metrics-out=-] [--telemetry-interval=250000]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "util/clock.h"

using namespace helios;

int main(int argc, char** argv) {
  const auto config = util::Config::FromArgs(argc, argv);
  const std::uint64_t scale = bench::ScaleFromConfig(config, 2000);
  const std::uint64_t requests = static_cast<std::uint64_t>(config.GetInt("requests", 1500));

  const auto spec = gen::MakeInter(scale);
  const auto plan = bench::PaperQuery(spec, Strategy::kRandom, 2);
  gen::UpdateStream stream(spec);
  auto updates = stream.Drain();
  const auto [seed_type, population] = bench::PaperSeeds(spec);
  gen::SeedGenerator seed_gen(seed_type, population, 0.0, 17);
  const auto seeds = seed_gen.Batch(10000);

  const bool tracing = bench::TraceRequested(config);
  const bool telemetry_on =
      bench::TelemetryRequested(config) || !config.GetString("metrics-out", "").empty();
  const bool observing = tracing || telemetry_on;

  bench::HeliosEmuConfig hc;
  bench::HeliosDeployment helios(plan, hc);

  // Observability plumbing: one trace buffer and one telemetry hub span
  // both phases (TelemetryHub retires out-of-window buckets lazily, so the
  // serving phase restarting virtual time at 0 is fine); freshness
  // trackers are per-phase because the two phases run on distinct virtual
  // clocks.
  obs::TraceBuffer trace_buffer;
  obs::TelemetryHub::Options topt;
  topt.num_lanes = hc.serving_nodes;
  topt.lane_label = "serving_worker";
  obs::TelemetryHub telemetry(&helios.registry(), topt);
  obs::FreshnessTracker fresh_ingest(&helios.registry(), helios.num_shards(),
                                     {{"phase", "ingest"}});
  obs::FreshnessTracker fresh_serve(&helios.registry(), helios.num_shards(),
                                    {{"phase", "serve"}});
  std::vector<std::string> snapshots;
  const std::int64_t interval = bench::TelemetryIntervalUs(config);

  if (observing) {
    // Hold back a tail of the stream and run it through the emulated
    // ingestion pipeline: the trace captures real sampler->serving
    // dissemination with per-update causal flow events, and the telemetry
    // window sees update->visibility staleness per serving worker.
    const std::size_t tail = std::min<std::size_t>(updates.size() / 10, 50'000);
    const std::vector<graph::GraphUpdate> live(updates.end() - static_cast<std::ptrdiff_t>(tail),
                                               updates.end());
    updates.resize(updates.size() - tail);
    helios.IngestAll(updates);
    bench::IngestObs iobs;
    iobs.telemetry = telemetry_on ? &telemetry : nullptr;
    iobs.freshness = telemetry_on ? &fresh_ingest : nullptr;
    iobs.telemetry_interval_us = interval;
    iobs.snapshots = telemetry_on ? &snapshots : nullptr;
    helios.EmulateIngestion(live, 0, tracing ? &trace_buffer : nullptr, nullptr, &iobs);
  } else {
    helios.IngestAll(updates);
  }

  // Background sample-queue traffic for the observed serving runs, so the
  // first-serve freshness path (apply arms, query read records) is live.
  std::vector<ServingMessage> background;
  if (observing) {
    util::Rng rng(5);
    gen::SeedGenerator bg_gen(seed_type, population, 0.0, 9);
    for (int i = 0; i < 2000; ++i) {
      SampleUpdate su;
      su.level = 1;
      su.vertex = bg_gen.Next();
      su.event_ts = 1;
      for (int j = 0; j < 25; ++j) {
        su.samples.push_back({gen::MakeVertexId(1, rng.Uniform(spec.vertices_per_type[1])),
                              static_cast<graph::Timestamp>(j), 1.0f});
      }
      background.push_back(ServingMessage::Of(std::move(su)));
    }
  }

  gnn::SageConfig sage;
  sage.input_dim = spec.schema.feature_dim;
  sage.hidden_dim = 64;
  sage.output_dim = 64;
  gnn::ModelServer model(sage);

  bench::ServeObs sobs;
  sobs.trace = tracing ? &trace_buffer : nullptr;
  sobs.telemetry = telemetry_on ? &telemetry : nullptr;
  sobs.freshness = telemetry_on ? &fresh_serve : nullptr;
  sobs.telemetry_interval_us = interval;
  sobs.snapshots = telemetry_on ? &snapshots : nullptr;
  sobs.deadline_us = 100'000;  // the paper's "P99 below 100ms" bar as an SLO

  bench::PrintHeader("Fig 19: online GNN inference e2e (INTER 2-hop, 4 model nodes)",
                     "concurrency   qps        avg_ms   p99_ms");
  for (const std::uint32_t conc : {100u, 200u, 400u, 800u}) {
    const auto report = helios.EmulateServing(
        seeds, conc, std::max<std::uint64_t>(requests, conc * 4ull), &model, 4,
        observing ? &background : nullptr, observing ? 0.25 : 0.0, observing ? &sobs : nullptr);
    std::printf("conc=%-8u %-10.0f %-8.2f %-8.2f\n", conc, report.qps,
                report.latency_us.Mean() / 1000.0,
                static_cast<double>(report.latency_us.P99()) / 1000.0);
  }
  if (observing) {
    std::printf("slo(100ms) window hit rate: %.4f\n", telemetry.SloHitRate());
  }
  std::printf("\npaper shape: high qps with p99/avg below ~100ms in most cases; "
              "p99 slightly above 100ms only at the highest concurrency\n");

  // ---- Fig 19b: overload sweep through the admission front door ----
  int failures = 0;
  {
    const auto skew = bench::QuerySkewFromConfig(config, 0.99);
    const auto hot_seeds = gen::HotKeyBatch(seed_type, population, skew, 10000);
    const std::int64_t deadline_us = config.GetInt("deadline", 20'000);

    bench::HeliosEmuConfig chc;
    chc.aggregate_cache_entries = 1 << 15;
    bench::HeliosDeployment cached(plan, chc);
    cached.IngestAll(updates);
    gnn::GraphSageEncoder encoder(sage);

    // Calibrate the sustainable rate from the warm cached serve path: the
    // emulated cluster serves one query per worker at a time, so capacity
    // is workers / mean-service-time.
    gnn::CachedEmbedScratch cs;
    std::vector<float> emb;
    for (int i = 0; i < 200; ++i) {
      (void)encoder.EmbedSeedCached(cached.serving_core(
                                        cached.map().ServingWorkerOf(hot_seeds[i % 200])),
                                    hot_seeds[i % 200], cs, emb);
    }
    const util::Nanos per_query_ns = util::TimeItNanos([&] {
      for (int i = 0; i < 400; ++i) {
        const graph::VertexId s = hot_seeds[i % 400];
        (void)encoder.EmbedSeedCached(cached.serving_core(cached.map().ServingWorkerOf(s)), s,
                                      cs, emb);
      }
    }) / 400;
    const double base_qps =
        0.5 * chc.serving_nodes * 1e9 / static_cast<double>(std::max<util::Nanos>(per_query_ns, 1));

    obs::TelemetryHub::Options topt2;
    topt2.num_lanes = chc.serving_nodes;
    topt2.lane_label = "serving_worker";
    topt2.overload_p99_us = static_cast<std::uint64_t>(deadline_us);
    topt2.overload_min_slo = 0.5;
    obs::TelemetryHub overload_hub(&cached.registry(), topt2);

    // Sweep points: fixed 1-100x multipliers by default; with the shared
    // diurnal flags (diurnal-peak= etc., the fig21 curve generator) the
    // sweep instead samples the day's rate curve at four phases, so the
    // admission door is exercised at exactly the loads the autoscaling
    // scenario breathes through.
    std::vector<double> mults = {1.0, 10.0, 50.0, 100.0};
    const auto diurnal = bench::DiurnalFromConfig(config, gen::DiurnalSpec{});
    if (diurnal.Enabled()) {
      mults.clear();
      for (const double f : {0.0, 0.25, 0.5, 0.75}) {
        const auto t = static_cast<std::int64_t>(f * static_cast<double>(diurnal.period_us));
        mults.push_back(gen::DiurnalRateAtUs(diurnal, t) / base_qps);
      }
    }

    bench::PrintHeader(
        "Fig 19b: admission + reuse tier at 1-100x rate (zipf " + std::to_string(skew.alpha) +
            ", deadline " + std::to_string(deadline_us / 1000) + "ms)",
        "rate_x   offered_qps   done_qps   p99_ms   slo     hit_rate   shed(full/over/dl)");
    for (const double mult : mults) {
      AdmissionQueue::Options aopt;
      aopt.max_depth = 2048;
      // Offer the overload for a fixed virtual duration, so higher rates
      // offer proportionally more queries and the queues actually fill.
      const std::uint64_t offered_target = static_cast<std::uint64_t>(
          std::max<double>(static_cast<double>(requests) * 4, base_qps * mult * 0.05));
      const auto r = cached.EmulateAdmissionServing(hot_seeds, base_qps * mult, offered_target,
                                                    deadline_us, aopt, &encoder, &overload_hub);
      const std::uint64_t looked =
          std::max<std::uint64_t>(r.cache_hits + r.cache_misses + r.stale_recomputes, 1);
      const AdmissionQueue::Stats& b = r.books;
      std::printf("%-8.4g %-13.0f %-10.0f %-8.2f %-7.3f %-10.3f %llu/%llu/%llu\n", mult,
                  base_qps * mult, r.qps,
                  static_cast<double>(r.latency_us.P99()) / 1000.0, r.slo_hit_rate,
                  static_cast<double>(r.cache_hits) / static_cast<double>(looked),
                  static_cast<unsigned long long>(b.shed_full),
                  static_cast<unsigned long long>(b.shed_overload),
                  static_cast<unsigned long long>(b.shed_deadline));
      // Checked at each rate: every offered query is accounted for,
      // completed queries keep a bounded tail (no queue collapse), and the
      // sustainable rate sheds nothing.
      const auto check = [&](bool ok, const char* what) {
        if (!ok) {
          std::printf("FAIL at %gx: %s\n", mult, what);
          ++failures;
        }
      };
      check(b.offered == offered_target &&
                b.offered == b.admitted + b.shed_full + b.shed_overload &&
                b.admitted == b.completed + b.shed_deadline,
            "books (offered = admitted + shed_full + shed_overload, "
            "admitted = completed + shed_deadline)");
      check(static_cast<double>(r.latency_us.P99()) <= 1.5 * static_cast<double>(deadline_us),
            "tail (completed p99 above 1.5x the deadline)");
      check(mult != 1.0 || b.shed() == 0, "shed (queries shed at the sustainable rate)");
    }
  }

  const auto snapshot = helios.registry().TakeSnapshot();
  bench::DumpObservability(config, &snapshot, &trace_buffer);
  bench::DumpTelemetry(config, snapshots);
  if (failures != 0) {
    std::printf("\n%d Fig 19b check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nFig 19b checks passed: books balance at every rate, completed p99 within "
              "1.5x the deadline (no queue collapse), nothing shed at 1x\n");
  return 0;
}
