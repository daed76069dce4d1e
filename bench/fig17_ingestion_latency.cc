// Figure 17: end-to-end ingestion latency (graph update -> visible in the
// serving cache) across all four datasets, at an offered rate of ~70% of
// each deployment's measured capacity, plus the §7.4 read-after-write
// probe: the fraction of updates relevant to a seed's 2-hop subgraph that
// an immediate inference request would miss due to ingestion latency.
//
// Paper shape: P99 ingestion latency around/below ~1.2s at millions of
// updates/s; missed-update fractions of 0.03% / 0.02% / 1.90% / 0.01%.
//
// Usage: fig17_ingestion_latency [scale=2000] [--trace-out=out.json]
//        [--metrics-out=-]
//   --trace-out=<path>    write a Chrome-trace/Perfetto timeline of the
//                         first dataset's paced run (with causal per-update
//                         flow events stitching sampler -> serving lanes)
//   --metrics-out=<path>  dump the final deployment's metrics snapshot
//                         ("-" = stdout, *.json = JSON)
//   (legacy spellings trace= / metrics= stay accepted)
#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "bench/harness.h"

using namespace helios;

int main(int argc, char** argv) {
  const auto config = util::Config::FromArgs(argc, argv);
  const std::uint64_t scale = bench::ScaleFromConfig(config, 2000);

  obs::TraceBuffer trace_buffer;
  bool trace_armed = bench::TraceRequested(config);
  obs::MetricsRegistry::Snapshot last_snapshot;

  bench::PrintHeader("Fig 17: ingestion latency at ~70% capacity + read-after-write misses",
                     "dataset  rate_mps  p50_ms   p99_ms   missed_updates");
  for (const auto& spec : gen::AllDatasets(scale)) {
    const auto plan = bench::PaperQuery(spec, Strategy::kRandom, 2);
    gen::UpdateStream stream(spec);
    const auto updates = stream.Drain();

    // Capacity probe, then a paced run at 70%.
    bench::HeliosEmuConfig hc;
    bench::HeliosDeployment probe(plan, hc);
    const double capacity = probe.EmulateIngestion(updates, 0).throughput_mps;
    bench::HeliosDeployment paced(plan, hc);
    const double rate = capacity * 0.7;
    // The trace covers the first dataset only (one paced run is already a
    // full timeline; appending all four would drown the viewer).
    const auto report =
        paced.EmulateIngestion(updates, rate, trace_armed ? &trace_buffer : nullptr);
    trace_armed = false;
    last_snapshot = paced.registry().TakeSnapshot();

    // Read-after-write probe: for sampled seeds, what share of the updates
    // relevant to their 2-hop subgraph falls inside the P99-latency window
    // just before an immediately-issued request (and is thus invisible)?
    // Relevant srcs = the seed plus its sampled 1-hop frontier.
    std::unordered_map<graph::VertexId, std::vector<std::uint64_t>> src_positions;
    for (std::size_t i = 0; i < updates.size(); ++i) {
      if (const auto* e = std::get_if<graph::EdgeUpdate>(&updates[i])) {
        src_positions[e->src].push_back(i);
      }
    }
    const double p99_us = static_cast<double>(report.latency_us.P99());
    const double window_updates = p99_us * rate;  // rate is updates/us
    const auto [seed_type, population] = bench::PaperSeeds(spec);
    gen::SeedGenerator seed_gen(seed_type, population, 0.0, 31);
    std::uint64_t relevant_total = 0, relevant_missed = 0;
    SampledSubgraph result;
    ServeScratch scratch;
    for (int s = 0; s < 500; ++s) {
      const auto seed = seed_gen.Next();
      paced.serving_core(paced.map().ServingWorkerOf(seed)).ServeInto(seed, result, scratch);
      std::vector<graph::VertexId> srcs{seed};
      for (const auto& n : result.layers.size() > 1 ? result.layers[1]
                                                    : std::vector<SampledSubgraph::Node>{}) {
        srcs.push_back(n.vertex);
      }
      for (const auto src : srcs) {
        auto it = src_positions.find(src);
        if (it == src_positions.end()) continue;
        relevant_total += it->second.size();
        const double cutoff = static_cast<double>(updates.size()) - window_updates;
        for (auto pos_it = it->second.rbegin();
             pos_it != it->second.rend() && static_cast<double>(*pos_it) >= cutoff; ++pos_it) {
          relevant_missed++;
        }
      }
    }
    const double missed_pct = relevant_total > 0
                                  ? 100.0 * static_cast<double>(relevant_missed) /
                                        static_cast<double>(relevant_total)
                                  : 0.0;
    std::printf("%-8s %-9.2f %-8.1f %-8.1f %.2f%%\n", spec.name.c_str(), rate,
                static_cast<double>(report.latency_us.P50()) / 1000.0,
                static_cast<double>(report.latency_us.P99()) / 1000.0, missed_pct);
    report.PrintStageBreakdown();
  }
  std::printf("\npaper: P99 ingestion latency as low as 1.2s under millions of updates/s; "
              "missed fractions 0.03%%/0.02%%/1.90%%/0.01%%\n");
  bench::DumpObservability(config, &last_snapshot, &trace_buffer);
  return 0;
}
