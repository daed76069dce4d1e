// Ablations of the design decisions DESIGN.md calls out:
//   1. event-driven pre-sampling vs ad-hoc sampling at request time
//      (per-request cost, same local data, no network);
//   2. query-aware subscription vs broadcast-everything dissemination
//      (data-plane message volume);
//   3. reservoir maintenance vs re-sample-on-update (per-update cost as a
//      function of degree).
//
// Usage: ablations [scale=4000]
#include <algorithm>
#include <cstdio>

#include "bench/harness.h"
#include "util/clock.h"

using namespace helios;

int main(int argc, char** argv) {
  const auto config = util::Config::FromArgs(argc, argv);
  const std::uint64_t scale = bench::ScaleFromConfig(config, 4000);

  const auto spec = gen::MakeInter(scale);
  const auto plan = bench::PaperQuery(spec, Strategy::kTopK, 2);
  gen::UpdateStream stream(spec);
  const auto updates = stream.Drain();
  const auto [seed_type, population] = bench::PaperSeeds(spec);
  gen::SeedGenerator seed_gen(seed_type, population, 0.0, 17);
  const auto seeds = seed_gen.Batch(2000);

  // ---- 1. pre-sampling vs ad-hoc (both single-node, no network: isolates
  // the compute asymmetry that event-driven pre-sampling buys).
  {
    bench::HeliosEmuConfig hc;
    hc.sampling_nodes = 1;
    hc.serving_nodes = 1;
    bench::HeliosDeployment helios(plan, hc);
    helios.IngestAll(updates);

    bench::GraphDbEmuConfig dc;
    dc.nodes = 1;
    bench::GraphDbDeployment adhoc(plan, graphdb::TigerGraphProfile(), dc);
    adhoc.IngestAll(updates);

    util::Rng rng(3);
    double cache_us = 0, adhoc_us = 0;
    SampledSubgraph sample;
    ServeScratch scratch;
    for (const auto seed : seeds) {
      cache_us += static_cast<double>(util::TimeIt([&] {
        helios.serving_core(helios.map().ServingWorkerOf(seed)).ServeInto(seed, sample, scratch);
      }));
      adhoc_us += static_cast<double>(
          util::TimeIt([&] { (void)adhoc.db().ExecuteKHop(seed, plan, rng); }));
    }
    bench::PrintHeader("Ablation 1: pre-sampled cache lookup vs ad-hoc TopK sampling "
                       "(per-request compute, single node)",
                       "variant           avg_us_per_request");
    std::printf("%-17s %.1f\n%-17s %.1f\n  -> ad-hoc costs %.1fx more compute per request\n",
                "cache-lookup", cache_us / seeds.size(), "ad-hoc", adhoc_us / seeds.size(),
                adhoc_us / cache_us);
  }

  // ---- 2. subscription vs broadcast.
  {
    bench::HeliosEmuConfig hc;
    bench::HeliosDeployment helios(plan, hc);
    helios.IngestAll(updates);
    std::uint64_t sent = 0, cells = 0, offers_selected_bound = 0;
    for (std::uint32_t s = 0; s < helios.num_shards(); ++s) {
      const auto& st = helios.shard(s).stats();
      sent += st.sample_updates_sent + st.feature_updates_sent;
      cells += st.cells;
      offers_selected_bound += st.edges_offered;
    }
    // Broadcast would push every cell refresh and feature write to every
    // serving worker. A refresh happens at most once per offered edge.
    const std::uint64_t broadcast =
        offers_selected_bound * helios.map().serving_workers;
    bench::PrintHeader("Ablation 2: query-aware subscription vs broadcast dissemination",
                       "variant          data-plane messages");
    std::printf("%-16s %llu\n%-16s %llu (upper bound)\n  -> subscription sends %.1f%% of "
                "broadcast volume\n",
                "subscription", static_cast<unsigned long long>(sent), "broadcast",
                static_cast<unsigned long long>(broadcast),
                100.0 * static_cast<double>(sent) / static_cast<double>(broadcast));
  }

  // ---- 3. reservoir vs re-sample-on-update.
  {
    bench::PrintHeader("Ablation 3: reservoir update vs re-sample-on-update (TopK fan-out 25)",
                       "degree    reservoir_ns_per_update   resample_ns_per_update");
    util::Rng rng(7);
    for (const std::size_t degree : {32u, 256u, 2048u, 16384u}) {
      // Reservoir: O(fan-out) per arriving edge.
      ReservoirCell cell(Strategy::kTopK, 25);
      const auto reservoir_us = util::TimeIt([&] {
        for (std::size_t i = 0; i < degree; ++i) {
          cell.Offer({i, static_cast<graph::Timestamp>(i), 1.0f}, rng);
        }
      });
      // Re-sample: on each arrival, re-select top-25 from the full list.
      std::vector<graph::Edge> adjacency;
      const auto resample_us = util::TimeIt([&] {
        for (std::size_t i = 0; i < degree; ++i) {
          adjacency.push_back({i, static_cast<graph::Timestamp>(i), 1.0f});
          std::vector<graph::Edge> copy = adjacency;
          const std::size_t k = std::min<std::size_t>(25, copy.size());
          std::partial_sort(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(k),
                            copy.end(), [](const graph::Edge& a, const graph::Edge& b) {
                              return a.ts > b.ts;
                            });
        }
      });
      std::printf("%-9zu %-25.0f %-25.0f\n", degree,
                  1000.0 * static_cast<double>(reservoir_us) / static_cast<double>(degree),
                  1000.0 * static_cast<double>(resample_us) / static_cast<double>(degree));
    }
    std::printf("  -> reservoir cost is degree-independent; re-sampling grows with degree "
                "(the §3.1 tail)\n");
  }
  return 0;
}
