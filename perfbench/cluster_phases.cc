// The threaded-cluster half of the benchmark: repeated set-ups, then rounds
// that each run an open loop of fixed-rate queries beside fixed-rate
// updates, a closed loop, saturated drains, and a checkpoint / recovery /
// migration cycle, all checked for correctness as they run. Every metric is
// a median of samples spread over all rounds, so host contention that comes
// and goes spoils a few samples rather than the figure.
#include <time.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "gnn/graphsage.h"
#include "helios/threaded_cluster.h"

namespace helios::perfbench {

namespace {

using helios::ThreadedCluster;

constexpr int kSetups = 5;                  // setup_s is their median
constexpr double kRoundSeconds = 2.5;       // approximate length of one round
constexpr int kDrainsPerRound = 2;
constexpr int kCheckpointsPerCycle = 5;     // timed, after one untimed
constexpr int kRecoveriesPerCycle = 3;      // kill/restart of node 0
constexpr int kMigrationTripsPerCycle = 2;  // shard 0 away and back
constexpr int kParitySeeds = 64;            // cached-vs-uncached check

void SleepUntilNs(std::int64_t t_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(t_ns % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

helios::ClusterOptions OptionsFor(const Workload& w, std::uint64_t seed) {
  helios::ClusterOptions o;
  o.map = kTopology;
  o.seed = seed;
  o.aggregate_cache_entries = w.agg_entries;
  o.aggregate_staleness_us = w.agg_staleness_us;
  return o;
}

// FNV-1a over every serving worker's full cache contents.
std::uint64_t CacheHash(const ThreadedCluster& c, std::uint32_t workers) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::string_view s) {
    for (unsigned char ch : s) {
      h ^= ch;
      h *= 0x100000001B3ULL;
    }
    h ^= 0xFF;
    h *= 0x100000001B3ULL;
  };
  for (std::uint32_t w = 0; w < workers; ++w) {
    for (const auto& [k, v] : c.DumpServingCache(w)) {
      mix(k);
      mix(v);
    }
  }
  return h;
}

void WaitIdleChecked(ThreadedCluster& c, Ledger& ledger, const std::string& where) {
  c.WaitForIngestIdle();
  const helios::ClusterStats s = c.Stats();
  ledger.Check(s.serving_msgs_published == s.serving_msgs_applied,
               "serving_msgs_published == serving_msgs_applied at " + where);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

gnn::SageConfig EncoderConfig(const gen::DatasetSpec& spec) {
  gnn::SageConfig config;
  config.input_dim = spec.schema.feature_dim;
  config.hidden_dim = 16;
  config.output_dim = 16;
  return config;
}

// One query as the workload defines it, with its own scratch (one per
// thread) and outcome counters.
class Querier {
 public:
  Querier(ThreadedCluster& c, const Workload& w, const gnn::GraphSageEncoder& encoder)
      : c_(c), kind_(w.query), encoder_(encoder) {}

  bool Run(graph::VertexId seed) {
    ++attempted;
    bool ok = true;
    if (kind_ == QueryKind::kServe) {
      const helios::SampledSubgraph r = c_.Serve(seed);
      ok = r.bad_cells == 0;
    } else {
      const std::uint32_t worker = c_.RouteOf(seed);
      ok = encoder_.EmbedSeedCached(c_.serving_core(worker), seed, scratch_, out_) &&
           scratch_.result.bad_cells == 0;
      hits += scratch_.result.cache_hits;
      lookups += scratch_.result.cache_hits + scratch_.result.cache_misses +
                 scratch_.result.stale_recomputes;
      stale += scratch_.result.stale_recomputes;
    }
    if (!ok) ++failed;
    return ok;
  }

  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t hits = 0, lookups = 0, stale = 0;

 private:
  ThreadedCluster& c_;
  QueryKind kind_;
  const gnn::GraphSageEncoder& encoder_;
  gnn::CachedEmbedScratch scratch_;
  std::vector<float> out_;
};

struct SetupResult {
  Inputs inputs;
  std::unique_ptr<ThreadedCluster> cluster;
  double seconds = 0;
};

// Generation plus initial ingest to WaitForIngestIdle.
SetupResult SetUp(const Workload& w, std::uint64_t seed, Ledger& ledger) {
  SetupResult s;
  const std::int64_t t0 = NowNs();
  s.inputs = MakeInputs(w, seed);
  s.cluster = std::make_unique<ThreadedCluster>(PlanFor(w, s.inputs.spec), OptionsFor(w, seed));
  s.cluster->Start();
  for (const auto& u : s.inputs.initial) s.cluster->PublishUpdate(u);
  WaitIdleChecked(*s.cluster, ledger, "set-up");
  s.seconds = Seconds(NowNs() - t0);
  return s;
}

// Publishes `n` updates as fast as possible and waits for the pipeline to
// apply all of them; returns updates per second.
double Drain(ThreadedCluster& c, EdgeFeed& feed, std::uint64_t n, Ledger& ledger) {
  const std::int64_t t0 = NowNs();
  for (std::uint64_t i = 0; i < n; ++i) c.PublishUpdate(feed.Next());
  WaitIdleChecked(c, ledger, "drain");
  return static_cast<double>(n) / Seconds(NowNs() - t0);
}

Buckets HistBuckets(const util::Histogram& h) { return ParseBuckets(h.ToJson()); }

constexpr std::int64_t kWindowNs = 500000000;  // open-loop summary windows

struct OpenLoopResult {
  std::int64_t start_ns = 0;
  OpenLoopRecorder queries;
  std::int64_t update_late_ns = 0;
  std::uint64_t updates = 0;
  // Ingestion-latency buckets at each window boundary, from the start.
  std::vector<Buckets> fresh_marks;
};

// Fixed-rate queries on one thread beside fixed-rate updates on another;
// both sleep until each due time. Updates go out on a 100 us tick, as many
// as the rate has made due since the last tick.
OpenLoopResult OpenLoop(ThreadedCluster& c, Querier& q, EdgeFeed& feed,
                        const std::vector<graph::VertexId>& seeds, std::size_t& seed_pos,
                        double query_rate, double update_rate, double seconds) {
  constexpr std::int64_t kTickNs = 100000;
  OpenLoopResult r;
  const std::int64_t start = NowNs() + 2000000;
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  r.start_ns = start;
  r.queries.latency_ns.reserve(static_cast<std::size_t>(query_rate * seconds) + 16);
  r.queries.due_ns.reserve(r.queries.latency_ns.capacity());
  r.fresh_marks.push_back(HistBuckets(c.IngestionLatency()));
  std::thread updater([&] {
    const OpenLoopSchedule sched{start, kTickNs};
    for (std::uint64_t j = 0;; ++j) {
      const std::int64_t due = sched.Due(j);
      if (due >= end) break;
      SleepUntilNs(due);
      if (j > 0 && (due - start) % kWindowNs == 0) {
        r.fresh_marks.push_back(HistBuckets(c.IngestionLatency()));
      }
      r.update_late_ns = std::max(r.update_late_ns, NowNs() - due);
      const auto upto = static_cast<std::uint64_t>(static_cast<double>(j + 1) * update_rate *
                                                   static_cast<double>(kTickNs) / 1e9);
      for (; r.updates < upto; ++r.updates) c.PublishUpdate(feed.Next());
    }
  });
  const OpenLoopSchedule sched{start, static_cast<std::int64_t>(1e9 / query_rate)};
  for (std::uint64_t i = 0;; ++i) {
    const std::int64_t due = sched.Due(i);
    if (due >= end) break;
    SleepUntilNs(due);
    const std::int64_t t_start = NowNs();
    q.Run(seeds[seed_pos++ % seeds.size()]);
    r.queries.Record(due, t_start, NowNs());
  }
  updater.join();
  return r;
}

// Closed loop with one client: the rate of each 0.25 s window.
std::vector<double> ClosedLoop(Querier& q, const std::vector<graph::VertexId>& seeds,
                               std::size_t& seed_pos, double seconds) {
  constexpr std::int64_t kClosedWindowNs = 250000000;
  const int windows = std::max(1, static_cast<int>(seconds * 4));
  std::vector<double> rates;
  for (int wi = 0; wi < windows; ++wi) {
    const std::int64_t t0 = NowNs();
    std::uint64_t n = 0;
    std::int64_t now = t0;
    while (now - t0 < kClosedWindowNs) {
      q.Run(seeds[seed_pos++ % seeds.size()]);
      ++n;
      now = NowNs();
    }
    rates.push_back(static_cast<double>(n) / Seconds(now - t0));
  }
  return rates;
}

// Sum of a cumulative latency family, recovered from its mean and count.
double HistSum(const util::Histogram& h) { return h.Mean() * static_cast<double>(h.count()); }

// Everything the rounds collect; each end-to-end metric is the median of
// its samples, which are spread over the whole run.
struct Samples {
  std::vector<double> setup_s, gen_ns;
  std::vector<double> query_p50_us, query_p90_us, fresh_p50_ms;
  std::vector<double> latency_ns;  // every open-loop query, for the tails
  Buckets fresh;                   // every open-loop window, merged
  std::int64_t max_late_ns = 0;
  std::vector<double> qps, drain_rates;
  std::vector<double> ckpt_ms, recovery_ms, migrate_ms;
  std::vector<double> replay_ms, replayed, fenced, mig_ms, mig_replayed, mig_bytes;
  std::map<std::string, Buckets> stages;  // pipeline.stage.* over the open loops
  double diss_bytes = 0, updates_processed = 0;
  std::uint64_t hits = 0, lookups = 0, stale = 0, queries = 0;
};

constexpr const char* kStages[] = {"ingest", "sample", "cascade", "cache_apply", "serve"};

// Bucket-wise sum of two bucket lists.
Buckets Merge(const Buckets& a, const Buckets& b) {
  std::map<std::uint64_t, std::uint64_t> sum;
  for (const auto& [u, c] : a) sum[u] += c;
  for (const auto& [u, c] : b) sum[u] += c;
  return Buckets(sum.begin(), sum.end());
}

class Run {
 public:
  Run(const Workload& w, const RunOptions& options, Ledger& ledger, ThreadedCluster& c,
      const Inputs& in)
      : w_(w), options_(options), ledger_(ledger), c_(c), in_(in), feed_(in),
        encoder_(EncoderConfig(in.spec)) {}

  // Untimed: one slice of every phase, so caches and pools are warm.
  void WarmUp() {
    Querier warm(c_, w_, encoder_);
    OpenLoop(c_, warm, feed_, in_.seeds, seed_pos_, w_.query_rate, w_.update_rate, 0.5);
    WaitIdleChecked(c_, ledger_, "open-loop warm-up");
    ClosedLoop(warm, in_.seeds, seed_pos_, 0.25);
    Drain(c_, feed_, w_.drain_updates / 4, ledger_);
    Cycle("warm-up", nullptr);
    Account(warm);
  }

  // One round: open loop, closed loop, one saturated drain, one cycle.
  void Round(int r, Samples& s) {
    const std::string at = "round " + std::to_string(r);
    {
      Querier warm(c_, w_, encoder_);
      OpenLoop(c_, warm, feed_, in_.seeds, seed_pos_, w_.query_rate, w_.update_rate, 0.25);
      Account(warm);
    }
    const auto snap0 = c_.MetricsSnapshot();
    Querier q(c_, w_, encoder_);
    OpenLoopResult open =
        OpenLoop(c_, q, feed_, in_.seeds, seed_pos_, w_.query_rate, w_.update_rate, 1.0);
    WaitIdleChecked(c_, ledger_, "open loop, " + at);
    const auto snap1 = c_.MetricsSnapshot();
    open.fresh_marks.push_back(HistBuckets(c_.IngestionLatency()));
    Account(q);
    s.hits += q.hits;
    s.lookups += q.lookups;
    s.stale += q.stale;
    s.queries += q.attempted;

    for (double v : WindowPercentiles(open.queries, open.start_ns, kWindowNs, 0.5)) {
      s.query_p50_us.push_back(v / 1e3);
    }
    for (double v : WindowPercentiles(open.queries, open.start_ns, kWindowNs, 0.9)) {
      s.query_p90_us.push_back(v / 1e3);
    }
    s.latency_ns.insert(s.latency_ns.end(), open.queries.latency_ns.begin(),
                        open.queries.latency_ns.end());
    s.max_late_ns = std::max({s.max_late_ns, open.queries.max_late_ns, open.update_late_ns});
    bool ok = true;
    for (std::size_t i = 1; i < open.fresh_marks.size(); ++i) {
      const Buckets b = DiffBuckets(open.fresh_marks[i], open.fresh_marks[i - 1], &ok);
      if (BucketTotal(b) > 0) s.fresh_p50_ms.push_back(BucketQuantile(b, 0.5) / 1e3);
      s.fresh = Merge(s.fresh, b);
    }
    for (const char* stage : kStages) {
      const std::string family = std::string("pipeline.stage.") + stage;
      s.stages[family] = Merge(s.stages[family],
                               DiffBuckets(HistBuckets(snap1.LatencyTotal(family)),
                                           HistBuckets(snap0.LatencyTotal(family)), &ok));
    }
    ledger_.Check(ok, "cumulative histograms only grow, " + at);
    s.diss_bytes += static_cast<double>(snap1.CounterTotal("dissemination.bytes_wire") -
                                        snap0.CounterTotal("dissemination.bytes_wire"));
    s.updates_processed += static_cast<double>(snap1.CounterTotal("cluster.updates_processed") -
                                               snap0.CounterTotal("cluster.updates_processed"));

    Querier cq(c_, w_, encoder_);
    const std::vector<double> rates = ClosedLoop(cq, in_.seeds, seed_pos_, 1.0);
    s.qps.insert(s.qps.end(), rates.begin(), rates.end());
    Account(cq);

    for (int k = 0; k < kDrainsPerRound; ++k) {
      s.drain_rates.push_back(Drain(c_, feed_, w_.drain_updates, ledger_));
    }
    Cycle(at, &s);
  }

  // Cached inference equals uncached inference at quiescence.
  void CheckCachedParity() {
    if (w_.query != QueryKind::kEmbedCached) return;
    gnn::CachedEmbedScratch scratch;
    std::vector<float> cached;
    for (int i = 0; i < kParitySeeds; ++i) {
      const graph::VertexId seed = in_.seeds[static_cast<std::size_t>(i) * 97 % in_.seeds.size()];
      const helios::SampledSubgraph sample = c_.Serve(seed);
      const std::vector<float> ref = encoder_.EmbedSeed(sample);
      for (int pass = 0; pass < 2; ++pass) {  // a miss, then a hit
        const bool ok =
            encoder_.EmbedSeedCached(c_.serving_core(c_.RouteOf(seed)), seed, scratch, cached) &&
            sample.bad_cells == 0 && cached.size() == ref.size() &&
            std::memcmp(cached.data(), ref.data(), ref.size() * sizeof(float)) == 0;
        ledger_.Check(ok, "EmbedSeedCached bit-identical to Serve + EmbedSeed (seed " +
                              std::to_string(seed) + ")");
      }
    }
  }

  // Allocations and time of ThreadedCluster::Serve against ServeInto on
  // the same seeds, after one pass that grows every reused buffer.
  void MeasureServeWrapper(std::vector<Metric>& layers) {
    constexpr int kSeeds = 2000;
    helios::SampledSubgraph out;
    helios::ServeScratch scratch;
    for (int i = 0; i < kSeeds; ++i) {
      const graph::VertexId seed = in_.seeds[static_cast<std::size_t>(i)];
      c_.Serve(seed);
      c_.serving_core(c_.RouteOf(seed)).ServeInto(seed, out, scratch);
    }
    std::uint64_t a_serve = 0, a_into = 0;
    std::vector<double> t_serve, t_into;
    for (int i = 0; i < kSeeds; ++i) {
      const graph::VertexId seed = in_.seeds[static_cast<std::size_t>(i)];
      std::uint64_t a0 = ThreadAllocations();
      std::int64_t t0 = NowNs();
      const helios::SampledSubgraph r = c_.Serve(seed);
      t_serve.push_back(static_cast<double>(NowNs() - t0));
      a_serve += ThreadAllocations() - a0;
      ledger_.Check(r.bad_cells == 0, "no bad cells in served query");
      a0 = ThreadAllocations();
      t0 = NowNs();
      c_.serving_core(c_.RouteOf(seed)).ServeInto(seed, out, scratch);
      t_into.push_back(static_cast<double>(NowNs() - t0));
      a_into += ThreadAllocations() - a0;
    }
    layers.push_back({"serve.allocs_per_query", static_cast<double>(a_serve) / kSeeds, "count"});
    layers.push_back(
        {"serve.into_allocs_per_query", static_cast<double>(a_into) / kSeeds, "count"});
    layers.push_back({"serve.wrapper_us_p50", (Median(t_serve) - Median(t_into)) / 1e3, "us"});
  }

 private:
  void Account(const Querier& q) {
    ledger_.attempted += q.attempted;
    ledger_.failed += q.failed;
    if (q.failed > 0 && ledger_.errors.size() < 20) {
      ledger_.errors.push_back("queries failed or had bad cells");
    }
  }

  // Checkpoints, a fixed log tail, kill/restart, and a migration away and
  // back, each to idle; the serving caches must not change across the
  // recovery or the migrations.
  void Cycle(const std::string& at, Samples* s) {
    const std::string ckpt_dir = options_.out_dir + "/checkpoints";
    std::vector<double> t_ckpt;
    std::int64_t t0 = 0;
    for (int k = 0; k <= kCheckpointsPerCycle; ++k) {  // the first is a warm-up
      t0 = NowNs();
      const util::Status st = c_.Checkpoint(ckpt_dir);
      if (k > 0) t_ckpt.push_back(Seconds(NowNs() - t0) * 1e3);
      ledger_.Check(st.ok(), "Checkpoint, " + at + ": " + st.message());
    }
    for (std::uint64_t i = 0; i < w_.tail_updates; ++i) c_.PublishUpdate(feed_.Next());
    WaitIdleChecked(c_, ledger_, "tail ingest, " + at);
    const std::uint32_t workers = kTopology.serving_workers;
    const std::uint64_t golden = CacheHash(c_, workers);

    if (s != nullptr) s->ckpt_ms.insert(s->ckpt_ms.end(), t_ckpt.begin(), t_ckpt.end());

    // Each recovery restores the same checkpoint and replays the same tail.
    for (int k = 0; k < kRecoveriesPerCycle; ++k) {
      const auto f0 = c_.MetricsSnapshot();
      t0 = NowNs();
      const bool killed = c_.KillNode(0);
      const bool restarted = c_.RestartNode(0);
      WaitIdleChecked(c_, ledger_, "recovery, " + at);
      const double t_rec = Seconds(NowNs() - t0) * 1e3;
      ledger_.Check(killed && restarted, "KillNode(0) and RestartNode(0), " + at);
      ledger_.Check(CacheHash(c_, workers) == golden, "serving caches equal after recovery, " + at);
      const auto f1 = c_.MetricsSnapshot();
      if (s == nullptr) continue;
      s->recovery_ms.push_back(t_rec);
      const auto r0 = f0.LatencyTotal("ft.time_to_replay_us");
      const auto r1 = f1.LatencyTotal("ft.time_to_replay_us");
      const double dn = static_cast<double>(r1.count() - r0.count());
      s->replay_ms.push_back(dn > 0 ? (HistSum(r1) - HistSum(r0)) / dn / 1e3 : 0);
      s->replayed.push_back(static_cast<double>(f1.CounterTotal("ft.updates_replayed") -
                                                f0.CounterTotal("ft.updates_replayed")));
      s->fenced.push_back(static_cast<double>(f1.CounterTotal("ft.deltas_fenced") -
                                              f0.CounterTotal("ft.deltas_fenced")));
    }

    for (int leg = 0; leg < 2 * kMigrationTripsPerCycle; ++leg) {
      const bool away = leg % 2 == 0;
      const auto f0 = c_.MetricsSnapshot();
      t0 = NowNs();
      const bool moved = c_.MigrateShard(0, away ? 1 : 0);
      WaitIdleChecked(c_, ledger_, "migration, " + at);
      const double t_mig = Seconds(NowNs() - t0) * 1e3;
      ledger_.Check(moved, std::string("MigrateShard ") + (away ? "away, " : "back, ") + at);
      ledger_.Check(CacheHash(c_, workers) == golden,
                    "serving caches equal after migration, " + at);
      const auto f1 = c_.MetricsSnapshot();
      if (s == nullptr) continue;
      s->migrate_ms.push_back(t_mig);
      const auto m0 = f0.LatencyTotal("elastic.migration_us");
      const auto m1 = f1.LatencyTotal("elastic.migration_us");
      const double mn = static_cast<double>(m1.count() - m0.count());
      s->mig_ms.push_back(mn > 0 ? (HistSum(m1) - HistSum(m0)) / mn / 1e3 : 0);
      s->mig_replayed.push_back(static_cast<double>(f1.CounterTotal("elastic.records_replayed") -
                                                    f0.CounterTotal("elastic.records_replayed")));
      s->mig_bytes.push_back(static_cast<double>(f1.CounterTotal("elastic.ckpt_bytes_moved") -
                                                 f0.CounterTotal("elastic.ckpt_bytes_moved")));
    }
  }

  const Workload& w_;
  const RunOptions& options_;
  Ledger& ledger_;
  ThreadedCluster& c_;
  const Inputs& in_;
  EdgeFeed feed_;
  const gnn::GraphSageEncoder encoder_;
  std::size_t seed_pos_ = 0;
};

}  // namespace

void RunClusterPhases(const Workload& w, const RunOptions& options, Ledger& ledger,
                      std::vector<Metric>& e2e, std::vector<Metric>& layers) {
  Samples s;
  // Set-up, several times; the last cluster stays up for the rounds.
  SetupResult setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = SetupResult{};  // tear the previous cluster down first
    setup = SetUp(w, options.seed, ledger);
    s.setup_s.push_back(setup.seconds);
    s.gen_ns.push_back(setup.inputs.gen_seconds * 1e9 /
                       static_cast<double>(setup.inputs.initial.size() + setup.inputs.pool.size()));
  }
  ThreadedCluster& c = *setup.cluster;
  Run run(w, options, ledger, c, setup.inputs);
  run.WarmUp();
  const int rounds = std::max(3, static_cast<int>(options.seconds / kRoundSeconds));
  for (int r = 0; r < rounds; ++r) run.Round(r, s);
  run.CheckCachedParity();

  e2e.push_back({"setup_s", Median(s.setup_s), "s"});
  e2e.push_back({"query_p50_us", Median(s.query_p50_us), "us"});
  e2e.push_back({"query_qps_sat", Median(s.qps), "1/s"});
  e2e.push_back({"ingest_updates_per_s", Median(s.drain_rates), "1/s"});
  e2e.push_back({"freshness_p50_ms", Median(s.fresh_p50_ms), "ms"});
  e2e.push_back({"recovery_ms", Median(s.recovery_ms), "ms"});
  e2e.push_back({"checkpoint_ms", Median(s.ckpt_ms), "ms"});
  e2e.push_back({"migrate_ms", Median(s.migrate_ms), "ms"});
  e2e.push_back({"rss_peak_mb", PeakRssMb(), "MB"});
  if (!options.trace) return;

  // ---- program-side per-layer rows of the threaded run.
  const auto n_lat = static_cast<std::uint64_t>(s.latency_ns.size());
  const double q999 = TailSupported(n_lat, 0.999) ? 0.999 : HighestSupported(n_lat, {0.9, 0.99});
  const double q99 = TailSupported(n_lat, 0.99) ? 0.99 : HighestSupported(n_lat, {0.9});
  layers.push_back({"query.p90_us", Median(s.query_p90_us), "us"});
  layers.push_back({"serve.tail_p99_us", Percentile(s.latency_ns, q99) / 1e3, "us"});
  layers.push_back({"serve.tail_p999_us", Percentile(s.latency_ns, q999) / 1e3, "us"});
  layers.push_back({"serve.tail_samples", static_cast<double>(n_lat), "count"});
  const std::uint64_t n_fresh = BucketTotal(s.fresh);
  layers.push_back({"freshness.tail_p99_ms",
                    BucketQuantile(s.fresh, TailSupported(n_fresh, 0.99) ? 0.99 : 0.9) / 1e3,
                    "ms"});
  layers.push_back({"freshness.tail_samples", static_cast<double>(n_fresh), "count"});
  layers.push_back({"gen.late_max_ms", static_cast<double>(s.max_late_ns) / 1e6, "ms"});
  layers.push_back({"gen.update_ns", Median(s.gen_ns), "ns"});
  for (const char* stage : kStages) {
    const std::string family = std::string("pipeline.stage.") + stage;
    layers.push_back({family + "_us_p50", BucketQuantile(s.stages[family], 0.5), "us"});
  }
  layers.push_back({"diss.threaded_wire_bytes_per_update",
                    s.updates_processed > 0 ? s.diss_bytes / s.updates_processed : 0, "B"});
  run.MeasureServeWrapper(layers);
  double kv_keys = 0, kv_mem = 0, kv_disk_reads = 0;
  for (const auto& st : c.ServingCacheStats()) {
    kv_keys += static_cast<double>(st.num_keys);
    kv_mem += static_cast<double>(st.memory_bytes) / (1024.0 * 1024.0);
    kv_disk_reads += static_cast<double>(st.disk_reads);
  }
  layers.push_back({"kv.num_keys", kv_keys, "count"});
  layers.push_back({"kv.memory_mb", kv_mem, "MB"});
  layers.push_back({"kv.disk_reads", kv_disk_reads, "count"});
  layers.push_back(
      {"agg.hit_rate",
       s.lookups > 0 ? static_cast<double>(s.hits) / static_cast<double>(s.lookups) : 0, "ratio"});
  layers.push_back(
      {"agg.stale_recompute_per_query",
       s.queries > 0 ? static_cast<double>(s.stale) / static_cast<double>(s.queries) : 0,
       "count"});
  layers.push_back({"ft.replay_ms", Median(s.replay_ms), "ms"});
  layers.push_back({"ft.records_replayed", Median(s.replayed), "count"});
  layers.push_back({"fence.dropped_per_recovery", Median(s.fenced), "count"});
  layers.push_back({"elastic.migration_ms", Median(s.mig_ms), "ms"});
  layers.push_back({"elastic.records_replayed", Median(s.mig_replayed), "count"});
  layers.push_back({"elastic.ckpt_bytes_moved", Median(s.mig_bytes), "B"});
}

}  // namespace helios::perfbench
