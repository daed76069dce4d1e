// The traced half of the benchmark: the run's generated inputs replayed on
// one thread through each layer's public calls — mq, SamplingShardCore,
// ServingBatchBuilder/Reader, ft::EpochFence, ServingCore,
// gnn::GraphSageEncoder and store::SegmentStore — with a span around every
// call, so each layer's self time and counts are measured where the work
// happens. Replay ops alternate traced and untraced to price the tracing.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "ft/fence.h"
#include "gnn/graphsage.h"
#include "graph/update_codec.h"
#include "helios/messages.h"
#include "helios/sampling_core.h"
#include "helios/serving_core.h"
#include "mq/mq.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spans.h"
#include "store/segment_store.h"

namespace helios::perfbench {

namespace {

constexpr std::size_t kBatch = 8;             // updates per replayed poll batch
constexpr std::size_t kWindowUpdates = 16000;  // timed window, updates
constexpr std::size_t kWindowQueries = 8000;   // timed window, queries
constexpr std::size_t kEmbedOps = 1000;        // Serve + EmbedSeed reference ops
constexpr int kStoreReps = 3;
constexpr const char* kTopic = "updates";
constexpr std::uint32_t kUpdateLane = 0;
constexpr std::uint32_t kQueryLane = 1;

struct Counts {
  std::uint64_t updates = 0;
  std::uint64_t emitting_updates = 0;  // updates that emitted >= 1 serving message
  std::uint64_t polled = 0;            // records read from the updates topic
  std::uint64_t mq_bytes = 0;          // bytes of update + control records sent
  std::uint64_t frames = 0;
  std::uint64_t messages = 0;          // messages in frames (after coalescing)
  std::uint64_t coalesced = 0;         // deltas folded into an earlier message
  std::uint64_t wire_bytes = 0;
  std::uint64_t queries = 0;  // ServeInto calls
  std::uint64_t keys = 0, nodes = 0, features = 0, missing = 0;
};

class Pipeline {
 public:
  Pipeline(const Workload& w, const helios::QueryPlan& plan, const gnn::GraphSageEncoder& encoder,
           std::uint64_t seed, obs::MetricsRegistry* registry)
      : w_(w), plan_(plan), encoder_(encoder), seed_(seed), map_(kTopology), producer_(broker_) {
    broker_.CreateTopic(kTopic, map_.TotalShards());
    for (std::uint32_t s = 0; s < map_.TotalShards(); ++s) {
      consumers_.push_back(std::make_unique<mq::Consumer>(broker_, "replay", kTopic,
                                                          std::vector<std::uint32_t>{s}));
      cores_.push_back(std::make_unique<helios::SamplingShardCore>(
          plan, map_, s, seed, helios::SamplingShardCore::Options{0, registry}));
    }
    outs_.resize(map_.TotalShards());
    for (std::uint32_t sew = 0; sew < map_.serving_workers; ++sew) {
      helios::ServingCore::Options so;
      so.registry = registry;
      so.aggregate_cache_entries = w.agg_entries;
      so.aggregate_staleness_us = w.agg_staleness_us;
      serving_.push_back(std::make_unique<helios::ServingCore>(plan, sew, so));
    }
    fences_.resize(map_.serving_workers);
  }

  // One poll batch: produce, poll every shard, sample, disseminate, fence
  // and apply. Control deltas ride the updates topic and are sampled in a
  // later batch, as in the threaded runtime.
  void IngestBatch(const graph::GraphUpdate* batch, std::size_t n, SpanRecorder* rec,
                   std::uint64_t op) {
    ScopedSpan root(rec, "update", op, kUpdateLane);
    for (std::size_t i = 0; i < n; ++i) {
      ScopedSpan span(rec, "mq.produce", op, kUpdateLane);
      Publish(batch[i]);
    }
    for (std::uint32_t s = 0; s < map_.TotalShards(); ++s) {
      records_.clear();
      {
        ScopedSpan span(rec, "mq.poll", op, kUpdateLane);
        consumers_[s]->Poll(512, records_);
      }
      counts.polled += records_.size();
      helios::SamplingShardCore& core = *cores_[s];
      helios::SamplingShardCore::Outputs& out = outs_[s];
      for (const mq::Record& r : records_) {
        if (helios::IsCtrlRecord(r.value)) {
          ScopedSpan span(rec, "sampling.delta", op, kUpdateLane);
          if (helios::DecodeCtrlRecord(r.value, delta_)) {
            if (core.AdmitCtrl(delta_)) core.OnSubscriptionDelta(delta_, 1, out);
          } else {
            ++bad_records;
          }
        } else {
          ScopedSpan span(rec, "sampling", op, kUpdateLane);
          const std::size_t before = out.to_serving.total_messages();
          if (graph::DecodeUpdate(r.value, update_)) {
            core.OnGraphUpdate(update_, 1, out);
            ++counts.updates;
            if (out.to_serving.total_messages() > before) ++counts.emitting_updates;
          } else {
            ++bad_records;
          }
        }
        core.set_applied_offset(r.offset + 1);
      }
      consumers_[s]->Commit();
      Dispatch(s, rec, op);
    }
  }

  // Ingests everything still queued (control deltas of the last batches).
  void Settle() {
    for (int round = 0; round < 64; ++round) {
      bool any = false;
      for (std::uint32_t s = 0; s < map_.TotalShards(); ++s) {
        any = any || consumers_[s]->Lag() > 0;
      }
      if (!any) return;
      IngestBatch(nullptr, 0, nullptr, 0);
    }
  }

  // The workload's query: route + ServeInto, or route + EmbedSeedCached.
  bool Query(graph::VertexId seed, SpanRecorder* rec, std::uint64_t op) {
    ScopedSpan root(rec, "query", op, kQueryLane);
    std::uint32_t worker = 0;
    {
      ScopedSpan span(rec, "route", op, kQueryLane);
      worker = map_.ServingWorkerOf(seed);
    }
    if (w_.query == QueryKind::kServe) {
      {
        ScopedSpan span(rec, "serve", op, kQueryLane);
        serving_[worker]->ServeInto(seed, sample_, scratch_);
      }
      CountServe();
      return sample_.bad_cells == 0;
    }
    bool ok = false;
    {
      ScopedSpan span(rec, "agg.embed_cached", op, kQueryLane);
      ok = encoder_.EmbedSeedCached(*serving_[worker], seed, cached_, embedding_);
    }
    hits += cached_.result.cache_hits;
    lookups += cached_.result.cache_hits + cached_.result.cache_misses +
               cached_.result.stale_recomputes;
    return ok && cached_.result.bad_cells == 0;
  }

  // The uncached reference: ServeInto + EmbedSeed.
  bool Embed(graph::VertexId seed, SpanRecorder* rec, std::uint64_t op) {
    ScopedSpan root(rec, "embed", op, kQueryLane);
    std::uint32_t worker = 0;
    {
      ScopedSpan span(rec, "route", op, kQueryLane);
      worker = map_.ServingWorkerOf(seed);
    }
    {
      ScopedSpan span(rec, "serve", op, kQueryLane);
      serving_[worker]->ServeInto(seed, sample_, scratch_);
    }
    {
      ScopedSpan span(rec, "gnn.embed", op, kQueryLane);
      embedding_ = encoder_.EmbedSeed(sample_);
    }
    CountServe();
    return sample_.bad_cells == 0 && !embedding_.empty();
  }

  // Writes every shard as a checkpoint into a fresh store, then restores
  // each into a new core. Returns the serialized bytes (0 on failure).
  std::uint64_t CheckpointAndRestore(const std::string& path, SpanRecorder* rec,
                                     obs::MetricsRegistry* registry, Ledger& ledger) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    store::StoreOptions so;
    so.path = path;
    so.meta_clusters = 8;
    so.group_commit_bytes = 0;  // one explicit commit per round
    std::uint64_t bytes = 0;
    {
      auto opened = store::SegmentStore::Open(so);
      ledger.Check(opened.ok(), "replay store opens");
      if (!opened.ok()) return 0;
      store::SegmentStore& st = *opened.value();
      ScopedSpan round(rec, "checkpoint", 0, kUpdateLane);
      for (std::uint32_t s = 0; s < map_.TotalShards(); ++s) {
        graph::ByteWriter wr;
        {
          ScopedSpan span(rec, "ckpt.serialize", 0, kUpdateLane);
          cores_[s]->Serialize(wr);
        }
        const std::string_view data(wr.buffer().data(), wr.buffer().size());
        bytes += data.size();
        const std::string name = "ckpt/shard-" + std::to_string(s);
        auto seg = st.Create(name);
        ledger.Check(seg.ok(), "store Create");
        if (!seg.ok()) return 0;
        {
          ScopedSpan span(rec, "store.append", 0, kUpdateLane);
          ledger.Check(st.Append(seg.value(), "", data).ok(), "store Append");
        }
        ledger.Check(st.Seal(seg.value()).ok() && st.SetNamed(name, seg.value()).ok(),
                     "store Seal + SetNamed");
      }
      {
        ScopedSpan span(rec, "store.commit", 0, kUpdateLane);
        ledger.Check(st.Commit().ok(), "store Commit");
      }
      st.PublishTo(registry, {{"owner", "replay"}});
    }
    auto opened = store::SegmentStore::Open(so, /*create=*/false);
    ledger.Check(opened.ok(), "replay store reopens");
    if (!opened.ok()) return 0;
    const store::SegmentStore& st = *opened.value();
    ScopedSpan span(rec, "ft.restore", 0, kUpdateLane);
    for (std::uint32_t s = 0; s < map_.TotalShards(); ++s) {
      auto seg = st.GetNamed("ckpt/shard-" + std::to_string(s));
      std::string data;
      const bool read = seg.ok() && st.Scan(seg.value(), [&data](const store::RecordLocator&,
                                                                  std::string_view,
                                                                  std::string_view v) {
                                      data.assign(v);
                                      return true;
                                    }).ok();
      helios::SamplingShardCore restored(plan_, map_, s, seed_);
      graph::ByteReader r(data);
      const bool ok = read && helios::SamplingShardCore::Deserialize(r, restored) &&
                      restored.applied_offset() == cores_[s]->applied_offset() &&
                      restored.epoch() == cores_[s]->epoch();
      ledger.Check(ok, "checkpoint of shard " + std::to_string(s) + " restores");
    }
    return bytes;
  }

  Counts counts;
  std::uint64_t bad_records = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t hits = 0, lookups = 0;

 private:
  void Publish(const graph::GraphUpdate& u) {
    graph::VertexId owner = 0;
    if (const auto* v = std::get_if<graph::VertexUpdate>(&u)) {
      owner = v->id;
    } else {
      owner = std::get<graph::EdgeUpdate>(u).src;  // by-source placement
    }
    std::string value = graph::EncodeUpdate(u);
    counts.mq_bytes += value.size();
    producer_.Send(kTopic, std::string(), std::move(value),
                   static_cast<int>(map_.ShardOf(owner)));
  }

  void Dispatch(std::uint32_t s, SpanRecorder* rec, std::uint64_t op) {
    helios::SamplingShardCore::Outputs& out = outs_[s];
    for (const std::uint32_t sew : out.to_serving.active()) {
      helios::ServingBatchBuilder& b = out.to_serving.builder(sew);
      if (b.empty()) continue;
      ++counts.frames;
      counts.messages += b.size();
      counts.coalesced += b.coalesced();
      const std::string* frame = nullptr;
      {
        ScopedSpan span(rec, "diss.encode", op, kUpdateLane);
        b.Stamp(s, cores_[s]->epoch());
        frame = &b.EncodeToArena();
      }
      counts.wire_bytes += frame->size();
      Deliver(sew, *frame, rec, op);
    }
    for (const auto& [shard, delta] : out.to_shards) {
      ScopedSpan span(rec, "mq.produce", op, kUpdateLane);
      std::string value = helios::EncodeCtrlRecord(delta);
      counts.mq_bytes += value.size();
      producer_.Send(kTopic, std::string(), std::move(value), static_cast<int>(shard));
    }
    out.Clear();
  }

  void Deliver(std::uint32_t sew, const std::string& frame, SpanRecorder* rec, std::uint64_t op) {
    messages_.clear();
    std::uint64_t src = 0;
    std::uint32_t epoch = 0;
    {
      ScopedSpan span(rec, "diss.decode", op, kUpdateLane);
      helios::ServingBatchReader reader(frame);
      src = reader.src_shard();
      epoch = reader.epoch();
      helios::ServingMessage m;
      while (reader.Next(m)) messages_.push_back(std::move(m));
      if (!reader.ok()) ++bad_frames;
    }
    ScopedSpan span(rec, "fence", op, kUpdateLane);
    ft::EpochFence& fence = fences_[sew];
    helios::ServingCore& core = *serving_[sew];
    const ft::EpochFence::FrameToken token = fence.BeginFrame(src, epoch);
    core.SetApplySource(static_cast<std::uint32_t>(src));
    for (const helios::ServingMessage& m : messages_) {
      helios::FenceInto(fence, src, token, m, [&](const helios::ServingMessage& admitted) {
        ScopedSpan apply(rec, "apply", op, kUpdateLane);
        core.Apply(admitted);
      });
    }
  }

  void CountServe() {
    ++counts.queries;
    counts.keys += sample_.sample_lookups + sample_.feature_lookups;
    counts.nodes += sample_.TotalNodes();
    counts.features += sample_.features.size();
    counts.missing += sample_.missing_cells + sample_.missing_features;
  }

  const Workload& w_;
  const helios::QueryPlan& plan_;
  const gnn::GraphSageEncoder& encoder_;
  std::uint64_t seed_;
  helios::ShardMap map_;
  mq::Broker broker_;
  mq::Producer producer_;
  std::vector<std::unique_ptr<mq::Consumer>> consumers_;
  std::vector<std::unique_ptr<helios::SamplingShardCore>> cores_;
  std::vector<helios::SamplingShardCore::Outputs> outs_;
  std::vector<std::unique_ptr<helios::ServingCore>> serving_;
  std::vector<ft::EpochFence> fences_;

  std::vector<mq::Record> records_;
  graph::GraphUpdate update_;
  helios::SubscriptionDelta delta_;
  std::vector<helios::ServingMessage> messages_;
  helios::SampledSubgraph sample_;
  helios::ServeScratch scratch_;
  gnn::CachedEmbedScratch cached_;
  std::vector<float> embedding_;
};

double Mean(std::int64_t total, std::uint64_t n) {
  return n > 0 ? static_cast<double>(total) / static_cast<double>(n) : 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void RunTracedReplay(const Workload& w, const RunOptions& options, Ledger& ledger,
                     std::vector<Metric>& layers) {
  const Inputs in = MakeInputs(w, options.seed);
  const helios::QueryPlan plan = PlanFor(w, in.spec);
  gnn::SageConfig config;
  config.input_dim = in.spec.schema.feature_dim;
  config.hidden_dim = 16;
  config.output_dim = 16;
  const gnn::GraphSageEncoder encoder(config);
  obs::MetricsRegistry registry;
  Pipeline p(w, plan, encoder, options.seed, &registry);

  // Untraced: the set-up ingest, so the window starts from the same state
  // the cluster served from.
  for (std::size_t i = 0; i < in.initial.size(); i += 512) {
    p.IngestBatch(in.initial.data() + i, std::min<std::size_t>(512, in.initial.size() - i),
                  nullptr, 0);
  }
  p.Settle();

  EdgeFeed feed(in);
  std::vector<graph::GraphUpdate> window;
  window.reserve(kWindowUpdates);
  for (std::size_t i = 0; i < kWindowUpdates; ++i) window.push_back(feed.Next());

  // Timed window: update batches with queries spread evenly between them.
  // Even-numbered ops are traced, odd ones only timed end to end.
  SpanRecorder rec;
  const auto before = registry.TakeSnapshot();
  p.counts = Counts{};  // from here on: the window, then the reference ops
  const std::int64_t base_ns = NowNs();
  std::int64_t untraced_update_ns = 0, untraced_query_ns = 0;
  std::uint64_t untraced_updates = 0, untraced_queries = 0, traced_updates = 0;
  std::uint64_t traced_polled = 0;
  std::uint64_t op = 1;
  std::size_t queries_done = 0;
  const std::size_t batches = kWindowUpdates / kBatch;
  for (std::size_t b = 0; b < batches; ++b) {
    const bool traced = b % 2 == 0;
    const std::int64_t t0 = NowNs();
    const std::uint64_t polled0 = p.counts.polled;
    p.IngestBatch(window.data() + b * kBatch, kBatch, traced ? &rec : nullptr, op++);
    if (traced) {
      traced_updates += kBatch;
      traced_polled += p.counts.polled - polled0;
    } else {
      untraced_update_ns += NowNs() - t0;
      untraced_updates += kBatch;
    }
    const std::size_t upto = kWindowQueries * (b + 1) / batches;
    for (; queries_done < upto; ++queries_done) {
      const graph::VertexId seed = in.seeds[queries_done % in.seeds.size()];
      const bool q_traced = queries_done % 2 == 0;
      const std::int64_t q0 = NowNs();
      ledger.Check(p.Query(seed, q_traced ? &rec : nullptr, op++), "replayed query");
      if (!q_traced) {
        untraced_query_ns += NowNs() - q0;
        ++untraced_queries;
      }
    }
  }
  p.Settle();
  const auto after = registry.TakeSnapshot();

  for (std::size_t i = 0; i < kEmbedOps; ++i) {
    ledger.Check(p.Embed(in.seeds[(i * 31) % in.seeds.size()], &rec, op++),
                 "replayed Serve + EmbedSeed");
  }

  std::vector<double> restore_ms;
  std::uint64_t ckpt_bytes = 0;
  for (int rep = 0; rep < kStoreReps; ++rep) {
    const std::size_t from = rec.spans().size();
    ckpt_bytes = p.CheckpointAndRestore(options.out_dir + "/replay.hstore", &rec, &registry,
                                        ledger);
    for (std::size_t i = from; i < rec.spans().size(); ++i) {
      const Span& s = rec.spans()[i];
      if (std::string(s.name) == "ft.restore") {
        restore_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
  }
  ledger.Check(p.bad_records == 0 && p.bad_frames == 0, "replayed records and frames decode");
  const auto store_snap = registry.TakeSnapshot();

  obs::TraceBuffer trace(rec.spans().size() + 64);
  rec.Export(trace, base_ns);
  const util::Status written = trace.WriteFile(options.out_dir + "/trace.json");
  ledger.Check(written.ok(), "Chrome trace written: " + written.message());

  // ---- per-layer metrics
  auto totals = rec.Totals();
  auto layer = [&totals](const char* name) -> const LayerTotals& { return totals[name]; };
  const Counts& d = p.counts;
  const LayerTotals& produce = layer("mq.produce");
  const LayerTotals& poll = layer("mq.poll");
  const LayerTotals& sampling = layer("sampling");
  const LayerTotals& delta = layer("sampling.delta");
  const LayerTotals& encode = layer("diss.encode");
  const LayerTotals& decode = layer("diss.decode");
  const LayerTotals& fence = layer("fence");
  const LayerTotals& apply = layer("apply");
  const LayerTotals& update = layer("update");
  const LayerTotals& query = layer("query");
  const LayerTotals& serve = layer("serve");
  const LayerTotals& route = layer("route");
  const LayerTotals& gnn_embed = layer("gnn.embed");
  const LayerTotals& agg = layer("agg.embed_cached");
  const LayerTotals& append = layer("store.append");

  const double offered = static_cast<double>(after.CounterTotal("sampling.edges_offered") -
                                             before.CounterTotal("sampling.edges_offered"));
  const double sub_deltas = static_cast<double>(after.CounterTotal("sampling.sub_deltas_sent") -
                                                before.CounterTotal("sampling.sub_deltas_sent"));
  const double upd = static_cast<double>(d.updates);

  layers.push_back({"route.ns", Mean(route.total_ns, route.count), "ns"});
  layers.push_back({"serve.us_p50", Percentile(serve.durations_ns, 0.5) / 1e3, "us"});
  layers.push_back({"serve.us_p90", Percentile(serve.durations_ns, 0.9) / 1e3, "us"});
  const double nq = static_cast<double>(d.queries);
  layers.push_back({"serve.nodes_per_query", Ratio(static_cast<double>(d.nodes), nq), "count"});
  layers.push_back(
      {"serve.features_per_query", Ratio(static_cast<double>(d.features), nq), "count"});
  layers.push_back(
      {"serve.missing_per_query", Ratio(static_cast<double>(d.missing), nq), "count"});
  layers.push_back({"kv.keys_per_query", Ratio(static_cast<double>(d.keys), nq), "count"});
  layers.push_back({"gnn.embed_us_p50", Percentile(gnn_embed.durations_ns, 0.5) / 1e3, "us"});
  layers.push_back({"agg.embed_cached_us_p50", Percentile(agg.durations_ns, 0.5) / 1e3, "us"});
  layers.push_back({"agg.replay_hit_rate",
                    Ratio(static_cast<double>(p.hits), static_cast<double>(p.lookups)), "ratio"});
  layers.push_back({"mq.produce_ns", Mean(produce.total_ns, produce.count), "ns"});
  layers.push_back({"mq.poll_ns", Ratio(static_cast<double>(poll.total_ns), static_cast<double>(traced_polled)), "ns"});
  layers.push_back({"mq.bytes_per_update", Ratio(static_cast<double>(d.mq_bytes), upd), "B"});
  layers.push_back({"sampling.ns_per_update", Mean(sampling.self_ns, sampling.count), "ns"});
  layers.push_back({"sampling.delta_ns", Mean(delta.self_ns, delta.count), "ns"});
  layers.push_back({"sampling.edges_offered_per_update", Ratio(offered, upd), "count"});
  layers.push_back({"sampling.sub_deltas_per_update", Ratio(sub_deltas, upd), "count"});
  layers.push_back(
      {"sampling.emit_frac", Ratio(static_cast<double>(d.emitting_updates), upd), "ratio"});
  layers.push_back({"diss.encode_ns_per_frame", Mean(encode.total_ns, encode.count), "ns"});
  layers.push_back({"diss.decode_ns_per_frame", Mean(decode.total_ns, decode.count), "ns"});
  layers.push_back({"diss.msgs_per_frame",
                    Ratio(static_cast<double>(d.messages), static_cast<double>(d.frames)),
                    "count"});
  layers.push_back(
      {"diss.wire_bytes_per_update", Ratio(static_cast<double>(d.wire_bytes), upd), "B"});
  layers.push_back({"diss.coalesced_frac",
                    Ratio(static_cast<double>(d.coalesced),
                          static_cast<double>(d.messages + d.coalesced)),
                    "ratio"});
  layers.push_back({"fence.ns_per_frame", Mean(fence.self_ns, fence.count), "ns"});
  layers.push_back({"apply.ns_per_msg", Mean(apply.total_ns, apply.count), "ns"});
  layers.push_back({"store.ckpt_bytes", static_cast<double>(ckpt_bytes), "B"});
  const double commits = static_cast<double>(store_snap.GaugeTotal("store.commits"));
  layers.push_back({"store.fsyncs_per_commit",
                    Ratio(static_cast<double>(store_snap.GaugeTotal("store.fsyncs")), commits),
                    "count"});
  layers.push_back({"store.append_ns_per_kb",
                    Ratio(static_cast<double>(append.total_ns),
                          static_cast<double>(ckpt_bytes) * kStoreReps / 1024.0),
                    "ns"});
  layers.push_back({"ft.restore_ms", Median(restore_ms), "ms"});

  // Residual: share of a traced op's time no layer span covers. Overhead:
  // traced vs untraced mean time per op of the same kind.
  layers.push_back({"trace.residual_frac.update",
                    Ratio(static_cast<double>(update.self_ns), static_cast<double>(update.total_ns)),
                    "ratio"});
  layers.push_back({"trace.residual_frac.query",
                    Ratio(static_cast<double>(query.self_ns), static_cast<double>(query.total_ns)),
                    "ratio"});
  const double traced_per_update = Ratio(static_cast<double>(update.total_ns),
                                         static_cast<double>(traced_updates));
  const double plain_per_update = Ratio(static_cast<double>(untraced_update_ns),
                                        static_cast<double>(untraced_updates));
  layers.push_back({"trace.overhead_frac.update", Ratio(traced_per_update, plain_per_update) - 1,
                    "ratio"});
  const double traced_per_query = Mean(query.total_ns, query.count);
  const double plain_per_query = Mean(untraced_query_ns, untraced_queries);
  layers.push_back(
      {"trace.overhead_frac.query", Ratio(traced_per_query, plain_per_query) - 1, "ratio"});
  layers.push_back({"trace.spans", static_cast<double>(rec.spans().size()), "count"});
}

}  // namespace helios::perfbench
