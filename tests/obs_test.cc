// Tests for the observability layer: MetricsRegistry handles + hierarchical
// aggregation, the StageTracer under a hand-advanced clock, the Chrome-trace
// buffer, and — the load-bearing property — that the *same* instrumentation
// code path runs under wall time (ThreadedCluster) and virtual time (the
// heliossim DES emulator).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "bench/harness.h"
#include "gen/datasets.h"
#include "gen/update_stream.h"
#include "helios/messages.h"
#include "helios/threaded_cluster.h"
#include "obs/freshness.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace helios::obs {
namespace {

// ------------------------------------------------------------- registry

TEST(MetricsRegistry, SameNameAndLabelsYieldSameHandle) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x.events", {{"shard", "1"}, {"worker", "0"}});
  // Label order must not matter: cells key on the canonical rendering.
  Counter* b = reg.GetCounter("x.events", {{"worker", "0"}, {"shard", "1"}});
  EXPECT_EQ(a, b);
  Counter* c = reg.GetCounter("x.events", {{"shard", "2"}, {"worker", "0"}});
  EXPECT_NE(a, c);
  Counter* d = reg.GetCounter("x.events");
  EXPECT_NE(a, d);
}

TEST(MetricsRegistry, CanonicalLabelsSortedByKey) {
  EXPECT_EQ(CanonicalLabels({}), "");
  EXPECT_EQ(CanonicalLabels({{"worker", "3"}, {"shard", "1"}}), "{shard=1,worker=3}");
}

TEST(MetricsRegistry, CounterTotalSumsAllCells) {
  MetricsRegistry reg;
  reg.GetCounter("ops", {{"shard", "0"}})->Add(3);
  reg.GetCounter("ops", {{"shard", "1"}})->Add(4);
  reg.GetCounter("other")->Add(100);
  const auto snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.CounterTotal("ops"), 7u);
  EXPECT_EQ(snap.CounterTotal("other"), 100u);
  EXPECT_EQ(snap.CounterTotal("absent"), 0u);
}

TEST(MetricsRegistry, GaugeSetAddAndTotal) {
  MetricsRegistry reg;
  Gauge* g0 = reg.GetGauge("mem", {{"node", "0"}});
  g0->Set(10);
  g0->Add(-4);
  reg.GetGauge("mem", {{"node", "1"}})->Set(5);
  EXPECT_EQ(g0->Value(), 6);
  EXPECT_EQ(reg.TakeSnapshot().GaugeTotal("mem"), 11);
}

TEST(MetricsRegistry, LatencyTotalMergesCells) {
  MetricsRegistry reg;
  reg.GetLatency("lat", {{"w", "0"}})->Record(10);
  reg.GetLatency("lat", {{"w", "0"}})->Record(20);
  reg.GetLatency("lat", {{"w", "1"}})->Record(30);
  const auto merged = reg.TakeSnapshot().LatencyTotal("lat");
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_GE(merged.max(), 30u);
}

// Per-shard cells fold into per-worker totals, then into the cluster total:
// the shard -> worker -> cluster hierarchy of the paper's deployments.
TEST(MetricsRegistry, CounterByGroupsByLabelKey) {
  MetricsRegistry reg;
  reg.GetCounter("upd", {{"worker", "0"}, {"shard", "0"}})->Add(1);
  reg.GetCounter("upd", {{"worker", "0"}, {"shard", "1"}})->Add(2);
  reg.GetCounter("upd", {{"worker", "1"}, {"shard", "2"}})->Add(4);
  reg.GetCounter("upd")->Add(8);  // no labels: groups under ""
  const auto snap = reg.TakeSnapshot();
  const auto by_worker = snap.CounterBy("upd", "worker");
  ASSERT_EQ(by_worker.size(), 3u);
  EXPECT_EQ(by_worker.at("0"), 3u);
  EXPECT_EQ(by_worker.at("1"), 4u);
  EXPECT_EQ(by_worker.at(""), 8u);
  EXPECT_EQ(snap.CounterTotal("upd"), 15u);
}

TEST(MetricsRegistry, LatencyByGroupsByLabelKey) {
  MetricsRegistry reg;
  reg.GetLatency("lat", {{"worker", "0"}, {"shard", "0"}})->Record(5);
  reg.GetLatency("lat", {{"worker", "0"}, {"shard", "1"}})->Record(7);
  reg.GetLatency("lat", {{"worker", "1"}, {"shard", "2"}})->Record(9);
  const auto by_worker = reg.TakeSnapshot().LatencyBy("lat", "worker");
  ASSERT_EQ(by_worker.size(), 2u);
  EXPECT_EQ(by_worker.at("0").count(), 2u);
  EXPECT_EQ(by_worker.at("1").count(), 1u);
}

TEST(MetricsRegistry, DumpRendersOneLinePerCell) {
  MetricsRegistry reg;
  reg.GetCounter("a.ops", {{"shard", "1"}})->Add(42);
  reg.GetGauge("b.mem")->Set(-5);
  reg.GetLatency("c.lat")->Record(100);
  const std::string dump = reg.Dump();
  EXPECT_NE(dump.find("a.ops{shard=1} 42\n"), std::string::npos) << dump;
  EXPECT_NE(dump.find("b.mem -5\n"), std::string::npos) << dump;
  EXPECT_NE(dump.find("c.lat n=1"), std::string::npos) << dump;
}

TEST(MetricsRegistry, ToJsonContainsAllFamilies) {
  MetricsRegistry reg;
  reg.GetCounter("ops", {{"shard", "1"}})->Add(2);
  reg.GetGauge("mem")->Set(9);
  reg.GetLatency("lat")->Record(3);
  const std::string json = reg.TakeSnapshot().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ops\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\":\"1\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":["), std::string::npos);
  EXPECT_NE(json.find("\"latencies\":["), std::string::npos);
  EXPECT_NE(json.find("\"hist\":{"), std::string::npos);
}

// ---------------------------------------------------------- stage tracer

TEST(StageTracer, ScopedStageRecordsUnderManualClock) {
  MetricsRegistry reg;
  ManualClock clock;
  StageTracer tracer(&reg, &clock);
  {
    ScopedStage s(tracer, Stage::kSample);
    clock.Advance(250);
  }
  const auto hist = reg.TakeSnapshot().LatencyTotal("pipeline.stage.sample");
  ASSERT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.min(), 250u);
}

TEST(StageTracer, LabelsSeparateWorkerCells) {
  MetricsRegistry reg;
  ManualClock clock;
  StageTracer t0(&reg, &clock, nullptr, {{"worker", "0"}});
  StageTracer t1(&reg, &clock, nullptr, {{"worker", "1"}});
  t0.RecordDuration(Stage::kCascade, 10);
  t1.RecordDuration(Stage::kCascade, 20);
  const auto snap = reg.TakeSnapshot();
  const auto by_worker = snap.LatencyBy("pipeline.stage.cascade", "worker");
  ASSERT_EQ(by_worker.size(), 2u);
  EXPECT_EQ(by_worker.at("0").max(), 10u);
  EXPECT_EQ(by_worker.at("1").max(), 20u);
  EXPECT_EQ(snap.LatencyTotal("pipeline.stage.cascade").count(), 2u);
}

TEST(StageTracer, EndToEndAcceptsZeroOriginRejectsNegative) {
  MetricsRegistry reg;
  ManualClock clock;
  StageTracer tracer(&reg, &clock);
  // Virtual-time saturation runs offer everything at t=0: origin 0 is valid.
  tracer.RecordEndToEnd(0, 500);
  tracer.RecordEndToEnd(-1, 500);  // unstamped: dropped
  tracer.RecordEndToEnd(400, 500);
  const auto hist = reg.TakeSnapshot().LatencyTotal("pipeline.ingest_e2e");
  ASSERT_EQ(hist.count(), 2u);
  EXPECT_EQ(hist.min(), 100u);
  EXPECT_EQ(hist.max(), 500u);
}

TEST(StageTracer, StageNamesCoverAllStages) {
  EXPECT_STREQ(StageName(Stage::kIngest), "ingest");
  EXPECT_STREQ(StageName(Stage::kSample), "sample");
  EXPECT_STREQ(StageName(Stage::kCascade), "cascade");
  EXPECT_STREQ(StageName(Stage::kCacheApply), "cache_apply");
  EXPECT_STREQ(StageName(Stage::kServe), "serve");
}

// ----------------------------------------------------------- trace buffer

TEST(TraceBuffer, EmitsChromeTraceJson) {
  TraceBuffer trace;
  trace.SetProcessName(3, "sampling-worker-3");
  trace.AddComplete("sample", "pipeline", 100, 25, 3, 1);
  trace.AddInstant("drop", "pipeline", 130, 3, 1);
  trace.AddCounter("cpu.occupancy", 140, 3, "busy", 2.0);
  EXPECT_EQ(trace.size(), 4u);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":25"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("sampling-worker-3"), std::string::npos);
}

TEST(TraceBuffer, WriteFileRoundTrips) {
  TraceBuffer trace;
  trace.AddComplete("span", "cat", 0, 10, 0, 0);
  const auto path = std::filesystem::temp_directory_path() / "helios_obs_trace_test.json";
  ASSERT_TRUE(trace.WriteFile(path.string()).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), trace.ToJson());
  std::filesystem::remove(path);
}

TEST(StageTracer, SpansLandInTraceBuffer) {
  MetricsRegistry reg;
  ManualClock clock;
  TraceBuffer trace;
  StageTracer tracer(&reg, &clock, &trace);
  clock.Set(1000);
  tracer.RecordSpan(Stage::kCacheApply, 900, 100, /*pid=*/7, /*tid=*/2);
  EXPECT_EQ(trace.size(), 1u);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"name\":\"cache_apply\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":7"), std::string::npos);
}

// ------------------------------------------------- both runtimes, one path
//
// The acceptance bar of the tracing work: the identical StageTracer code is
// exercised by the wall-clock ThreadedCluster and by the virtual-clock DES
// harness, and both populate the same "pipeline.*" metric families plus a
// Chrome-trace buffer.

graph::GraphSchema SmallSchema() {
  graph::GraphSchema schema;
  schema.vertex_type_names = {"User", "Item"};
  schema.edge_type_names = {"Click", "CoPurchase"};
  schema.edge_endpoints = {{0, 1}, {1, 1}};
  schema.feature_dim = 4;
  return schema;
}

gen::DatasetSpec SmallSpec() {
  gen::DatasetSpec spec;
  spec.name = "obs-small";
  spec.schema = SmallSchema();
  spec.vertices_per_type = {100, 150};
  spec.edge_streams = {{0, 1500, 1.05, 1.05}, {1, 2000, 1.05, 1.05}};
  spec.seed = 11;
  return spec;
}

QueryPlan SmallPlan() {
  SamplingQuery q;
  q.id = "obs";
  q.seed_type = 0;
  q.hops = {{0, 2, Strategy::kTopK}, {1, 2, Strategy::kTopK}};
  return Decompose(q, SmallSchema()).value();
}

void ExpectPipelineFamilies(const MetricsRegistry::Snapshot& snap, const char* runtime) {
  EXPECT_GT(snap.LatencyTotal("pipeline.stage.ingest").count(), 0u) << runtime;
  EXPECT_GT(snap.LatencyTotal("pipeline.stage.sample").count(), 0u) << runtime;
  EXPECT_GT(snap.LatencyTotal("pipeline.stage.cache_apply").count(), 0u) << runtime;
  EXPECT_GT(snap.LatencyTotal("pipeline.ingest_e2e").count(), 0u) << runtime;
}

TEST(BothRuntimes, ThreadedClusterPopulatesPipelineMetricsAndTrace) {
  TraceBuffer trace;
  ClusterOptions options;
  options.map = {2, 2, 2};
  options.trace = &trace;
  ThreadedCluster cluster(SmallPlan(), options);
  cluster.Start();
  gen::UpdateStream stream(SmallSpec());
  graph::GraphUpdate u;
  while (stream.Next(u)) cluster.PublishUpdate(u);
  cluster.WaitForIngestIdle();
  const auto snap = cluster.MetricsSnapshot();
  cluster.Stop();

  ExpectPipelineFamilies(snap, "threaded");
  // Per-shard cells aggregate to per-worker rows: the shard -> worker ->
  // cluster hierarchy.
  EXPECT_GE(snap.LatencyBy("pipeline.stage.sample", "worker").size(), 2u);
  // Migrated component stats surface through the same snapshot.
  EXPECT_GT(snap.CounterTotal("sampling.updates_processed"), 0u);
  EXPECT_GT(snap.CounterTotal("serving.sample_updates_applied"), 0u);
  EXPECT_GT(snap.CounterTotal("cluster.updates_published"), 0u);
  EXPECT_GT(trace.size(), 0u);
  EXPECT_NE(trace.ToJson().find("\"traceEvents\""), std::string::npos);
}

// ------------------------------------------------------ trace ring buffer

TEST(TraceBuffer, RingWrapsDropsOldestAndCountsDrops) {
  MetricsRegistry reg;
  TraceBuffer trace(/*capacity=*/4);
  trace.BindDroppedCounter(reg.GetCounter("obs.trace.dropped_events"));
  trace.SetProcessName(0, "lane-zero");  // metadata: exempt from the ring
  for (int i = 0; i < 10; ++i) {
    trace.AddInstant("ev" + std::to_string(i), "test", i, 0, 0);
  }
  EXPECT_EQ(trace.capacity(), 4u);
  EXPECT_EQ(trace.size(), 5u);  // 4 ring slots + 1 metadata event
  EXPECT_EQ(trace.dropped(), 6u);
  EXPECT_EQ(reg.GetCounter("obs.trace.dropped_events")->Value(), 6u);

  const std::string json = trace.ToJson();
  // The tail of the run survives, oldest-first; the head is gone.
  EXPECT_EQ(json.find("\"name\":\"ev5\""), std::string::npos);
  const auto p6 = json.find("\"name\":\"ev6\"");
  const auto p9 = json.find("\"name\":\"ev9\"");
  ASSERT_NE(p6, std::string::npos);
  ASSERT_NE(p9, std::string::npos);
  EXPECT_LT(p6, p9);
  // Lane names never fall out of the ring.
  EXPECT_NE(json.find("lane-zero"), std::string::npos);
}

// ------------------------------------------------- trace context wire form

ServingMessage TracedSample(graph::VertexId vertex) {
  SampleUpdate su;
  su.level = 1;
  su.vertex = vertex;
  su.event_ts = 3;
  su.origin_us = 11;
  su.samples.push_back({graph::VertexId{9}, 1, 1.0f});
  return ServingMessage::Of(std::move(su));
}

TEST(TraceContextWire, ServingMessageCodecRoundTripsContext) {
  ServingMessage traced = TracedSample(7);
  traced.trace = {0xABCu, 0xDEFu, 0x123u};
  ServingMessage out;
  ASSERT_TRUE(DecodeServingMessage(EncodeServingMessage(traced), out));
  EXPECT_EQ(out.trace, traced.trace);

  // Untraced messages decode inactive and pay only the flags byte: the
  // traced encoding carries exactly three extra u64s.
  const ServingMessage plain = TracedSample(7);
  ASSERT_TRUE(DecodeServingMessage(EncodeServingMessage(plain), out));
  EXPECT_FALSE(out.trace.active());
  EXPECT_EQ(EncodeServingMessage(traced).size(),
            EncodeServingMessage(plain).size() + 3 * sizeof(std::uint64_t));
}

TEST(TraceContextWire, BatchFrameCarriesFlowIdAndPerMessageContexts) {
  ServingBatchBuilder builder;
  ServingMessage traced = TracedSample(7);
  traced.trace = TraceIdAllocator(2).Root();
  builder.Add(traced);
  builder.Add(TracedSample(8));
  builder.Stamp(/*src_shard=*/3, /*epoch=*/5);
  builder.StampFlow(42);
  const std::string& frame = builder.EncodeToArena();

  ServingBatchReader reader(frame);
  EXPECT_EQ(reader.flow_id(), 42u);
  EXPECT_EQ(reader.src_shard(), 3u);
  EXPECT_EQ(reader.epoch(), 5u);
  ServingMessage msg;
  ASSERT_TRUE(reader.Next(msg));
  EXPECT_EQ(msg.trace, traced.trace);
  ASSERT_TRUE(reader.Next(msg));
  EXPECT_FALSE(msg.trace.active());
  EXPECT_FALSE(reader.Next(msg));
  EXPECT_TRUE(reader.ok());

  // The flow stamp is per-flush: Clear() resets it to untraced.
  builder.Clear();
  EXPECT_EQ(builder.flow_id(), 0u);
}

// ------------------------------------------------------------- telemetry

TEST(TelemetryHub, WindowedAggregationRetiresOldBuckets) {
  MetricsRegistry reg;
  TelemetryHub::Options opt;
  opt.num_lanes = 2;
  opt.window_us = 1000;
  opt.buckets = 4;
  opt.lane_label = "serving_worker";
  TelemetryHub hub(&reg, opt);

  hub.RecordQuery(0, /*now=*/100, /*latency=*/50, /*bytes=*/1000, /*deadline=*/100);
  hub.RecordQuery(0, 200, 400, 1000, 100);  // SLO miss
  hub.RecordQuery(0, 300, 400, 1000, 100);  // SLO miss
  hub.RecordQuery(0, 300, 400, 1000, 100);  // SLO miss
  hub.RecordStaleness(1, 300, 77);
  hub.RecordBytes(1, 300, 5000);
  hub.Advance(900);
  EXPECT_GT(hub.QpsOf(0), 0.0);
  // Histogram percentiles are log-bucketed: assert the window p99 reflects
  // the slow tail, not an exact value.
  EXPECT_GE(hub.P99Of(0), 200u);
  EXPECT_GE(hub.StalenessP99Of(1), 64u);
  EXPECT_GT(hub.BytesPerSecOf(1), 0.0);
  EXPECT_NEAR(hub.SloHitRate(), 0.25, 1e-9);
  // The window aggregates republish as registry gauges.
  const auto snap = reg.TakeSnapshot();
  EXPECT_GT(snap.GaugeTotal("telemetry.qps"), 0);
  EXPECT_EQ(snap.GaugeTotal("telemetry.slo_hit_rate_bp"), 2500);

  // Slide the window past everything: aggregates drain to zero.
  hub.Advance(100'000);
  EXPECT_EQ(hub.QpsOf(0), 0.0);
  EXPECT_EQ(hub.P99Of(0), 0u);
  EXPECT_EQ(hub.StalenessP99Of(1), 0u);
  EXPECT_NEAR(hub.SloHitRate(), 1.0, 1e-9);  // no deadlines in window
}

TEST(TelemetryHub, OverloadSignalFollowsThresholds) {
  MetricsRegistry reg;
  TelemetryHub::Options opt;
  opt.num_lanes = 1;
  opt.window_us = 1000;
  opt.overload_p99_us = 100;
  TelemetryHub hub(&reg, opt);
  EXPECT_FALSE(hub.Overloaded());
  hub.RecordQuery(0, 10, /*latency=*/500, 0);
  hub.Advance(20);
  EXPECT_TRUE(hub.Overloaded());
  hub.Advance(1'000'000);  // blowout left the window
  EXPECT_FALSE(hub.Overloaded());
}

TEST(TelemetryHub, SnapshotJsonMatchesDocumentedSchema) {
  MetricsRegistry reg;
  TelemetryHub::Options opt;
  opt.num_lanes = 2;
  opt.lane_label = "serving_worker";
  TelemetryHub hub(&reg, opt);
  hub.RecordQuery(0, 100, 50, 1000, 200);
  hub.RecordStaleness(0, 100, 40);
  const std::string json = hub.SnapshotJson(500);
  for (const char* key :
       {"\"ts_us\":", "\"window_us\":", "\"slo\":", "\"queries\":", "\"hits\":", "\"hit_rate\":",
        "\"lanes\":", "\"serving_worker\":", "\"qps\":", "\"bytes_per_s\":", "\"p50_us\":",
        "\"p99_us\":", "\"staleness_p50_us\":", "\"staleness_p99_us\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing in " << json;
  }
}

// ------------------------------------------------------------- freshness

TEST(FreshnessTracker, VisibilityAndFirstServeDistances) {
  MetricsRegistry reg;
  FreshnessTracker fresh(&reg, /*num_shards=*/2, {}, /*pending_capacity=*/64);
  fresh.OnApply(/*vertex=*/5, /*src_shard=*/1, /*origin=*/100, /*now=*/150);
  EXPECT_EQ(reg.TakeSnapshot().LatencyTotal("freshness.visibility_us").count(), 1u);

  // First serve records origin -> read and disarms; later reads see nothing.
  EXPECT_EQ(fresh.OnServe(5, 170), 70);
  EXPECT_EQ(fresh.OnServe(5, 180), -1);
  EXPECT_EQ(fresh.OnServe(999, 10), -1);  // never armed
  const auto snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.LatencyTotal("freshness.first_serve_us").count(), 1u);
  EXPECT_EQ(snap.LatencyTotal("freshness.first_serve_us").max(), 70u);

  // A newer apply for the same vertex re-arms against the fresher origin.
  fresh.OnApply(5, 0, 200, 210);
  fresh.OnApply(5, 0, 300, 310);
  EXPECT_EQ(fresh.OnServe(5, 350), 50);

  // Unstamped origins are ignored.
  fresh.OnApply(6, 0, 0, 100);
  EXPECT_EQ(fresh.OnServe(6, 200), -1);
}

TEST(FreshnessTracker, FixedTableEvictsStalestAndCounts) {
  MetricsRegistry reg;
  FreshnessTracker fresh(&reg, 1, {}, /*pending_capacity=*/8);
  for (std::uint64_t v = 1; v <= 100; ++v) fresh.OnApply(v, 0, /*origin=*/1, /*now=*/2);
  EXPECT_GT(fresh.pending_evicted(), 0u);
  EXPECT_EQ(reg.TakeSnapshot().CounterTotal("freshness.pending_evicted"),
            fresh.pending_evicted());
}

TEST(BothRuntimes, DesHarnessPopulatesPipelineMetricsAndTrace) {
  const auto plan = SmallPlan();
  gen::UpdateStream stream(SmallSpec());
  const auto updates = stream.Drain();

  bench::HeliosEmuConfig hc;
  hc.sampling_nodes = 2;
  hc.sampling_threads = 2;
  hc.serving_nodes = 2;
  hc.serving_threads = 2;
  bench::HeliosDeployment deployment(plan, hc);
  TraceBuffer trace;
  const auto report = deployment.EmulateIngestion(updates, /*offered_rate_mps=*/0, &trace);

  // The per-stage breakdown in the report is derived from the same
  // "pipeline.*" families, recorded through StageTracer on virtual time.
  EXPECT_GT(report.stage_ingest_us.count(), 0u);
  EXPECT_GT(report.stage_sample_us.count(), 0u);
  EXPECT_GT(report.stage_cache_apply_us.count(), 0u);
  EXPECT_GT(report.latency_us.count(), 0u);  // one sample per serving delivery
  // Virtual spans must land on virtual time: nothing beyond the makespan.
  EXPECT_LE(report.latency_us.max(), static_cast<std::uint64_t>(report.makespan_us));
  EXPECT_GT(trace.size(), 0u);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("sampling-node-"), std::string::npos);  // DES pid lanes
  EXPECT_NE(json.find("cpu.occupancy"), std::string::npos);   // resource series
}

// -------------------------------------------- causal flows, both runtimes
//
// The tentpole acceptance: one graph update's trace stitches across the
// sampler -> serving boundary via Chrome-trace flow events ('s' on the
// sampling lane, 'f' with the same id on the serving lane).

// Extracts (pid, id) of every "update"/"causal" flow event of `phase` from
// a TraceBuffer JSON dump.
std::map<std::uint64_t, std::uint32_t> CausalFlowPids(const std::string& json, char phase) {
  const std::regex re("\\{\"name\":\"update\",\"ph\":\"" + std::string(1, phase) +
                      "\",\"ts\":-?\\d+,\"pid\":(\\d+),\"tid\":\\d+,\"id\":(\\d+)");
  std::map<std::uint64_t, std::uint32_t> pid_of;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), re);
       it != std::sregex_iterator(); ++it) {
    pid_of[std::stoull((*it)[2])] = static_cast<std::uint32_t>(std::stoul((*it)[1]));
  }
  return pid_of;
}

void ExpectCrossLaneCausalFlows(const std::string& json, const char* runtime) {
  const auto starts = CausalFlowPids(json, 's');
  const auto ends = CausalFlowPids(json, 'f');
  ASSERT_FALSE(starts.empty()) << runtime;
  ASSERT_FALSE(ends.empty()) << runtime;
  std::size_t stitched = 0;
  for (const auto& [id, end_pid] : ends) {
    const auto it = starts.find(id);
    if (it == starts.end()) continue;
    EXPECT_NE(it->second, end_pid) << runtime << ": flow " << id << " never crossed lanes";
    ++stitched;
  }
  EXPECT_GT(stitched, 0u) << runtime;
}

TEST(TraceFlow, DesIngestionStitchesSamplerToServingLanes) {
  bench::HeliosEmuConfig hc;
  hc.sampling_nodes = 2;
  hc.sampling_threads = 2;
  hc.serving_nodes = 2;
  hc.serving_threads = 2;
  bench::HeliosDeployment deployment(SmallPlan(), hc);
  gen::UpdateStream stream(SmallSpec());
  TraceBuffer trace;
  deployment.EmulateIngestion(stream.Drain(), 0, &trace);
  ExpectCrossLaneCausalFlows(trace.ToJson(), "des");
}

TEST(TraceFlow, ThreadedClusterStitchesSamplerToServingLanes) {
  TraceBuffer trace;
  ClusterOptions options;
  options.map = {2, 2, 2};
  options.trace = &trace;
  ThreadedCluster cluster(SmallPlan(), options);
  cluster.Start();
  gen::UpdateStream stream(SmallSpec());
  graph::GraphUpdate u;
  while (stream.Next(u)) cluster.PublishUpdate(u);
  cluster.WaitForIngestIdle();
  cluster.Stop();

  const std::string json = trace.ToJson();
  ExpectCrossLaneCausalFlows(json, "threaded");
  // Threaded lanes: flow starts on sampling-worker pids (< kServingPidBase),
  // ends on serving pids (>= kServingPidBase).
  for (const auto& [id, pid] : CausalFlowPids(json, 's')) EXPECT_LT(pid, kServingPidBase);
  for (const auto& [id, pid] : CausalFlowPids(json, 'f')) EXPECT_GE(pid, kServingPidBase);
}

// ------------------------------------------ windowed telemetry, both runtimes

TEST(TelemetryBothRuntimes, DesServingFeedsWindowsAndSnapshots) {
  bench::HeliosEmuConfig hc;
  hc.sampling_nodes = 2;
  hc.sampling_threads = 2;
  hc.serving_nodes = 2;
  hc.serving_threads = 2;
  bench::HeliosDeployment deployment(SmallPlan(), hc);
  gen::UpdateStream stream(SmallSpec());
  const auto updates = stream.Drain();
  deployment.IngestAll(updates);

  TelemetryHub::Options topt;
  topt.num_lanes = hc.serving_nodes;
  topt.lane_label = "serving_worker";
  TelemetryHub hub(&deployment.registry(), topt);
  std::vector<std::string> snapshots;
  bench::ServeObs sobs;
  sobs.telemetry = &hub;
  sobs.telemetry_interval_us = 200;
  sobs.snapshots = &snapshots;
  sobs.deadline_us = 1'000'000;

  std::vector<graph::VertexId> seeds;
  for (std::uint64_t i = 0; i < 64; ++i) seeds.push_back(gen::MakeVertexId(0, i % 100));
  const auto report =
      deployment.EmulateServing(seeds, 8, 200, nullptr, 0, nullptr, 0, &sobs);
  EXPECT_EQ(report.requests, 200u);
  ASSERT_FALSE(snapshots.empty());  // periodic ticks + the closing snapshot
  for (const auto& s : snapshots) {
    EXPECT_NE(s.find("\"serving_worker\":"), std::string::npos);
  }
  // The run's queries landed in lanes: some snapshot saw a live window.
  const std::regex queries_re("\"queries\":(\\d+)");
  std::uint64_t max_window_queries = 0;
  for (const auto& s : snapshots) {
    for (auto it = std::sregex_iterator(s.begin(), s.end(), queries_re);
         it != std::sregex_iterator(); ++it) {
      max_window_queries = std::max<std::uint64_t>(max_window_queries, std::stoull((*it)[1]));
    }
  }
  EXPECT_GT(max_window_queries, 0u);
  // Every query met the generous deadline.
  EXPECT_NEAR(hub.SloHitRate(), 1.0, 1e-9);
}

TEST(TelemetryBothRuntimes, DesIngestionRecordsFreshnessAndStaleness) {
  bench::HeliosEmuConfig hc;
  hc.sampling_nodes = 2;
  hc.sampling_threads = 2;
  hc.serving_nodes = 2;
  hc.serving_threads = 2;
  bench::HeliosDeployment deployment(SmallPlan(), hc);
  gen::UpdateStream stream(SmallSpec());
  const auto updates = stream.Drain();

  TelemetryHub::Options topt;
  topt.num_lanes = hc.serving_nodes;
  topt.lane_label = "serving_worker";
  TelemetryHub hub(&deployment.registry(), topt);
  FreshnessTracker fresh(&deployment.registry(), deployment.num_shards());
  std::vector<std::string> snapshots;
  bench::IngestObs iobs;
  iobs.telemetry = &hub;
  iobs.freshness = &fresh;
  iobs.telemetry_interval_us = 500;
  iobs.snapshots = &snapshots;

  // Paced (not saturated): origins must be > 0 for freshness accounting.
  deployment.EmulateIngestion(updates, /*offered_rate_mps=*/0.05, nullptr, nullptr, &iobs);

  const auto snap = deployment.registry().TakeSnapshot();
  EXPECT_GT(snap.LatencyTotal("freshness.visibility_us").count(), 0u);
  ASSERT_FALSE(snapshots.empty());
  // Some window saw update->visibility staleness.
  const std::regex staleness_re("\"staleness_p99_us\":(\\d+)");
  std::uint64_t max_staleness = 0;
  for (const auto& s : snapshots) {
    for (auto it = std::sregex_iterator(s.begin(), s.end(), staleness_re);
         it != std::sregex_iterator(); ++it) {
      max_staleness = std::max<std::uint64_t>(max_staleness, std::stoull((*it)[1]));
    }
  }
  EXPECT_GT(max_staleness, 0u);
}

TEST(TelemetryBothRuntimes, ThreadedServeFeedsWindowsAndFreshness) {
  MetricsRegistry hub_registry;
  TelemetryHub::Options topt;
  topt.num_lanes = 2;
  topt.lane_label = "serving_worker";
  TelemetryHub hub(&hub_registry, topt);

  ClusterOptions options;
  options.map = {2, 2, 2};
  options.telemetry = &hub;
  ThreadedCluster cluster(SmallPlan(), options);
  cluster.Start();
  gen::UpdateStream stream(SmallSpec());
  graph::GraphUpdate u;
  while (stream.Next(u)) cluster.PublishUpdate(u);
  cluster.WaitForIngestIdle();
  for (std::uint64_t i = 0; i < 50; ++i) cluster.Serve(gen::MakeVertexId(0, i % 100));
  hub.Advance(static_cast<std::int64_t>(util::NowMicros()));
  double qps = 0;
  for (std::uint32_t lane = 0; lane < topt.num_lanes; ++lane) qps += hub.QpsOf(lane);
  EXPECT_GT(qps, 0.0);  // the 50 serves happened inside the 1s window

  // The per-worker freshness trackers saw update->visibility distances on
  // the wall clock (PublishUpdate stamps origin_us at ingest).
  const auto snap = cluster.MetricsSnapshot();
  EXPECT_GT(snap.LatencyTotal("freshness.visibility_us").count(), 0u);
  cluster.Stop();
}

// ----------------------------------------- freshness across checkpointing

TEST(FreshnessCheckpoint, StalenessHistogramsSurviveCheckpointRestore) {
  ClusterOptions options;
  options.map = {2, 2, 2};
  ThreadedCluster cluster(SmallPlan(), options);
  cluster.Start();
  gen::UpdateStream stream(SmallSpec());
  const auto updates = stream.Drain();
  const std::size_t half = updates.size() / 2;
  for (std::size_t i = 0; i < half; ++i) cluster.PublishUpdate(updates[i]);
  cluster.WaitForIngestIdle();

  const auto v1 = cluster.MetricsSnapshot().LatencyTotal("freshness.visibility_us").count();
  EXPECT_GT(v1, 0u);

  const auto dir = std::filesystem::temp_directory_path() / "helios_obs_fresh_ckpt";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(cluster.Checkpoint(dir.string()).ok());
  ASSERT_TRUE(cluster.Restore(dir.string()).ok());

  // The registry outlives the restored cores: histories persist and the
  // restored pipeline keeps recording into the same cells.
  EXPECT_EQ(cluster.MetricsSnapshot().LatencyTotal("freshness.visibility_us").count(), v1);
  for (std::size_t i = half; i < updates.size(); ++i) cluster.PublishUpdate(updates[i]);
  cluster.WaitForIngestIdle();
  EXPECT_GT(cluster.MetricsSnapshot().LatencyTotal("freshness.visibility_us").count(), v1);
  cluster.Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace helios::obs
