// Micro/calibration benchmarks (google-benchmark): the per-operation costs
// that the cluster emulator's measured service times are built from.
// Useful for sanity-checking emulated numbers and for regression-tracking
// the hot paths.
#include <benchmark/benchmark.h>

#include <malloc.h>

#include <cstdlib>
#include <new>

#include <filesystem>

#include "bench/harness.h"
#include "graph/update_codec.h"
#include "kv/kv_store.h"
#include "mq/mq.h"
#include "store/segment_store.h"
#include "util/aligned.h"
#include "util/simd.h"

using namespace helios;

// ------------------------------------------------ allocation counting
//
// Global operator new/delete override with a per-thread counter, so
// BM_ServePathZeroCopy can assert the "zero heap allocations in
// steady-state ServeInto()" contract instead of merely claiming it. The
// counter only counts — allocation itself is plain malloc, so every other
// benchmark is unaffected.

namespace {
thread_local std::uint64_t g_alloc_count = 0;
}  // namespace

// Both replacements allocate with malloc/free consistently; the compiler
// just cannot see through the counting operator new and flags every
// inlined delete as mismatched.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Over-aligned variants (util::AlignedVector routes through these): same
// counting, so the 0-allocs/query assertion also covers the 32-byte
// aligned arenas. aligned_alloc wants size a multiple of the alignment.
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

// ---------------------------------------------------------- reservoir

static void BM_ReservoirOffer(benchmark::State& state) {
  const auto strategy = static_cast<Strategy>(state.range(0));
  const auto fanout = static_cast<std::uint32_t>(state.range(1));
  util::Rng rng(1);
  ReservoirCell cell(strategy, fanout);
  graph::Timestamp ts = 0;
  for (auto _ : state) {
    cell.Offer({rng.Next() % 100000, ++ts, 1.0f}, rng);
  }
}
BENCHMARK(BM_ReservoirOffer)
    ->Args({0, 2})
    ->Args({0, 25})
    ->Args({1, 2})
    ->Args({1, 25})
    ->Args({2, 25});

// ---------------------------------------------------------------- kv

static void BM_KvPutGet(benchmark::State& state) {
  kv::KvStore store({});
  util::Rng rng(2);
  std::string value(64, 'v'), out;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(rng.Uniform(100000));
    store.Put(key, value);
    benchmark::DoNotOptimize(store.Get(key, out));
  }
}
BENCHMARK(BM_KvPutGet);

// ---------------------------------------------------------------- store

// Append path of the segment store (docs/STORAGE.md): CRC32C framing +
// cluster-chain bookkeeping, group commit amortized over 1 MiB batches.
static void BM_StoreAppend(benchmark::State& state) {
  const auto path = std::filesystem::temp_directory_path() / "bench_store_append.hstore";
  std::filesystem::remove(path);
  store::StoreOptions options;
  options.path = path.string();
  options.sync = false;  // measure framing + chaining, not the disk
  auto st = std::move(store::SegmentStore::Open(options).value());
  const std::uint64_t seg = st->Create("bench").value();
  const std::string value(256, 'v');
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(st->Append(seg, "k" + std::to_string(rng.Uniform(1 << 20)), value));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(value.size()));
  st.reset();
  std::filesystem::remove(path);
}
BENCHMARK(BM_StoreAppend);

// Bloom-indexed point reads over a sealed spill run — the kv ViewInShard
// disk path.
static void BM_StoreRead(benchmark::State& state) {
  const auto path = std::filesystem::temp_directory_path() / "bench_store_read.hstore";
  std::filesystem::remove(path);
  store::StoreOptions options;
  options.path = path.string();
  options.sync = false;
  auto st = std::move(store::SegmentStore::Open(options).value());
  const std::uint64_t seg = st->Create("bench").value();
  constexpr std::uint64_t kKeys = 100000;
  const std::string value(256, 'v');
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    st->Append(seg, "k" + std::to_string(i), value);
  }
  st->Seal(seg, /*point_index=*/true);
  st->Commit();
  util::Rng rng(4);
  std::string out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        st->FindNewestFirst(&seg, 1, "k" + std::to_string(rng.Uniform(kKeys)), &out));
  }
  st.reset();
  std::filesystem::remove(path);
}
BENCHMARK(BM_StoreRead);

// ---------------------------------------------------------------- mq

static void BM_MqAppendPoll(benchmark::State& state) {
  mq::Broker broker;
  broker.CreateTopic("t", 4);
  mq::Producer producer(broker);
  mq::Consumer consumer(broker, "g", "t", {0, 1, 2, 3});
  std::vector<mq::Record> out;
  for (auto _ : state) {
    producer.Send("t", "key", "0123456789abcdef");
    out.clear();
    consumer.Poll(1, out);
  }
}
BENCHMARK(BM_MqAppendPoll);

// Heap bytes the broker log holds per retained update record: Arg records
// shaped like the "updates" topic's (empty key, one encoded edge update)
// appended to one partition, measured as the change in heap in use.
static void BM_MqRetainedBytesPerUpdate(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const std::string value = graph::EncodeUpdate(
      graph::EdgeUpdate{1, gen::MakeVertexId(1, 7), gen::MakeVertexId(2, 9), 1234, 1.0f});
  auto heap = [] {
    const struct mallinfo2 m = mallinfo2();
    return static_cast<double>(m.uordblks + m.hblkhd);
  };
  for (auto _ : state) {
    const double before = heap();
    auto p = std::make_unique<mq::Partition>();
    for (std::size_t i = 0; i < records; ++i) {
      p->Append(std::string(), value, static_cast<util::Micros>(i));
    }
    benchmark::DoNotOptimize(p->end_offset());
    state.counters["heap_bytes_per_record"] = (heap() - before) / static_cast<double>(records);
    state.counters["value_bytes"] = static_cast<double>(value.size());
  }
}
BENCHMARK(BM_MqRetainedBytesPerUpdate)->Arg(300'000)->Arg(1'000'000)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------- sampling pipeline

static void BM_SamplingIngestEdge(benchmark::State& state) {
  const auto spec = gen::MakeInter(400000);
  const auto plan = bench::PaperQuery(spec, Strategy::kTopK, 2);
  SamplingShardCore core(plan, ShardMap{1, 1, 1}, 0, 1, {});
  SamplingShardCore::Outputs out;
  util::Rng rng(3);
  graph::Timestamp ts = 0;
  for (auto _ : state) {
    graph::EdgeUpdate e{1, gen::MakeVertexId(1, rng.Uniform(10000)),
                        gen::MakeVertexId(1, rng.Uniform(10000)), ++ts, 1.0f};
    core.OnGraphUpdate(e, 0, out);
    out.Clear();
  }
}
BENCHMARK(BM_SamplingIngestEdge);

// ----------------------------------------------------- serve assembly

static void BM_ServeKHopAssembly(benchmark::State& state) {
  const auto spec = gen::MakeInter(400000);
  const auto plan = bench::PaperQuery(spec, Strategy::kTopK, 2);
  bench::HeliosEmuConfig hc;
  hc.sampling_nodes = 1;
  hc.sampling_threads = 1;
  hc.serving_nodes = 1;
  bench::HeliosDeployment helios(plan, hc);
  gen::UpdateStream stream(spec);
  helios.IngestAll(stream.Drain());
  gen::SeedGenerator seed_gen(0, spec.vertices_per_type[0], 0.0, 5);
  SampledSubgraph out;
  ServeScratch scratch;
  for (auto _ : state) {
    helios.serving_core(0).ServeInto(seed_gen.Next(), out, scratch);
    benchmark::DoNotOptimize(out.features.size());
  }
}
BENCHMARK(BM_ServeKHopAssembly);

// ------------------------------------------------- ad-hoc comparison

static void BM_AdHocKHop(benchmark::State& state) {
  const auto spec = gen::MakeInter(400000);
  const auto plan = bench::PaperQuery(spec, Strategy::kTopK, 2);
  bench::GraphDbEmuConfig dc;
  dc.nodes = 1;
  bench::GraphDbDeployment db(plan, graphdb::TigerGraphProfile(), dc);
  gen::UpdateStream stream(spec);
  db.IngestAll(stream.Drain());
  gen::SeedGenerator seed_gen(0, spec.vertices_per_type[0], 0.0, 5);
  util::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.db().ExecuteKHop(seed_gen.Next(), plan, rng));
  }
}
BENCHMARK(BM_AdHocKHop);

// ----------------------------------------------- dissemination path
//
// The sampler→server hot path of §7.2, priced end to end: ~8 or ~64 deltas
// coalesced per flush into one arena-encoded ServingBatch frame, decoded
// by ServingBatchReader and applied via KvStore::Merge as in-place slot
// writes (ServingCore::Apply). items_per_second counts logical deltas.

namespace {
constexpr std::uint64_t kDissCells = 256;  // small universe → real coalescing
constexpr std::uint32_t kDissFanout = 25;  // hop 1 of PaperQuery

SampleDelta RandomDissDelta(util::Rng& rng, graph::Timestamp ts) {
  SampleDelta d;
  d.level = 1;
  d.vertex = gen::MakeVertexId(1, rng.Uniform(kDissCells));
  d.added = {gen::MakeVertexId(1, 10000 + rng.Uniform(1000)), ts, 1.0f};
  d.slot = static_cast<std::uint16_t>(rng.Uniform(kDissFanout));
  d.event_ts = ts;
  d.origin_us = static_cast<std::int64_t>(ts);
  return d;
}
}  // namespace

static void BM_DisseminationBatched(benchmark::State& state) {
  const auto spec = gen::MakeInter(400000);
  const auto plan = bench::PaperQuery(spec, Strategy::kTopK, 2);
  ServingCore core(plan, 0);
  ServingBatchBuilder builder;
  util::Rng rng(11);
  graph::Timestamp ts = 0;
  const std::size_t flush = static_cast<std::size_t>(state.range(0));
  std::uint64_t coalesced = 0;
  std::uint64_t batches = 0;
  ServingMessage msg;
  for (auto _ : state) {
    for (std::size_t i = 0; i < flush; ++i) {
      builder.Add(ServingMessage::Of(RandomDissDelta(rng, ++ts)));
    }
    coalesced += builder.coalesced();
    ++batches;
    const std::string& frame = builder.EncodeToArena();
    ServingBatchReader reader(frame);
    while (reader.Next(msg)) core.Apply(msg);
    if (!reader.ok()) state.SkipWithError("malformed frame");
    builder.Clear();
  }
  state.SetItemsProcessed(state.iterations() * flush);
  state.counters["coalesced_per_batch"] =
      benchmark::Counter(batches > 0 ? static_cast<double>(coalesced) / batches : 0);
  state.counters["batch_occupancy"] = benchmark::Counter(
      batches > 0 ? static_cast<double>(flush) - static_cast<double>(coalesced) / batches : 0);
}
BENCHMARK(BM_DisseminationBatched)->Arg(8)->Arg(64);

// -------------------------------------------------- query read path
//
// The serving-side read path of §6 at fan-out 10×10, priced end to end:
// K-hop cell lookups + feature fetch into a result through
// ServingCore::ServeInto: stack key buffers, one MultiView per hop (one
// lock per distinct KV shard), cells decoded from the in-lock bytes,
// features landing in the per-query arena. With the result and scratch
// reused, the steady state performs zero heap allocations — asserted here
// via the operator-new counter above.

namespace {
constexpr std::uint32_t kServeFanout = 10;
constexpr std::uint64_t kServeUsers = 64;
constexpr std::uint64_t kServeItems = 512;

QueryPlan ServePlan() {
  graph::GraphSchema schema;
  schema.vertex_type_names = {"User", "Item"};
  schema.edge_type_names = {"Click", "CoPurchase"};
  schema.edge_endpoints = {{0, 1}, {1, 1}};
  schema.feature_dim = 16;
  SamplingQuery q;
  q.seed_type = 0;
  q.hops = {{0, kServeFanout, Strategy::kTopK}, {1, kServeFanout, Strategy::kTopK}};
  return Decompose(q, schema).value();
}

// Deterministic full-fanout cache population, identical for every variant.
struct ServeState {
  std::vector<SampleUpdate> cells;
  std::vector<FeatureUpdate> features;
};

ServeState MakeServeState() {
  ServeState state;
  util::Rng rng(13);
  auto random_items = [&] {
    std::vector<graph::VertexId> items;
    for (std::uint32_t i = 0; i < kServeFanout; ++i) {
      items.push_back(gen::MakeVertexId(1, rng.Uniform(kServeItems)));
    }
    return items;
  };
  auto cell = [](std::uint32_t level, graph::VertexId v, std::vector<graph::VertexId> dsts) {
    SampleUpdate su;
    su.level = level;
    su.vertex = v;
    su.event_ts = 1;
    for (auto d : dsts) su.samples.push_back({d, 1, 1.0f});
    return su;
  };
  auto feature = [&](graph::VertexId v) {
    FeatureUpdate fu;
    fu.vertex = v;
    fu.feature.resize(16);
    for (auto& x : fu.feature) x = static_cast<float>(rng.UniformDouble());
    return fu;
  };
  for (std::uint64_t u = 0; u < kServeUsers; ++u) {
    state.cells.push_back(cell(1, gen::MakeVertexId(0, u), random_items()));
    state.features.push_back(feature(gen::MakeVertexId(0, u)));
  }
  for (std::uint64_t i = 0; i < kServeItems; ++i) {
    state.cells.push_back(cell(2, gen::MakeVertexId(1, i), random_items()));
    state.features.push_back(feature(gen::MakeVertexId(1, i)));
  }
  return state;
}

// Shared body for every fused-serve-path variant: populate the cache in
// `format`, warm up, then measure steady-state ServeInto asserting the
// zero-allocation contract (now inclusive of the 32-byte aligned arenas —
// the over-aligned operator new replacements above count too).
void RunServePathFused(benchmark::State& state, FeatureFormat format) {
  const auto plan = ServePlan();
  ServingCore::Options options;
  options.feature_format = format;
  ServingCore core(plan, 0, options);
  const auto data = MakeServeState();
  for (const auto& su : data.cells) core.Apply(ServingMessage::Of(su));
  for (const auto& fu : data.features) core.Apply(ServingMessage::Of(fu));

  SampledSubgraph out;
  ServeScratch scratch;
  // Warm-up: one pass over every seed grows all reused buffers to their
  // steady-state capacity.
  for (std::uint64_t u = 0; u < kServeUsers; ++u) {
    core.ServeInto(gen::MakeVertexId(0, u), out, scratch);
  }

  std::uint64_t allocs = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_alloc_count;
    core.ServeInto(gen::MakeVertexId(0, i++ % kServeUsers), out, scratch);
    allocs += g_alloc_count - before;
    benchmark::DoNotOptimize(out.features.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_query"] = benchmark::Counter(
      state.iterations() > 0 ? static_cast<double>(allocs) / static_cast<double>(state.iterations())
                             : 0);
  if (allocs != 0) {
    state.SkipWithError("steady-state ServeInto allocated on the heap");
  }
  state.SetLabel(std::string("features=") + FeatureFormatName(format));
}
}  // namespace

static void BM_ServePathZeroCopy(benchmark::State& state) {
  RunServePathFused(state, FeatureFormat::kFp32);
}
BENCHMARK(BM_ServePathZeroCopy);

// Quantized feature storage: same query stream, cache holds fp16 / int8
// values, gather dequantizes into the fp32 arena. Still 0 allocs/query.
static void BM_ServePathFusedFp16(benchmark::State& state) {
  RunServePathFused(state, FeatureFormat::kFp16);
}
BENCHMARK(BM_ServePathFusedFp16);

static void BM_ServePathFusedInt8(benchmark::State& state) {
  RunServePathFused(state, FeatureFormat::kInt8);
}
BENCHMARK(BM_ServePathFusedInt8);

// Computation-reuse tier (docs/PERF.md "Computation reuse & admission"):
// the same 10×10 serve shape answered through the aggregate cache +
// EmbedSeedCached. Steady state is all-hits (the cache holds every item's
// hop-1 aggregate after warm-up), so each query reads one cell, replays 10
// cached aggregate rows, gathers 11 features, and runs the 2-layer SAGE —
// no hop-2 expansion, no grandchild feature gather. Asserts the 0 allocs/
// query contract and the ≥80% hit-rate regime the speedup is quoted at.
static void BM_ServePathCached(benchmark::State& state) {
  const auto plan = ServePlan();
  ServingCore::Options options;
  options.aggregate_cache_entries = 4096;  // holds all kServeItems aggregates
  ServingCore core(plan, 0, options);
  const auto data = MakeServeState();
  for (const auto& su : data.cells) core.Apply(ServingMessage::Of(su));
  for (const auto& fu : data.features) core.Apply(ServingMessage::Of(fu));

  gnn::SageConfig config;
  config.input_dim = 16;
  config.hidden_dim = 16;
  config.output_dim = 16;
  const gnn::GraphSageEncoder encoder(config);
  gnn::CachedEmbedScratch scratch;
  std::vector<float> out;
  for (std::uint64_t u = 0; u < kServeUsers; ++u) {
    if (!encoder.EmbedSeedCached(core, gen::MakeVertexId(0, u), scratch, out)) {
      state.SkipWithError("cached serve path rejected the bench plan");
      return;
    }
  }

  std::uint64_t allocs = 0, hits = 0, lookups = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_alloc_count;
    encoder.EmbedSeedCached(core, gen::MakeVertexId(0, i++ % kServeUsers), scratch, out);
    allocs += g_alloc_count - before;
    hits += scratch.result.cache_hits;
    lookups += scratch.result.cache_hits + scratch.result.cache_misses +
               scratch.result.stale_recomputes;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
  const double hit_rate =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0;
  state.counters["hit_rate"] = benchmark::Counter(hit_rate);
  state.counters["allocs_per_query"] = benchmark::Counter(
      state.iterations() > 0 ? static_cast<double>(allocs) / static_cast<double>(state.iterations())
                             : 0);
  if (allocs != 0) state.SkipWithError("steady-state cached serve allocated on the heap");
  if (hit_rate < 0.8) state.SkipWithError("cache hit rate fell below the 80% quoting regime");
}
BENCHMARK(BM_ServePathCached);

// ------------------------------------------- sample/gather kernels
//
// The two kernel families the fused serve path is built from, isolated:
//   CellDecode — extract the u64 dst field of `n` packed 20-byte cell
//     records (u64 dst | i64 ts | f32 w), as the serve path's hop decode
//     does with GatherStridedU64.
//   Gather — decode one cached feature value (fp32 memcpy / fp16 / int8
//     dequant) into the fp32 arena row the GNN reads.

namespace {
constexpr std::size_t kDecodeRecords = 25;  // paper fan-out

std::string MakePackedCell(std::size_t n) {
  graph::ByteWriter w;
  w.PutI64(1);
  w.PutU32(static_cast<std::uint32_t>(n));
  util::Rng rng(17);
  for (std::size_t i = 0; i < n; ++i) {
    w.PutU64(rng.Next());
    w.PutI64(static_cast<std::int64_t>(i));
    w.PutF32(static_cast<float>(rng.UniformDouble()));
  }
  return w.Take();
}

}  // namespace

static void BM_CellDecode(benchmark::State& state) {
  const std::string cell = MakePackedCell(kDecodeRecords);
  const char* records = cell.data() + 12;  // skip [event_ts][n] header
  util::AlignedVector<std::uint64_t> dst(kDecodeRecords);
  for (auto _ : state) {
    util::simd::GatherStridedU64(records, 20, kDecodeRecords, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kDecodeRecords * 20);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kDecodeRecords);
}
BENCHMARK(BM_CellDecode);

namespace {
void RunGather(benchmark::State& state, FeatureFormat format) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  graph::Feature f(dim);
  util::Rng rng(19);
  for (auto& x : f) x = static_cast<float>(rng.UniformDouble() * 2.0 - 1.0);
  const std::string value = EncodeFeatureValue(f, format);
  const std::string_view payload(value.data() + 4, value.size() - 4);
  util::AlignedVector<float> out(dim);
  for (auto _ : state) {
    switch (format) {
      case FeatureFormat::kFp32:
        std::memcpy(out.data(), payload.data(), dim * sizeof(float));
        break;
      case FeatureFormat::kFp16:
        util::simd::DequantFp16(reinterpret_cast<const std::uint16_t*>(payload.data()), dim,
                                out.data());
        break;
      case FeatureFormat::kInt8: {
        float scale;
        std::memcpy(&scale, payload.data(), sizeof(scale));
        util::simd::DequantInt8(reinterpret_cast<const std::int8_t*>(payload.data() + 4), dim,
                                scale, out.data());
        break;
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * dim);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
}  // namespace

static void BM_GatherFp32(benchmark::State& state) { RunGather(state, FeatureFormat::kFp32); }
BENCHMARK(BM_GatherFp32)->Arg(16)->Arg(256);

static void BM_GatherFp16(benchmark::State& state) { RunGather(state, FeatureFormat::kFp16); }
BENCHMARK(BM_GatherFp16)->Arg(16)->Arg(256);

static void BM_GatherInt8(benchmark::State& state) { RunGather(state, FeatureFormat::kInt8); }
BENCHMARK(BM_GatherInt8)->Arg(16)->Arg(256);

// ------------------------------------------------------------ codecs

static void BM_ServingMessageCodec(benchmark::State& state) {
  SampleUpdate su;
  su.level = 1;
  su.vertex = 42;
  for (int i = 0; i < 25; ++i) su.samples.push_back({static_cast<graph::VertexId>(i), i, 1.f});
  const auto msg = ServingMessage::Of(su);
  ServingMessage out;
  for (auto _ : state) {
    const std::string bytes = EncodeServingMessage(msg);
    benchmark::DoNotOptimize(DecodeServingMessage(bytes, out));
  }
}
BENCHMARK(BM_ServingMessageCodec);

// --------------------------------------------------------------- gnn

// The blocked fp32 GEMM behind GraphSageEncoder::Apply: one node's
// h_out = [self | mean] × [W_self ; W_neigh] + bias (+ReLU), the inner
// kernel every embed runs once per node per layer. Args = {in, width}.
namespace {
void RunSageApply(benchmark::State& state, util::simd::SimdLevel level) {
  if (level == util::simd::SimdLevel::kAvx2 &&
      !(util::simd::kHasAvx2Kernels && util::simd::CpuHasAvx2())) {
    state.SkipWithError("AVX2 kernels unavailable on this host");
    return;
  }
  util::simd::ForceSimdLevel(level);
  const std::size_t in = static_cast<std::size_t>(state.range(0));
  const std::size_t width = static_cast<std::size_t>(state.range(1));
  util::Rng rng(23);
  util::AlignedVector<float> a(in), b(in), x(in * width), y(in * width), bias(width), out(width);
  for (auto& v : a) v = static_cast<float>(rng.UniformDouble());
  for (auto& v : b) v = static_cast<float>(rng.UniformDouble());
  for (auto& v : x) v = static_cast<float>(rng.UniformDouble() - 0.5);
  for (auto& v : y) v = static_cast<float>(rng.UniformDouble() - 0.5);
  for (auto& v : bias) v = static_cast<float>(rng.UniformDouble() - 0.5);
  for (auto _ : state) {
    util::simd::SageApply(a.data(), b.data(), x.data(), y.data(), in, width, width, bias.data(),
                          true, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  util::simd::ResetSimdLevel();
  // 4 flops per (k, j): two mul + two add across both weight matrices.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * in * width * 4);
}
}  // namespace

static void BM_GraphSageApplyScalar(benchmark::State& state) {
  RunSageApply(state, util::simd::SimdLevel::kScalar);
}
BENCHMARK(BM_GraphSageApplyScalar)->Args({16, 64})->Args({64, 64});

static void BM_GraphSageApply(benchmark::State& state) {
  RunSageApply(state, util::simd::SimdLevel::kAvx2);
}
BENCHMARK(BM_GraphSageApply)->Args({16, 64})->Args({64, 64});

static void BM_GraphSageInfer(benchmark::State& state) {
  gnn::SageConfig config;
  config.input_dim = 10;
  config.hidden_dim = 64;
  config.output_dim = 64;
  gnn::ModelServer model(config);
  SampledSubgraph sample;
  sample.seed = 1;
  sample.layers.resize(3);
  sample.layers[0].push_back({1, 0});
  for (std::uint32_t i = 0; i < 25; ++i) {
    sample.layers[1].push_back({100 + i, 0});
    for (std::uint32_t j = 0; j < 10; ++j) {
      sample.layers[2].push_back({1000 + i * 10 + j, i});
    }
  }
  util::Rng rng(9);
  for (const auto& layer : sample.layers) {
    for (const auto& node : layer) {
      graph::Feature f(10);
      for (auto& v : f) v = static_cast<float>(rng.UniformDouble());
      sample.features.Set(node.vertex, f);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Infer(sample));
  }
}
BENCHMARK(BM_GraphSageInfer);

BENCHMARK_MAIN();
