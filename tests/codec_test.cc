// Round-trip property tests for all binary codecs (graph updates, serving
// messages, subscription deltas) — the wire formats every queue carries.
#include <gtest/gtest.h>

#include "graph/update_codec.h"
#include "helios/messages.h"
#include "util/rng.h"

namespace helios {
namespace {

using graph::ByteReader;
using graph::ByteWriter;

TEST(ByteCodec, PrimitivesRoundTrip) {
  ByteWriter w;
  w.PutU8(7);
  w.PutU16(65535);
  w.PutU32(123456789);
  w.PutU64(0xDEADBEEFCAFEBABEULL);
  w.PutI64(-42);
  w.PutF32(3.25f);
  w.PutBytes("hello");
  w.PutFloats({1.f, -2.f});
  const std::string buf = w.Take();

  ByteReader r(buf);
  EXPECT_EQ(r.GetU8(), 7);
  EXPECT_EQ(r.GetU16(), 65535);
  EXPECT_EQ(r.GetU32(), 123456789u);
  EXPECT_EQ(r.GetU64(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(r.GetI64(), -42);
  EXPECT_FLOAT_EQ(r.GetF32(), 3.25f);
  EXPECT_EQ(r.GetBytes(), "hello");
  EXPECT_EQ(r.GetFloats(), (std::vector<float>{1.f, -2.f}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteCodec, UnderflowSetsNotOk) {
  ByteWriter w;
  w.PutU8(1);
  const std::string buf = w.Take();
  ByteReader r(buf);
  r.GetU8();
  r.GetU64();  // underflow
  EXPECT_FALSE(r.ok());
}

TEST(UpdateCodec, EdgeRoundTrip) {
  graph::EdgeUpdate e{3, 123456789ULL, 987654321ULL, 55555, 0.75f};
  graph::GraphUpdate u = e;
  graph::GraphUpdate out;
  ASSERT_TRUE(graph::DecodeUpdate(graph::EncodeUpdate(u), out));
  const auto& d = std::get<graph::EdgeUpdate>(out);
  EXPECT_EQ(d.type, e.type);
  EXPECT_EQ(d.src, e.src);
  EXPECT_EQ(d.dst, e.dst);
  EXPECT_EQ(d.ts, e.ts);
  EXPECT_FLOAT_EQ(d.weight, e.weight);
}

TEST(UpdateCodec, VertexRoundTrip) {
  graph::VertexUpdate v{1, 42ULL, 777, {0.1f, 0.2f, 0.3f}};
  graph::GraphUpdate u = v;
  graph::GraphUpdate out;
  ASSERT_TRUE(graph::DecodeUpdate(graph::EncodeUpdate(u), out));
  const auto& d = std::get<graph::VertexUpdate>(out);
  EXPECT_EQ(d.type, v.type);
  EXPECT_EQ(d.id, v.id);
  EXPECT_EQ(d.ts, v.ts);
  EXPECT_EQ(d.feature, v.feature);
}

TEST(UpdateCodec, RejectsGarbage) {
  graph::GraphUpdate out;
  EXPECT_FALSE(graph::DecodeUpdate("", out));
  EXPECT_FALSE(graph::DecodeUpdate("\x09garbage", out));
  EXPECT_FALSE(graph::DecodeUpdate("\x02short", out));
}

// Property: random updates round-trip exactly.
TEST(UpdateCodec, RandomizedRoundTrip) {
  util::Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    graph::GraphUpdate u;
    if (rng.Bernoulli(0.5)) {
      graph::VertexUpdate v;
      v.type = static_cast<graph::VertexTypeId>(rng.Uniform(4));
      v.id = rng.Next();
      v.ts = static_cast<graph::Timestamp>(rng.Uniform(1 << 30));
      const std::size_t dim = rng.Uniform(16);
      for (std::size_t d = 0; d < dim; ++d) {
        v.feature.push_back(static_cast<float>(rng.UniformDouble()));
      }
      u = std::move(v);
    } else {
      graph::EdgeUpdate e;
      e.type = static_cast<graph::EdgeTypeId>(rng.Uniform(4));
      e.src = rng.Next();
      e.dst = rng.Next();
      e.ts = static_cast<graph::Timestamp>(rng.Uniform(1 << 30));
      e.weight = static_cast<float>(rng.UniformDouble());
      u = e;
    }
    graph::GraphUpdate out;
    ASSERT_TRUE(graph::DecodeUpdate(graph::EncodeUpdate(u), out));
    EXPECT_EQ(graph::EncodeUpdate(out), graph::EncodeUpdate(u));
  }
}

TEST(ServingMessageCodec, SampleRoundTrip) {
  SampleUpdate su;
  su.level = 2;
  su.vertex = 12345;
  su.event_ts = 999;
  su.origin_us = 123456;
  su.samples = {{1, 10, 0.5f}, {2, 20, 1.5f}};
  ServingMessage m = ServingMessage::Of(su);
  ServingMessage out;
  ASSERT_TRUE(DecodeServingMessage(EncodeServingMessage(m), out));
  EXPECT_EQ(out.kind(), ServingMessage::Kind::kSample);
  EXPECT_EQ(out.sample().level, 2u);
  EXPECT_EQ(out.sample().vertex, 12345u);
  EXPECT_EQ(out.sample().event_ts, 999);
  EXPECT_EQ(out.sample().origin_us, 123456);
  EXPECT_EQ(out.sample().samples, su.samples);
}

TEST(ServingMessageCodec, FeatureRoundTrip) {
  FeatureUpdate fu;
  fu.vertex = 777;
  fu.feature = {1.f, 2.f, 3.f};
  fu.event_ts = 5;
  fu.origin_us = 6;
  ServingMessage out;
  ASSERT_TRUE(DecodeServingMessage(EncodeServingMessage(ServingMessage::Of(fu)), out));
  EXPECT_EQ(out.kind(), ServingMessage::Kind::kFeature);
  EXPECT_EQ(out.feature().vertex, 777u);
  EXPECT_EQ(out.feature().feature, fu.feature);
  EXPECT_EQ(out.feature().event_ts, 5);
  EXPECT_EQ(out.feature().origin_us, 6);
}

TEST(ServingMessageCodec, RetractRoundTrip) {
  ServingMessage out;
  ASSERT_TRUE(DecodeServingMessage(EncodeServingMessage(ServingMessage::Of(Retract{3, 42})), out));
  EXPECT_EQ(out.kind(), ServingMessage::Kind::kRetract);
  EXPECT_EQ(out.retract().level, 3u);
  EXPECT_EQ(out.retract().vertex, 42u);
}

TEST(ServingMessageCodec, RejectsGarbage) {
  ServingMessage out;
  EXPECT_FALSE(DecodeServingMessage("", out));
  EXPECT_FALSE(DecodeServingMessage("\x07rubbish", out));
}

TEST(ServingMessageCodec, SampleDeltaRoundTripWithCoalescedChanges) {
  SampleDelta d;
  d.level = 3;
  d.vertex = 4242;
  d.added = {7, 70, 0.25f};
  d.evicted = 9;
  d.event_ts = 100;
  d.origin_us = 55;
  d.more.push_back({{8, 80, 0.5f}, graph::kInvalidVertex, 101});
  d.more.push_back({{9, 90, 0.75f}, 7, 102});
  ServingMessage out;
  ASSERT_TRUE(DecodeServingMessage(EncodeServingMessage(ServingMessage::Of(d)), out));
  ASSERT_EQ(out.kind(), ServingMessage::Kind::kSampleDelta);
  const SampleDelta& r = out.delta();
  EXPECT_EQ(r.level, 3u);
  EXPECT_EQ(r.vertex, 4242u);
  EXPECT_EQ(r.added, (graph::Edge{7, 70, 0.25f}));
  EXPECT_EQ(r.evicted, 9u);
  EXPECT_EQ(r.event_ts, 100);
  EXPECT_EQ(r.origin_us, 55);
  ASSERT_EQ(r.more.size(), 2u);
  EXPECT_EQ(r.more[0].added, (graph::Edge{8, 80, 0.5f}));
  EXPECT_EQ(r.more[0].evicted, graph::kInvalidVertex);
  EXPECT_EQ(r.more[0].event_ts, 101);
  EXPECT_EQ(r.more[1].added, (graph::Edge{9, 90, 0.75f}));
  EXPECT_EQ(r.more[1].evicted, 7u);
  EXPECT_EQ(r.more[1].event_ts, 102);
}

// ------------------------------------------------------------ ServingBatch

namespace {
ServingMessage RandomMessage(util::Rng& rng) {
  switch (rng.Uniform(4)) {
    case 0: {
      SampleUpdate su;
      su.level = 1 + static_cast<std::uint32_t>(rng.Uniform(3));
      su.vertex = rng.Uniform(50);
      su.event_ts = static_cast<graph::Timestamp>(rng.Uniform(1 << 20));
      su.origin_us = static_cast<std::int64_t>(rng.Uniform(1 << 20));
      const std::size_t n = rng.Uniform(5);
      for (std::size_t i = 0; i < n; ++i) {
        su.samples.push_back({rng.Next() % 1000, static_cast<graph::Timestamp>(rng.Uniform(100)),
                              static_cast<float>(rng.UniformDouble())});
      }
      return ServingMessage::Of(std::move(su));
    }
    case 1: {
      FeatureUpdate fu;
      fu.vertex = rng.Uniform(50);
      fu.event_ts = static_cast<graph::Timestamp>(rng.Uniform(1 << 20));
      fu.origin_us = static_cast<std::int64_t>(rng.Uniform(1 << 20));
      const std::size_t dim = rng.Uniform(8);
      for (std::size_t i = 0; i < dim; ++i) {
        fu.feature.push_back(static_cast<float>(rng.UniformDouble()));
      }
      return ServingMessage::Of(std::move(fu));
    }
    case 2:
      return ServingMessage::Of(
          Retract{static_cast<std::uint32_t>(rng.Uniform(3)), rng.Uniform(50)});
    default: {
      SampleDelta d;
      d.level = 1 + static_cast<std::uint32_t>(rng.Uniform(3));
      d.vertex = rng.Uniform(50);
      d.added = {rng.Next() % 1000, static_cast<graph::Timestamp>(rng.Uniform(100)),
                 static_cast<float>(rng.UniformDouble())};
      d.evicted = rng.Bernoulli(0.5) ? rng.Next() % 1000 : graph::kInvalidVertex;
      d.event_ts = static_cast<graph::Timestamp>(rng.Uniform(1 << 20));
      d.origin_us = static_cast<std::int64_t>(rng.Uniform(1 << 20));
      return ServingMessage::Of(std::move(d));
    }
  }
}
}  // namespace

// Property: a batch of random messages round-trips through the frame codec
// with every surviving message byte-identical, and coalesced() accounting
// for all folded deltas.
TEST(ServingBatchCodec, RandomizedRoundTrip) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    ServingBatchBuilder builder;
    const std::size_t n = 1 + rng.Uniform(64);
    std::uint64_t pushed_deltas = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ServingMessage m = RandomMessage(rng);
      if (m.kind() == ServingMessage::Kind::kSampleDelta) pushed_deltas++;
      builder.Add(std::move(m));
    }
    EXPECT_EQ(builder.size() + builder.coalesced(), n)
        << "every pushed message is either pending or folded";
    const std::string frame = builder.EncodeToArena();

    ServingBatchReader reader(frame);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.count(), builder.size());
    std::size_t idx = 0;
    ServingMessage decoded;
    while (reader.Next(decoded)) {
      ASSERT_LT(idx, builder.messages().size());
      EXPECT_EQ(EncodeServingMessage(decoded), EncodeServingMessage(builder.messages()[idx]));
      idx++;
    }
    EXPECT_TRUE(reader.ok());
    EXPECT_EQ(idx, builder.size());
  }
}

TEST(ServingBatchCodec, CoalescesSameCellDeltas) {
  ServingBatchBuilder builder;
  SampleDelta d;
  d.level = 1;
  d.vertex = 10;
  d.added = {1, 100, 1.f};
  d.origin_us = 500;
  d.event_ts = 100;
  builder.Add(ServingMessage::Of(d));
  d.added = {2, 200, 2.f};
  d.evicted = 1;
  d.origin_us = 900;  // later change; head keeps the earliest origin
  d.event_ts = 200;
  builder.Add(ServingMessage::Of(d));
  // A delta for a different cell does not fold.
  d.vertex = 11;
  builder.Add(ServingMessage::Of(d));

  ASSERT_EQ(builder.size(), 2u);
  EXPECT_EQ(builder.coalesced(), 1u);
  const SampleDelta& head = builder.messages()[0].delta();
  EXPECT_EQ(head.origin_us, 500);
  ASSERT_EQ(head.more.size(), 1u);
  EXPECT_EQ(head.more[0].added, (graph::Edge{2, 200, 2.f}));
  EXPECT_EQ(head.more[0].evicted, 1u);
  EXPECT_EQ(head.more[0].event_ts, 200);
}

TEST(ServingBatchCodec, SnapshotAndRetractFenceCoalescing) {
  ServingBatchBuilder builder;
  SampleDelta d;
  d.level = 1;
  d.vertex = 10;
  d.added = {1, 100, 1.f};
  builder.Add(ServingMessage::Of(d));
  // Snapshot for the same cell fences: the next delta must not fold into
  // the message *before* the snapshot.
  SampleUpdate su;
  su.level = 1;
  su.vertex = 10;
  builder.Add(ServingMessage::Of(su));
  builder.Add(ServingMessage::Of(d));
  EXPECT_EQ(builder.size(), 3u);
  EXPECT_EQ(builder.coalesced(), 0u);
  // The post-snapshot delta becomes the new fold target...
  builder.Add(ServingMessage::Of(d));
  EXPECT_EQ(builder.size(), 3u);
  EXPECT_EQ(builder.coalesced(), 1u);
  // ...until a cell retract fences again.
  builder.Add(ServingMessage::Of(Retract{1, 10}));
  builder.Add(ServingMessage::Of(d));
  EXPECT_EQ(builder.size(), 5u);
  EXPECT_EQ(builder.coalesced(), 1u);
  // A level-0 (feature) retract does NOT fence cell deltas.
  builder.Add(ServingMessage::Of(Retract{0, 10}));
  builder.Add(ServingMessage::Of(d));
  EXPECT_EQ(builder.size(), 6u);
  EXPECT_EQ(builder.coalesced(), 2u);
}

TEST(ServingBatchCodec, ReaderRejectsTruncatedFrame) {
  ServingBatchBuilder builder;
  builder.Add(ServingMessage::Of(Retract{1, 7}));
  std::string frame = builder.EncodeToArena();
  frame.pop_back();
  ServingBatchReader reader(frame);
  EXPECT_FALSE(reader.ok());
  ServingMessage out;
  EXPECT_FALSE(reader.Next(out));
}

TEST(ServingBatchSet, GroupsPerDestinationAndReusesBuilders) {
  ServingBatchSet set;
  set.Add(2, ServingMessage::Of(Retract{1, 7}));
  set.Add(0, ServingMessage::Of(Retract{1, 8}));
  set.Add(2, ServingMessage::Of(Retract{1, 9}));
  ASSERT_EQ(set.active(), (std::vector<std::uint32_t>{2, 0}));
  EXPECT_EQ(set.total_messages(), 3u);
  std::vector<std::pair<std::uint32_t, graph::VertexId>> seen;
  set.ForEach([&](std::uint32_t sew, const ServingMessage& m) {
    seen.emplace_back(sew, m.retract().vertex);
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::uint32_t, graph::VertexId>{2, 7}));
  EXPECT_EQ(seen[1], (std::pair<std::uint32_t, graph::VertexId>{2, 9}));
  EXPECT_EQ(seen[2], (std::pair<std::uint32_t, graph::VertexId>{0, 8}));

  set.Clear();
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.total_messages(), 0u);
  set.Add(1, ServingMessage::Of(Retract{1, 5}));
  EXPECT_EQ(set.active(), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(set.total_messages(), 1u);
}

TEST(SubscriptionDeltaCodec, RoundTripBothSigns) {
  for (std::int32_t delta : {+1, -1}) {
    SubscriptionDelta d{4, 99999, 7, delta};
    SubscriptionDelta out;
    ASSERT_TRUE(DecodeSubscriptionDelta(EncodeSubscriptionDelta(d), out));
    EXPECT_EQ(out.level, 4u);
    EXPECT_EQ(out.vertex, 99999u);
    EXPECT_EQ(out.serving_worker, 7u);
    EXPECT_EQ(out.delta, delta);
  }
}

}  // namespace
}  // namespace helios
