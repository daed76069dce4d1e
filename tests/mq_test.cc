// Tests for the Kafka-substitute message queue.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <set>
#include <thread>

#include "mq/mq.h"
#include "obs/metrics.h"
#include "store/segment_store.h"

namespace helios::mq {
namespace {

TEST(Partition, AppendAssignsDenseOffsets) {
  Partition p;
  EXPECT_EQ(p.Append("k", "v0", 1), 0u);
  EXPECT_EQ(p.Append("k", "v1", 2), 1u);
  EXPECT_EQ(p.start_offset(), 0u);
  EXPECT_EQ(p.end_offset(), 2u);
}

TEST(Partition, ReadFromReturnsInOrder) {
  Partition p;
  for (int i = 0; i < 5; ++i) p.Append("k", std::to_string(i), i);
  std::vector<Record> out;
  EXPECT_EQ(p.ReadFrom(1, 3, out), 3u);
  EXPECT_EQ(out[0].value, "1");
  EXPECT_EQ(out[2].value, "3");
}

TEST(Partition, ReadPastEndIsEmpty) {
  Partition p;
  p.Append("k", "v", 0);
  std::vector<Record> out;
  EXPECT_EQ(p.ReadFrom(1, 10, out), 0u);
}

TEST(Partition, TruncateDropsOldPrefixAndMovesStart) {
  Partition p;
  for (int i = 0; i < 10; ++i) p.Append("k", std::to_string(i), i);
  EXPECT_EQ(p.TruncateOlderThan(4), 4u);
  EXPECT_EQ(p.start_offset(), 4u);
  std::vector<Record> out;
  // Reading before the new start snaps forward.
  EXPECT_EQ(p.ReadFrom(0, 2, out), 2u);
  EXPECT_EQ(out[0].offset, 4u);
  EXPECT_EQ(out[0].value, "4");
}

TEST(Partition, SizeBytesShrinksOnTruncate) {
  Partition p;
  p.Append("key", std::string(100, 'x'), 0);
  p.Append("key", std::string(100, 'y'), 10);
  const auto before = p.SizeBytes();
  p.TruncateOlderThan(5);
  EXPECT_LT(p.SizeBytes(), before);
}

// ---- packed block layout: Partition::kBlockRecords records per block.

constexpr std::uint64_t kBlock = Partition::kBlockRecords;

std::string KeyOf(std::uint64_t i) { return "k" + std::to_string(i); }
std::string ValueOf(std::uint64_t i) { return "value-" + std::to_string(i * 7919); }

// Appends `n` records with key/value derived from the offset and
// append_time == offset.
void Fill(Partition& p, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t o = p.end_offset();
    ASSERT_EQ(p.Append(KeyOf(o), ValueOf(o), static_cast<util::Micros>(o)), o);
  }
}

void ExpectRecord(const Record& r, std::uint64_t offset) {
  EXPECT_EQ(r.offset, offset);
  EXPECT_EQ(r.append_time, static_cast<util::Micros>(offset)) << offset;
  EXPECT_EQ(r.key, KeyOf(offset));
  EXPECT_EQ(r.value, ValueOf(offset));
}

TEST(Partition, AppendsAcrossBlocksKeepDenseOffsets) {
  Partition p;
  Fill(p, 3 * kBlock + 17);
  EXPECT_EQ(p.start_offset(), 0u);
  EXPECT_EQ(p.end_offset(), 3 * kBlock + 17);
  std::vector<Record> out;
  EXPECT_EQ(p.ReadFrom(0, 1'000'000, out), 3 * kBlock + 17);
  for (std::uint64_t i = 0; i < out.size(); ++i) ExpectRecord(out[i], i);
}

TEST(Partition, ReadFromSpansAndStartsAtBlockBoundaries) {
  Partition p;
  Fill(p, 2 * kBlock + 5);
  struct Case {
    std::uint64_t from;
    std::size_t max;
    std::size_t want;
  };
  const Case cases[] = {
      {kBlock - 3, 10, 10},                  // spans the first boundary
      {kBlock, 4, 4},                        // starts exactly at a boundary
      {kBlock - 1, 1, 1},                    // last record of a block
      {0, kBlock + 1, kBlock + 1},           // whole block plus one
      {kBlock - 2, kBlock + 4, kBlock + 4},  // spans two boundaries
      {2 * kBlock, 100, 5},                  // tail block, clipped at the end
      {2 * kBlock + 5, 100, 0},              // exactly the end
  };
  for (const Case& c : cases) {
    std::vector<Record> out;
    ASSERT_EQ(p.ReadFrom(c.from, c.max, out), c.want) << c.from;
    for (std::size_t i = 0; i < out.size(); ++i) ExpectRecord(out[i], c.from + i);
  }
}

TEST(Partition, TruncateMidBlockAndAcrossBlocks) {
  Partition p;
  Fill(p, 3 * kBlock + 5);
  const std::size_t resident = p.ResidentBytes();
  const std::size_t bytes = p.SizeBytes();

  // Mid-block: the start moves record-exact, memory stays until the block
  // fully expires.
  EXPECT_EQ(p.TruncateOlderThan(100), 100u);
  EXPECT_EQ(p.start_offset(), 100u);
  EXPECT_EQ(p.ResidentBytes(), resident);
  EXPECT_LT(p.SizeBytes(), bytes);
  std::vector<Record> out;
  ASSERT_EQ(p.ReadFrom(0, 3, out), 3u);
  ExpectRecord(out[0], 100);

  // Past several blocks: the two wholly expired blocks (of four held) are
  // freed.
  const std::uint64_t cut = 2 * kBlock + 10;
  EXPECT_EQ(p.TruncateOlderThan(static_cast<util::Micros>(cut)), cut - 100);
  EXPECT_EQ(p.start_offset(), cut);
  EXPECT_EQ(p.end_offset(), 3 * kBlock + 5);
  EXPECT_LT(p.ResidentBytes(), resident * 2 / 3);
  out.clear();
  ASSERT_EQ(p.ReadFrom(kBlock, 1'000'000, out), kBlock - 5);
  for (std::size_t i = 0; i < out.size(); ++i) ExpectRecord(out[i], cut + i);

  // Live bytes are exactly what a fresh log of the surviving records holds.
  Partition survivors;
  for (const Record& r : out) survivors.Append(r.key, r.value, r.append_time);
  EXPECT_EQ(p.SizeBytes(), survivors.SizeBytes());

  // Appends keep flowing after blocks were freed; then drop everything.
  Fill(p, kBlock);
  EXPECT_EQ(p.end_offset(), 4 * kBlock + 5);
  EXPECT_EQ(p.TruncateOlderThan(static_cast<util::Micros>(10 * kBlock)), 2 * kBlock - 5);
  EXPECT_EQ(p.start_offset(), p.end_offset());
  EXPECT_EQ(p.SizeBytes(), 0u);
  out.clear();
  EXPECT_EQ(p.ReadFrom(0, 10, out), 0u);
  EXPECT_EQ(p.Append("k", "v", 0), 4 * kBlock + 5);
}

TEST(Partition, EmptyFieldsAndOversizedValuesRoundTrip) {
  Partition p;
  // A value larger than a whole block of ordinary records, mid-block.
  const std::string big(kBlock * 64, 'x');
  for (std::uint64_t i = 0; i < kBlock + 10; ++i) {
    if (i == 7) {
      p.Append("", "", 1);
    } else if (i == kBlock - 1 || i == 20) {
      p.Append("big", big, 2);
    } else if (i == kBlock) {
      p.Append("", "only-value", 3);
    } else {
      p.Append("only-key", "", 4);
    }
  }
  std::vector<Record> out;
  ASSERT_EQ(p.ReadFrom(0, 1'000'000, out), kBlock + 10);
  EXPECT_EQ(out[7].key, "");
  EXPECT_EQ(out[7].value, "");
  EXPECT_EQ(out[7].append_time, 1);
  EXPECT_EQ(out[20].value, big);
  EXPECT_EQ(out[kBlock - 1].key, "big");
  EXPECT_EQ(out[kBlock - 1].value, big);
  EXPECT_EQ(out[kBlock].key, "");
  EXPECT_EQ(out[kBlock].value, "only-value");
  EXPECT_EQ(out[21].key, "only-key");
  EXPECT_EQ(out[21].value, "");
  EXPECT_EQ(out.back().offset, kBlock + 9);
}

// mq.topic.resident_bytes tracks the blocks the log holds: it stays put
// while truncation only trims a block, and drops once a block is freed.
TEST(Broker, ResidentBytesGaugeDropsWhenABlockIsFreed) {
  Broker broker;
  broker.CreateTopic("t", 1);
  Fill(broker.GetTopic("t")->partition(0), 2 * kBlock + 1);
  obs::MetricsRegistry registry;
  auto resident = [&] {
    broker.PublishTo(&registry);
    return registry.GetGauge("mq.topic.resident_bytes", {{"topic", "t"}})->Value();
  };
  const std::int64_t full = resident();
  EXPECT_GE(full, static_cast<std::int64_t>(broker.GetTopic("t")->TotalBytes()));
  broker.TruncateOlderThan(static_cast<util::Micros>(kBlock - 1));
  EXPECT_EQ(resident(), full);
  broker.TruncateOlderThan(static_cast<util::Micros>(kBlock));
  EXPECT_LT(resident(), full);
  EXPECT_GT(resident(), 0);
}

TEST(Broker, CreateAndRouteTopics) {
  Broker broker;
  EXPECT_TRUE(broker.CreateTopic("updates", 4).ok());
  EXPECT_FALSE(broker.CreateTopic("updates", 4).ok());  // duplicate
  EXPECT_FALSE(broker.CreateTopic("bad", 0).ok());
  ASSERT_NE(broker.GetTopic("updates"), nullptr);
  EXPECT_EQ(broker.GetTopic("updates")->num_partitions(), 4u);
  EXPECT_EQ(broker.GetTopic("missing"), nullptr);
}

TEST(Producer, KeyRoutingIsStable) {
  Broker broker;
  broker.CreateTopic("t", 8);
  Producer producer(broker);
  auto r1 = producer.Send("t", "key-a", "v1");
  auto r2 = producer.Send("t", "key-a", "v2");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Same key -> same partition -> consecutive offsets.
  EXPECT_EQ(r2.value(), r1.value() + 1);
}

TEST(Producer, ExplicitPartitionAndErrors) {
  Broker broker;
  broker.CreateTopic("t", 2);
  Producer producer(broker);
  EXPECT_TRUE(producer.Send("t", "k", "v", 1).ok());
  EXPECT_FALSE(producer.Send("t", "k", "v", 5).ok());
  EXPECT_FALSE(producer.Send("missing", "k", "v").ok());
  EXPECT_EQ(broker.GetTopic("t")->partition(1).end_offset(), 1u);
}

TEST(Consumer, PollDrainsAssignedPartitionsOnly) {
  Broker broker;
  broker.CreateTopic("t", 2);
  Producer producer(broker);
  producer.Send("t", "", "p0", 0);
  producer.Send("t", "", "p1", 1);
  Consumer c(broker, "g", "t", {0});
  std::vector<Record> out;
  EXPECT_EQ(c.Poll(10, out), 1u);
  EXPECT_EQ(out[0].value, "p0");
  EXPECT_EQ(c.Poll(10, out), 0u);
}

TEST(Consumer, LagAndCommitResume) {
  Broker broker;
  broker.CreateTopic("t", 1);
  Producer producer(broker);
  for (int i = 0; i < 5; ++i) producer.Send("t", "", std::to_string(i), 0);

  Consumer c1(broker, "g", "t", {0});
  EXPECT_EQ(c1.Lag(), 5u);
  std::vector<Record> out;
  c1.Poll(3, out);
  EXPECT_EQ(c1.Lag(), 2u);
  c1.Commit();

  // A restarted consumer in the same group resumes after the commit.
  Consumer c2(broker, "g", "t", {0});
  out.clear();
  EXPECT_EQ(c2.Poll(10, out), 2u);
  EXPECT_EQ(out[0].value, "3");

  // A different group starts from the beginning.
  Consumer other(broker, "g2", "t", {0});
  out.clear();
  EXPECT_EQ(other.Poll(10, out), 5u);
}

TEST(Consumer, PollWithPartitionsLabelsRecords) {
  Broker broker;
  broker.CreateTopic("t", 3);
  Producer producer(broker);
  producer.Send("t", "", "a", 0);
  producer.Send("t", "", "b", 2);
  Consumer c(broker, "g", "t", {0, 2});
  std::vector<Record> out;
  std::vector<std::uint32_t> parts;
  EXPECT_EQ(c.PollWithPartitions(10, out, parts), 2u);
  ASSERT_EQ(parts.size(), 2u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value, parts[i] == 0 ? "a" : "b");
  }
}

TEST(Consumer, RoundRobinPreventsStarvation) {
  Broker broker;
  broker.CreateTopic("t", 2);
  Producer producer(broker);
  for (int i = 0; i < 100; ++i) producer.Send("t", "", "hot", 0);
  producer.Send("t", "", "cold", 1);
  Consumer c(broker, "g", "t", {0, 1});
  // Two polls of 60 must surface the cold partition.
  std::vector<Record> out;
  c.Poll(60, out);
  c.Poll(60, out);
  bool saw_cold = false;
  for (const auto& r : out) saw_cold |= r.value == "cold";
  EXPECT_TRUE(saw_cold);
}

TEST(Consumer, SurvivesTruncationUnderneath) {
  Broker broker;
  broker.CreateTopic("t", 1);
  Producer producer(broker);
  for (int i = 0; i < 10; ++i) producer.Send("t", "", std::to_string(i), 0);
  Consumer c(broker, "g", "t", {0});
  // Manually age records then truncate (append_time was wall time; use a
  // future cutoff to drop everything).
  broker.GetTopic("t")->partition(0).TruncateOlderThan(util::NowMicros() + 1'000'000);
  std::vector<Record> out;
  EXPECT_EQ(c.Poll(10, out), 0u);
  producer.Send("t", "", "fresh", 0);
  EXPECT_EQ(c.Poll(10, out), 1u);
  EXPECT_EQ(out[0].value, "fresh");
}

TEST(Consumer, SurvivesBlockFreeingUnderneath) {
  Broker broker;
  broker.CreateTopic("t", 1);
  Partition& p = broker.GetTopic("t")->partition(0);
  Fill(p, 3 * kBlock);
  Consumer c(broker, "g", "t", {0});
  std::vector<Record> out;
  ASSERT_EQ(c.Poll(10, out), 10u);  // position 10, inside block 0
  // Free blocks 0 and 1 and trim into block 2.
  p.TruncateOlderThan(static_cast<util::Micros>(2 * kBlock + 3));
  out.clear();
  ASSERT_EQ(c.Poll(5, out), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) ExpectRecord(out[i], 2 * kBlock + 3 + i);
  EXPECT_EQ(c.Lag(), kBlock - 8);
}

// ---- blocking polls (Consumer::Poll with a deadline)

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

// Runs a blocking poll with a 10 s deadline on another thread; returns its
// record count and how long it blocked.
std::future<std::pair<std::size_t, Clock::duration>> BlockedPoll(Consumer& c,
                                                                 std::vector<Record>& out) {
  return std::async(std::launch::async, [&c, &out] {
    const auto start = Clock::now();
    const std::size_t n = c.Poll(10, out, start + std::chrono::seconds(10));
    return std::make_pair(n, Clock::now() - start);
  });
}

TEST(ConsumerBlocking, PollReturnsPromptlyWhenAnotherThreadAppends) {
  Broker broker;
  broker.CreateTopic("t", 2);
  Consumer c(broker, "g", "t", {0, 1});
  std::vector<Record> out;
  auto polled = BlockedPoll(c, out);
  std::this_thread::sleep_for(milliseconds(50));  // let it park
  Producer(broker).Send("t", "", "late", 1);
  const auto [n, blocked] = polled.get();
  EXPECT_EQ(n, 1u);
  EXPECT_LT(blocked, std::chrono::seconds(1));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, "late");
}

TEST(ConsumerBlocking, PollReturnsPromptlyWhenWoken) {
  Broker broker;
  broker.CreateTopic("t", 1);
  Consumer c(broker, "g", "t", {0});
  std::vector<Record> out;
  auto polled = BlockedPoll(c, out);
  std::this_thread::sleep_for(milliseconds(50));
  c.Wake();
  const auto [n, blocked] = polled.get();
  EXPECT_EQ(n, 0u);
  EXPECT_LT(blocked, std::chrono::seconds(1));
}

TEST(ConsumerBlocking, WakeBeforeThePollIsNotLost) {
  Broker broker;
  broker.CreateTopic("t", 1);
  Consumer c(broker, "g", "t", {0});
  c.Wake();
  std::vector<Record> out;
  const auto start = Clock::now();
  EXPECT_EQ(c.Poll(10, out, start + std::chrono::seconds(10)), 0u);
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
}

TEST(ConsumerBlocking, RecordAlreadyThereIsReadWithoutWaiting) {
  Broker broker;
  broker.CreateTopic("t", 1);
  Producer(broker).Send("t", "", "ready", 0);
  Consumer c(broker, "g", "t", {0}, /*linger=*/std::chrono::seconds(10));
  std::vector<Record> out;
  const auto start = Clock::now();
  EXPECT_EQ(c.Poll(10, out, start + std::chrono::seconds(10)), 1u);
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
}

TEST(ConsumerBlocking, PartialBatchLingersBeforeTheNextRead) {
  Broker broker;
  broker.CreateTopic("t", 1);
  Producer producer(broker);
  const auto linger = milliseconds(100);
  Consumer c(broker, "g", "t", {0}, linger);
  std::vector<Record> out;
  producer.Send("t", "", "a", 0);
  ASSERT_EQ(c.Poll(10, out, Clock::now() + std::chrono::seconds(10)), 1u);  // partial
  const auto after_partial = Clock::now();
  producer.Send("t", "", "b", 0);
  producer.Send("t", "", "c", 0);
  // The appends do not cut the linger short; both records come in one read.
  out.clear();
  ASSERT_EQ(c.Poll(10, out, Clock::now() + std::chrono::seconds(10)), 2u);
  EXPECT_GE(Clock::now() - after_partial, linger);
  // That batch was partial too, so the next read lingers; a full batch
  // arms no linger, so a backlog is then read back to back.
  for (int i = 0; i < 20; ++i) producer.Send("t", "", "x", 0);
  out.clear();
  const auto start = Clock::now();
  ASSERT_EQ(c.Poll(5, out, start + std::chrono::seconds(10)), 5u);
  EXPECT_GE(Clock::now() - start, linger);
  out.clear();
  const auto full = Clock::now();
  ASSERT_EQ(c.Poll(5, out, full + std::chrono::seconds(10)), 5u);
  EXPECT_LT(Clock::now() - full, linger);
}

TEST(ConsumerBlocking, WakeCutsTheLingerShort) {
  Broker broker;
  broker.CreateTopic("t", 1);
  Producer producer(broker);
  Consumer c(broker, "g", "t", {0}, /*linger=*/std::chrono::seconds(10));
  std::vector<Record> out;
  producer.Send("t", "", "a", 0);
  ASSERT_EQ(c.Poll(10, out, Clock::now() + std::chrono::seconds(10)), 1u);
  producer.Send("t", "", "b", 0);
  out.clear();
  auto polled = BlockedPoll(c, out);
  std::this_thread::sleep_for(milliseconds(50));
  c.Wake();
  const auto [n, blocked] = polled.get();
  EXPECT_EQ(n, 1u);
  EXPECT_LT(blocked, std::chrono::seconds(1));
}

TEST(Broker, TruncateAllTopics) {
  Broker broker;
  broker.CreateTopic("a", 1);
  broker.CreateTopic("b", 2);
  Producer producer(broker);
  producer.Send("a", "", "x", 0);
  producer.Send("b", "", "y", 0);
  producer.Send("b", "", "z", 1);
  EXPECT_EQ(broker.TruncateOlderThan(util::NowMicros() + 1'000'000), 3u);
}

TEST(Mq, ConcurrentProducersConsumersDeliverEverything) {
  Broker broker;
  broker.CreateTopic("t", 4);
  // Enough records that every partition crosses several block boundaries
  // while the consumer reads concurrently.
  constexpr int kPerProducer = 4 * static_cast<int>(Partition::kBlockRecords);
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&broker, p] {
      Producer producer(broker);
      for (int i = 0; i < kPerProducer; ++i) {
        producer.Send("t", std::to_string(p * kPerProducer + i), "v");
      }
    });
  }
  Consumer c(broker, "g", "t", {0, 1, 2, 3});
  std::vector<Record> out;
  std::thread consumer([&] {
    while (out.size() < 3u * kPerProducer / 2) c.Poll(512, out);
  });
  for (auto& t : producers) t.join();
  consumer.join();
  while (c.Poll(512, out) > 0) {
  }
  ASSERT_EQ(out.size(), 3u * kPerProducer);
  std::set<std::string> keys;
  for (const Record& r : out) keys.insert(r.key);
  EXPECT_EQ(keys.size(), 3u * kPerProducer);  // each record exactly once
  EXPECT_GT(broker.GetTopic("t")->partition(0).end_offset(), 2 * kBlock);
}

TEST(Topic, TotalsAggregatePartitions) {
  Broker broker;
  broker.CreateTopic("t", 2);
  Producer producer(broker);
  producer.Send("t", "", "aaaa", 0);
  producer.Send("t", "", "bb", 1);
  Topic* t = broker.GetTopic("t");
  EXPECT_EQ(t->TotalRecords(), 2u);
  EXPECT_GT(t->TotalBytes(), 6u);
}

// ---- recovery fast path (docs/FAULT_TOLERANCE.md)

TEST(Broker, ReplayFromRewindsCommittedOffset) {
  Broker broker;
  broker.CreateTopic("t", 1);
  Producer producer(broker);
  for (int i = 0; i < 8; ++i) producer.Send("t", "", std::to_string(i), 0);

  Consumer c1(broker, "g", "t", {0});
  std::vector<Record> out;
  c1.Poll(6, out);
  c1.Commit();
  EXPECT_EQ(broker.CommittedOffset("g", "t", 0), 6u);

  // Rewind to a checkpoint-era offset: the next consumer re-reads the tail.
  auto installed = broker.ReplayFrom("g", "t", 0, 2);
  ASSERT_TRUE(installed.ok());
  EXPECT_EQ(installed.value(), 2u);
  Consumer c2(broker, "g", "t", {0});
  out.clear();
  EXPECT_EQ(c2.Poll(100, out), 6u);
  EXPECT_EQ(out.front().value, "2");
  EXPECT_EQ(out.back().value, "7");

  // Unknown topic/partition are errors; offsets clamp into the log range.
  EXPECT_FALSE(broker.ReplayFrom("g", "nope", 0, 0).ok());
  EXPECT_FALSE(broker.ReplayFrom("g", "t", 7, 0).ok());
  auto clamped = broker.ReplayFrom("g", "t", 0, 1'000'000);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped.value(), 8u);  // end of log
}

TEST(Broker, ReplayFromRespectsTruncatedStart) {
  Broker broker;
  broker.CreateTopic("t", 1);
  Partition& p = broker.GetTopic("t")->partition(0);
  for (int i = 0; i < 6; ++i) p.Append("", std::to_string(i), /*now=*/i);
  broker.TruncateOlderThan(3);  // drops offsets 0..2

  // A rewind below the retained prefix clamps to the partition start.
  auto installed = broker.ReplayFrom("g", "t", 0, 0);
  ASSERT_TRUE(installed.ok());
  EXPECT_EQ(installed.value(), 3u);
  Consumer c(broker, "g", "t", {0});
  std::vector<Record> out;
  EXPECT_EQ(c.Poll(100, out), 3u);
  EXPECT_EQ(out.front().value, "3");
}

// Commit-then-crash-before-processing: a worker that commits its poll
// position and dies before the polled records reach durable state must be
// able to rewind to its checkpointed offset and re-receive exactly the
// unprocessed tail — the broker log (not the commit) is the source of
// truth.
TEST(Mq, CommitThenCrashBeforeAckReplaysTail) {
  Broker broker;
  broker.CreateTopic("updates", 1);
  Producer producer(broker);
  for (int i = 0; i < 10; ++i) producer.Send("updates", "", std::to_string(i), 0);

  // The worker checkpoints after durably applying 4 records...
  std::vector<Record> out;
  Consumer worker(broker, "g", "updates", {0});
  worker.Poll(4, out);
  worker.Commit();
  const std::uint64_t checkpoint_offset = broker.CommittedOffset("g", "updates", 0);
  ASSERT_EQ(checkpoint_offset, 4u);

  // ...then polls and commits 4 more, but crashes before applying them:
  // the broker-side commit now runs AHEAD of durable state.
  out.clear();
  worker.Poll(4, out);
  worker.Commit();
  EXPECT_EQ(broker.CommittedOffset("g", "updates", 0), 8u);

  // Recovery rewinds to the checkpointed offset. The restarted consumer
  // re-receives offsets 4..9 — nothing lost, and everything before the
  // checkpoint (already durable) is never redelivered.
  ASSERT_TRUE(broker.ReplayFrom("g", "updates", 0, checkpoint_offset).ok());
  Consumer restarted(broker, "g", "updates", {0});
  out.clear();
  EXPECT_EQ(restarted.Poll(100, out), 6u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value, std::to_string(4 + i)) << i;
  }
}

// ---------------------------------------------------------------------------
// Durable binding (Broker::BindStore + store::SegmentStore).

namespace fs = std::filesystem;

struct DurableDir {
  DurableDir() {
    path = fs::temp_directory_path() /
           ("mq_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(path);
  }
  ~DurableDir() { fs::remove_all(path); }
  fs::path path;
};

store::StoreOptions LogOptions(const fs::path& file) {
  store::StoreOptions o;
  o.path = file.string();
  o.cluster_size = 4096;
  o.group_commit_bytes = 0;  // SyncStore is the only durability barrier
  return o;
}

TEST(MqDurable, RecordsAndOffsetsSurviveBrokerRebuild) {
  DurableDir dir;
  auto st = store::SegmentStore::Open(LogOptions(dir.path / "mqlog.hstore"));
  ASSERT_TRUE(st.ok());
  {
    Broker broker;
    ASSERT_TRUE(broker.BindStore(st.value().get()).ok());
    ASSERT_TRUE(broker.CreateTopic("updates", 2).ok());
    Producer producer(broker);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(producer.Send("updates", "key-" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    std::vector<Record> out;
    Consumer worker(broker, "g", "updates", {0, 1});
    worker.Poll(30, out);
    worker.Commit();
    ASSERT_TRUE(broker.SyncStore().ok());
  }
  // A new broker bound to the same store restores both partitions and the
  // committed offsets.
  Broker rebuilt;
  ASSERT_TRUE(rebuilt.BindStore(st.value().get()).ok());
  ASSERT_TRUE(rebuilt.CreateTopic("updates", 2).ok());
  Topic* topic = rebuilt.GetTopic("updates");
  ASSERT_NE(topic, nullptr);
  EXPECT_EQ(topic->TotalRecords(), 50u);
  EXPECT_EQ(rebuilt.CommittedOffset("g", "updates", 0) + rebuilt.CommittedOffset("g", "updates", 1),
            30u);
  // The restored log replays with the original payloads and dense offsets.
  std::vector<Record> out;
  Consumer resumed(rebuilt, "g", "updates", {0, 1});
  EXPECT_EQ(resumed.Poll(100, out), 20u);
}

// Offset records in the durable offsets stream.
std::uint64_t OffsetRecords(store::SegmentStore& st) {
  std::uint64_t n = 0;
  for (const auto& info : st.List("mq/offsets")) n += info.records;
  return n;
}

TEST(MqDurable, PollsThatReadNothingAppendNoOffsetRecords) {
  DurableDir dir;
  auto st = store::SegmentStore::Open(LogOptions(dir.path / "mqlog.hstore"));
  ASSERT_TRUE(st.ok());
  std::uint64_t after_read = 0;
  {
    Broker broker;
    ASSERT_TRUE(broker.BindStore(st.value().get()).ok());
    ASSERT_TRUE(broker.CreateTopic("updates", 3).ok());
    Producer producer(broker);
    for (int i = 0; i < 6; ++i) ASSERT_TRUE(producer.Send("updates", "", "v", 1).ok());
    Consumer worker(broker, "g", "updates", {0, 1, 2});
    std::vector<Record> out;
    ASSERT_EQ(worker.Poll(100, out), 6u);
    worker.Commit();
    // Only partition 1 moved.
    after_read = OffsetRecords(*st.value());
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(worker.Poll(100, out), 0u);
      worker.Commit();
    }
    EXPECT_EQ(OffsetRecords(*st.value()), after_read);
    ASSERT_TRUE(broker.SyncStore().ok());
  }
  Broker rebuilt;
  ASSERT_TRUE(rebuilt.BindStore(st.value().get()).ok());
  ASSERT_TRUE(rebuilt.CreateTopic("updates", 3).ok());
  EXPECT_EQ(rebuilt.CommittedOffset("g", "updates", 0), 0u);
  EXPECT_EQ(rebuilt.CommittedOffset("g", "updates", 1), 6u);
  EXPECT_EQ(rebuilt.CommittedOffset("g", "updates", 2), 0u);
  EXPECT_EQ(OffsetRecords(*st.value()), after_read);
}

TEST(MqDurable, CommitThenCrashBeforeAckRollsBackToSync) {
  // Commit-then-crash-before-ack at the STORE level: everything sent before
  // the SyncStore barrier survives; the unsynced tail is rolled back by
  // recovery — exactly the contract the ack path relies on.
  DurableDir dir;
  const auto options = LogOptions(dir.path / "mqlog.hstore");
  {
    auto st = store::SegmentStore::Open(options);
    ASSERT_TRUE(st.ok());
    Broker broker;
    ASSERT_TRUE(broker.BindStore(st.value().get()).ok());
    ASSERT_TRUE(broker.CreateTopic("updates", 1).ok());
    Producer producer(broker);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(producer.Send("updates", "", "acked-" + std::to_string(i), 0).ok());
    }
    broker.CommitOffset("g", "updates", 0, 8);
    ASSERT_TRUE(broker.SyncStore().ok());
    // Sent but never synced: the producer would only ack after SyncStore.
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(producer.Send("updates", "", "unacked-" + std::to_string(i), 0).ok());
    }
    broker.CommitOffset("g", "updates", 0, 13);
    // Crash: copy the backing file as-is (metadata still points at the
    // last sync) and recover from the copy.
    fs::copy_file(options.path, options.path + ".crash");
  }
  store::StoreOptions crashed = options;
  crashed.path = options.path + ".crash";
  auto recovered = store::SegmentStore::Open(crashed, /*create=*/false);
  ASSERT_TRUE(recovered.ok());
  Broker rebuilt;
  ASSERT_TRUE(rebuilt.BindStore(recovered.value().get()).ok());
  ASSERT_TRUE(rebuilt.CreateTopic("updates", 1).ok());
  Topic* topic = rebuilt.GetTopic("updates");
  ASSERT_NE(topic, nullptr);
  ASSERT_EQ(topic->TotalRecords(), 8u);
  EXPECT_EQ(rebuilt.CommittedOffset("g", "updates", 0), 8u);
  std::vector<Record> out;
  topic->partition(0).ReadFrom(0, 100, out);
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value, "acked-" + std::to_string(i)) << i;
    EXPECT_EQ(out[i].offset, i) << i;
  }
}

TEST(MqDurable, RetentionRetiresSealedSegments) {
  DurableDir dir;
  auto st = store::SegmentStore::Open(LogOptions(dir.path / "mqlog.hstore"));
  ASSERT_TRUE(st.ok());
  Broker broker;
  // Tiny roll threshold so truncation has whole sealed segments to retire.
  ASSERT_TRUE(broker.BindStore(st.value().get(), /*roll_records=*/4).ok());
  ASSERT_TRUE(broker.CreateTopic("updates", 1).ok());
  Topic* topic = broker.GetTopic("updates");
  for (int i = 0; i < 20; ++i) {
    topic->partition(0).Append("k", std::to_string(i), /*now=*/i);
  }
  ASSERT_TRUE(broker.SyncStore().ok());
  const auto before = st.value()->List("mq/updates/0/").size();
  ASSERT_GT(before, 2u);
  // Everything before time 12 is expired: the first sealed chains go away.
  EXPECT_GT(broker.TruncateOlderThan(12), 0u);
  ASSERT_TRUE(broker.SyncStore().ok());
  EXPECT_LT(st.value()->List("mq/updates/0/").size(), before);
  EXPECT_TRUE(st.value()->CheckInvariants().ok());
}

// A multi-block log rebuilt from the store keeps exact offsets, append
// times, keys and values — including a start offset that retention moved
// off a block boundary.
TEST(MqDurable, MultiBlockLogRebuildsExactly) {
  DurableDir dir;
  auto st = store::SegmentStore::Open(LogOptions(dir.path / "mqlog.hstore"));
  ASSERT_TRUE(st.ok());
  const std::uint64_t total = 2 * kBlock + 100;
  {
    Broker broker;
    ASSERT_TRUE(broker.BindStore(st.value().get()).ok());
    ASSERT_TRUE(broker.CreateTopic("updates", 1).ok());
    Fill(broker.GetTopic("updates")->partition(0), total);
    broker.TruncateOlderThan(1000);  // retires the sealed segments below it
    ASSERT_TRUE(broker.SyncStore().ok());
  }
  Broker rebuilt;
  ASSERT_TRUE(rebuilt.BindStore(st.value().get()).ok());
  ASSERT_TRUE(rebuilt.CreateTopic("updates", 1).ok());
  Partition& p = rebuilt.GetTopic("updates")->partition(0);
  const std::uint64_t start = p.start_offset();
  EXPECT_GT(start, 0u);
  EXPECT_LE(start, 1000u);
  EXPECT_EQ(p.end_offset(), total);
  std::vector<Record> out;
  ASSERT_EQ(p.ReadFrom(0, 1'000'000, out), total - start);
  for (std::size_t i = 0; i < out.size(); ++i) ExpectRecord(out[i], start + i);

  // The rebuilt log keeps appending at dense offsets and truncating whole
  // blocks relative to its restored base.
  Fill(p, kBlock);
  EXPECT_EQ(p.TruncateOlderThan(static_cast<util::Micros>(start + kBlock + 1)), kBlock + 1);
  out.clear();
  ASSERT_EQ(p.ReadFrom(0, 1, out), 1u);
  ExpectRecord(out[0], start + kBlock + 1);
}

}  // namespace
}  // namespace helios::mq
