// In-process Kafka substitute: partitioned, offset-addressed append-only logs.
//
// Helios (§4.1) uses Kafka to persistently store and transfer the inputs of
// sampling and serving workers: graph updates flow into an "updates" topic
// partitioned by vertex hash across M sampling workers; pre-sampled results
// flow through per-serving-worker "samples" topics. This library reproduces
// the semantics that matter to Helios:
//   * per-partition total order, offset addressing, replayable reads;
//   * producers decoupled from consumers (at-least-once delivery);
//   * consumer groups with committed offsets (so a restarted worker resumes
//     from its checkpointed position — used by fault-tolerance tests);
//   * time-based retention (TTL truncation, §4.2).
// The in-memory log is the source of truth for serving. Each partition packs
// it into append-only blocks of a fixed record count: one contiguous byte
// buffer per block holding [i64 append_time][u32 key_len][u32 value_len]
// [key][value] per record, plus a u32 end-position array. Offset lookup is
// O(1) (block = (offset - base) / kBlockRecords), written records never
// move (appends touch only the tail block), and retention frees whole
// blocks from the front — a partly expired block stays until it fully
// expires. Record is only the decoded copy a consumer receives.
// Durability is an opt-in binding to a store::SegmentStore
// (Broker::BindStore, see docs/STORAGE.md): each partition's log is mirrored
// into a chain of rolled segments, retention truncation becomes
// whole-segment retirement, and committed offsets persist in a last-wins
// offsets stream — so a broker rebuilt over the same store recovers every
// group-committed record and offset. Without a bound store the behaviour is
// unchanged (memory only).
// Consumers block instead of sleep-polling: each one parks on its own
// util::EventCount, which every partition it reads signals on Append (see
// Consumer::Poll for the wake-up and batching rule).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/event_count.h"
#include "util/hash.h"
#include "util/status.h"

namespace helios::store {
class SegmentStore;
}  // namespace helios::store

namespace helios::mq {

// One record of a partition log, decoded into the copy a consumer receives.
struct Record {
  std::uint64_t offset = 0;
  util::Micros append_time = 0;  // broker-side arrival time
  std::string key;
  std::string value;
};

// A single append-only log. Offsets are dense and start at the log's
// start_offset (which moves forward under retention truncation).
class Partition {
 public:
  // Records per storage block (the unit retention frees).
  static constexpr std::uint32_t kBlockRecords = 4096;

  Partition();
  ~Partition();

  // Returns the offset assigned to the record, after signalling every
  // watcher.
  std::uint64_t Append(std::string_view key, std::string_view value, util::Micros now);

  // Registers / removes a wake-up channel that every Append signals
  // (Consumer's blocking poll). Unwatch returns only when no Append still
  // signals `watcher`, so its owner may be destroyed afterwards.
  void Watch(util::EventCount* watcher);
  void Unwatch(util::EventCount* watcher);

  // Copies up to max_records starting at `offset` into out; returns the
  // number copied. Reading before start_offset() snaps to start_offset().
  std::size_t ReadFrom(std::uint64_t offset, std::size_t max_records,
                       std::vector<Record>& out) const;

  std::uint64_t start_offset() const;
  std::uint64_t end_offset() const;  // offset the next append will get
  // Encoded bytes of the live records (header + key + value each).
  std::size_t SizeBytes() const;
  // Bytes the log actually holds: every block's buffer capacity plus its
  // end-position array, expired-but-unfreed records included.
  std::size_t ResidentBytes() const;

  // Drops records with append_time < cutoff. Returns records dropped.
  // Memory is released a whole block at a time, once every record in the
  // block is dropped.
  // With a durable binding, sealed log segments whose every record is
  // expired are retired (truncation at segment granularity: the store side
  // may briefly retain records the in-memory log already dropped).
  std::size_t TruncateOlderThan(util::Micros cutoff);

  // Broker-internal (called under topic creation with a bound store):
  // mirrors this log into `prefix/`-named segments of `store`, first
  // restoring any records a previous incarnation group-committed there.
  // The active segment rolls (seals + replaces) every `roll_records`
  // appends so retention has retirement candidates.
  util::Status BindDurable(store::SegmentStore* store, std::string prefix,
                           std::uint64_t roll_records);

 private:
  // kBlockRecords records packed back to back; `ends[i]` is the byte
  // position just past record i. Only the tail block is ever written.
  struct Block {
    std::vector<char> bytes;
    std::vector<std::uint32_t> ends;
  };
  struct Durable;

  std::uint64_t AppendLocked(std::string_view key, std::string_view value, util::Micros now);
  void AppendDurableLocked(std::uint64_t offset, util::Micros now, std::string_view key,
                           std::string_view value);
  // Start of a live record's bytes.
  const char* RecordAt(std::uint64_t offset) const;

  mutable std::mutex mutex_;
  std::uint64_t start_offset_ = 0;  // first live record
  std::uint64_t base_offset_ = 0;   // first record of blocks_.front()
  std::uint64_t end_offset_ = 0;    // offset the next append gets
  std::deque<Block> blocks_;
  std::size_t bytes_ = 0;
  std::unique_ptr<Durable> durable_;  // null = memory-only (the default)
  std::vector<util::EventCount*> watchers_;
};

// A named set of partitions.
class Topic {
 public:
  Topic(std::string name, std::uint32_t num_partitions);

  const std::string& name() const { return name_; }
  std::uint32_t num_partitions() const { return static_cast<std::uint32_t>(partitions_.size()); }
  Partition& partition(std::uint32_t p) { return *partitions_[p]; }
  const Partition& partition(std::uint32_t p) const { return *partitions_[p]; }

  // Key-hash routing used when the producer does not pick a partition.
  std::uint32_t PartitionForKey(std::string_view key) const {
    return static_cast<std::uint32_t>(util::FnvHash(key) % num_partitions());
  }

  std::uint64_t TotalRecords() const;
  std::size_t TotalBytes() const;
  std::size_t TotalResidentBytes() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Partition>> partitions_;
};

// The broker owns topics and consumer-group offsets.
class Broker {
 public:
  // Opt-in durability: binds every topic created AFTER this call to
  // `store` (partition logs as rolled segment chains, committed offsets as
  // a last-wins stream). CreateTopic then restores whatever a previous
  // incarnation committed to the same store. The caller keeps ownership of
  // the store and must keep it alive for the broker's lifetime; call
  // before any CreateTopic.
  util::Status BindStore(store::SegmentStore* store, std::uint64_t roll_records = 256);

  // Group-commits everything appended/committed since the last sync to the
  // bound store (fdatasync + atomic metadata flip). No-op without a store.
  // THE durability barrier: records sent before a SyncStore survive a
  // crash; records after it may be rolled back to this point.
  util::Status SyncStore();

  util::Status CreateTopic(const std::string& name, std::uint32_t num_partitions);
  Topic* GetTopic(const std::string& name);

  // Committed offset bookkeeping: (group, topic, partition) -> next offset.
  void CommitOffset(const std::string& group, const std::string& topic, std::uint32_t partition,
                    std::uint64_t next_offset);
  std::uint64_t CommittedOffset(const std::string& group, const std::string& topic,
                                std::uint32_t partition) const;

  // Recovery fast path: rewinds the group's committed offset so the next
  // Consumer constructed for (group, topic, partition) resumes from `offset`.
  // Used when a restored checkpoint is older than the broker-side commit
  // (commits can run ahead of durable state — see docs/FAULT_TOLERANCE.md).
  // The offset is clamped into [start_offset, end_offset] of the partition;
  // returns the offset actually installed, or an error for unknown
  // topic/partition.
  util::StatusOr<std::uint64_t> ReplayFrom(const std::string& group, const std::string& topic,
                                           std::uint32_t partition, std::uint64_t offset);

  // Applies retention to every partition of every topic.
  std::size_t TruncateOlderThan(util::Micros cutoff);

  // Publishes per-topic record/byte gauges ("mq.topic.records{topic=..}",
  // mq.topic.bytes, mq.topic.resident_bytes) into `registry`. Call before
  // snapshotting.
  void PublishTo(obs::MetricsRegistry* registry) const;

 private:
  // Appends one offset record to the durable offsets stream, snapshotting
  // the stream into a fresh segment when it grows long. Caller holds mutex_.
  void PersistOffsetLocked(const std::string& key, std::uint64_t next_offset);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Topic>> topics_;
  std::map<std::string, std::uint64_t> committed_;  // "group/topic/partition"
  store::SegmentStore* store_ = nullptr;            // null = memory-only
  std::uint64_t roll_records_ = 256;
  std::uint64_t offsets_segment_ = 0;
  std::uint64_t offsets_appends_ = 0;
};

// Thin producer handle. It resolves its topic through the broker once and
// keeps the pointer (topics are never removed), so a send touches only the
// partition's lock. One handle per thread.
class Producer {
 public:
  explicit Producer(Broker& broker) : broker_(broker) {}

  // Sends to the key-hashed partition (or `partition` if >= 0). Returns the
  // assigned offset, or an error if the topic does not exist.
  util::StatusOr<std::uint64_t> Send(const std::string& topic, std::string_view key,
                                     std::string_view value, int partition = -1);

 private:
  Broker& broker_;
  Topic* topic_ = nullptr;  // the last topic sent to
};

// Consumer bound to a fixed set of partitions of one topic (Helios assigns
// partitions statically: worker i owns partition i). Poll() reads from the
// in-memory position; Commit() persists it to the broker for restart.
class Consumer {
 public:
  using Deadline = util::EventCount::Clock::time_point;

  // `linger` is the batching rule of the blocking poll: after a blocking
  // poll returns a partial batch, the next one reads no earlier than
  // `linger` later (unless woken). A record that reaches an idle consumer is
  // read at once; a steady stream is read in batches of about rate × linger
  // instead of one wake-up per record; a backlog is read in full batches
  // back to back. Zero reads every record as soon as it lands.
  Consumer(Broker& broker, std::string group, std::string topic,
           std::vector<std::uint32_t> partitions, std::chrono::microseconds linger = {});
  ~Consumer();
  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  // Reads up to max_records across assigned partitions (round-robin),
  // appending them to `out`. With a `deadline` in the future the poll
  // blocks: it first waits out the linger of a previous partial batch,
  // then, while nothing is readable, parks until an assigned partition is
  // appended to, Wake() is called, or the deadline passes. The default
  // deadline never blocks.
  std::size_t Poll(std::size_t max_records, std::vector<Record>& out, Deadline deadline = {});
  // Like Poll but also reports the source partition of each record.
  std::size_t PollWithPartitions(std::size_t max_records, std::vector<Record>& out,
                                 std::vector<std::uint32_t>& partitions_out,
                                 Deadline deadline = {});
  // Makes a blocked poll (or else the next one) return at once. The only
  // member that may be called from another thread.
  void Wake();

  // Persists the position of every partition read since the last commit;
  // unmoved partitions cost nothing.
  void Commit();
  // Total records available but not yet consumed (the consumer lag —
  // Helios's ingestion-latency experiments watch this).
  std::uint64_t Lag() const;

 private:
  // The topic, resolved once it exists; its partitions are watched from then on.
  Topic* Resolve() const;
  // Poll and PollWithPartitions; `partitions_out` may be null.
  std::size_t PollInto(std::size_t max_records, std::vector<Record>& out,
                       std::vector<std::uint32_t>* partitions_out, Deadline deadline);
  std::size_t ReadAvailable(Topic* t, std::size_t max_records, std::vector<Record>& out,
                            std::vector<std::uint32_t>* partitions_out);

  Broker& broker_;
  std::string group_;
  std::string topic_;
  std::vector<std::uint32_t> partitions_;
  std::vector<std::uint64_t> positions_;  // next offset to read, per partition
  std::vector<std::uint64_t> committed_;  // last position committed, per partition
  std::size_t next_partition_index_ = 0;  // round-robin cursor
  std::chrono::microseconds linger_;
  mutable Topic* resolved_ = nullptr;
  // Signalled by Append on every watched partition, and by Wake().
  mutable util::EventCount data_;
  // Signalled by Wake() only: the linger is not cut short by appends, so a
  // steady producer never pays for waking a lingering consumer.
  util::EventCount wake_;
  std::atomic<bool> woken_{false};
  Deadline linger_until_{};
};

}  // namespace helios::mq
