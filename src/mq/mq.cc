#include "mq/mq.h"

#include <algorithm>
#include <cstring>

#include "store/segment_store.h"
#include "util/logging.h"

namespace helios::mq {

namespace {
// Durable record payload: [offset u64][append_time i64][value bytes]. The
// key travels as the store record's own key; offset and arrival time must
// ride along so recovery rebuilds the exact in-memory log.
constexpr std::size_t kDurableHeader = 16;

std::string EncodeDurable(std::uint64_t offset, util::Micros append_time,
                          std::string_view value) {
  std::string out;
  out.reserve(kDurableHeader + value.size());
  out.append(reinterpret_cast<const char*>(&offset), 8);
  const std::int64_t t = static_cast<std::int64_t>(append_time);
  out.append(reinterpret_cast<const char*>(&t), 8);
  out.append(value);
  return out;
}

// In-block record header: [i64 append_time][u32 key_len][u32 value_len].
constexpr std::size_t kRecordHeader = 16;

struct RecordView {
  util::Micros append_time = 0;
  std::string_view key;
  std::string_view value;
  std::size_t size() const { return kRecordHeader + key.size() + value.size(); }
};

RecordView DecodeRecord(const char* rec) {
  std::int64_t t;
  std::uint32_t key_len, value_len;
  std::memcpy(&t, rec, 8);
  std::memcpy(&key_len, rec + 8, 4);
  std::memcpy(&value_len, rec + 12, 4);
  const char* key = rec + kRecordHeader;
  return {static_cast<util::Micros>(t), {key, key_len}, {key + key_len, value_len}};
}
}  // namespace

// ---------------------------------------------------------------- Partition

// Durable mirror of the log: `sealed` chains the rolled segments oldest
// first (retention retires from the front), `active` takes new appends.
struct Partition::Durable {
  store::SegmentStore* store = nullptr;
  std::string prefix;
  std::uint64_t roll_records = 256;
  struct SealedSegment {
    std::uint64_t id = 0;
    util::Micros max_time = 0;  // newest record inside; gates retirement
  };
  std::vector<SealedSegment> sealed;
  std::uint64_t active = 0;
  std::uint64_t active_records = 0;
  util::Micros active_max_time = 0;
  std::uint64_t rolls = 0;  // naming counter for fresh segments
};

Partition::Partition() = default;
Partition::~Partition() = default;

util::Status Partition::BindDurable(store::SegmentStore* store, std::string prefix,
                                    std::uint64_t roll_records) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (durable_ != nullptr) return util::Status::FailedPrecondition("partition already bound");
  if (end_offset_ != 0) {
    return util::Status::FailedPrecondition("bind before the partition has records");
  }
  auto d = std::make_unique<Durable>();
  d->store = store;
  d->prefix = std::move(prefix);
  d->roll_records = std::max<std::uint64_t>(1, roll_records);

  // Restore the group-committed log of a previous incarnation through the
  // ordinary append path (durable_ is still unset, so nothing is mirrored
  // back). Segment ids are allocated monotonically, so List order (id
  // order) is append order.
  bool have_active = false;
  for (const auto& info : store->List(d->prefix + "/")) {
    util::Micros max_time = 0;
    auto status = store->Scan(
        info.id, [&](const store::RecordLocator&, std::string_view key, std::string_view value) {
          if (value.size() < kDurableHeader) return true;  // skip malformed
          std::uint64_t offset;
          std::int64_t t;
          std::memcpy(&offset, value.data(), 8);
          std::memcpy(&t, value.data() + 8, 8);
          if (blocks_.empty()) {
            start_offset_ = base_offset_ = end_offset_ = offset;
          } else if (offset != end_offset_) {
            // A gap means an append was lost to a store error; everything
            // after it would be mis-addressed, so stop at the gap.
            HLOG(kWarn, "mq") << "offset gap in " << d->prefix << " at " << offset;
            return false;
          }
          const auto append_time = static_cast<util::Micros>(t);
          max_time = std::max(max_time, append_time);
          AppendLocked(key, value.substr(kDurableHeader), append_time);
          return true;
        });
    if (!status.ok()) return status;
    if (info.sealed) {
      d->sealed.push_back({info.id, max_time});
    } else {
      // The previous incarnation's active segment; keep appending to it.
      d->active = info.id;
      d->active_records = info.records;
      d->active_max_time = max_time;
      d->rolls = info.id;  // any value unique-ifying future names
      have_active = true;
    }
  }
  if (!have_active) {
    auto created = store->Create(d->prefix + "/" + std::to_string(d->rolls));
    if (!created.ok()) return created.status();
    d->active = created.value();
  }
  durable_ = std::move(d);
  return util::Status::Ok();
}

void Partition::AppendDurableLocked(std::uint64_t offset, util::Micros now, std::string_view key,
                                    std::string_view value) {
  Durable& d = *durable_;
  auto appended = d.store->Append(d.active, key, EncodeDurable(offset, now, value));
  if (!appended.ok()) {
    HLOG(kWarn, "mq") << "durable append to " << d.prefix
                      << " failed: " << appended.status().ToString();
    return;
  }
  d.active_records++;
  d.active_max_time = std::max(d.active_max_time, now);
  if (d.active_records >= d.roll_records) {
    // Roll: seal the full segment (making it a retirement candidate for
    // retention) and open a fresh one.
    (void)d.store->Seal(d.active);
    d.sealed.push_back({d.active, d.active_max_time});
    d.rolls++;
    auto created = d.store->Create(d.prefix + "/" + std::to_string(d.rolls));
    if (created.ok()) {
      d.active = created.value();
      d.active_records = 0;
      d.active_max_time = 0;
    } else {
      HLOG(kWarn, "mq") << "cannot roll segment for " << d.prefix << ": "
                        << created.status().ToString();
    }
  }
}

std::uint64_t Partition::AppendLocked(std::string_view key, std::string_view value,
                                      util::Micros now) {
  if (blocks_.empty() || blocks_.back().ends.size() == kBlockRecords) {
    // Seal the full tail at its exact size and open the next block, sized
    // like the last one so a steady stream grows it at most once.
    std::size_t hint = 0;
    if (!blocks_.empty()) {
      blocks_.back().bytes.shrink_to_fit();
      hint = blocks_.back().bytes.size();
    }
    blocks_.emplace_back();
    blocks_.back().bytes.reserve(hint);
    blocks_.back().ends.reserve(kBlockRecords);
  }
  Block& tail = blocks_.back();
  const std::size_t at = tail.bytes.size();
  const std::size_t size = kRecordHeader + key.size() + value.size();
  tail.bytes.resize(at + size);
  char* rec = tail.bytes.data() + at;
  const std::int64_t t = static_cast<std::int64_t>(now);
  const auto key_len = static_cast<std::uint32_t>(key.size());
  const auto value_len = static_cast<std::uint32_t>(value.size());
  std::memcpy(rec, &t, 8);
  std::memcpy(rec + 8, &key_len, 4);
  std::memcpy(rec + 12, &value_len, 4);
  if (!key.empty()) std::memcpy(rec + kRecordHeader, key.data(), key.size());
  if (!value.empty()) std::memcpy(rec + kRecordHeader + key.size(), value.data(), value.size());
  tail.ends.push_back(static_cast<std::uint32_t>(at + size));
  bytes_ += size;
  return end_offset_++;
}

std::uint64_t Partition::Append(std::string_view key, std::string_view value, util::Micros now) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t offset = AppendLocked(key, value, now);
  if (durable_ != nullptr) AppendDurableLocked(offset, now, key, value);
  // Under the lock, so Unwatch cannot return while a signal is in flight.
  for (util::EventCount* w : watchers_) w->Notify();
  return offset;
}

void Partition::Watch(util::EventCount* watcher) {
  std::lock_guard<std::mutex> lock(mutex_);
  watchers_.push_back(watcher);
}

void Partition::Unwatch(util::EventCount* watcher) {
  std::lock_guard<std::mutex> lock(mutex_);
  watchers_.erase(std::remove(watchers_.begin(), watchers_.end(), watcher), watchers_.end());
}

const char* Partition::RecordAt(std::uint64_t offset) const {
  const std::uint64_t rel = offset - base_offset_;
  const Block& block = blocks_[static_cast<std::size_t>(rel / kBlockRecords)];
  const auto i = static_cast<std::size_t>(rel % kBlockRecords);
  return block.bytes.data() + (i == 0 ? 0 : block.ends[i - 1]);
}

std::size_t Partition::ReadFrom(std::uint64_t offset, std::size_t max_records,
                                std::vector<Record>& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t next = std::max(offset, start_offset_);
  if (next >= end_offset_) return 0;
  const auto n =
      static_cast<std::size_t>(std::min<std::uint64_t>(max_records, end_offset_ - next));
  out.reserve(out.size() + n);
  for (std::size_t copied = 0; copied < n; ++copied, ++next) {
    const RecordView v = DecodeRecord(RecordAt(next));
    Record& r = out.emplace_back();
    r.offset = next;
    r.append_time = v.append_time;
    r.key.assign(v.key);
    r.value.assign(v.value);
  }
  return n;
}

std::uint64_t Partition::start_offset() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return start_offset_;
}

std::uint64_t Partition::end_offset() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return end_offset_;
}

std::size_t Partition::SizeBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::size_t Partition::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Block& b : blocks_) {
    n += b.bytes.capacity() + b.ends.capacity() * sizeof(std::uint32_t);
  }
  return n;
}

std::size_t Partition::TruncateOlderThan(util::Micros cutoff) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Records are in append order, so the prefix with append_time < cutoff is
  // exactly what retention drops.
  const std::uint64_t first = start_offset_;
  while (start_offset_ < end_offset_) {
    const RecordView v = DecodeRecord(RecordAt(start_offset_));
    if (v.append_time >= cutoff) break;
    bytes_ -= v.size();
    ++start_offset_;
  }
  const std::size_t drop = static_cast<std::size_t>(start_offset_ - first);
  if (drop == 0) return 0;
  // Free every block wholly below the new start. A partly expired block
  // (or a drained tail that is not yet full) stays until it fully expires.
  while (!blocks_.empty() && base_offset_ + kBlockRecords <= start_offset_) {
    blocks_.pop_front();
    base_offset_ += kBlockRecords;
  }
  if (durable_ != nullptr) {
    // Truncation at segment granularity: retire sealed segments whose
    // newest record is expired. Partially-expired segments wait for the
    // next pass (their live tail must stay readable for recovery).
    Durable& d = *durable_;
    while (!d.sealed.empty() && d.sealed.front().max_time < cutoff) {
      (void)d.store->Retire(d.sealed.front().id);
      d.sealed.erase(d.sealed.begin());
    }
  }
  return drop;
}

// -------------------------------------------------------------------- Topic

Topic::Topic(std::string name, std::uint32_t num_partitions) : name_(std::move(name)) {
  partitions_.reserve(num_partitions);
  for (std::uint32_t i = 0; i < num_partitions; ++i) {
    partitions_.push_back(std::make_unique<Partition>());
  }
}

std::uint64_t Topic::TotalRecords() const {
  std::uint64_t n = 0;
  for (const auto& p : partitions_) n += p->end_offset() - p->start_offset();
  return n;
}

std::size_t Topic::TotalBytes() const {
  std::size_t n = 0;
  for (const auto& p : partitions_) n += p->SizeBytes();
  return n;
}

std::size_t Topic::TotalResidentBytes() const {
  std::size_t n = 0;
  for (const auto& p : partitions_) n += p->ResidentBytes();
  return n;
}

// ------------------------------------------------------------------- Broker

namespace {
constexpr const char* kOffsetsPointer = "mq/offsets";
// Snapshot the last-wins offsets stream once it accumulates this many
// records; keeps the stream's replay cost bounded.
constexpr std::uint64_t kOffsetsSnapshotEvery = 4096;
}  // namespace

util::Status Broker::BindStore(store::SegmentStore* store, std::uint64_t roll_records) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (store_ != nullptr) return util::Status::FailedPrecondition("store already bound");
  if (!topics_.empty()) {
    return util::Status::FailedPrecondition("BindStore must precede CreateTopic");
  }
  // Restore committed offsets from the last-wins stream, if one exists.
  auto named = store->GetNamed(kOffsetsPointer);
  if (named.ok()) {
    offsets_segment_ = named.value();
    std::uint64_t replayed = 0;
    auto status = store->Scan(
        offsets_segment_,
        [&](const store::RecordLocator&, std::string_view key, std::string_view value) {
          if (value.size() == 8) {
            std::uint64_t off;
            std::memcpy(&off, value.data(), 8);
            committed_[std::string(key)] = off;
            replayed++;
          }
          return true;
        });
    if (!status.ok()) return status;
    offsets_appends_ = replayed;
  } else {
    auto created = store->Create("mq/offsets/0");
    if (!created.ok()) return created.status();
    offsets_segment_ = created.value();
    auto status = store->SetNamed(kOffsetsPointer, offsets_segment_);
    if (!status.ok()) return status;
  }
  store_ = store;
  roll_records_ = std::max<std::uint64_t>(1, roll_records);
  return util::Status::Ok();
}

util::Status Broker::SyncStore() {
  store::SegmentStore* store;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    store = store_;
  }
  if (store == nullptr) return util::Status::Ok();
  return store->Commit();
}

void Broker::PersistOffsetLocked(const std::string& key, std::uint64_t next_offset) {
  if (store_ == nullptr) return;
  auto appended = store_->Append(
      offsets_segment_, key,
      std::string_view(reinterpret_cast<const char*>(&next_offset), 8));
  if (!appended.ok()) {
    HLOG(kWarn, "mq") << "cannot persist offset " << key << ": "
                      << appended.status().ToString();
    return;
  }
  if (++offsets_appends_ < kOffsetsSnapshotEvery) return;
  // Rewrite the stream as one record per (group, topic, partition) and flip
  // the pointer; the retired history goes back to the cluster pool.
  auto created = store_->Create("mq/offsets/snap");
  if (!created.ok()) return;
  for (const auto& [k, v] : committed_) {
    if (!store_->Append(created.value(), k,
                        std::string_view(reinterpret_cast<const char*>(&v), 8))
             .ok()) {
      (void)store_->Retire(created.value());
      return;
    }
  }
  if (!store_->SetNamed(kOffsetsPointer, created.value()).ok()) {
    (void)store_->Retire(created.value());
    return;
  }
  (void)store_->Retire(offsets_segment_);
  offsets_segment_ = created.value();
  offsets_appends_ = committed_.size();
}

util::Status Broker::CreateTopic(const std::string& name, std::uint32_t num_partitions) {
  if (num_partitions == 0) return util::Status::InvalidArgument("topic needs >= 1 partition");
  std::lock_guard<std::mutex> lock(mutex_);
  if (topics_.count(name)) return util::Status::AlreadyExists("topic exists: " + name);
  auto topic = std::make_unique<Topic>(name, num_partitions);
  if (store_ != nullptr) {
    for (std::uint32_t p = 0; p < num_partitions; ++p) {
      auto status = topic->partition(p).BindDurable(
          store_, "mq/" + name + "/" + std::to_string(p), roll_records_);
      if (!status.ok()) return status;
    }
  }
  topics_.emplace(name, std::move(topic));
  return util::Status::Ok();
}

Topic* Broker::GetTopic(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = topics_.find(name);
  return it == topics_.end() ? nullptr : it->second.get();
}

namespace {
std::string OffsetKey(const std::string& group, const std::string& topic, std::uint32_t p) {
  return group + "/" + topic + "/" + std::to_string(p);
}
}  // namespace

void Broker::CommitOffset(const std::string& group, const std::string& topic,
                          std::uint32_t partition, std::uint64_t next_offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string key = OffsetKey(group, topic, partition);
  committed_[key] = next_offset;
  PersistOffsetLocked(key, next_offset);
}

std::uint64_t Broker::CommittedOffset(const std::string& group, const std::string& topic,
                                      std::uint32_t partition) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = committed_.find(OffsetKey(group, topic, partition));
  return it == committed_.end() ? 0 : it->second;
}

util::StatusOr<std::uint64_t> Broker::ReplayFrom(const std::string& group,
                                                 const std::string& topic, std::uint32_t partition,
                                                 std::uint64_t offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return util::Status::NotFound("no such topic: " + topic);
  Topic* t = it->second.get();
  if (partition >= t->num_partitions()) {
    return util::Status::InvalidArgument("partition out of range");
  }
  const Partition& p = t->partition(partition);
  const std::uint64_t clamped = std::clamp(offset, p.start_offset(), p.end_offset());
  const std::string key = OffsetKey(group, topic, partition);
  committed_[key] = clamped;
  PersistOffsetLocked(key, clamped);
  return clamped;
}

std::size_t Broker::TruncateOlderThan(util::Micros cutoff) {
  std::vector<Topic*> topics;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    topics.reserve(topics_.size());
    for (auto& [name, topic] : topics_) topics.push_back(topic.get());
  }
  std::size_t dropped = 0;
  for (Topic* t : topics) {
    for (std::uint32_t p = 0; p < t->num_partitions(); ++p) {
      dropped += t->partition(p).TruncateOlderThan(cutoff);
    }
  }
  return dropped;
}

void Broker::PublishTo(obs::MetricsRegistry* registry) const {
  std::vector<const Topic*> topics;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    topics.reserve(topics_.size());
    for (const auto& [name, topic] : topics_) topics.push_back(topic.get());
  }
  for (const Topic* t : topics) {
    const obs::Labels labels{{"topic", t->name()}};
    registry->GetGauge("mq.topic.records", labels)
        ->Set(static_cast<std::int64_t>(t->TotalRecords()));
    registry->GetGauge("mq.topic.bytes", labels)->Set(static_cast<std::int64_t>(t->TotalBytes()));
    registry->GetGauge("mq.topic.resident_bytes", labels)
        ->Set(static_cast<std::int64_t>(t->TotalResidentBytes()));
    registry->GetGauge("mq.topic.partitions", labels)
        ->Set(static_cast<std::int64_t>(t->num_partitions()));
  }
}

// ----------------------------------------------------------------- Producer

util::StatusOr<std::uint64_t> Producer::Send(const std::string& topic, std::string_view key,
                                             std::string_view value, int partition) {
  if (topic_ == nullptr || topic_->name() != topic) topic_ = broker_.GetTopic(topic);
  Topic* t = topic_;
  if (t == nullptr) return util::Status::NotFound("no such topic: " + topic);
  std::uint32_t p = partition >= 0 ? static_cast<std::uint32_t>(partition)
                                   : t->PartitionForKey(key);
  if (p >= t->num_partitions()) return util::Status::InvalidArgument("partition out of range");
  return t->partition(p).Append(key, value, util::NowMicros());
}

// ----------------------------------------------------------------- Consumer

Consumer::Consumer(Broker& broker, std::string group, std::string topic,
                   std::vector<std::uint32_t> partitions, std::chrono::microseconds linger)
    : broker_(broker),
      group_(std::move(group)),
      topic_(std::move(topic)),
      partitions_(std::move(partitions)),
      linger_(linger) {
  positions_.reserve(partitions_.size());
  for (std::uint32_t p : partitions_) {
    positions_.push_back(broker_.CommittedOffset(group_, topic_, p));
  }
  committed_ = positions_;
  Resolve();
}

Consumer::~Consumer() {
  if (resolved_ == nullptr) return;
  for (std::uint32_t p : partitions_) {
    if (p < resolved_->num_partitions()) resolved_->partition(p).Unwatch(&data_);
  }
}

Topic* Consumer::Resolve() const {
  if (resolved_ != nullptr) return resolved_;
  resolved_ = broker_.GetTopic(topic_);
  if (resolved_ == nullptr) return nullptr;
  for (std::uint32_t p : partitions_) {
    if (p < resolved_->num_partitions()) resolved_->partition(p).Watch(&data_);
  }
  return resolved_;
}

std::size_t Consumer::Poll(std::size_t max_records, std::vector<Record>& out, Deadline deadline) {
  return PollInto(max_records, out, nullptr, deadline);
}

std::size_t Consumer::PollWithPartitions(std::size_t max_records, std::vector<Record>& out,
                                         std::vector<std::uint32_t>& partitions_out,
                                         Deadline deadline) {
  return PollInto(max_records, out, &partitions_out, deadline);
}

std::size_t Consumer::PollInto(std::size_t max_records, std::vector<Record>& out,
                               std::vector<std::uint32_t>* partitions_out, Deadline deadline) {
  Topic* t = Resolve();
  if (t == nullptr || partitions_.empty()) return 0;
  using Clock = util::EventCount::Clock;
  Clock::time_point now = Clock::now();
  if (deadline <= now) return ReadAvailable(t, max_records, out, partitions_out);
  if (linger_until_ > now) {
    const std::uint64_t key = wake_.Key();
    if (!woken_.load(std::memory_order_seq_cst)) wake_.Wait(key, std::min(linger_until_, deadline));
  }
  for (;;) {
    // The key is read before the partitions, so an append after the read
    // below cuts the wait short.
    const std::uint64_t key = data_.Key();
    const std::size_t n = ReadAvailable(t, max_records, out, partitions_out);
    now = Clock::now();
    if (n > 0) {
      linger_until_ = n < max_records ? now + linger_ : Deadline{};
      return n;
    }
    linger_until_ = Deadline{};
    if (woken_.exchange(false, std::memory_order_seq_cst) || now >= deadline) return 0;
    data_.Wait(key, deadline);
  }
}

std::size_t Consumer::ReadAvailable(Topic* t, std::size_t max_records, std::vector<Record>& out,
                                    std::vector<std::uint32_t>* partitions_out) {
  std::size_t total = 0;
  // Round-robin over assigned partitions so one hot partition cannot starve
  // the others (matters for the skew experiments).
  for (std::size_t scanned = 0; scanned < partitions_.size() && total < max_records; ++scanned) {
    const std::size_t i = next_partition_index_;
    next_partition_index_ = (next_partition_index_ + 1) % partitions_.size();
    const std::uint32_t p = partitions_[i];
    const std::size_t before = out.size();
    const std::size_t n = t->partition(p).ReadFrom(positions_[i], max_records - total, out);
    if (n == 0) continue;
    // Position advances to just past the last record actually returned
    // (records before start_offset may have been truncated away).
    positions_[i] = out.back().offset + 1;
    if (partitions_out != nullptr) {
      partitions_out->insert(partitions_out->end(), out.size() - before, p);
    }
    total += n;
  }
  return total;
}

void Consumer::Wake() {
  woken_.store(true, std::memory_order_seq_cst);
  wake_.Notify();
  data_.Notify();
}

void Consumer::Commit() {
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    if (positions_[i] == committed_[i]) continue;
    broker_.CommitOffset(group_, topic_, partitions_[i], positions_[i]);
    committed_[i] = positions_[i];
  }
}

std::uint64_t Consumer::Lag() const {
  Topic* t = Resolve();
  if (t == nullptr) return 0;
  std::uint64_t lag = 0;
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    const std::uint64_t end = t->partition(partitions_[i]).end_offset();
    if (end > positions_[i]) lag += end - positions_[i];
  }
  return lag;
}

}  // namespace helios::mq
