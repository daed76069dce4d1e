#include "store/segment_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <map>
#include <queue>
#include <thread>
#include <unordered_set>
#include <utility>

#include "util/crc32c.h"
#include "util/hash.h"
#include "util/logging.h"

namespace helios::store {

namespace {

constexpr std::uint64_t kMagic = 0x314F525453534C48ULL;  // "HLSSTRO1"
constexpr std::uint32_t kFrameHeader = 12;               // crc + len + keylen

// Host-order fixed-width append/read helpers (the repo serializes with
// memcpy throughout; the store file is not meant to move between
// architectures of different endianness).
void PutU32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::uint32_t GetU32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
std::uint64_t GetU64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Frame checksum: covers the len/keylen words and the payload, so a flipped
// bit anywhere in the frame (header or body) fails verification.
std::uint32_t FrameCrc(std::uint32_t len, std::uint32_t keylen, std::string_view key,
                       std::string_view value) {
  std::uint32_t crc = util::Crc32c(0, &len, sizeof(len));
  crc = util::Crc32c(crc, &keylen, sizeof(keylen));
  crc = util::Crc32c(crc, key.data(), key.size());
  crc = util::Crc32c(crc, value.data(), value.size());
  return crc;
}

struct BloomFilter {
  std::vector<std::uint64_t> bits;
  std::uint32_t hashes = 0;

  void Build(std::uint64_t keys, std::uint32_t bits_per_key) {
    const std::uint64_t nbits = std::max<std::uint64_t>(64, keys * bits_per_key);
    bits.assign((nbits + 63) / 64, 0);
    hashes = std::clamp<std::uint32_t>(static_cast<std::uint32_t>(bits_per_key * 69 / 100), 1, 8);
  }
  void Add(std::uint64_t h) {
    const std::uint64_t nbits = bits.size() * 64;
    std::uint64_t h2 = util::MixHash(h) | 1;
    for (std::uint32_t i = 0; i < hashes; ++i) {
      const std::uint64_t bit = h % nbits;
      bits[bit >> 6] |= 1ULL << (bit & 63);
      h += h2;
    }
  }
  bool MayContain(std::uint64_t h) const {
    if (bits.empty()) return false;
    const std::uint64_t nbits = bits.size() * 64;
    std::uint64_t h2 = util::MixHash(h) | 1;
    for (std::uint32_t i = 0; i < hashes; ++i) {
      const std::uint64_t bit = h % nbits;
      if ((bits[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
      h += h2;
    }
    return true;
  }
};

}  // namespace

struct SegmentStore::Segment {
  std::uint64_t id = 0;
  std::string name;
  bool sealed = false;
  std::uint64_t bytes = 0;  // logical length, including uncommitted tail
  std::uint64_t committed_bytes = 0;
  std::uint64_t records = 0;
  std::uint64_t committed_records = 0;
  std::vector<std::uint64_t> chain;  // cluster ids, in stream order

  // Point-read structures; sealed segments only, built at Seal() or lazily
  // after reopen. `index` is sorted by (hash, offset).
  bool indexed = false;
  BloomFilter bloom;
  std::vector<std::pair<std::uint64_t, RecordLocator>> index;
};

struct SegmentStore::Impl {
  StoreOptions options;
  int fd = -1;
  mutable std::mutex mutex;

  std::map<std::uint64_t, Segment> segments;  // ordered: List() is id-sorted
  std::unordered_map<std::string, std::uint64_t> named;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> free_clusters;
  std::vector<std::uint64_t> pending_free;  // freed, reusable after next commit
  std::uint64_t file_clusters = 0;          // logical file extent, in clusters
  std::uint64_t data_start = 0;             // first data cluster
  std::uint64_t next_segment_id = 1;
  std::uint64_t commit_seq = 0;
  std::uint32_t next_copy = 0;  // metadata copy the next commit writes
  std::uint64_t uncommitted_bytes = 0;
  bool dirty = false;  // structural changes (create/seal/retire/named)
  // The first failed write or commit. After it the handle commits nothing
  // more, the close included: a retried fdatasync that succeeds proves
  // nothing about the pages the failed one dropped, and a half-written
  // round must not flip.
  util::Status failed;
  std::string scratch;  // frame build buffer, reused across appends

  mutable StoreStats stats;

  // Interval group-commit thread (options.commit_interval_us > 0).
  std::thread committer;
  std::condition_variable committer_cv;
  bool stopping = false;

  ~Impl() {
    if (committer.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
      }
      committer_cv.notify_all();
      committer.join();
    }
    {
      // Graceful close is a commit (unless a write or commit failed): only
      // crashes lose the tail.
      std::lock_guard<std::mutex> lock(mutex);
      (void)CommitLocked();
    }
    if (fd >= 0) ::close(fd);
  }

  std::uint64_t MetaRegionBytes() const {
    return static_cast<std::uint64_t>(options.meta_clusters) * options.cluster_size;
  }

  std::uint64_t AllocClusterLocked() {
    if (!free_clusters.empty()) {
      const std::uint64_t c = free_clusters.top();
      free_clusters.pop();
      return c;
    }
    return file_clusters++;
  }

  // ---- raw cluster-chain IO ------------------------------------------

  util::Status WriteBytesLocked(Segment& seg, std::uint64_t offset, std::string_view data) {
    const std::uint32_t cs = options.cluster_size;
    std::uint64_t off = offset;
    const char* p = data.data();
    std::size_t n = data.size();
    while (n > 0) {
      const std::uint64_t ci = off / cs;
      const std::uint64_t in = off % cs;
      while (ci >= seg.chain.size()) seg.chain.push_back(AllocClusterLocked());
      const std::size_t chunk = std::min<std::uint64_t>(n, cs - in);
      const off_t phys = static_cast<off_t>(seg.chain[ci] * cs + in);
      if (::pwrite(fd, p, chunk, phys) != static_cast<ssize_t>(chunk)) {
        failed = util::Status::Internal("segment store: short write at cluster " +
                                        std::to_string(seg.chain[ci]));
        return failed;
      }
      p += chunk;
      n -= chunk;
      off += chunk;
    }
    return util::Status::Ok();
  }

  util::Status ReadBytesLocked(const Segment& seg, std::uint64_t offset, std::size_t n,
                               char* out) const {
    if (offset + n > seg.bytes) {
      return util::Status::Internal("segment store: read past end of segment " +
                                    std::to_string(seg.id));
    }
    const std::uint32_t cs = options.cluster_size;
    std::uint64_t off = offset;
    while (n > 0) {
      const std::uint64_t ci = off / cs;
      const std::uint64_t in = off % cs;
      const std::size_t chunk = std::min<std::uint64_t>(n, cs - in);
      const off_t phys = static_cast<off_t>(seg.chain[ci] * cs + in);
      if (::pread(fd, out, chunk, phys) != static_cast<ssize_t>(chunk)) {
        return util::Status::Internal("segment store: short read at cluster " +
                                      std::to_string(seg.chain[ci]));
      }
      out += chunk;
      n -= chunk;
      off += chunk;
    }
    return util::Status::Ok();
  }

  // ---- record framing -------------------------------------------------

  util::StatusOr<RecordLocator> AppendLocked(std::uint64_t id, std::string_view key,
                                             std::string_view value, bool allow_auto_commit) {
    auto it = segments.find(id);
    if (it == segments.end()) return util::Status::NotFound("no such segment");
    Segment& seg = it->second;
    if (seg.sealed) return util::Status::FailedPrecondition("segment is sealed");

    const std::uint32_t keylen = static_cast<std::uint32_t>(key.size());
    const std::uint32_t len = static_cast<std::uint32_t>(key.size() + value.size());
    scratch.clear();
    PutU32(scratch, FrameCrc(len, keylen, key, value));
    PutU32(scratch, len);
    PutU32(scratch, keylen);
    scratch.append(key);
    scratch.append(value);

    RecordLocator loc;
    loc.segment = id;
    loc.offset = seg.bytes;
    loc.size = static_cast<std::uint32_t>(scratch.size());
    auto status = WriteBytesLocked(seg, seg.bytes, scratch);
    if (!status.ok()) return status;
    seg.bytes += scratch.size();
    seg.records++;
    uncommitted_bytes += scratch.size();
    stats.appended_records++;
    stats.appended_bytes += scratch.size();

    if (allow_auto_commit && options.group_commit_bytes > 0 &&
        uncommitted_bytes >= options.group_commit_bytes) {
      status = CommitLocked();
      if (!status.ok()) return status;
    }
    return loc;
  }

  // Reads one frame; key/value may be nullptr. On CRC failure reports
  // corruption and hands back nothing.
  util::Status ReadRecordLocked(const Segment& seg, std::uint64_t offset, std::string* key,
                                std::string* value, RecordLocator* loc, std::string& buf) const {
    char header[kFrameHeader];
    auto status = ReadBytesLocked(seg, offset, kFrameHeader, header);
    if (!status.ok()) return status;
    const std::uint32_t crc = GetU32(header);
    const std::uint32_t len = GetU32(header + 4);
    const std::uint32_t keylen = GetU32(header + 8);
    if (keylen > len || offset + kFrameHeader + len > seg.bytes) {
      stats.corrupt_reads++;
      return util::Status::Internal("corrupt record frame in segment " + std::to_string(seg.id));
    }
    buf.resize(len);
    status = ReadBytesLocked(seg, offset + kFrameHeader, len, buf.data());
    if (!status.ok()) return status;
    const std::string_view k(buf.data(), keylen);
    const std::string_view v(buf.data() + keylen, len - keylen);
    if (FrameCrc(len, keylen, k, v) != crc) {
      stats.corrupt_reads++;
      return util::Status::Internal("CRC mismatch in segment " + std::to_string(seg.id) +
                                    " at offset " + std::to_string(offset));
    }
    stats.record_reads++;
    if (key != nullptr) key->assign(k);
    if (value != nullptr) value->assign(v);
    if (loc != nullptr) {
      loc->segment = seg.id;
      loc->offset = offset;
      loc->size = kFrameHeader + len;
    }
    return util::Status::Ok();
  }

  // ---- metadata commit ------------------------------------------------

  void SerializeMeta(std::string& out) const {
    out.clear();
    PutU64(out, kMagic);
    PutU32(out, options.cluster_size);
    PutU32(out, options.meta_clusters);
    PutU64(out, commit_seq + 1);
    PutU64(out, 0);  // block length patched below
    PutU64(out, file_clusters);
    PutU64(out, next_segment_id);
    PutU32(out, static_cast<std::uint32_t>(segments.size()));
    for (const auto& [id, seg] : segments) {
      PutU64(out, id);
      out.push_back(seg.sealed ? 1 : 0);
      PutU32(out, static_cast<std::uint32_t>(seg.name.size()));
      out.append(seg.name);
      PutU64(out, seg.bytes);  // becomes committed_bytes on recovery
      PutU64(out, seg.records);
      PutU32(out, static_cast<std::uint32_t>(seg.chain.size()));
      for (const std::uint64_t c : seg.chain) PutU64(out, c);
    }
    PutU32(out, static_cast<std::uint32_t>(named.size()));
    for (const auto& [name, seg] : named) {
      PutU32(out, static_cast<std::uint32_t>(name.size()));
      out.append(name);
      PutU64(out, seg);
    }
    const std::uint64_t block_len = out.size() + 4;  // include trailing CRC
    std::memcpy(out.data() + 24, &block_len, sizeof(block_len));
    PutU32(out, util::Crc32c(out));
  }

  static util::Status SyncFailed(const char* what) {
    return util::Status::Internal(std::string("segment store: fdatasync of ") + what +
                                  " failed: " + std::strerror(errno));
  }

  util::Status CommitLocked() {
    if (failed.ok()) failed = FlipLocked();
    return failed;
  }

  util::Status FlipLocked() {
    if (!dirty && uncommitted_bytes == 0) return util::Status::Ok();
    if (fd < 0) return util::Status::Internal("store is closed");
    if (options.sync) {
      if (::fdatasync(fd) != 0) return SyncFailed("data");
      stats.fsyncs++;
    }
    std::string meta;
    SerializeMeta(meta);
    if (meta.size() > MetaRegionBytes()) {
      return util::Status::Internal("segment store metadata region full (" +
                                    std::to_string(meta.size()) + " B > " +
                                    std::to_string(MetaRegionBytes()) +
                                    " B); raise meta_clusters");
    }
    const off_t meta_off = static_cast<off_t>(next_copy) * static_cast<off_t>(MetaRegionBytes());
    if (::pwrite(fd, meta.data(), meta.size(), meta_off) != static_cast<ssize_t>(meta.size())) {
      return util::Status::Internal("segment store: metadata write failed");
    }
    // The copy on disk may now hold seq + 1, but nothing here flips: a
    // retried commit rewrites the same copy.
    if (options.sync) {
      if (::fdatasync(fd) != 0) return SyncFailed("metadata");
      stats.fsyncs++;
    }
    commit_seq++;
    next_copy ^= 1;
    for (auto& [id, seg] : segments) {
      seg.committed_bytes = seg.bytes;
      seg.committed_records = seg.records;
    }
    for (const std::uint64_t c : pending_free) free_clusters.push(c);
    pending_free.clear();
    uncommitted_bytes = 0;
    dirty = false;
    stats.commits++;
    return util::Status::Ok();
  }

  // Parses one metadata copy into a candidate state. Returns the sequence
  // number, or 0 if the copy is invalid (bad magic/CRC/geometry/chains).
  struct MetaState {
    std::uint64_t seq = 0;
    std::uint64_t file_clusters = 0;
    std::uint64_t next_segment_id = 1;
    std::map<std::uint64_t, Segment> segments;
    std::unordered_map<std::string, std::uint64_t> named;
  };

  std::uint64_t TryParseMeta(std::uint32_t copy, MetaState& out) const {
    const std::uint64_t region = MetaRegionBytes();
    const off_t base = static_cast<off_t>(copy) * static_cast<off_t>(region);
    char head[32];
    if (::pread(fd, head, sizeof(head), base) != static_cast<ssize_t>(sizeof(head))) return 0;
    if (GetU64(head) != kMagic) return 0;
    if (GetU32(head + 8) != options.cluster_size || GetU32(head + 12) != options.meta_clusters) {
      return 0;
    }
    const std::uint64_t seq = GetU64(head + 16);
    const std::uint64_t block_len = GetU64(head + 24);
    if (seq == 0 || block_len < sizeof(head) + 4 || block_len > region) return 0;
    std::string block(block_len, '\0');
    if (::pread(fd, block.data(), block_len, base) != static_cast<ssize_t>(block_len)) return 0;
    const std::uint32_t stored_crc = GetU32(block.data() + block_len - 4);
    if (util::Crc32c(0, block.data(), block_len - 4) != stored_crc) return 0;

    // CRC-valid: parse (bounds-checked; any overrun invalidates the copy).
    const char* p = block.data() + 32;
    const char* end = block.data() + block_len - 4;
    auto need = [&](std::size_t n) { return static_cast<std::size_t>(end - p) >= n; };
    if (!need(16)) return 0;
    out.file_clusters = GetU64(p);
    out.next_segment_id = GetU64(p + 8);
    p += 16;
    if (!need(4)) return 0;
    const std::uint32_t nseg = GetU32(p);
    p += 4;
    const std::uint64_t data_start = 2ULL * options.meta_clusters;
    std::unordered_set<std::uint64_t> used;
    for (std::uint32_t i = 0; i < nseg; ++i) {
      if (!need(13)) return 0;
      Segment seg;
      seg.id = GetU64(p);
      seg.sealed = p[8] != 0;
      const std::uint32_t namelen = GetU32(p + 9);
      p += 13;
      if (!need(namelen)) return 0;
      seg.name.assign(p, namelen);
      p += namelen;
      if (!need(20)) return 0;
      seg.bytes = GetU64(p);
      seg.records = GetU64(p + 8);
      const std::uint32_t chainlen = GetU32(p + 16);
      p += 20;
      if (!need(static_cast<std::size_t>(chainlen) * 8)) return 0;
      seg.chain.reserve(chainlen);
      for (std::uint32_t c = 0; c < chainlen; ++c) {
        const std::uint64_t cluster = GetU64(p + static_cast<std::size_t>(c) * 8);
        if (cluster < data_start || cluster >= out.file_clusters) return 0;
        if (!used.insert(cluster).second) return 0;  // shared cluster: corrupt
        seg.chain.push_back(cluster);
      }
      p += static_cast<std::size_t>(chainlen) * 8;
      if (seg.bytes > static_cast<std::uint64_t>(chainlen) * options.cluster_size) return 0;
      seg.committed_bytes = seg.bytes;
      seg.committed_records = seg.records;
      const std::uint64_t id = seg.id;
      out.segments.emplace(id, std::move(seg));
    }
    if (!need(4)) return 0;
    const std::uint32_t nnamed = GetU32(p);
    p += 4;
    for (std::uint32_t i = 0; i < nnamed; ++i) {
      if (!need(4)) return 0;
      const std::uint32_t namelen = GetU32(p);
      p += 4;
      if (!need(namelen + 8)) return 0;
      std::string name(p, namelen);
      p += namelen;
      out.named[std::move(name)] = GetU64(p);
      p += 8;
    }
    out.seq = seq;
    return seq;
  }

  // ---- sealed-segment point index -------------------------------------

  util::Status EnsureIndexLocked(Segment& seg) {
    if (seg.indexed) return util::Status::Ok();
    seg.bloom.Build(seg.records, options.bloom_bits_per_key);
    seg.index.clear();
    seg.index.reserve(seg.records);
    std::string buf;
    std::uint64_t off = 0;
    while (off < seg.bytes) {
      char header[kFrameHeader];
      auto status = ReadBytesLocked(seg, off, kFrameHeader, header);
      if (!status.ok()) return status;
      const std::uint32_t len = GetU32(header + 4);
      const std::uint32_t keylen = GetU32(header + 8);
      if (keylen > len || off + kFrameHeader + len > seg.bytes) {
        stats.corrupt_reads++;
        return util::Status::Internal("corrupt record frame while indexing segment " +
                                      std::to_string(seg.id));
      }
      buf.resize(keylen);
      status = ReadBytesLocked(seg, off + kFrameHeader, keylen, buf.data());
      if (!status.ok()) return status;
      const std::uint64_t h = util::FastHash(buf);
      RecordLocator loc;
      loc.segment = seg.id;
      loc.offset = off;
      loc.size = kFrameHeader + len;
      seg.bloom.Add(h);
      seg.index.emplace_back(h, loc);
      off += kFrameHeader + len;
    }
    std::sort(seg.index.begin(), seg.index.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first < b.first : a.second.offset < b.second.offset;
              });
    seg.indexed = true;
    return util::Status::Ok();
  }
};

SegmentStore::SegmentStore() : impl_(new Impl()) {}
SegmentStore::~SegmentStore() = default;

util::StatusOr<std::unique_ptr<SegmentStore>> SegmentStore::Open(const StoreOptions& options,
                                                                 bool create) {
  if (options.path.empty()) return util::Status::InvalidArgument("store path is empty");
  if (options.cluster_size < 512 || (options.cluster_size & (options.cluster_size - 1)) != 0) {
    return util::Status::InvalidArgument("cluster_size must be a power of two >= 512");
  }
  if (options.meta_clusters == 0) {
    return util::Status::InvalidArgument("meta_clusters must be >= 1");
  }
  if (!create && !std::filesystem::exists(options.path)) {
    return util::Status::NotFound("no store at " + options.path);
  }
  std::unique_ptr<SegmentStore> store(new SegmentStore());
  Impl& impl = *store->impl_;
  impl.options = options;
  impl.fd = ::open(options.path.c_str(), O_RDWR | (create ? O_CREAT : 0), 0644);
  if (impl.fd < 0) return util::Status::Internal("cannot open store file " + options.path);
  impl.data_start = 2ULL * options.meta_clusters;

  struct stat st{};
  if (::fstat(impl.fd, &st) != 0) return util::Status::Internal("fstat failed");
  if (st.st_size == 0) {
    // Fresh store: lay down metadata copy A so a reopen (or a crash before
    // the first commit) recovers to the valid empty state.
    impl.file_clusters = impl.data_start;
    impl.dirty = true;
    auto status = impl.CommitLocked();
    if (!status.ok()) return status;
  } else {
    // The file is self-describing: adopt the cluster_size/meta_clusters it
    // was created with (stored in the copy-A header) so any reader can open
    // any store without knowing its geometry. If that header is torn, fall
    // back to the caller's geometry for the copy-B probe.
    char head[16];
    if (::pread(impl.fd, head, sizeof(head), 0) == static_cast<ssize_t>(sizeof(head)) &&
        GetU64(head) == kMagic) {
      const std::uint32_t cs = GetU32(head + 8);
      const std::uint32_t mc = GetU32(head + 12);
      if (cs >= 512 && (cs & (cs - 1)) == 0 && mc > 0) {
        impl.options.cluster_size = cs;
        impl.options.meta_clusters = mc;
        impl.data_start = 2ULL * mc;
      }
    }
    Impl::MetaState a;
    Impl::MetaState b;
    std::uint64_t seq_a = impl.TryParseMeta(0, a);
    std::uint64_t seq_b = impl.TryParseMeta(1, b);
    if (seq_a == 0 && seq_b == 0 &&
        (impl.options.cluster_size != options.cluster_size ||
         impl.options.meta_clusters != options.meta_clusters)) {
      // A sane-looking but wrong adopted geometry can misplace copy B;
      // retry with what the caller asked for before giving up.
      impl.options.cluster_size = options.cluster_size;
      impl.options.meta_clusters = options.meta_clusters;
      impl.data_start = 2ULL * options.meta_clusters;
      a = {};
      b = {};
      seq_a = impl.TryParseMeta(0, a);
      seq_b = impl.TryParseMeta(1, b);
    }
    if (seq_a == 0 && seq_b == 0) {
      return util::Status::Internal("store " + options.path +
                                    ": both metadata copies invalid (unrecoverable)");
    }
    Impl::MetaState& win = seq_a >= seq_b ? a : b;
    impl.commit_seq = win.seq;
    impl.next_copy = seq_a >= seq_b ? 1 : 0;
    impl.file_clusters = win.file_clusters;
    impl.next_segment_id = win.next_segment_id;
    impl.segments = std::move(win.segments);
    impl.named = std::move(win.named);
    // Free list = data clusters not reachable from any chain.
    std::unordered_set<std::uint64_t> used;
    for (const auto& [id, seg] : impl.segments) {
      used.insert(seg.chain.begin(), seg.chain.end());
    }
    for (std::uint64_t c = impl.data_start; c < impl.file_clusters; ++c) {
      if (used.find(c) == used.end()) impl.free_clusters.push(c);
    }
  }

  if (options.commit_interval_us > 0) {
    impl.committer = std::thread([&impl] {
      std::unique_lock<std::mutex> lock(impl.mutex);
      while (!impl.stopping) {
        impl.committer_cv.wait_for(
            lock, std::chrono::microseconds(impl.options.commit_interval_us),
            [&impl] { return impl.stopping; });
        if (impl.stopping) break;
        if (impl.dirty || impl.uncommitted_bytes > 0) {
          const auto status = impl.CommitLocked();
          if (!status.ok()) {
            HLOG(kError, "store") << "interval commit: " << status.ToString();
          }
        }
      }
    });
  }
  return store;
}

util::StatusOr<std::uint64_t> SegmentStore::Create(std::string name) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  const std::uint64_t id = impl.next_segment_id++;
  Segment seg;
  seg.id = id;
  seg.name = std::move(name);
  impl.segments.emplace(id, std::move(seg));
  impl.dirty = true;
  return id;
}

util::StatusOr<RecordLocator> SegmentStore::Append(std::uint64_t segment, std::string_view key,
                                                   std::string_view value) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  return impl.AppendLocked(segment, key, value, /*allow_auto_commit=*/true);
}

util::Status SegmentStore::Seal(std::uint64_t segment, bool point_index) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  auto it = impl.segments.find(segment);
  if (it == impl.segments.end()) return util::Status::NotFound("no such segment");
  if (it->second.sealed) return util::Status::FailedPrecondition("segment already sealed");
  it->second.sealed = true;
  impl.dirty = true;
  if (point_index) return impl.EnsureIndexLocked(it->second);
  return util::Status::Ok();
}

util::Status SegmentStore::Retire(std::uint64_t segment) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  auto it = impl.segments.find(segment);
  if (it == impl.segments.end()) return util::Status::NotFound("no such segment");
  impl.pending_free.insert(impl.pending_free.end(), it->second.chain.begin(),
                           it->second.chain.end());
  impl.segments.erase(it);
  impl.dirty = true;
  impl.stats.retired_segments++;
  return util::Status::Ok();
}

util::Status SegmentStore::Commit() {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  return impl.CommitLocked();
}

util::Status SegmentStore::SetNamed(const std::string& name, std::uint64_t segment) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  if (impl.segments.find(segment) == impl.segments.end()) {
    return util::Status::NotFound("no such segment");
  }
  impl.named[name] = segment;
  impl.dirty = true;
  return util::Status::Ok();
}

util::StatusOr<std::uint64_t> SegmentStore::GetNamed(const std::string& name) const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  auto it = impl.named.find(name);
  if (it == impl.named.end()) return util::Status::NotFound("no named pointer: " + name);
  return it->second;
}

void SegmentStore::ClearNamed(const std::string& name) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  if (impl.named.erase(name) > 0) impl.dirty = true;
}

util::Status SegmentStore::Read(const RecordLocator& loc, std::string* key,
                                std::string* value) const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  auto it = impl.segments.find(loc.segment);
  if (it == impl.segments.end()) return util::Status::NotFound("no such segment");
  std::string buf;
  return impl.ReadRecordLocked(it->second, loc.offset, key, value, nullptr, buf);
}

util::Status SegmentStore::Scan(
    std::uint64_t segment,
    util::FunctionRef<bool(const RecordLocator&, std::string_view, std::string_view)> fn) const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  auto it = impl.segments.find(segment);
  if (it == impl.segments.end()) return util::Status::NotFound("no such segment");
  const Segment& seg = it->second;
  std::string buf;
  std::uint64_t off = 0;
  while (off < seg.bytes) {
    char header[kFrameHeader];
    auto status = impl.ReadBytesLocked(seg, off, kFrameHeader, header);
    if (!status.ok()) return status;
    const std::uint32_t crc = GetU32(header);
    const std::uint32_t len = GetU32(header + 4);
    const std::uint32_t keylen = GetU32(header + 8);
    if (keylen > len || off + kFrameHeader + len > seg.bytes) {
      impl.stats.corrupt_reads++;
      return util::Status::Internal("corrupt record frame in segment " + std::to_string(seg.id));
    }
    buf.resize(len);
    status = impl.ReadBytesLocked(seg, off + kFrameHeader, len, buf.data());
    if (!status.ok()) return status;
    const std::string_view k(buf.data(), keylen);
    const std::string_view v(buf.data() + keylen, len - keylen);
    if (FrameCrc(len, keylen, k, v) != crc) {
      impl.stats.corrupt_reads++;
      return util::Status::Internal("CRC mismatch in segment " + std::to_string(seg.id) +
                                    " at offset " + std::to_string(off));
    }
    impl.stats.record_reads++;
    RecordLocator loc;
    loc.segment = seg.id;
    loc.offset = off;
    loc.size = kFrameHeader + len;
    if (!fn(loc, k, v)) return util::Status::Ok();
    off += kFrameHeader + len;
  }
  return util::Status::Ok();
}

util::StatusOr<RecordLocator> SegmentStore::FindNewestFirst(const std::uint64_t* segments,
                                                            std::size_t n, std::string_view key,
                                                            std::string* value) const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  const std::uint64_t h = util::FastHash(key);
  std::string buf;
  for (std::size_t i = 0; i < n; ++i) {
    auto it = impl.segments.find(segments[i]);
    if (it == impl.segments.end()) return util::Status::NotFound("no such segment");
    Segment& seg = it->second;
    if (seg.sealed) {
      auto status = impl.EnsureIndexLocked(seg);
      if (!status.ok()) return status;
      impl.stats.bloom_probes++;
      if (!seg.bloom.MayContain(h)) {
        impl.stats.bloom_skips++;
        continue;
      }
      auto range = std::equal_range(
          seg.index.begin(), seg.index.end(), std::make_pair(h, RecordLocator{}),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      // Newest copy within a segment = largest offset; walk backwards.
      for (auto rit = std::make_reverse_iterator(range.second),
                rend = std::make_reverse_iterator(range.first);
           rit != rend; ++rit) {
        std::string k;
        auto read = impl.ReadRecordLocked(seg, rit->second.offset, &k, value, nullptr, buf);
        if (!read.ok()) return read;
        if (k == key) return rit->second;
      }
    } else {
      // Active segment: no index yet; full scan, last match wins.
      bool found = false;
      RecordLocator hit;
      std::string hit_value;
      std::uint64_t off = 0;
      while (off < seg.bytes) {
        std::string k;
        std::string v;
        RecordLocator loc;
        auto read = impl.ReadRecordLocked(seg, off, &k, &v, &loc, buf);
        if (!read.ok()) return read;
        if (k == key) {
          found = true;
          hit = loc;
          hit_value = std::move(v);
        }
        off += loc.size;
      }
      if (found) {
        if (value != nullptr) *value = std::move(hit_value);
        return hit;
      }
    }
  }
  return util::Status::NotFound("key not in any segment");
}

util::StatusOr<std::uint64_t> SegmentStore::CompactInto(
    std::string name, const std::vector<std::uint64_t>& inputs,
    util::FunctionRef<bool(std::string_view, std::string_view, const RecordLocator&)> live,
    bool fail_before_commit) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  for (const std::uint64_t id : inputs) {
    if (impl.segments.find(id) == impl.segments.end()) {
      return util::Status::NotFound("compaction input " + std::to_string(id) + " missing");
    }
  }
  const std::uint64_t out_id = impl.next_segment_id++;
  {
    Segment seg;
    seg.id = out_id;
    seg.name = std::move(name);
    impl.segments.emplace(out_id, std::move(seg));
  }
  impl.dirty = true;

  // Stream live records across. Auto-commit is suppressed so the entire
  // rewrite + retire lands in ONE commit: a crash anywhere in between
  // recovers to the pre-compaction directory with no cluster leaked.
  util::Status failure;
  for (const std::uint64_t id : inputs) {
    const Segment& in = impl.segments.at(id);
    std::string buf;
    std::uint64_t off = 0;
    while (off < in.bytes && failure.ok()) {
      std::string k;
      std::string v;
      RecordLocator loc;
      auto status = impl.ReadRecordLocked(in, off, &k, &v, &loc, buf);
      if (!status.ok()) {
        failure = status;
        break;
      }
      if (live(k, v, loc)) {
        auto appended = impl.AppendLocked(out_id, k, v, /*allow_auto_commit=*/false);
        if (!appended.ok()) {
          failure = appended.status();
          break;
        }
      }
      off += loc.size;
    }
    if (!failure.ok()) break;
  }

  if (!failure.ok() || fail_before_commit) {
    // Roll back the half-built output. Its clusters were never part of a
    // durable commit, so they return straight to the free list.
    auto it = impl.segments.find(out_id);
    impl.uncommitted_bytes -= std::min<std::uint64_t>(impl.uncommitted_bytes, it->second.bytes);
    for (const std::uint64_t c : it->second.chain) impl.free_clusters.push(c);
    impl.segments.erase(it);
    if (!failure.ok()) return failure;
    return util::Status::Internal("injected crash before compaction commit");
  }

  auto it = impl.segments.find(out_id);
  it->second.sealed = true;
  auto status = impl.EnsureIndexLocked(it->second);
  if (!status.ok()) return status;
  for (const std::uint64_t id : inputs) {
    auto in = impl.segments.find(id);
    impl.pending_free.insert(impl.pending_free.end(), in->second.chain.begin(),
                             in->second.chain.end());
    impl.segments.erase(in);
    impl.stats.retired_segments++;
  }
  status = impl.CommitLocked();
  if (!status.ok()) return status;
  impl.stats.compactions++;
  return out_id;
}

std::vector<SegmentInfo> SegmentStore::List(std::string_view name_prefix) const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  std::vector<SegmentInfo> out;
  for (const auto& [id, seg] : impl.segments) {
    if (seg.name.rfind(name_prefix, 0) != 0) continue;
    SegmentInfo info;
    info.id = id;
    info.name = seg.name;
    info.sealed = seg.sealed;
    info.bytes = seg.bytes;
    info.committed_bytes = seg.committed_bytes;
    info.records = seg.records;
    info.clusters = seg.chain.size();
    out.push_back(std::move(info));
  }
  return out;
}

util::StatusOr<SegmentInfo> SegmentStore::Info(std::uint64_t segment) const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  auto it = impl.segments.find(segment);
  if (it == impl.segments.end()) return util::Status::NotFound("no such segment");
  const Segment& seg = it->second;
  SegmentInfo info;
  info.id = seg.id;
  info.name = seg.name;
  info.sealed = seg.sealed;
  info.bytes = seg.bytes;
  info.committed_bytes = seg.committed_bytes;
  info.records = seg.records;
  info.clusters = seg.chain.size();
  return info;
}

util::Status SegmentStore::CheckInvariants() const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  std::unordered_set<std::uint64_t> used;
  for (const auto& [id, seg] : impl.segments) {
    for (const std::uint64_t c : seg.chain) {
      if (c < impl.data_start || c >= impl.file_clusters) {
        return util::Status::Internal("cluster " + std::to_string(c) + " out of range");
      }
      if (!used.insert(c).second) {
        return util::Status::Internal("cluster " + std::to_string(c) +
                                      " reachable from two chains");
      }
    }
    if (seg.committed_bytes > seg.chain.size() * impl.options.cluster_size) {
      return util::Status::Internal("segment " + std::to_string(id) +
                                    " committed length exceeds its chain");
    }
  }
  std::unordered_set<std::uint64_t> free_set;
  auto free_copy = impl.free_clusters;
  while (!free_copy.empty()) {
    if (!free_set.insert(free_copy.top()).second) {
      return util::Status::Internal("cluster " + std::to_string(free_copy.top()) +
                                    " on the free list twice");
    }
    free_copy.pop();
  }
  for (const std::uint64_t c : impl.pending_free) {
    if (!free_set.insert(c).second) {
      return util::Status::Internal("cluster " + std::to_string(c) +
                                    " both free and pending-free");
    }
  }
  for (std::uint64_t c = impl.data_start; c < impl.file_clusters; ++c) {
    const bool is_used = used.find(c) != used.end();
    const bool is_free = free_set.find(c) != free_set.end();
    if (is_used == is_free) {
      return util::Status::Internal("cluster " + std::to_string(c) + " is " +
                                    (is_used ? "both reachable and free" : "leaked"));
    }
  }
  return util::Status::Ok();
}

StoreStats SegmentStore::GetStats() const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  StoreStats s = impl.stats;
  s.file_bytes = impl.file_clusters * impl.options.cluster_size;
  s.clusters_total = impl.file_clusters - impl.data_start;
  s.clusters_free = impl.free_clusters.size() + impl.pending_free.size();
  s.segments = impl.segments.size();
  s.sealed_segments = 0;
  for (const auto& [id, seg] : impl.segments) {
    if (seg.sealed) s.sealed_segments++;
  }
  return s;
}

void SegmentStore::PublishTo(obs::MetricsRegistry* registry, const obs::Labels& labels) const {
  const StoreStats s = GetStats();
  auto set = [&](const char* name, std::uint64_t v) {
    registry->GetGauge(name, labels)->Set(static_cast<std::int64_t>(v));
  };
  set("store.file_bytes", s.file_bytes);
  set("store.clusters_total", s.clusters_total);
  set("store.clusters_free", s.clusters_free);
  set("store.segments", s.segments);
  set("store.sealed_segments", s.sealed_segments);
  set("store.commits", s.commits);
  set("store.fsyncs", s.fsyncs);
  set("store.appended_records", s.appended_records);
  set("store.appended_bytes", s.appended_bytes);
  set("store.record_reads", s.record_reads);
  set("store.corrupt_reads", s.corrupt_reads);
  set("store.bloom_probes", s.bloom_probes);
  set("store.bloom_skips", s.bloom_skips);
  set("store.compactions", s.compactions);
  set("store.retired_segments", s.retired_segments);
}

util::StatusOr<std::uint64_t> SegmentStore::DebugPhysicalOffset(std::uint64_t segment,
                                                                std::uint64_t logical) const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  auto it = impl.segments.find(segment);
  if (it == impl.segments.end()) return util::Status::NotFound("no such segment");
  const Segment& seg = it->second;
  if (logical >= seg.bytes) return util::Status::InvalidArgument("offset past end of segment");
  const std::uint32_t cs = impl.options.cluster_size;
  return seg.chain[logical / cs] * cs + logical % cs;
}

}  // namespace helios::store
