// Binary codec for graph updates and a small byte-buffer reader/writer.
//
// The message-queue substrate carries opaque byte payloads (like Kafka), so
// every record that crosses a queue — graph updates, sample updates,
// subscription control messages — is serialized through these helpers.
// Little-endian, length-prefixed, no padding; encode/decode round-trips are
// property-tested in tests/graph_codec_test.cc.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "graph/types.h"

namespace helios::graph {

// Append-only byte writer.
class ByteWriter {
 public:
  void PutU8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(std::uint16_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(std::uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(std::uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(std::int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF32(float v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }
  void PutBytes(const std::string& s) {
    PutU32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }
  void PutFloats(const std::vector<float>& v) {
    PutU32(static_cast<std::uint32_t>(v.size()));
    if (!v.empty()) PutRaw(v.data(), v.size() * sizeof(float));
  }

  std::string Take() { return std::move(buf_); }
  const std::string& buffer() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

  // Arena reuse: drop contents but keep the allocation, so a long-lived
  // writer reaches a steady state with zero heap traffic per encode.
  void Clear() { buf_.clear(); }
  // Overwrites 4 already-written bytes at `pos` (length back-patching).
  void PatchU32(std::size_t pos, std::uint32_t v) {
    std::memcpy(buf_.data() + pos, &v, sizeof(v));
  }

 private:
  void PutRaw(const void* p, std::size_t n) {
    const char* c = static_cast<const char*>(p);
    buf_.append(c, n);
  }
  std::string buf_;
};

// Sequential byte reader; ok() turns false on underflow instead of throwing
// so malformed payloads are a recoverable error. Holds a reference: `buf`
// must outlive the reader (in particular, don't pass a temporary).
class ByteReader {
 public:
  explicit ByteReader(const std::string& buf) : buf_(buf) {}
  explicit ByteReader(std::string&& buf) = delete;  // would dangle

  std::uint8_t GetU8() { std::uint8_t v = 0; GetRaw(&v, sizeof(v)); return v; }
  std::uint16_t GetU16() { std::uint16_t v = 0; GetRaw(&v, sizeof(v)); return v; }
  std::uint32_t GetU32() { std::uint32_t v = 0; GetRaw(&v, sizeof(v)); return v; }
  std::uint64_t GetU64() { std::uint64_t v = 0; GetRaw(&v, sizeof(v)); return v; }
  std::int64_t GetI64() { std::int64_t v = 0; GetRaw(&v, sizeof(v)); return v; }
  float GetF32() { float v = 0; GetRaw(&v, sizeof(v)); return v; }
  double GetF64() { double v = 0; GetRaw(&v, sizeof(v)); return v; }
  std::string GetBytes() {
    const std::uint32_t n = GetU32();
    if (!CheckAvail(n)) return {};
    std::string s = buf_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  std::vector<float> GetFloats() {
    const std::uint32_t n = GetU32();
    std::vector<float> v;
    if (!CheckAvail(static_cast<std::size_t>(n) * sizeof(float))) return v;
    v.resize(n);
    if (n > 0) std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
    return v;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == buf_.size(); }

 private:
  bool CheckAvail(std::size_t n) {
    if (pos_ + n > buf_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }
  void GetRaw(void* p, std::size_t n) {
    if (!CheckAvail(n)) {
      std::memset(p, 0, n);
      return;
    }
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }

  const std::string& buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// GraphUpdate <-> bytes.
std::string EncodeUpdate(const GraphUpdate& update);
bool DecodeUpdate(const std::string& payload, GraphUpdate& out);

}  // namespace helios::graph
