// Unit and property tests for the util substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/aligned.h"
#include "util/config.h"
#include "util/hash.h"
#include "util/histogram.h"
#include "util/queue.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace helios::util {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  const double rate = 0.01;
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 5.0);
}

// Property: Zipf with s ~ 1 is heavily skewed toward small indices and
// stays in range.
TEST(Zipf, RangeAndSkew) {
  Rng rng(17);
  Zipf zipf(1000, 1.1);
  std::vector<int> counts(1000, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const auto v = zipf.Sample(rng);
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Rank-0 should dominate rank-99 by roughly (100)^s.
  EXPECT_GT(counts[0], counts[99] * 10);
  // Head mass: top-10 ranks should hold a large share.
  const int head = std::accumulate(counts.begin(), counts.begin() + 10, 0);
  EXPECT_GT(head, n / 3);
}

TEST(Zipf, NearUniformForTinyExponent) {
  Rng rng(19);
  Zipf zipf(10, 0.01);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) counts[zipf.Sample(rng)]++;
  const auto [min_it, max_it] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LT(*max_it, *min_it * 2);
}

// ---------------------------------------------------------------- Hash

TEST(Hash, MixHashAvalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  const int trials = 64;
  for (int bit = 0; bit < trials; ++bit) {
    const std::uint64_t a = MixHash(0x1234567890ABCDEFULL);
    const std::uint64_t b = MixHash(0x1234567890ABCDEFULL ^ (1ULL << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  EXPECT_NEAR(total_flips / static_cast<double>(trials), 32.0, 6.0);
}

TEST(Hash, PartitionOfBalancesKeys) {
  const std::uint32_t parts = 8;
  std::vector<int> counts(parts, 0);
  for (std::uint64_t v = 0; v < 80000; ++v) counts[PartitionOf(v, parts)]++;
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Hash, FnvDistinguishesStrings) {
  EXPECT_NE(FnvHash("samples-1"), FnvHash("samples-2"));
  EXPECT_EQ(FnvHash("abc"), FnvHash("abc"));
}

// ------------------------------------------------------------ Histogram

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.P99(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(Histogram, ExactForSmallValues) {
  Histogram h;
  for (std::uint64_t v = 0; v < 16; ++v) h.Record(v);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_NEAR(h.Mean(), 7.5, 1e-9);
}

TEST(Histogram, QuantilesWithinBucketError) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.Record(v);
  // Buckets have <= ~6% relative width.
  EXPECT_NEAR(static_cast<double>(h.P50()), 50000.0, 50000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.P99()), 99000.0, 99000.0 * 0.07);
  EXPECT_EQ(h.max(), 100000u);
}

TEST(Histogram, MergeEqualsCombinedRecording) {
  Histogram a, b, combined;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.Uniform(1 << 20);
    ((i % 2) ? a : b).Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.P50(), combined.P50());
  EXPECT_EQ(a.P99(), combined.P99());
  EXPECT_EQ(a.max(), combined.max());
}

TEST(Histogram, P999TracksTail) {
  Histogram h;
  // 998 small values + 2 large: P99 stays small (rank 990 of 1000), P999
  // (rank 999) reaches the outliers' bucket.
  for (int i = 0; i < 998; ++i) h.Record(10);
  h.Record(1000000);
  h.Record(1000000);
  EXPECT_LE(h.P99(), 11u);
  EXPECT_GE(h.P999(), 900000u);
  EXPECT_EQ(h.P999(), h.Quantile(0.999));
}

// Quantile boundaries on exact bucket edges: in the exact (small-value)
// region each value is its own bucket, so the cumulative cut between q and
// q+epsilon lands precisely between adjacent values.
TEST(Histogram, QuantileExactAtBucketBoundaries) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 10; ++v) h.Record(v);  // 10 one-count buckets
  // Rank = floor(q * (count-1)) + 1, so edges sit at multiples of 1/9.
  EXPECT_EQ(h.Quantile(0.0), 1u);
  EXPECT_EQ(h.Quantile(0.111), 1u);  // just below 1/9: still rank 1
  EXPECT_EQ(h.Quantile(0.112), 2u);  // just past the edge: rank 2
  EXPECT_EQ(h.Quantile(0.5), 5u);
  EXPECT_EQ(h.Quantile(1.0), 10u);
}

TEST(Histogram, MergeDisjointRangesCoversBoth) {
  Histogram low, high;
  for (std::uint64_t v = 1; v <= 1000; ++v) low.Record(v);
  for (std::uint64_t v = 1000000; v < 1001000; ++v) high.Record(v);
  low.Merge(high);
  EXPECT_EQ(low.count(), 2000u);
  EXPECT_EQ(low.min(), 1u);
  EXPECT_EQ(low.max(), 1000999u);
  // Half the mass is below 1000, half at ~1e6: P50 stays in the low range,
  // P95 lands in the high range.
  EXPECT_LE(low.P50(), 1100u);
  EXPECT_GE(low.P95(), 900000u);
  EXPECT_NEAR(low.Mean(), (500.5 * 1000 + 1000499.5 * 1000) / 2000.0,
              low.Mean() * 0.01);
}

TEST(Histogram, ToJsonHasSummaryAndBuckets) {
  Histogram h;
  h.Record(1);
  h.Record(1);
  h.Record(500);
  const std::string json = h.ToJson();
  EXPECT_NE(json.find("\"count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"min\":1"), std::string::npos);
  EXPECT_NE(json.find("\"max\":500"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[["), std::string::npos);
  EXPECT_NE(json.find("[1,2]"), std::string::npos);  // bucket upper 1, count 2
}

TEST(Histogram, ToJsonEmpty) {
  const std::string json = Histogram().ToJson();
  EXPECT_NE(json.find("\"count\":0"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[]"), std::string::npos);
}

// Regression: values near the 2^48 ceiling overflow a uint64 running sum
// after ~65k samples (100k * (2^48-1) = ~2.8e19 > 2^64-1), which used to
// corrupt Mean(). The sum is now 128-bit.
TEST(Histogram, MeanSurvivesSumOverflowNear2Pow48) {
  Histogram h;
  const std::uint64_t big = (1ull << 48) - 1;
  for (int i = 0; i < 100000; ++i) h.Record(big);
  EXPECT_EQ(h.count(), 100000u);
  EXPECT_EQ(h.min(), big);
  EXPECT_EQ(h.max(), big);
  EXPECT_NEAR(h.Mean(), static_cast<double>(big), 1.0);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

// Property sweep: a recorded value's quantile-1.0 bound is >= the value's
// bucket lower bound and bounded by max.
class HistogramRangeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramRangeTest, SingleValueQuantiles) {
  Histogram h;
  h.Record(GetParam());
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), GetParam());
  EXPECT_LE(h.Quantile(1.0), GetParam());
  EXPECT_GE(h.Quantile(1.0), GetParam() - GetParam() / 8);
}

INSTANTIATE_TEST_SUITE_P(Values, HistogramRangeTest,
                         ::testing::Values(0ull, 1ull, 15ull, 16ull, 1000ull, 123456ull,
                                           (1ull << 32), (1ull << 47)));

// ---------------------------------------------------------------- Queue

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.Pop().value(), i);
}

TEST(MpmcQueue, TryPushRespectsCapacity) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(MpmcQueue, CloseUnblocksPop) {
  MpmcQueue<int> q;
  std::thread t([&] {
    auto v = q.Pop();
    EXPECT_FALSE(v.has_value());
  });
  q.Close();
  t.join();
}

TEST(MpmcQueue, CloseDrainsRemaining) {
  MpmcQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(MpmcQueue, PopBatchDrainsUpToLimit) {
  MpmcQueue<int> q;
  for (int i = 0; i < 10; ++i) q.Push(i);
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.Size(), 6u);
}

TEST(MpmcQueue, ConcurrentProducersConsumersLoseNothing) {
  MpmcQueue<int> q(128);
  constexpr int kPerProducer = 2000;
  constexpr int kProducers = 4;
  std::atomic<long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum += *v;
        popped++;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.Close();
  for (std::size_t i = kProducers; i < threads.size(); ++i) threads[i].join();
  const long n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool("test", 4);
    for (int i = 0; i < 100; ++i) pool.Submit([&count] { count++; });
    pool.Shutdown();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, RejectsAfterShutdown) {
  ThreadPool pool("test", 1);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

// --------------------------------------------------------------- Status

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesMessage) {
  auto s = Status::NotFound("key k1");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.ToString().find("key k1"), std::string::npos);
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(v.ValueOr(-1), 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v(Status::InvalidArgument("bad"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(v.ValueOr(-1), -1);
}

// --------------------------------------------------------------- Config

TEST(Config, ParsesArgs) {
  const char* argv[] = {"prog", "threads=8", "name=inter", "rate=1.5", "flag=true",
                        "fanouts=25,10"};
  Config c = Config::FromArgs(6, const_cast<char**>(argv));
  EXPECT_EQ(c.GetInt("threads", 0), 8);
  EXPECT_EQ(c.GetString("name", ""), "inter");
  EXPECT_DOUBLE_EQ(c.GetDouble("rate", 0), 1.5);
  EXPECT_TRUE(c.GetBool("flag", false));
  EXPECT_EQ(c.GetIntList("fanouts", {}), (std::vector<std::int64_t>{25, 10}));
}

TEST(Config, FallbacksWhenMissing) {
  Config c;
  EXPECT_EQ(c.GetInt("missing", 7), 7);
  EXPECT_EQ(c.GetString("missing", "x"), "x");
  EXPECT_FALSE(c.GetBool("missing", false));
  EXPECT_EQ(c.GetIntList("missing", {1, 2}), (std::vector<std::int64_t>{1, 2}));
}

TEST(Config, ParsesWholeValuesOnly) {
  Config c;
  c.Set("neg", "-3");
  c.Set("sci", "2.5e3");
  c.Set("off", "no");
  EXPECT_EQ(c.GetInt("neg", 0), -3);
  EXPECT_DOUBLE_EQ(c.GetDouble("sci", 0), 2500.0);
  EXPECT_FALSE(c.GetBool("off", true));
}

TEST(ConfigDeathTest, UnparsableValuesExitNamingKeyAndValue) {
  Config c;
  c.Set("scale", "1O");
  c.Set("requests", "1e6");
  c.Set("empty", "");
  c.Set("huge", "99999999999999999999");
  c.Set("rate", "1.5x");
  c.Set("quick", "ture");
  c.Set("fanouts", "25,1O");
  c.Set("gaps", "25,,10");
  c.Set("trailing", "25,10,");
  EXPECT_EXIT(c.GetInt("scale", 0), ::testing::ExitedWithCode(2), "scale=1O");
  EXPECT_EXIT(c.GetInt("requests", 0), ::testing::ExitedWithCode(2), "requests=1e6");
  EXPECT_EXIT(c.GetInt("empty", 0), ::testing::ExitedWithCode(2), "empty=");
  EXPECT_EXIT(c.GetInt("huge", 0), ::testing::ExitedWithCode(2), "huge=9+");
  EXPECT_EXIT(c.GetDouble("rate", 0), ::testing::ExitedWithCode(2), "rate=1\\.5x");
  EXPECT_EXIT(c.GetBool("quick", false), ::testing::ExitedWithCode(2), "quick=ture");
  EXPECT_EXIT(c.GetIntList("fanouts", {}), ::testing::ExitedWithCode(2), "fanouts=25,1O");
  EXPECT_EXIT(c.GetIntList("gaps", {}), ::testing::ExitedWithCode(2), "gaps=25,,10");
  EXPECT_EXIT(c.GetIntList("trailing", {}), ::testing::ExitedWithCode(2), "trailing=25,10,");
}

// -------------------------------------------------------------- aligned

TEST(Aligned, VectorDataIs32ByteAligned) {
  // Repeated grows must keep the 32-byte guarantee (every reallocation
  // goes through the aligned operator new).
  AlignedVector<float> v;
  for (int i = 0; i < 1000; ++i) {
    v.push_back(static_cast<float>(i));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 32, 0u) << "size " << v.size();
  }
  AlignedVector<std::uint64_t> u(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(u.data()) % 32, 0u);
}

TEST(Aligned, AllocatorEqualityAndRebind) {
  AlignedAllocator<float> a;
  AlignedAllocator<double> b;
  EXPECT_TRUE(a == AlignedAllocator<float>());
  EXPECT_FALSE(a != AlignedAllocator<float>());
  using Rebound = std::allocator_traits<decltype(a)>::rebind_alloc<int>;
  static_assert(std::is_same_v<Rebound, AlignedAllocator<int>>);
  (void)b;
}

// ----------------------------------------------------------------- simd

namespace {
// SageApply levels this host can actually execute.
std::vector<simd::SimdLevel> Levels() {
  std::vector<simd::SimdLevel> levels = {simd::SimdLevel::kScalar};
  if (simd::kHasAvx2Kernels && simd::CpuHasAvx2()) levels.push_back(simd::SimdLevel::kAvx2);
  return levels;
}
}  // namespace

TEST(Simd, ForceOverridesAndResetRestoresDetection) {
  const auto detected = simd::ActiveSimdLevel();
  simd::ForceSimdLevel(simd::SimdLevel::kScalar);
  EXPECT_EQ(simd::ActiveSimdLevel(), simd::SimdLevel::kScalar);
  simd::ResetSimdLevel();
  EXPECT_EQ(simd::ActiveSimdLevel(), detected);
  // Detection is the CPUID probe.
  EXPECT_EQ(detected, (simd::kHasAvx2Kernels && simd::CpuHasAvx2()) ? simd::SimdLevel::kAvx2
                                                                     : simd::SimdLevel::kScalar);
}

// Strided extraction over 20-byte cell records (u64 dst | i64 ts | f32 w)
// against the values the test wrote, on every length from 0 past several
// vector widths. Each buffer ends exactly at the last field read, so an
// over-read trips the sanitizer builds; a sentinel catches an over-write.
TEST(Simd, StridedGatherAndMaxMatchWrittenRecords) {
  constexpr std::size_t kStride = 20;
  Rng rng(5);
  for (std::size_t n = 0; n <= 67; ++n) {
    std::vector<std::uint64_t> dst(n);
    std::vector<std::int64_t> ts(n);
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = rng.Next();
      ts[i] = static_cast<std::int64_t>(rng.Next());
    }
    // dst field: records 0..n-1, the buffer stops after the last dst.
    std::vector<char> dst_buf(n == 0 ? 0 : (n - 1) * kStride + 8);
    for (std::size_t i = 0; i < n; ++i) std::memcpy(&dst_buf[i * kStride], &dst[i], 8);
    std::vector<std::uint64_t> got(n + 1, 0xABu);
    simd::GatherStridedU64(dst_buf.data(), kStride, n, got.data());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], dst[i]) << "n=" << n << " i=" << i;
    EXPECT_EQ(got[n], 0xABu) << "wrote past n=" << n;

    // ts field, same layout; the max starts from `init`.
    std::vector<char> ts_buf(n == 0 ? 0 : (n - 1) * kStride + 8);
    for (std::size_t i = 0; i < n; ++i) std::memcpy(&ts_buf[i * kStride], &ts[i], 8);
    std::int64_t want = -1;
    for (const std::int64_t v : ts) want = v > want ? v : want;
    EXPECT_EQ(simd::MaxStridedI64(ts_buf.data(), kStride, n, -1), want) << "n=" << n;
  }
}

// Elementwise float kernels against the per-element IEEE result, on every
// length from 0 past several vector widths; inputs sized exactly n.
TEST(Simd, AddDivMatchElementwiseResult) {
  Rng rng(6);
  for (std::size_t n = 0; n <= 40; ++n) {
    std::vector<float> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.UniformDouble() * 100 - 50);
      b[i] = static_cast<float>(rng.UniformDouble() * 100 - 50);
    }
    std::vector<float> sum(a), quot(a);
    sum.push_back(-7.f);  // sentinels
    quot.push_back(-7.f);
    simd::AddF32(sum.data(), b.data(), n);
    simd::DivF32(quot.data(), 3.f, n);
    for (std::size_t i = 0; i < n; ++i) {
      const float want_sum = a[i] + b[i];
      const float want_quot = a[i] / 3.f;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(sum[i]), std::bit_cast<std::uint32_t>(want_sum));
      EXPECT_EQ(std::bit_cast<std::uint32_t>(quot[i]), std::bit_cast<std::uint32_t>(want_quot));
    }
    EXPECT_EQ(sum[n], -7.f) << "wrote past n=" << n;
    EXPECT_EQ(quot[n], -7.f) << "wrote past n=" << n;
  }
}

// fp16 conversion: known IEEE binary16 vectors, round-to-nearest-even,
// and exact round-trip of every representable half.
TEST(Simd, Fp16KnownVectorsAndRoundTrip) {
  EXPECT_EQ(simd::F32ToF16(0.f), 0x0000u);
  EXPECT_EQ(simd::F32ToF16(-0.f), 0x8000u);
  EXPECT_EQ(simd::F32ToF16(1.f), 0x3C00u);
  EXPECT_EQ(simd::F32ToF16(-2.f), 0xC000u);
  EXPECT_EQ(simd::F32ToF16(65504.f), 0x7BFFu);   // max finite half
  EXPECT_EQ(simd::F32ToF16(65536.f), 0x7C00u);   // overflow -> +inf
  EXPECT_EQ(simd::F32ToF16(0x1p-24f), 0x0001u);  // min subnormal
  EXPECT_EQ(simd::F32ToF16(0x1p-25f), 0x0000u);  // ties-to-even underflow
  // RN-even on the mantissa boundary: 1 + 2^-11 is exactly between
  // 0x3C00 and 0x3C01 -> rounds to the even code 0x3C00.
  EXPECT_EQ(simd::F32ToF16(1.f + 0x1p-11f), 0x3C00u);
  EXPECT_EQ(simd::F32ToF16(1.f + 3 * 0x1p-11f), 0x3C02u);  // ties to even, up

  // Round-trip: every finite half widens and comes back to the same bits.
  for (std::uint32_t h = 0; h <= 0xFFFF; ++h) {
    const auto half = static_cast<std::uint16_t>(h);
    if ((half & 0x7C00) == 0x7C00) continue;  // inf/nan
    EXPECT_EQ(simd::F32ToF16(simd::F16ToF32(half)), half) << std::hex << h;
  }

  // Row dequant against the binary16 value computed independently of
  // F16ToF32 — (-1)^s · 2^(e-15) · (1 + m/1024), or 2^-14 · m/1024 when
  // e == 0 — on every length, reading exactly n inputs and writing
  // exactly n outputs.
  const auto half_value = [](std::uint16_t h) {
    const int e = (h >> 10) & 0x1F;
    const int m = h & 0x3FF;
    const double mag = e == 0 ? std::ldexp(m, -24) : std::ldexp(1024 + m, e - 25);
    return static_cast<float>((h & 0x8000) != 0 ? -mag : mag);
  };
  std::vector<std::uint16_t> all;
  for (std::uint32_t h = 0; h < 40; ++h) all.push_back(static_cast<std::uint16_t>(h * 1309));
  for (std::size_t n = 0; n <= all.size(); ++n) {
    const std::vector<std::uint16_t> in(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n));
    std::vector<float> out(n + 1, -1.f);
    simd::DequantFp16(in.data(), n, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      if ((in[i] & 0x7C00) == 0x7C00) continue;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                std::bit_cast<std::uint32_t>(half_value(in[i])))
          << i;
    }
    EXPECT_EQ(out[n], -1.f);
  }

  // Every code, through the row kernel and the scalar widening: finite
  // values against half_value (zeros and subnormals included), inf/NaN to
  // the binary32 inf/NaN with the same sign and payload.
  std::vector<std::uint16_t> codes(0x10000);
  for (std::uint32_t h = 0; h <= 0xFFFF; ++h) codes[h] = static_cast<std::uint16_t>(h);
  std::vector<float> wide(codes.size());
  simd::DequantFp16(codes.data(), codes.size(), wide.data());
  for (std::uint32_t h = 0; h <= 0xFFFF; ++h) {
    const std::uint32_t want =
        (h & 0x7C00) == 0x7C00
            ? ((h & 0x8000u) << 16) | 0x7F800000u | ((h & 0x3FFu) << 13)
            : std::bit_cast<std::uint32_t>(half_value(codes[h]));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(wide[h]), want) << std::hex << h;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(simd::F16ToF32(codes[h])), want) << std::hex << h;
  }
}

// int8 quantization: |x - dequant(quant(x))| <= scale/2, scale = maxabs/127.
TEST(Simd, QuantizeInt8WithinHalfStepBound) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng.Uniform(40);
    std::vector<float> x(n);
    const float span = static_cast<float>(std::pow(10.0, static_cast<double>(round % 7) - 3));
    for (auto& v : x) v = static_cast<float>(rng.UniformDouble() * 2 - 1) * span;
    std::vector<std::int8_t> q(n);
    const float scale = simd::QuantizeInt8(x.data(), n, q.data());
    ASSERT_GT(scale, 0.f);
    std::vector<float> back(n);
    simd::DequantInt8(q.data(), n, scale, back.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(back[i]),
                std::bit_cast<std::uint32_t>(static_cast<float>(q[i]) * scale));
      EXPECT_LE(std::abs(x[i] - back[i]), scale / 2.f + 1e-9f) << i;
    }
  }
  // All-zero input: scale 0 convention, dequant reproduces zeros.
  std::vector<float> zeros(5, 0.f);
  std::vector<std::int8_t> q(5);
  const float scale = simd::QuantizeInt8(zeros.data(), 5, q.data());
  std::vector<float> back(5, 1.f);
  simd::DequantInt8(q.data(), 5, scale, back.data());
  for (const float v : back) EXPECT_EQ(v, 0.f);
}

// The blocked GraphSAGE apply kernel (out = a·X + b·Y + bias, optional
// relu) must be value-exact vs the scalar reference on every dispatch
// level: random shapes including sub-block tails, a leading dimension
// wider than the row, skipped zero-coefficient rows, -0.0f and NaN inputs.
TEST(Simd, SageApplyParityAcrossLevelsAndShapes) {
  Rng rng(13);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t in = rng.Uniform(21);           // 0 .. 20 rows
    const std::size_t width = 1 + rng.Uniform(40);    // 1 .. 40 cols
    const std::size_t ld = width + rng.Uniform(3);    // padded rows too
    const bool relu = trial % 2 == 0;

    std::vector<float> a(in), b(in), x(std::max<std::size_t>(in * ld, 1)),
        y(std::max<std::size_t>(in * ld, 1)), bias(width);
    for (std::size_t k = 0; k < in; ++k) {
      a[k] = static_cast<float>(rng.UniformDouble() * 2 - 1);
      b[k] = static_cast<float>(rng.UniformDouble() * 2 - 1);
      if (rng.Uniform(5) == 0) a[k] = b[k] = rng.Uniform(2) == 0 ? 0.f : -0.f;  // skipped rows
    }
    for (auto& v : x) v = static_cast<float>(rng.UniformDouble() * 2 - 1);
    for (auto& v : y) v = static_cast<float>(rng.UniformDouble() * 2 - 1);
    for (auto& v : bias) v = static_cast<float>(rng.UniformDouble() * 2 - 1);
    // Poison a live row with specials: NaN must propagate identically and
    // -0.0 must not flip signs anywhere.
    if (in > 0 && a[0] != 0.f) {
      x[0] = std::numeric_limits<float>::quiet_NaN();
      if (ld > 1) y[1 % ld] = -0.f;
    }

    std::vector<float> ref(width, -99.f);
    simd::SageApplyScalar(a.data(), b.data(), x.data(), y.data(), in, width, ld, bias.data(),
                          relu, ref.data());
    for (const auto level : Levels()) {
      simd::ForceSimdLevel(level);
      std::vector<float> got(width, 99.f);
      simd::SageApply(a.data(), b.data(), x.data(), y.data(), in, width, ld, bias.data(), relu,
                      got.data());
      for (std::size_t j = 0; j < width; ++j) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got[j]), std::bit_cast<std::uint32_t>(ref[j]))
            << "trial " << trial << " j=" << j << " in=" << in << " width=" << width;
      }
      simd::ResetSimdLevel();
    }
  }
}

}  // namespace
}  // namespace helios::util
