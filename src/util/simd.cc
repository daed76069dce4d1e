#include "util/simd.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HELIOS_X86_GNU 1
#include <immintrin.h>
#endif

namespace helios::util::simd {

// ---------------------------------------------------------------- kernels

void GatherStridedU64(const char* base, std::size_t stride, std::size_t n, std::uint64_t* out) {
  for (std::size_t i = 0; i < n; ++i, base += stride) {
    std::memcpy(&out[i], base, sizeof(std::uint64_t));
  }
}

std::int64_t MaxStridedI64(const char* base, std::size_t stride, std::size_t n,
                           std::int64_t init) {
  std::int64_t best = init;
  for (std::size_t i = 0; i < n; ++i, base += stride) {
    std::int64_t v;
    std::memcpy(&v, base, sizeof(v));
    if (v > best) best = v;
  }
  return best;
}

namespace {
// Exact binary16 -> binary32 widening, branchless so DequantFp16's loop
// vectorizes: shift the exponent and mantissa into place and rebias the
// exponent (15 -> 127); an all-ones exponent (inf/NaN) is rebiased once more
// to 255; a zero exponent (zero or subnormal) is renormalized by one exact
// float subtraction, 2^-14 * (1 + m/1024) - 2^-14 = m * 2^-24.
inline float WidenF16(std::uint16_t h) {
  constexpr std::uint32_t kExp = 0x7C00u << 13;
  std::uint32_t bits = static_cast<std::uint32_t>(h & 0x7FFFu) << 13;
  const std::uint32_t exp = bits & kExp;
  bits += 112u << 23;
  // Masks, not branches: control flow in the loop body stops vectorization.
  bits += (112u << 23) & (0u - static_cast<std::uint32_t>(exp == kExp));
  const std::uint32_t sub_bits =
      std::bit_cast<std::uint32_t>(std::bit_cast<float>(bits + (1u << 23)) - 0x1p-14f);
  const std::uint32_t is_sub = 0u - static_cast<std::uint32_t>(exp == 0);
  bits = (sub_bits & is_sub) | (bits & ~is_sub);
  return std::bit_cast<float>(bits | static_cast<std::uint32_t>(h & 0x8000u) << 16);
}
}  // namespace

// Fixed blocks of eight: GCC's -O2 cost model does not vectorize a loop
// that needs a scalar epilogue, so the tail runs as its own loop.
void DequantFp16(const std::uint16_t* in, std::size_t n, float* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t j = 0; j < 8; ++j) out[i + j] = WidenF16(in[i + j]);
  }
  for (; i < n; ++i) out[i] = WidenF16(in[i]);
}

void DequantInt8(const std::int8_t* in, std::size_t n, float scale, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<float>(in[i]) * scale;
}

void AddF32(float* acc, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += x[i];
}

void DivF32(float* v, float divisor, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] /= divisor;
}

// ---------------------------------------------- SageApply and its dispatch

bool CpuHasAvx2() {
#ifdef HELIOS_X86_GNU
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

namespace {
constexpr int kLevelUnset = -1;
// Cached dispatch decision; kLevelUnset until first use or ForceSimdLevel.
std::atomic<int> g_level{kLevelUnset};
}  // namespace

SimdLevel ActiveSimdLevel() {
  int level = g_level.load(std::memory_order_relaxed);
  if (level == kLevelUnset) {
    level = static_cast<int>(CpuHasAvx2() ? SimdLevel::kAvx2 : SimdLevel::kScalar);
    g_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(level);
}

void ForceSimdLevel(SimdLevel level) {
  if (level == SimdLevel::kAvx2 && !CpuHasAvx2()) level = SimdLevel::kScalar;
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void ResetSimdLevel() { g_level.store(kLevelUnset, std::memory_order_relaxed); }

void SageApplyScalar(const float* a, const float* b, const float* x, const float* y,
                     std::size_t in, std::size_t width, std::size_t ld, const float* bias,
                     bool relu, float* out) {
  for (std::size_t j = 0; j < width; ++j) out[j] = 0.f;
  for (std::size_t k = 0; k < in; ++k) {
    const float ak = a[k];
    const float bk = b[k];
    if (ak == 0.f && bk == 0.f) continue;
    const float* xr = x + k * ld;
    const float* yr = y + k * ld;
    for (std::size_t j = 0; j < width; ++j) out[j] += ak * xr[j] + bk * yr[j];
  }
  for (std::size_t j = 0; j < width; ++j) {
    out[j] += bias[j];
    if (relu && out[j] < 0.f) out[j] = 0.f;
  }
}

#ifdef HELIOS_X86_GNU

// Compiled with a per-function target attribute so the rest of the build
// keeps the default ISA; only ever called after a CPUID check. All vector
// memory ops are unaligned-safe.
//
// Register-blocked: each 16-wide output tile lives in two ymm accumulators
// for the whole k loop (one store per tile instead of a load+store per k),
// with mul/add only — per lane the op sequence is exactly the scalar loop's
// (t = a*x; u = b*y; acc += t+u), so results are bit-identical. The relu is
// a compare+blend rather than max so NaN and -0 behave like the scalar
// `if (out < 0) out = 0`.
__attribute__((target("avx2")))
void SageApplyAvx2(const float* a, const float* b, const float* x, const float* y,
                   std::size_t in, std::size_t width, std::size_t ld, const float* bias,
                   bool relu, float* out) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 16 <= width; j += 16) {
    __m256 acc0 = zero;
    __m256 acc1 = zero;
    const float* xr = x + j;
    const float* yr = y + j;
    for (std::size_t k = 0; k < in; ++k, xr += ld, yr += ld) {
      const float ak = a[k];
      const float bk = b[k];
      if (ak == 0.f && bk == 0.f) continue;
      const __m256 va = _mm256_set1_ps(ak);
      const __m256 vb = _mm256_set1_ps(bk);
      acc0 = _mm256_add_ps(acc0, _mm256_add_ps(_mm256_mul_ps(va, _mm256_loadu_ps(xr)),
                                               _mm256_mul_ps(vb, _mm256_loadu_ps(yr))));
      acc1 = _mm256_add_ps(acc1, _mm256_add_ps(_mm256_mul_ps(va, _mm256_loadu_ps(xr + 8)),
                                               _mm256_mul_ps(vb, _mm256_loadu_ps(yr + 8))));
    }
    acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(bias + j));
    acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(bias + j + 8));
    if (relu) {
      acc0 = _mm256_blendv_ps(acc0, zero, _mm256_cmp_ps(acc0, zero, _CMP_LT_OQ));
      acc1 = _mm256_blendv_ps(acc1, zero, _mm256_cmp_ps(acc1, zero, _CMP_LT_OQ));
    }
    _mm256_storeu_ps(out + j, acc0);
    _mm256_storeu_ps(out + j + 8, acc1);
  }
  for (; j + 8 <= width; j += 8) {
    __m256 acc = zero;
    const float* xr = x + j;
    const float* yr = y + j;
    for (std::size_t k = 0; k < in; ++k, xr += ld, yr += ld) {
      const float ak = a[k];
      const float bk = b[k];
      if (ak == 0.f && bk == 0.f) continue;
      acc = _mm256_add_ps(
          acc, _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(ak), _mm256_loadu_ps(xr)),
                             _mm256_mul_ps(_mm256_set1_ps(bk), _mm256_loadu_ps(yr))));
    }
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(bias + j));
    if (relu) acc = _mm256_blendv_ps(acc, zero, _mm256_cmp_ps(acc, zero, _CMP_LT_OQ));
    _mm256_storeu_ps(out + j, acc);
  }
  if (j < width) {
    // Column tail: the scalar kernel on the remaining width-j columns (the
    // leading dimension still walks full rows).
    SageApplyScalar(a, b, x + j, y + j, in, width - j, ld, bias + j, relu, out + j);
  }
}

#else  // !HELIOS_X86_GNU — the AVX2 symbol degrades to the scalar loop.

void SageApplyAvx2(const float* a, const float* b, const float* x, const float* y,
                   std::size_t in, std::size_t width, std::size_t ld, const float* bias,
                   bool relu, float* out) {
  SageApplyScalar(a, b, x, y, in, width, ld, bias, relu, out);
}

#endif  // HELIOS_X86_GNU

void SageApply(const float* a, const float* b, const float* x, const float* y, std::size_t in,
               std::size_t width, std::size_t ld, const float* bias, bool relu, float* out) {
  if (ActiveSimdLevel() == SimdLevel::kAvx2)
    return SageApplyAvx2(a, b, x, y, in, width, ld, bias, relu, out);
  SageApplyScalar(a, b, x, y, in, width, ld, bias, relu, out);
}

// --------------------------------------------------- fp16 / int8 encoders

std::uint16_t F32ToF16(float f) {
  std::uint32_t w;
  std::memcpy(&w, &f, sizeof(w));
  const std::uint16_t sign = static_cast<std::uint16_t>((w & 0x80000000u) >> 16);
  const std::uint32_t abs = w & 0x7FFFFFFFu;
  if (abs >= 0x47800000u) {  // >= 2^16: inf/NaN, or overflows half -> inf
    return static_cast<std::uint16_t>(sign | (abs > 0x7F800000u ? 0x7E00u : 0x7C00u));
  }
  if (abs < 0x38800000u) {  // < 2^-14: half subnormal or zero
    if (abs < 0x33000000u) return sign;  // < 2^-25 rounds to +-0
    // s = round-to-nearest-even(mant / 2^(126 - e)), the subnormal
    // significand in units of 2^-24.
    const std::uint32_t mant = (abs & 0x007FFFFFu) | 0x00800000u;
    const std::uint32_t shift = 125u - (abs >> 23);  // drop shift+1 bits, in [13, 23]
    const std::uint32_t q = mant >> (shift + 1);
    const std::uint32_t rem = mant & ((1u << (shift + 1)) - 1u);
    const std::uint32_t half = 1u << shift;
    const std::uint32_t r = q + ((rem > half || (rem == half && (q & 1u))) ? 1u : 0u);
    return static_cast<std::uint16_t>(sign | r);
  }
  // Normal range: rebias exponent, round 13 dropped mantissa bits to
  // nearest-even. A mantissa carry rolls into the exponent (and on to inf
  // at the top of the range), which is exactly IEEE behaviour.
  const std::uint32_t mant = abs & 0x007FFFFFu;
  const std::uint32_t exp = (abs >> 23) - 112u;
  std::uint32_t a = (exp << 10) | (mant >> 13);
  const std::uint32_t rem = mant & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (a & 1u))) ++a;
  return static_cast<std::uint16_t>(sign | a);
}

float F16ToF32(std::uint16_t h) { return WidenF16(h); }

float QuantizeInt8(const float* in, std::size_t n, std::int8_t* out) {
  float maxabs = 0.f;
  for (std::size_t i = 0; i < n; ++i) {
    const float a = std::fabs(in[i]);
    if (a > maxabs) maxabs = a;
  }
  if (maxabs == 0.f || !std::isfinite(maxabs)) {
    for (std::size_t i = 0; i < n; ++i) out[i] = 0;
    return 0.f;
  }
  const float scale = maxabs / 127.f;
  const float inv = 127.f / maxabs;
  for (std::size_t i = 0; i < n; ++i) {
    // Round half up via floor(x+0.5): rounding-mode independent, so
    // encoded bytes never depend on the host FP state.
    const float scaled = in[i] * inv;
    int q = static_cast<int>(std::floor(scaled + 0.5f));
    if (q > 127) q = 127;
    if (q < -127) q = -127;
    out[i] = static_cast<std::int8_t>(q);
  }
  return scale;
}

}  // namespace helios::util::simd
