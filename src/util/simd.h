// SIMD kernel layer for the serve hot path (docs/PERF.md).
//
// Two pieces:
//
//  1. Runtime dispatch. ActiveSimdLevel() picks the widest instruction set
//     the host supports (AVX2 today, scalar otherwise), overridable with
//     the HELIOS_SIMD environment variable ("scalar" | "avx2" | "auto") so
//     CI exercises the fallback on AVX2 hosts, and with ForceSimdLevel()
//     for in-process tests that compare both paths.
//
//  2. Kernels. Strided-field extraction (the 20-byte cell-record decode:
//     records are interleaved (u64 dst | i64 ts | f32 w), the query wants
//     one field as a contiguous SoA run), strided i64 max (newest-ts scans
//     in PatchCell/EvictOlderThan), fp16/int8 dequantization (quantized
//     feature gather), and elementwise float add/divide (GNN aggregation).
//
// Every kernel is VALUE-EXACT across dispatch levels: the AVX2 paths use
// only operations whose results are bit-identical to the scalar loop
// (copies, integer ops, single-rounding float multiply/divide, exact
// half->float widening). That is what lets the fp32 serve path promise
// bit-identical embeddings no matter which kernel ran, with golden parity
// tests pinning it (tests/util_test.cc, tests/serving_core_test.cc).
//
// Quantization *encode* helpers (F32ToF16, QuantizeInt8) are deliberately
// scalar-only: cache bytes must not depend on the writer's dispatch level
// (crash-replay and cross-runtime parity compare caches byte-for-byte).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace helios::util::simd {

enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

// Widest level this binary was compiled with kernels for.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
inline constexpr bool kHasAvx2Kernels = true;
#else
inline constexpr bool kHasAvx2Kernels = false;
#endif

// True when the CPU reports AVX2+F16C support (ignores overrides).
bool CpuHasAvx2();

// The dispatch level in effect: ForceSimdLevel() override if set, else the
// HELIOS_SIMD environment variable, else runtime CPU detection. Cheap
// (one relaxed atomic load after first call).
SimdLevel ActiveSimdLevel();

// Test hooks: pin the dispatch level / restore env+CPU auto-detection.
// Levels the host cannot run degrade to scalar rather than faulting.
void ForceSimdLevel(SimdLevel level);
void ResetSimdLevel();

const char* SimdLevelName(SimdLevel level);
// Parses a HELIOS_SIMD value ("scalar"/"avx2"/"auto"/empty). Unknown
// values and unsupported levels fall back to auto-detection.
SimdLevel LevelFromSpelling(std::string_view spelling, SimdLevel autodetected);

// ---------------------------------------------------------------- kernels
//
// Each kernel has a dispatched entry point plus public per-level variants
// (the scalar one doubles as the reference in parity tests and benches).

// out[i] = the 8-byte little-endian field at base + i*stride.
void GatherStridedU64Scalar(const char* base, std::size_t stride, std::size_t n,
                            std::uint64_t* out);
void GatherStridedU64Avx2(const char* base, std::size_t stride, std::size_t n,
                          std::uint64_t* out);
void GatherStridedU64(const char* base, std::size_t stride, std::size_t n, std::uint64_t* out);

// out[i] = the 4-byte float field at base + i*stride.
void GatherStridedF32Scalar(const char* base, std::size_t stride, std::size_t n, float* out);
void GatherStridedF32Avx2(const char* base, std::size_t stride, std::size_t n, float* out);
void GatherStridedF32(const char* base, std::size_t stride, std::size_t n, float* out);

// max(init, max_i signed-i64-at(base + i*stride)).
std::int64_t MaxStridedI64Scalar(const char* base, std::size_t stride, std::size_t n,
                                 std::int64_t init);
std::int64_t MaxStridedI64Avx2(const char* base, std::size_t stride, std::size_t n,
                               std::int64_t init);
std::int64_t MaxStridedI64(const char* base, std::size_t stride, std::size_t n,
                           std::int64_t init);

// out[i] = float(in[i]) — exact IEEE half->single widening (no rounding).
void DequantFp16Scalar(const std::uint16_t* in, std::size_t n, float* out);
void DequantFp16Avx2(const std::uint16_t* in, std::size_t n, float* out);
void DequantFp16(const std::uint16_t* in, std::size_t n, float* out);

// out[i] = float(in[i]) * scale — one rounding per element (int8 widens
// exactly; the multiply rounds identically in scalar and vector form).
void DequantInt8Scalar(const std::int8_t* in, std::size_t n, float scale, float* out);
void DequantInt8Avx2(const std::int8_t* in, std::size_t n, float scale, float* out);
void DequantInt8(const std::int8_t* in, std::size_t n, float scale, float* out);

// acc[i] += x[i] — elementwise, no reassociation, bit-identical per lane.
void AddF32Scalar(float* acc, const float* x, std::size_t n);
void AddF32Avx2(float* acc, const float* x, std::size_t n);
void AddF32(float* acc, const float* x, std::size_t n);

// The GraphSAGE dense layer (gnn::GraphSageEncoder::Apply), register-blocked:
//   out[j] = sum_k a[k]*X[k*ld+j] + b[k]*Y[k*ld+j]   (k ascending)
//   out[j] += bias[j]; if (relu && out[j] < 0) out[j] = 0
// X and Y are row-major `in` x `width` matrices with leading dimension `ld`
// (>= width). Rows whose a[k] and b[k] are both zero are skipped — the same
// sparse-input shortcut the historical scalar loop took, kept so results
// stay bit-identical to it. The AVX2 path holds each 16-wide output tile in
// registers across the whole k loop and uses only mul/add (no FMA, no
// reassociation across k), so every element sees exactly the scalar op
// sequence: value-exact across dispatch levels.
void SageApplyScalar(const float* a, const float* b, const float* x, const float* y,
                     std::size_t in, std::size_t width, std::size_t ld, const float* bias,
                     bool relu, float* out);
void SageApplyAvx2(const float* a, const float* b, const float* x, const float* y,
                   std::size_t in, std::size_t width, std::size_t ld, const float* bias,
                   bool relu, float* out);
void SageApply(const float* a, const float* b, const float* x, const float* y, std::size_t in,
               std::size_t width, std::size_t ld, const float* bias, bool relu, float* out);

// v[i] /= divisor — elementwise IEEE divide, bit-identical per lane.
void DivF32Scalar(float* v, float divisor, std::size_t n);
void DivF32Avx2(float* v, float divisor, std::size_t n);
void DivF32(float* v, float divisor, std::size_t n);

// ------------------------------------------------- scalar-only encoders

// IEEE 754 binary32 -> binary16, round-to-nearest-even, handling
// subnormals, overflow-to-inf and NaN. Pure integer bit manipulation: no
// FP-environment dependence, so encoded bytes are host-independent.
std::uint16_t F32ToF16(float f);
// Exact binary16 -> binary32 widening (reference for DequantFp16Scalar).
float F16ToF32(std::uint16_t h);

// Per-vertex symmetric int8 quantization: scale = maxabs/127 (0 when all
// zeros), q[i] = clamp(round-half-up(x[i]/scale), -127, 127).
// Returns the scale to store alongside the quantized row. Max abs
// reconstruction error is scale/2 (+ one float rounding).
float QuantizeInt8(const float* in, std::size_t n, std::int8_t* out);

}  // namespace helios::util::simd
