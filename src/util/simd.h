// Kernel layer for the serve and GNN hot paths (docs/PERF.md).
//
// Kernels. Strided-field extraction (the 20-byte cell-record decode:
// records are interleaved (u64 dst | i64 ts | f32 w), the query wants one
// field as a contiguous run), strided i64 max (newest-ts scans in
// PatchCell/EvictOlderThan), fp16/int8 dequantization (quantized feature
// gather), elementwise float add/divide (GNN aggregation), and the
// GraphSAGE dense layer.
//
// Each of these kernels has one implementation, the portable loop, written
// so the compiler can vectorize it for the baseline ISA (DequantFp16's
// widening is branchless for that reason). A query's cost is KV probes and
// copies: paired runs put the serve path, GraphSAGE inference and Fig 19a
// within noise of the AVX2 versions these loops replaced (docs/PERF.md
// "The kernel layer").
//
// SageApply is the one dispatched kernel: a register-blocked AVX2 tile
// picked at runtime by CPUID, with the scalar loop as fallback and
// reference. The two levels are VALUE-EXACT (mul/add only, no FMA, no
// reassociation), which is what lets the GNN promise bit-identical
// embeddings whichever level ran (tests/gnn_test.cc, tests/util_test.cc).
//
// Quantization *encode* helpers (F32ToF16, QuantizeInt8) are pure integer
// / single-rounding code: cache bytes must not depend on the writer's host
// (crash-replay and cross-runtime parity compare caches byte-for-byte).
#pragma once

#include <cstddef>
#include <cstdint>

namespace helios::util::simd {

// ---------------------------------------------------------------- kernels

// out[i] = the 8-byte little-endian field at base + i*stride.
void GatherStridedU64(const char* base, std::size_t stride, std::size_t n, std::uint64_t* out);

// max(init, max_i signed-i64-at(base + i*stride)).
std::int64_t MaxStridedI64(const char* base, std::size_t stride, std::size_t n,
                           std::int64_t init);

// out[i] = float(in[i]) — exact IEEE half->single widening (no rounding).
void DequantFp16(const std::uint16_t* in, std::size_t n, float* out);

// out[i] = float(in[i]) * scale — one rounding per element (int8 widens
// exactly).
void DequantInt8(const std::int8_t* in, std::size_t n, float scale, float* out);

// acc[i] += x[i] — elementwise.
void AddF32(float* acc, const float* x, std::size_t n);

// v[i] /= divisor — elementwise IEEE divide.
void DivF32(float* v, float divisor, std::size_t n);

// ---------------------------------------------- SageApply and its dispatch

enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

// Whether this binary was compiled with the AVX2 SageApply tile.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
inline constexpr bool kHasAvx2Kernels = true;
#else
inline constexpr bool kHasAvx2Kernels = false;
#endif

// True when the CPU reports AVX2 support (ignores ForceSimdLevel).
bool CpuHasAvx2();

// The level SageApply runs at: the ForceSimdLevel() override if set, else
// CPUID detection. Cheap (one relaxed atomic load after first call).
SimdLevel ActiveSimdLevel();

// In-process test hooks: pin SageApply's level / restore CPUID detection.
// A level the host cannot run degrades to scalar rather than faulting.
void ForceSimdLevel(SimdLevel level);
void ResetSimdLevel();

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

// ------------------------------------------------------------- encoders

// IEEE 754 binary32 -> binary16, round-to-nearest-even, handling
// subnormals, overflow-to-inf and NaN. Pure integer bit manipulation: no
// FP-environment dependence, so encoded bytes are host-independent.
std::uint16_t F32ToF16(float f);
// Exact binary16 -> binary32 widening (DequantFp16's per-element step).
float F16ToF32(std::uint16_t h);

// Per-vertex symmetric int8 quantization: scale = maxabs/127 (0 when all
// zeros), q[i] = clamp(round-half-up(x[i]/scale), -127, 127).
// Returns the scale to store alongside the quantized row. Max abs
// reconstruction error is scale/2 (+ one float rounding).
float QuantizeInt8(const float* in, std::size_t n, std::int8_t* out);

}  // namespace helios::util::simd
