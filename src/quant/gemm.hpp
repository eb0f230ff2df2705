// im2col/GEMM formulation of the quantized conv/dense hot path.
//
// A direct kernel walks each output element's receptive field; exact under
// any summation order, but the inner loop is only k (3..5) elements wide
// for convs, so the compiler cannot vectorize it well. This module states
// the same arithmetic as an integer GEMM over contiguous K-length rows:
//
//   conv  — im2col packs each output pixel's receptive field into one
//           [K = in_c*k*k] row (same (ic,kr,kc) order the weight rows use),
//           so a layer becomes C[out_c, pixels] = W[out_c, K] x P[pixels, K]^T;
//   dense — already a GEMM: C[images, out_n] = X[images, in_n] x W[out_n, in_n]^T
//           (zero-copy on both operands);
//   batch — the patch/input matrices of an image block concatenate along
//           the row axis, so one GEMM amortizes the weight traffic over
//           the whole block instead of re-streaming W per image.
//
// The microkernel accumulates int16 x int16 products in int32 — exact,
// because every layer guards its reduction depth (receptive field / fan-in
// <= 65536 and |product| <= 2^14, see kernels.cpp) — and the AVX2 variant
// keeps each pmaddwd lane below 2^27, so the AVX2 and portable scalar
// twins produce byte-identical accumulators, equal to the per-element
// scalar oracle in tests/oracle. That is the hard invariant everything
// here hangs on: campaign reports must not change with either twin, at
// any thread count (tests/gemm_test.cpp).
//
// Runtime dispatch goes through the one deepstrike::simd seam: the AVX2
// microkernels when simd::active() (Auto mode on an AVX2 CPU), the
// portable scalar GEMM otherwise. DS_FORCE_SCALAR=1 at startup selects the
// scalar twin, which keeps it testable on AVX2 machines.
#pragma once

#include <cstdint>
#include <vector>

#include "fx/fixed.hpp"
#include "tensor/tensor.hpp"

namespace deepstrike::quant {

enum class Activation : std::uint8_t;

namespace gemm {

/// Image-block size of the batched evaluation entries (golden-cache
/// build, fault-free uncached evaluation). The partition into blocks is
/// fixed by this constant alone, so batched results and metric totals are
/// identical at any thread count.
inline constexpr std::size_t kImageBlock = 16;

/// C[i, j] = dot(A row i, B row j) over K contiguous int16 elements:
/// C[i*ldc + j] (int32) for i < m, j < n, with A rows at a + i*lda and
/// B rows at b + j*ldb ("NT" layout — both operands row-major, K on the
/// fast axis). Overwrites C. Exact int32 accumulation; the caller
/// guarantees k <= 65536 and |a*b| <= 2^14 per product (Q3.4 raws).
/// Dispatches on simd::active(); exposed directly for tests and benches.
void gemm_nt_s32(const std::int16_t* a, std::size_t lda, const std::int16_t* b,
                 std::size_t ldb, std::int32_t* c, std::size_t ldc, std::size_t m,
                 std::size_t n, std::size_t k);

/// Full-layer conv accumulators (bias folded, product units) via
/// im2col + GEMM: accs[oc*plane + pix] matches the scalar kernel's
/// pre-writeback accumulator byte-for-byte. Input [C,H,W].
void conv2d_accs(const QTensor& input, const QTensor& weight, const QTensor& bias,
                 std::vector<fx::Acc>& accs);

/// Full-layer dense accumulators (bias folded) via GEMM; input flattened.
void dense_accs(const QTensor& input, const QTensor& weight, const QTensor& bias,
                std::vector<fx::Acc>& accs);

/// Batched conv: one GEMM over the concatenated patch matrices of
/// `inputs` (all shaped like a single-image call). accs[b] receives image
/// b's full-layer accumulators, byte-identical to conv2d_accs on that
/// image alone.
void conv2d_accs_batch(const std::vector<const QTensor*>& inputs,
                       const QTensor& weight, const QTensor& bias,
                       std::vector<std::vector<fx::Acc>>& accs);

/// Batched dense: one GEMM over the gathered input rows (weights stream
/// once per block instead of once per image).
void dense_accs_batch(const std::vector<const QTensor*>& inputs,
                      const QTensor& weight, const QTensor& bias,
                      std::vector<std::vector<fx::Acc>>& accs);

/// Writeback stage of every GEMM layer: out[p] =
/// apply_activation(Q3_4::from_accumulator(accs[p])). `out` preallocated
/// with n elements.
void write_back(const fx::Acc* accs, std::size_t n, Activation activation,
                QTensor& out);

} // namespace gemm
} // namespace deepstrike::quant
