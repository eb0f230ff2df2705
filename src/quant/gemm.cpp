#include "quant/gemm.hpp"

#include <cassert>
#include <cstring>

#include "quant/qnetwork.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DS_GEMM_X86 1
#else
#define DS_GEMM_X86 0
#endif

namespace deepstrike::quant::gemm {

using fx::Q3_4;

// The zero-copy reinterpret below is what lets the GEMM consume QTensor
// storage directly: Q3_4 is a standard-layout wrapper around one int16_t,
// so a Q3_4* is pointer-interconvertible with an int16_t* to its raw word.
static_assert(sizeof(Q3_4) == sizeof(std::int16_t), "Q3_4 packs one int16");
static_assert(std::is_standard_layout_v<Q3_4>, "Q3_4 is standard layout");

namespace {

const std::int16_t* raw(const QTensor& t) {
    return reinterpret_cast<const std::int16_t*>(t.data());
}

/// Per-thread scratch for im2col patches, gathered dense rows, packed
/// conv weights and the int32 GEMM output; reused across calls so the hot
/// path does not allocate per layer.
struct Workspace {
    std::vector<std::int16_t> patches;
    std::vector<std::int16_t> wpack;
    std::vector<std::int32_t> c32;
};

Workspace& workspace() {
    thread_local Workspace ws;
    return ws;
}

void count_gemm(std::size_t m, std::size_t n, std::size_t k) {
    if (!metrics::enabled()) return;
    metrics::counter("quant.gemm.calls", "calls",
                     "im2col/GEMM layer evaluations dispatched")
        .add();
    metrics::counter("quant.gemm.macs", "ops",
                     "int16 multiply-accumulates executed by GEMM kernels")
        .add(static_cast<std::uint64_t>(m) * n * k);
}

// ------------------------------------------------------------ microkernels

/// Portable scalar GEMM microkernel. Plain int32 dot products — the exact
/// sums the AVX2 kernel reproduces lane-wise, so both are byte-identical
/// to the oracle kernels by the reassociation argument in the header.
void gemm_nt_s32_scalar(const std::int16_t* a, std::size_t lda,
                        const std::int16_t* b, std::size_t ldb, std::int32_t* c,
                        std::size_t ldc, std::size_t m, std::size_t n,
                        std::size_t k) {
    // j outer / i inner: B rows (patches / weight rows) stream once; the
    // four A rows in flight share each B row read.
    for (std::size_t j = 0; j < n; ++j) {
        const std::int16_t* bj = b + j * ldb;
        std::size_t i = 0;
        for (; i + 4 <= m; i += 4) {
            const std::int16_t* a0 = a + i * lda;
            const std::int16_t* a1 = a0 + lda;
            const std::int16_t* a2 = a1 + lda;
            const std::int16_t* a3 = a2 + lda;
            std::int32_t s0 = 0;
            std::int32_t s1 = 0;
            std::int32_t s2 = 0;
            std::int32_t s3 = 0;
            for (std::size_t t = 0; t < k; ++t) {
                const std::int32_t bt = bj[t];
                s0 += static_cast<std::int32_t>(a0[t]) * bt;
                s1 += static_cast<std::int32_t>(a1[t]) * bt;
                s2 += static_cast<std::int32_t>(a2[t]) * bt;
                s3 += static_cast<std::int32_t>(a3[t]) * bt;
            }
            c[(i + 0) * ldc + j] = s0;
            c[(i + 1) * ldc + j] = s1;
            c[(i + 2) * ldc + j] = s2;
            c[(i + 3) * ldc + j] = s3;
        }
        for (; i < m; ++i) {
            const std::int16_t* ai = a + i * lda;
            std::int32_t s = 0;
            for (std::size_t t = 0; t < k; ++t) {
                s += static_cast<std::int32_t>(ai[t]) * bj[t];
            }
            c[i * ldc + j] = s;
        }
    }
}

#if DS_GEMM_X86

/// Sums the 8 int32 lanes of an AVX2 register.
__attribute__((target("avx2"))) inline std::int32_t hsum_epi32(__m256i v) {
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    __m128i s = _mm_add_epi32(lo, hi);
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
}

/// AVX2 microkernel: 16-wide int16 pmaddwd dot products, four A rows per
/// B-row load. Each _mm256_madd_epi16 pairs adjacent products (|pair| <=
/// 2^15); a lane accumulates at most k/16 pairs, so lane magnitudes stay
/// below k * 2^11 <= 2^27 for k <= 65536 — no int32 lane overflow, and the
/// final horizontal + tail sum reassociates exactly to the scalar result.
__attribute__((target("avx2"))) void gemm_nt_s32_avx2(
    const std::int16_t* a, std::size_t lda, const std::int16_t* b,
    std::size_t ldb, std::int32_t* c, std::size_t ldc, std::size_t m,
    std::size_t n, std::size_t k) {
    const std::size_t k16 = k & ~static_cast<std::size_t>(15);
    for (std::size_t j = 0; j < n; ++j) {
        const std::int16_t* bj = b + j * ldb;
        std::size_t i = 0;
        for (; i + 4 <= m; i += 4) {
            const std::int16_t* a0 = a + i * lda;
            const std::int16_t* a1 = a0 + lda;
            const std::int16_t* a2 = a1 + lda;
            const std::int16_t* a3 = a2 + lda;
            __m256i v0 = _mm256_setzero_si256();
            __m256i v1 = _mm256_setzero_si256();
            __m256i v2 = _mm256_setzero_si256();
            __m256i v3 = _mm256_setzero_si256();
            for (std::size_t t = 0; t < k16; t += 16) {
                const __m256i bv =
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bj + t));
                v0 = _mm256_add_epi32(
                    v0, _mm256_madd_epi16(
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(a0 + t)),
                            bv));
                v1 = _mm256_add_epi32(
                    v1, _mm256_madd_epi16(
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(a1 + t)),
                            bv));
                v2 = _mm256_add_epi32(
                    v2, _mm256_madd_epi16(
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(a2 + t)),
                            bv));
                v3 = _mm256_add_epi32(
                    v3, _mm256_madd_epi16(
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(a3 + t)),
                            bv));
            }
            std::int32_t s0 = hsum_epi32(v0);
            std::int32_t s1 = hsum_epi32(v1);
            std::int32_t s2 = hsum_epi32(v2);
            std::int32_t s3 = hsum_epi32(v3);
            for (std::size_t t = k16; t < k; ++t) {
                const std::int32_t bt = bj[t];
                s0 += static_cast<std::int32_t>(a0[t]) * bt;
                s1 += static_cast<std::int32_t>(a1[t]) * bt;
                s2 += static_cast<std::int32_t>(a2[t]) * bt;
                s3 += static_cast<std::int32_t>(a3[t]) * bt;
            }
            c[(i + 0) * ldc + j] = s0;
            c[(i + 1) * ldc + j] = s1;
            c[(i + 2) * ldc + j] = s2;
            c[(i + 3) * ldc + j] = s3;
        }
        for (; i < m; ++i) {
            // Single-row tail: four independent accumulator chains hide
            // the madd+add latency (exactness is order-independent — the
            // lane sums reassociate to the same integer).
            const std::int16_t* ai = a + i * lda;
            const std::size_t k64 = k & ~static_cast<std::size_t>(63);
            __m256i v0 = _mm256_setzero_si256();
            __m256i v1 = _mm256_setzero_si256();
            __m256i v2 = _mm256_setzero_si256();
            __m256i v3 = _mm256_setzero_si256();
            for (std::size_t t = 0; t < k64; t += 64) {
                v0 = _mm256_add_epi32(
                    v0, _mm256_madd_epi16(
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(ai + t)),
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(bj + t))));
                v1 = _mm256_add_epi32(
                    v1, _mm256_madd_epi16(
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(ai + t + 16)),
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(bj + t + 16))));
                v2 = _mm256_add_epi32(
                    v2, _mm256_madd_epi16(
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(ai + t + 32)),
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(bj + t + 32))));
                v3 = _mm256_add_epi32(
                    v3, _mm256_madd_epi16(
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(ai + t + 48)),
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(bj + t + 48))));
            }
            __m256i v = _mm256_add_epi32(_mm256_add_epi32(v0, v1),
                                         _mm256_add_epi32(v2, v3));
            for (std::size_t t = k64; t < k16; t += 16) {
                v = _mm256_add_epi32(
                    v, _mm256_madd_epi16(
                           _mm256_loadu_si256(
                               reinterpret_cast<const __m256i*>(ai + t)),
                           _mm256_loadu_si256(
                               reinterpret_cast<const __m256i*>(bj + t))));
            }
            std::int32_t s = hsum_epi32(v);
            for (std::size_t t = k16; t < k; ++t) {
                s += static_cast<std::int32_t>(ai[t]) * bj[t];
            }
            c[i * ldc + j] = s;
        }
    }
}

/// Conv microkernel over packed weights: for each patch row, accumulate
/// all output channels vertically in int32 lanes. The weights are packed
/// as interleaved channel pairs — wpack lane l of pair t holds
/// (w[blk*8+l, 2t], w[blk*8+l, 2t+1]) — so one pmaddwd against a
/// broadcast input pair advances 8 output channels by two K-steps. No
/// horizontal sums and no scalar K-tail (K is zero-padded to even), which
/// is what the hsum-per-element NT kernel above cannot avoid at conv
/// shapes (small m, k far from a register multiple). Lane l's accumulator
/// is the plain ascending-pair integer sum, so the result is exactly the
/// scalar dot product.
__attribute__((target("avx2"))) void conv_cols_avx2(
    const std::int16_t* patches, std::size_t row_stride,
    const std::int16_t* wpack, std::int32_t* c, std::size_t ldc,
    std::size_t rows, std::size_t n_blocks, std::size_t n_pairs) {
    for (std::size_t r = 0; r < rows; ++r) {
        const std::int16_t* prow = patches + r * row_stride;
        std::int32_t* crow = c + r * ldc;
        const std::int16_t* wp = wpack;
        for (std::size_t blk = 0; blk < n_blocks; ++blk) {
            __m256i acc = _mm256_setzero_si256();
            for (std::size_t t = 0; t < n_pairs; ++t) {
                std::int32_t pair = 0; // unaligned 2x int16 load, UBSan-clean
                std::memcpy(&pair, prow + 2 * t, sizeof(pair));
                acc = _mm256_add_epi32(
                    acc, _mm256_madd_epi16(
                             _mm256_set1_epi32(pair),
                             _mm256_loadu_si256(
                                 reinterpret_cast<const __m256i*>(wp + t * 16))));
            }
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + blk * 8), acc);
            wp += n_pairs * 16;
        }
    }
}

#endif // DS_GEMM_X86

bool use_avx2() { return DS_GEMM_X86 && simd::active(); }

} // namespace

void gemm_nt_s32(const std::int16_t* a, std::size_t lda, const std::int16_t* b,
                 std::size_t ldb, std::int32_t* c, std::size_t ldc, std::size_t m,
                 std::size_t n, std::size_t k) {
#if DS_GEMM_X86
    if (use_avx2()) {
        gemm_nt_s32_avx2(a, lda, b, ldb, c, ldc, m, n, k);
        return;
    }
#endif
    gemm_nt_s32_scalar(a, lda, b, ldb, c, ldc, m, n, k);
}

namespace {

struct ConvGeom {
    std::size_t in_c, in_h, in_w, out_c, k, kk, out_h, out_w, plane, K;
};

ConvGeom conv_geometry(const QTensor& input, const QTensor& weight,
                       const QTensor& bias) {
    expects(input.shape().rank() == 3, "gemm::conv2d: input rank 3");
    expects(weight.shape().rank() == 4, "gemm::conv2d: weight rank 4");
    ConvGeom g;
    g.in_c = input.shape().dim(0);
    g.in_h = input.shape().dim(1);
    g.in_w = input.shape().dim(2);
    g.out_c = weight.shape().dim(0);
    g.k = weight.shape().dim(2);
    g.kk = g.k * g.k;
    expects(weight.shape().dim(1) == g.in_c, "gemm::conv2d: channel mismatch");
    expects(weight.shape().dim(3) == g.k, "gemm::conv2d: square kernel");
    expects(bias.size() == g.out_c, "gemm::conv2d: bias size");
    expects(g.in_h >= g.k && g.in_w >= g.k,
            "gemm::conv2d: input at least kernel-sized");
    g.out_h = g.in_h - g.k + 1;
    g.out_w = g.in_w - g.k + 1;
    g.plane = g.out_h * g.out_w;
    g.K = g.in_c * g.kk;
    expects(g.K <= 65536, "gemm::conv2d: receptive field fits int32");
    return g;
}

/// Packs one image's patch matrix: row pix holds the receptive field at
/// output pixel pix, K elements in the (ic, kr, kc) order weight rows
/// use, zero-padded to `row_stride`. Each (ic, kr) span is k contiguous
/// input elements, so the pack is a strided sequence of small copies.
void im2col_rows(const QTensor& input, const ConvGeom& g, std::size_t row_stride,
                 std::int16_t* rows) {
    const std::int16_t* in = raw(input);
    std::int16_t* dst_row = rows;
    for (std::size_t r = 0; r < g.out_h; ++r) {
        for (std::size_t c = 0; c < g.out_w; ++c) {
            std::int16_t* dst = dst_row;
            for (std::size_t ic = 0; ic < g.in_c; ++ic) {
                const std::int16_t* src = in + (ic * g.in_h + r) * g.in_w + c;
                for (std::size_t kr = 0; kr < g.k; ++kr) {
                    std::memcpy(dst, src, g.k * sizeof(std::int16_t));
                    dst += g.k;
                    src += g.in_w;
                }
            }
            for (std::size_t t = g.K; t < row_stride; ++t) dst_row[t] = 0;
            dst_row += row_stride;
        }
    }
}

/// Shared core of the single-image and batched conv paths: one GEMM over
/// `n_images * plane` packed patch rows, then per-image bias folding. The
/// int32 results land in C[row, oc] (row = b*plane + pix) with row stride
/// `ocp` — the layout both the packed AVX2 kernel and the scalar NT
/// kernel (A = patches, B = weight rows) produce naturally.
void conv2d_accs_impl(const std::vector<const QTensor*>& inputs,
                      const QTensor& weight, const QTensor& bias,
                      std::vector<std::vector<fx::Acc>>& accs) {
    const std::size_t n_images = inputs.size();
    expects(n_images > 0, "gemm::conv2d: at least one image");
    const ConvGeom g = conv_geometry(*inputs[0], weight, bias);
    for (const QTensor* in : inputs) {
        expects(in->shape() == inputs[0]->shape(),
                "gemm::conv2d: uniform batch shapes");
    }

    const std::size_t rows = n_images * g.plane;
    const std::size_t K2 = (g.K + 1) & ~static_cast<std::size_t>(1);
    [[maybe_unused]] const bool avx2 = use_avx2();
#if DS_GEMM_X86
    const std::size_t ocp = avx2 ? (g.out_c + 7) & ~static_cast<std::size_t>(7)
                                 : g.out_c;
#else
    const std::size_t ocp = g.out_c;
#endif

    Workspace& ws = workspace();
    ws.patches.resize(rows * K2);
    ws.c32.resize(rows * ocp);
    for (std::size_t b = 0; b < n_images; ++b) {
        im2col_rows(*inputs[b], g, K2, ws.patches.data() + b * g.plane * K2);
    }

#if DS_GEMM_X86
    if (avx2) {
        // Interleave the weights once per call: lane l of pair t in block
        // blk holds (w[blk*8+l, 2t], w[blk*8+l, 2t+1]), zero-padded in
        // both the channel and K directions.
        const std::size_t n_blocks = ocp / 8;
        const std::size_t n_pairs = K2 / 2;
        const std::int16_t* w_raw = raw(weight);
        ws.wpack.assign(n_blocks * n_pairs * 16, 0);
        for (std::size_t oc = 0; oc < g.out_c; ++oc) {
            const std::size_t blk = oc / 8;
            const std::size_t lane = oc % 8;
            const std::int16_t* w_row = w_raw + oc * g.K;
            std::int16_t* dst = ws.wpack.data() + blk * n_pairs * 16 + lane * 2;
            for (std::size_t t2 = 0; 2 * t2 < g.K; ++t2) {
                dst[t2 * 16] = w_row[2 * t2];
                if (2 * t2 + 1 < g.K) dst[t2 * 16 + 1] = w_row[2 * t2 + 1];
            }
        }
        conv_cols_avx2(ws.patches.data(), K2, ws.wpack.data(), ws.c32.data(),
                       ocp, rows, n_blocks, n_pairs);
    } else {
        gemm_nt_s32_scalar(ws.patches.data(), K2, raw(weight), g.K,
                           ws.c32.data(), ocp, rows, g.out_c, g.K);
    }
#else
    gemm_nt_s32_scalar(ws.patches.data(), K2, raw(weight), g.K,
                       ws.c32.data(), ocp, rows, g.out_c, g.K);
#endif
    count_gemm(g.out_c, rows, g.K);

    const std::int16_t* b_raw = raw(bias);
    accs.resize(n_images);
    for (std::size_t b = 0; b < n_images; ++b) {
        std::vector<fx::Acc>& a = accs[b];
        a.resize(g.out_c * g.plane);
        const std::int32_t* c_img = ws.c32.data() + b * g.plane * ocp;
        for (std::size_t oc = 0; oc < g.out_c; ++oc) {
            const fx::Acc bias_acc = static_cast<fx::Acc>(b_raw[oc])
                                     << Q3_4::frac_bits;
            fx::Acc* dst = a.data() + oc * g.plane;
            for (std::size_t pix = 0; pix < g.plane; ++pix) {
                dst[pix] = bias_acc + c_img[pix * ocp + oc];
            }
        }
    }
}

/// Shared core of the dense paths. A = the gathered input rows (so the
/// weight matrix — the big operand — streams exactly once per block),
/// giving C[b, o] contiguous per image.
void dense_accs_impl(const std::vector<const QTensor*>& inputs,
                     const QTensor& weight, const QTensor& bias,
                     std::vector<std::vector<fx::Acc>>& accs) {
    const std::size_t n_images = inputs.size();
    expects(n_images > 0, "gemm::dense: at least one image");
    expects(weight.shape().rank() == 2, "gemm::dense: weight rank 2");
    const std::size_t out_n = weight.shape().dim(0);
    const std::size_t in_n = weight.shape().dim(1);
    expects(bias.size() == out_n, "gemm::dense: bias size");
    expects(in_n <= 65536, "gemm::dense: fan-in fits int32");
    for (const QTensor* in : inputs) {
        expects(in->size() == in_n, "gemm::dense: input feature mismatch");
    }

    Workspace& ws = workspace();
    ws.c32.resize(n_images * out_n);

    const std::int16_t* x;
    if (n_images == 1) {
        x = raw(*inputs[0]); // zero-copy: one contiguous row
    } else {
        ws.patches.resize(n_images * in_n);
        for (std::size_t b = 0; b < n_images; ++b) {
            std::memcpy(ws.patches.data() + b * in_n, raw(*inputs[b]),
                        in_n * sizeof(std::int16_t));
        }
        x = ws.patches.data();
    }

    gemm_nt_s32(x, in_n, raw(weight), in_n, ws.c32.data(), out_n, n_images,
                out_n, in_n);
    count_gemm(n_images, out_n, in_n);

    const std::int16_t* b_raw = raw(bias);
    accs.resize(n_images);
    for (std::size_t b = 0; b < n_images; ++b) {
        std::vector<fx::Acc>& a = accs[b];
        a.resize(out_n);
        const std::int32_t* src = ws.c32.data() + b * out_n;
        for (std::size_t o = 0; o < out_n; ++o) {
            a[o] = (static_cast<fx::Acc>(b_raw[o]) << Q3_4::frac_bits) + src[o];
        }
    }
}

thread_local std::vector<std::vector<fx::Acc>> single_accs_tls;

} // namespace

void conv2d_accs(const QTensor& input, const QTensor& weight, const QTensor& bias,
                 std::vector<fx::Acc>& accs) {
    std::vector<const QTensor*> one{&input};
    std::vector<std::vector<fx::Acc>>& out = single_accs_tls;
    conv2d_accs_impl(one, weight, bias, out);
    accs.swap(out[0]); // recycle the caller's buffer into the scratch slot
}

void dense_accs(const QTensor& input, const QTensor& weight, const QTensor& bias,
                std::vector<fx::Acc>& accs) {
    std::vector<const QTensor*> one{&input};
    std::vector<std::vector<fx::Acc>>& out = single_accs_tls;
    dense_accs_impl(one, weight, bias, out);
    accs.swap(out[0]);
}

void conv2d_accs_batch(const std::vector<const QTensor*>& inputs,
                       const QTensor& weight, const QTensor& bias,
                       std::vector<std::vector<fx::Acc>>& accs) {
    conv2d_accs_impl(inputs, weight, bias, accs);
}

void dense_accs_batch(const std::vector<const QTensor*>& inputs,
                      const QTensor& weight, const QTensor& bias,
                      std::vector<std::vector<fx::Acc>>& accs) {
    dense_accs_impl(inputs, weight, bias, accs);
}

void write_back(const fx::Acc* accs, std::size_t n, Activation activation,
                QTensor& out) {
    assert(out.size() == n);
    Q3_4* out_data = out.data();
    for (std::size_t p = 0; p < n; ++p) {
        out_data[p] = apply_activation(Q3_4::from_accumulator(accs[p]), activation);
    }
}

} // namespace deepstrike::quant::gemm
