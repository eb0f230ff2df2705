// Bit-exact fixed-point layer kernels (the quantized golden arithmetic).
//
// The deployed accelerator (src/accel) executes the same arithmetic
// cycle-by-cycle on modeled DSP slices; in the absence of injected faults
// its outputs must match these kernels exactly — a key integration test.
// quant::QNetwork (qnetwork.hpp) strings them together into the golden
// model for an arbitrary victim network.
//
// Datapath (matches the paper: 8-bit fixed point, 3 integer bits):
//   activations & weights: Q3.4 (1 sign + 3 int + 4 frac bits)
//   products:              held at full precision (Q7.8 in int64 units)
//   accumulation:          wide int64, one saturating writeback per output
//   activation:            tanh via BRAM-style LUT on the Q3.4 grid,
//                          relu as a sign mux, sign as a comparator
//
// The full-layer conv/dense entry points (qconv2d / qdense and their trace
// variants) run on the im2col/GEMM engine (quant/gemm.hpp). The per-element
// scalar loops they must match byte for byte live in the tests-only oracle
// library (tests/oracle), which the equivalence suites compare against.
#pragma once

#include <cstdint>
#include <vector>

#include "fx/fixed.hpp"
#include "tensor/tensor.hpp"

namespace deepstrike::quant {

/// Quantizes a [C,H,W] float image in [0,1] to Q3.4.
QTensor quantize_image(const FloatTensor& image);

// Individual quantized layer primitives (shared with the accelerator's
// fast path and exercised directly by unit tests).

/// Activation applied at a layer's writeback (shared with qnetwork.hpp,
/// declared there; forward declaration here to avoid a cycle).
enum class Activation : std::uint8_t;

/// The writeback nonlinearity: identity, the tanh LUT, relu or sign. The
/// one definition every kernel, the accelerator's fault path and the
/// oracle share.
fx::Q3_4 apply_activation(fx::Q3_4 v, Activation activation);

/// Valid 2D convolution + bias + fused activation. Input [C,H,W].
QTensor qconv2d(const QTensor& input, const QTensor& weight, const QTensor& bias,
                Activation activation);

/// 2x2/stride-2 max pooling.
QTensor qmaxpool2(const QTensor& input);

/// 2x2/stride-2 average pooling: 4-way sum then divide-by-4 with
/// round-to-nearest (an adder tree + shift in hardware).
QTensor qavgpool2(const QTensor& input);

/// ReLU on the Q3.4 grid: max(x, 0).
fx::Q3_4 qrelu(fx::Q3_4 x);

/// Sign on the Q3.4 grid: +1.0 for x >= 0, -1.0 otherwise (a comparator on
/// the writeback path — the binarized-activation nonlinearity of BNNs).
fx::Q3_4 qsign(fx::Q3_4 x);

/// Dense layer + bias + fused activation. Input flattened.
QTensor qdense(const QTensor& input, const QTensor& weight, const QTensor& bias,
               Activation activation);

/// Trace variant of qconv2d: same output bytes, but also exposes every
/// element's pre-writeback accumulator (bias folded, in product units —
/// 2^(2*frac_bits)). The accelerator's golden-elision path caches these so
/// a faulted window can start from the cached accumulator instead of
/// re-summing the receptive field, and a downstream dense layer can be
/// patched with sparse integer deltas. Invariant (enforced by tests):
/// out[p] == apply_activation(Q3_4::from_accumulator(accs[p])).
void qconv2d_trace(const QTensor& input, const QTensor& weight, const QTensor& bias,
                   Activation activation, QTensor& out, std::vector<fx::Acc>& accs);

/// Trace variant of qdense (see qconv2d_trace).
void qdense_trace(const QTensor& input, const QTensor& weight, const QTensor& bias,
                  Activation activation, QTensor& out, std::vector<fx::Acc>& accs);

namespace detail {

/// Per-element conv range kernel: computes output elements [elem_begin,
/// elem_end) in row-major (oc, r, c) order into a preallocated `out`,
/// leaving the rest untouched; byte-identical to qconv2d on those
/// elements. Shape/range validation is the caller's responsibility
/// (assert() in debug builds only): the sparse conv patcher of the
/// golden-elided engine path calls it per single output element, on
/// shapes validated once when the golden trace was built.
void qconv2d_outputs_unchecked(const QTensor& input, const QTensor& weight,
                               const QTensor& bias, Activation activation,
                               std::size_t elem_begin, std::size_t elem_end,
                               QTensor& out);

} // namespace detail

} // namespace deepstrike::quant
