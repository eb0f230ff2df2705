// Tests-only oracles for the quantized engine and the accelerator.
//
// The production datapath runs every conv/dense layer through the
// im2col/GEMM engine (quant/gemm.hpp) and every faulted inference through
// the interval-gated fault walk (accel/engine.cpp). Neither is trusted on
// its own: the equivalence suites compare them, byte for byte, against the
// straightforward formulations kept here —
//   - per-element scalar conv/dense loops that walk each output's
//     receptive field directly (no im2col, no batching, no SIMD);
//   - a whole-segment per-op accelerator engine that gates golden-vs-per-op
//     per schedule segment and walks every op of a glitched segment,
//     carrying each DSP's output register in a pipeline array.
// Linked only by tests/ and bench/micro_primitives; nothing under src/
// depends on it.
#pragma once

#include <vector>

#include "accel/engine.hpp"
#include "fx/fixed.hpp"
#include "quant/qnetwork.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace deepstrike::oracle {

// --- scalar quantized kernels -------------------------------------------

/// Valid 2D convolution + bias + fused activation, one output element at a
/// time. Input [C,H,W]. `accs` receives every element's pre-writeback
/// accumulator (bias folded, product units).
void qconv2d_trace(const QTensor& input, const QTensor& weight, const QTensor& bias,
                   quant::Activation activation, QTensor& out,
                   std::vector<fx::Acc>& accs);

/// Dense layer + bias + fused activation, one output at a time (see
/// qconv2d_trace). Input flattened.
void qdense_trace(const QTensor& input, const QTensor& weight, const QTensor& bias,
                  quant::Activation activation, QTensor& out,
                  std::vector<fx::Acc>& accs);

QTensor qconv2d(const QTensor& input, const QTensor& weight, const QTensor& bias,
                quant::Activation activation);
QTensor qdense(const QTensor& input, const QTensor& weight, const QTensor& bias,
               quant::Activation activation);

/// Per-image golden forward pass of `network` on the scalar kernels:
/// per-layer activations and Conv/Dense accumulators, shaped exactly like
/// quant::QNetwork::forward_trace.
quant::QNetwork::ForwardTrace forward_trace(const quant::QNetwork& network,
                                            const QTensor& input);

/// Logits of forward_trace (its last activation).
QTensor forward(const quant::QNetwork& network, const QTensor& input);

// --- whole-segment per-op accelerator engine ----------------------------

/// One inference of `engine`'s network on the per-op reference engine:
/// byte-identical to AccelEngine::run (logits, per-layer fault counts and
/// fault-RNG stream) by the overlay property tests.
accel::RunResult run_reference(const accel::AccelEngine& engine, const QTensor& image,
                               const accel::VoltageTrace* voltage, Rng& fault_rng,
                               const std::vector<bool>* throttle = nullptr);

} // namespace deepstrike::oracle
