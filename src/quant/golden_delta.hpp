// Sparse golden-delta propagation through a quantized network.
//
// Both fault families leave most of a network computing its golden
// values. A weight-transfer fault (Deep-Dup, DeepLaser) rewrites at most
// a few beats of weight words; a compute fault (DeepStrike) corrupts a
// handful of accumulators inside an unsafe window. Either way the faulted
// inference differs from one cached golden pass of the same image
// (QNetwork::forward_trace, held by sim::GoldenStore) at a sparse set of
// elements, and that set is what this module pushes through the layers:
//
//   conv/dense — with x' = x + dx the perturbed input and W' = W + dW the
//                perturbed weights,
//                  acc' = golden_acc + W * dx + dW * x'
//                in exact integer arithmetic, so only the outputs the
//                change reaches are written back and diffed against the
//                golden output; W * dx is taken per changed element, per
//                contiguous run (dense), or per changed input channel
//                (conv) — whichever the cost rule prices lowest;
//   pools      — only the 2x2 windows covering a changed input are
//                recomputed.
//
// A layer whose change set is too wide to patch profitably runs as one
// dense pass on the materialized input (the cost rule, DeltaStats). Its
// output is then held whole through the conv and pool layers that follow
// and re-diffed against golden at the next dense layer, so a narrow
// classifier head can go sparse again. An empty change set with no weight
// change left downstream is the golden answer. Every path is exact —
// integer sums reassociate losslessly — so results are byte-identical to
// a full forward pass of the perturbed network
// (tests/golden_delta_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "fx/fixed.hpp"
#include "quant/qnetwork.hpp"
#include "tensor/tensor.hpp"

namespace deepstrike::quant {

/// One nonzero change of a layer's weight tensor: `element` is the flat
/// index into QLayer::weight, `delta` the new raw word minus the old one.
struct WeightDelta {
    std::uint32_t element = 0;
    std::int16_t delta = 0;
};

/// Per-layer weight changes, indexed like QNetwork::layers. Each list is
/// sorted by element and holds only nonzero deltas; an empty list is an
/// unchanged layer (pools always have one).
using WeightDeltas = std::vector<std::vector<WeightDelta>>;

/// Index of the first layer with a weight change (the list size when
/// nothing changed).
std::size_t first_changed_layer(const WeightDeltas& deltas);

/// Sparse difference of one activation from its golden value: ascending
/// flat indices and the perturbed value at each.
struct ActivationDelta {
    std::vector<std::uint32_t> index;
    std::vector<fx::Q3_4> value;

    bool empty() const { return index.empty(); }
    std::size_t size() const { return index.size(); }
    void clear() {
        index.clear();
        value.clear();
    }
};

/// `golden` with `delta` written over it.
QTensor apply_delta(const QTensor& golden, const ActivationDelta& delta);

/// Sets `delta` to the elements where `x` differs from `golden` (same
/// element count).
void diff_from_golden(const QTensor& x, const QTensor& golden, ActivationDelta& delta);

/// One image's golden pass, shaped like QNetwork::ForwardTrace: the
/// quantized input, every layer's output, and every Conv/Dense layer's
/// pre-writeback accumulators (empty for pools).
struct GoldenPass {
    const QTensor& input;
    const std::vector<QTensor>& activations;
    const std::vector<std::vector<fx::Acc>>& accumulators;
};

/// Work the propagation chose, for observability. Integer and decided by
/// the data alone, so totals are identical at any thread count.
struct DeltaStats {
    /// Layers run as a dense pass: patching would cost more, or the
    /// activation entering a conv or pool layer was already held whole.
    std::size_t dense_layers = 0;
};

/// Pushes `delta` through layers [begin, end) of `network` on the image of
/// `golden`, with the weights changed by `weights` (nullptr = unchanged).
/// On entry `delta` is the change of layer begin-1's output (of the input
/// when begin == 0); on return, of layer end-1's output. Exact: applying
/// the result to golden.activations[end - 1] gives byte for byte what a
/// forward pass of the changed network produces.
void propagate_delta(const QNetwork& network, const GoldenPass& golden,
                     const WeightDeltas* weights, std::size_t begin, std::size_t end,
                     ActivationDelta& delta, DeltaStats& stats);

} // namespace deepstrike::quant
