// Generic quantized network description.
//
// A QNetwork is the deployment artifact: an ordered list of quantized
// layers (conv / 2x2-maxpool / dense) with the Q3.4 weights baked in. It is
// both the bit-exact golden model (forward() here) and the input to the
// cycle-level accelerator (accel::AccelEngine executes the same layers op
// by op on modeled DSP slices). The paper's LeNet-5 victim is one instance
// (nn::Architecture::LeNet5 through quantize_sequential());
// quantize_sequential() converts any float nn::Sequential built from the
// supported layer types. Input shape, class count and quantization format
// all flow from the network — no victim geometry is hardcoded downstream.
#pragma once

#include <string>
#include <vector>

#include "data/synth_mnist.hpp"
#include "nn/model.hpp"
#include "quant/kernels.hpp"
#include "tensor/tensor.hpp"

namespace deepstrike::quant {

enum class QLayerKind : std::uint8_t { Conv, Pool2, AvgPool2, Dense };

const char* qlayer_kind_name(QLayerKind kind);

/// Activation applied on the writeback path of a parameterized layer.
/// Tanh is a BRAM LUT; ReLU is a sign mux; Sign is a comparator (BNN
/// binarized activations); all are fused into the layer.
enum class Activation : std::uint8_t { None, Tanh, Relu, Sign };

const char* activation_name(Activation activation);

/// Weight quantization format of the deployed network.
///   Q3_4   — full 8-bit fixed-point weights (the paper's victim).
///   Binary — sign-activated layers deploy ±1 weights on the Q3.4 grid
///            (BNN deployment; biases and the real-valued classifier head
///            stay Q3.4). The arithmetic pipeline is unchanged — ±1
///            weights are exact Q3.4 values — but the format is part of
///            the deployment identity, so caches and journals fingerprint
///            it.
enum class QuantFormat : std::uint8_t { Q3_4, Binary };

const char* quant_format_name(QuantFormat format);

struct QLayer {
    QLayerKind kind;
    std::string label;     // e.g. "CONV1"; used in schedules and reports
    QTensor weight;        // Conv: [O,I,K,K]; Dense: [O,I]; pools: empty
    QTensor bias;          // Conv/Dense: [O]; pools: empty
    Activation activation = Activation::None;

    QLayer() = default;
    QLayer(QLayerKind k, std::string lbl, QTensor w, QTensor b,
           Activation act = Activation::None)
        : kind(k), label(std::move(lbl)), weight(std::move(w)), bias(std::move(b)),
          activation(act) {}
    /// Back-compat constructor (bool = tanh on/off).
    QLayer(QLayerKind k, std::string lbl, QTensor w, QTensor b, bool tanh_act)
        : QLayer(k, std::move(lbl), std::move(w), std::move(b),
                 tanh_act ? Activation::Tanh : Activation::None) {}

    /// MAC count (Conv/Dense) or comparator-op count (Pool2) for a given
    /// input shape.
    std::size_t op_count(const Shape& input_shape) const;

    /// Output shape for a given input shape (throws on mismatch).
    Shape output_shape(const Shape& input_shape) const;

    std::size_t in_channels() const;
};

struct QNetwork {
    Shape input_shape; // [C,H,W]
    std::vector<QLayer> layers;
    QuantFormat format = QuantFormat::Q3_4;

    /// Width of the final layer's output (the logits) — the class count.
    std::size_t num_classes() const;

    /// Validates the layer chain and returns each layer's output shape.
    std::vector<Shape> layer_output_shapes() const;

    /// Bit-exact quantized forward pass (the golden model).
    QTensor forward(const QTensor& input) const;

    /// Resumes the forward pass at `first_layer`, with `activation` the
    /// output of layer first_layer - 1 (or the quantized input when
    /// first_layer == 0). forward_from(0, x) == forward(x) byte-exactly.
    /// This is the golden-prefix elision primitive of the weight-transfer
    /// attack family (sim/search.hpp): when faults can only begin at
    /// layer k, the unfaulted prefix is answered from cached golden
    /// activations and only layers k.. run on the faulted weights.
    QTensor forward_from(std::size_t first_layer, const QTensor& activation) const;

    /// Per-layer outputs of one golden forward pass, indexed like `layers`
    /// (activations[i] is layer i's post-activation output; the last entry
    /// equals forward()'s result), plus every Conv/Dense layer's
    /// pre-writeback accumulators (bias folded, product units; empty
    /// vectors for pools). It runs the kernels forward() runs, so each
    /// activation is byte-identical to the accelerator's fault-free output
    /// of the same layer — the property sim::GoldenCache builds on. The
    /// accumulators satisfy
    ///   activations[i][p] == apply_activation(Q3_4::from_accumulator(
    ///                            accumulators[i][p]), layers[i].activation)
    /// which is what lets accel::AccelEngine::run_elided resume a faulted
    /// window from the cached accumulator and patch downstream layers with
    /// sparse integer deltas instead of full recomputation.
    struct ForwardTrace {
        std::vector<QTensor> activations;
        std::vector<std::vector<fx::Acc>> accumulators;
    };
    ForwardTrace forward_trace(const QTensor& input) const;

    /// Batched golden forward over an image block (every input shaped
    /// input_shape). Each Conv/Dense layer runs as a single GEMM over the
    /// whole block, so the weights stream once per block instead of once
    /// per image; entry b is byte-identical to forward(*inputs[b]).
    std::vector<QTensor> forward_batch(
        const std::vector<const QTensor*>& inputs) const;

    /// Batched forward_trace (see forward_batch): entry b is
    /// byte-identical to forward_trace(*inputs[b]). The batched
    /// golden-cache build (sim::build_golden_store) runs on this.
    std::vector<ForwardTrace> forward_trace_batch(
        const std::vector<const QTensor*>& inputs) const;

    /// Predicted class for a float image in [0,1].
    std::size_t predict(const FloatTensor& image) const;

    double evaluate_accuracy(const data::Dataset& dataset) const;

    /// Total trainable parameter elements.
    std::size_t parameter_count() const;

    /// The layer with the given label (throws if absent).
    const QLayer& layer(const std::string& label) const;
};

/// Quantizes any float Sequential built from Conv2d / MaxPool2d /
/// AvgPool2d / Dense / TanhActivation / ReluActivation / SignActivation
/// layers. Activation layers are fused into the preceding parameterized
/// layer (that is how the accelerator implements them — a BRAM LUT,
/// sign mux or comparator on the writeback path). Labels are
/// auto-generated (CONV1, POOL1, FC1, ...) unless `labels` is provided.
/// With QuantFormat::Binary, Conv/Dense weights are binarized to ±1
/// (sign of the float weight; biases stay full Q3.4).
QNetwork quantize_sequential(nn::Sequential& model, const Shape& input_shape,
                             const std::vector<std::string>& labels = {},
                             QuantFormat format = QuantFormat::Q3_4);

} // namespace deepstrike::quant
