// Scalar per-element quantized kernels: the byte-exactness oracle of the
// im2col/GEMM engine. Each output element sums its own receptive field in
// the natural (ic, kr, kc) order; integer accumulation is exact, so any
// correct reformulation must reproduce these accumulators bit for bit.
#include "oracle/oracle.hpp"

#include <cassert>

#include "quant/kernels.hpp"
#include "util/error.hpp"

namespace deepstrike::oracle {

using fx::Q3_4;
using quant::Activation;
using quant::apply_activation;

namespace {

void validate_conv(const QTensor& input, const QTensor& weight, const QTensor& bias) {
    expects(input.shape().rank() == 3, "oracle::qconv2d: input rank 3");
    expects(weight.shape().rank() == 4, "oracle::qconv2d: weight rank 4");
    const std::size_t in_c = input.shape().dim(0);
    const std::size_t k = weight.shape().dim(2);
    expects(weight.shape().dim(1) == in_c, "oracle::qconv2d: channel mismatch");
    expects(weight.shape().dim(3) == k, "oracle::qconv2d: square kernel");
    expects(bias.size() == weight.shape().dim(0), "oracle::qconv2d: bias size");
    expects(input.shape().dim(1) >= k && input.shape().dim(2) >= k,
            "oracle::qconv2d: input at least kernel-sized");
    // |product| <= 2^14, so up to 2^17 products sum exactly in 32 bits.
    expects(in_c * k * k <= 65536, "oracle::qconv2d: receptive field fits int32");
}

void validate_dense(const QTensor& input, const QTensor& weight, const QTensor& bias) {
    expects(weight.shape().rank() == 2, "oracle::qdense: weight rank 2");
    expects(input.size() == weight.shape().dim(1),
            "oracle::qdense: input feature mismatch");
    expects(bias.size() == weight.shape().dim(0), "oracle::qdense: bias size");
    expects(weight.shape().dim(1) <= 65536, "oracle::qdense: fan-in fits int32");
}

/// Dense range kernel: computes outputs [elem_begin, elem_end) into a
/// preallocated `out`, leaving the rest untouched. Shapes unchecked.
void qdense_outputs_unchecked(const QTensor& input, const QTensor& weight,
                              const QTensor& bias, Activation activation,
                              std::size_t elem_begin, std::size_t elem_end,
                              QTensor& out) {
    assert(elem_begin <= elem_end && elem_end <= out.size());
    const std::size_t in_n = weight.shape().dim(1);

    const Q3_4* in_data = input.data();
    const Q3_4* w_data = weight.data();
    const Q3_4* b_data = bias.data();
    Q3_4* out_data = out.data();

    for (std::size_t o = elem_begin; o < elem_end; ++o) {
        std::int32_t acc32 = 0;
        const Q3_4* w_row = w_data + o * in_n;
        for (std::size_t i = 0; i < in_n; ++i) {
            acc32 += static_cast<std::int32_t>(in_data[i].raw()) * w_row[i].raw();
        }
        const fx::Acc acc =
            (static_cast<fx::Acc>(b_data[o].raw()) << Q3_4::frac_bits) + acc32;
        out_data[o] = apply_activation(Q3_4::from_accumulator(acc), activation);
    }
}

} // namespace

void qconv2d_trace(const QTensor& input, const QTensor& weight, const QTensor& bias,
                   Activation activation, QTensor& out, std::vector<fx::Acc>& accs) {
    validate_conv(input, weight, bias);
    const std::size_t in_c = input.shape().dim(0);
    const std::size_t in_h = input.shape().dim(1);
    const std::size_t in_w = input.shape().dim(2);
    const std::size_t out_c = weight.shape().dim(0);
    const std::size_t k = weight.shape().dim(2);
    const std::size_t kk = k * k;
    const std::size_t out_h = in_h - k + 1;
    const std::size_t out_w = in_w - k + 1;
    const std::size_t plane = out_h * out_w;
    out = QTensor(Shape{out_c, out_h, out_w});

    accs.resize(out.size());
    const Q3_4* in_data = input.data();
    const Q3_4* w_data = weight.data();
    const Q3_4* b_data = bias.data();
    Q3_4* out_data = out.data();

    for (std::size_t p = 0; p < out.size(); ++p) {
        const std::size_t oc = p / plane;
        const std::size_t rc = p % plane;
        const std::size_t r = rc / out_w;
        const std::size_t c = rc % out_w;
        std::int32_t acc32 = 0;
        const Q3_4* w_oc = w_data + oc * in_c * kk;
        for (std::size_t ic = 0; ic < in_c; ++ic) {
            for (std::size_t kr = 0; kr < k; ++kr) {
                const Q3_4* in_row = in_data + (ic * in_h + r + kr) * in_w + c;
                const Q3_4* w_row = w_oc + ic * kk + kr * k;
                for (std::size_t kc = 0; kc < k; ++kc) {
                    acc32 += static_cast<std::int32_t>(in_row[kc].raw()) * w_row[kc].raw();
                }
            }
        }
        // Bias enters the accumulator in product units (2^(2*frac)).
        const fx::Acc acc =
            (static_cast<fx::Acc>(b_data[oc].raw()) << Q3_4::frac_bits) + acc32;
        accs[p] = acc;
        out_data[p] = apply_activation(Q3_4::from_accumulator(acc), activation);
    }
}

void qdense_trace(const QTensor& input, const QTensor& weight, const QTensor& bias,
                  Activation activation, QTensor& out, std::vector<fx::Acc>& accs) {
    validate_dense(input, weight, bias);
    const std::size_t out_n = weight.shape().dim(0);
    const std::size_t in_n = weight.shape().dim(1);
    out = QTensor(Shape{out_n});

    accs.resize(out_n);
    const Q3_4* in_data = input.data();
    const Q3_4* w_data = weight.data();
    const Q3_4* b_data = bias.data();
    Q3_4* out_data = out.data();

    for (std::size_t o = 0; o < out_n; ++o) {
        std::int32_t acc32 = 0;
        const Q3_4* w_row = w_data + o * in_n;
        for (std::size_t i = 0; i < in_n; ++i) {
            acc32 += static_cast<std::int32_t>(in_data[i].raw()) * w_row[i].raw();
        }
        const fx::Acc acc =
            (static_cast<fx::Acc>(b_data[o].raw()) << Q3_4::frac_bits) + acc32;
        accs[o] = acc;
        out_data[o] = apply_activation(Q3_4::from_accumulator(acc), activation);
    }
}

QTensor qconv2d(const QTensor& input, const QTensor& weight, const QTensor& bias,
                Activation activation) {
    QTensor out;
    std::vector<fx::Acc> accs;
    oracle::qconv2d_trace(input, weight, bias, activation, out, accs);
    return out;
}

QTensor qdense(const QTensor& input, const QTensor& weight, const QTensor& bias,
               Activation activation) {
    validate_dense(input, weight, bias);
    QTensor out(Shape{weight.shape().dim(0)});
    qdense_outputs_unchecked(input, weight, bias, activation, 0, out.size(), out);
    return out;
}

quant::QNetwork::ForwardTrace forward_trace(const quant::QNetwork& network,
                                            const QTensor& input) {
    expects(input.shape() == network.input_shape, "oracle::forward_trace: input shape");
    quant::QNetwork::ForwardTrace trace;
    trace.activations.reserve(network.layers.size());
    trace.accumulators.resize(network.layers.size());
    QTensor x = input;
    for (std::size_t i = 0; i < network.layers.size(); ++i) {
        const quant::QLayer& layer = network.layers[i];
        if (layer.kind == quant::QLayerKind::Dense && x.shape().rank() != 1) {
            QTensor flat(Shape{x.size()});
            for (std::size_t j = 0; j < x.size(); ++j) {
                flat.at_unchecked(j) = x.at_unchecked(j);
            }
            x = std::move(flat);
        }
        QTensor out;
        switch (layer.kind) {
            case quant::QLayerKind::Conv:
                oracle::qconv2d_trace(x, layer.weight, layer.bias, layer.activation,
                                      out, trace.accumulators[i]);
                break;
            case quant::QLayerKind::Pool2:
                out = quant::qmaxpool2(x);
                break;
            case quant::QLayerKind::AvgPool2:
                out = quant::qavgpool2(x);
                break;
            case quant::QLayerKind::Dense:
                oracle::qdense_trace(x, layer.weight, layer.bias, layer.activation,
                                     out, trace.accumulators[i]);
                break;
        }
        x = out;
        trace.activations.push_back(std::move(out));
    }
    return trace;
}

QTensor forward(const quant::QNetwork& network, const QTensor& input) {
    return forward_trace(network, input).activations.back();
}

} // namespace deepstrike::oracle
