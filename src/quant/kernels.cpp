#include "quant/kernels.hpp"

#include <cassert>

#include "quant/gemm.hpp"
#include "quant/qnetwork.hpp"

#include "util/error.hpp"

namespace deepstrike::quant {

using fx::Q3_4;
using fx::TanhLut;

QTensor quantize_image(const FloatTensor& image) {
    expects(image.shape().rank() == 3, "quantize_image: [1,H,W] tensor");
    return quantize(image);
}

Q3_4 apply_activation(Q3_4 v, Activation activation) {
    switch (activation) {
        case Activation::None: return v;
        case Activation::Tanh: return TanhLut::instance()(v);
        case Activation::Relu: return qrelu(v);
        case Activation::Sign: return qsign(v);
    }
    return v;
}

namespace {

/// Shape validation shared by the public conv entry points; hoisted out
/// of the range kernel so the per-element hot path (the detail:: variant)
/// stays branch-light.
void validate_conv(const QTensor& input, const QTensor& weight,
                   const QTensor& bias) {
    expects(input.shape().rank() == 3, "qconv2d: input rank 3");
    expects(weight.shape().rank() == 4, "qconv2d: weight rank 4");
    const std::size_t in_c = input.shape().dim(0);
    const std::size_t k = weight.shape().dim(2);
    expects(weight.shape().dim(1) == in_c, "qconv2d: channel mismatch");
    expects(weight.shape().dim(3) == k, "qconv2d: square kernel");
    expects(bias.size() == weight.shape().dim(0), "qconv2d: bias size");
    expects(input.shape().dim(1) >= k && input.shape().dim(2) >= k,
            "qconv2d: input at least kernel-sized");
    // Integer sums are exact under any accumulation width that cannot
    // overflow, so the kernels accumulate products in 32 bits (|product|
    // <= 2^14, so up to 2^17 products are safe) and widen once at the end.
    expects(in_c * k * k <= 65536, "qconv2d: receptive field fits int32");
}

void validate_dense(const QTensor& input, const QTensor& weight,
                    const QTensor& bias) {
    expects(weight.shape().rank() == 2, "qdense: weight rank 2");
    expects(input.size() == weight.shape().dim(1), "qdense: input feature mismatch");
    expects(bias.size() == weight.shape().dim(0), "qdense: bias size");
    // Same 32-bit exact-accumulation argument as validate_conv.
    expects(weight.shape().dim(1) <= 65536, "qdense: fan-in fits int32");
}

} // namespace

fx::Q3_4 qrelu(fx::Q3_4 x) {
    return std::max(x, Q3_4::zero());
}

fx::Q3_4 qsign(fx::Q3_4 x) {
    return x.raw() >= 0 ? Q3_4::from_real(1.0) : Q3_4::from_real(-1.0);
}

QTensor qconv2d(const QTensor& input, const QTensor& weight, const QTensor& bias,
                Activation activation) {
    validate_conv(input, weight, bias);
    const std::size_t k = weight.shape().dim(2);
    const std::size_t out_h = input.shape().dim(1) - k + 1;
    const std::size_t out_w = input.shape().dim(2) - k + 1;
    QTensor out(Shape{weight.shape().dim(0), out_h, out_w});
    thread_local std::vector<fx::Acc> accs;
    gemm::conv2d_accs(input, weight, bias, accs);
    gemm::write_back(accs.data(), accs.size(), activation, out);
    return out;
}

void detail::qconv2d_outputs_unchecked(const QTensor& input, const QTensor& weight,
                                       const QTensor& bias, Activation activation,
                                       std::size_t elem_begin, std::size_t elem_end,
                                       QTensor& out) {
    assert(elem_begin <= elem_end && elem_end <= out.size());
    const std::size_t in_c = input.shape().dim(0);
    const std::size_t in_h = input.shape().dim(1);
    const std::size_t in_w = input.shape().dim(2);
    const std::size_t k = weight.shape().dim(2);
    const std::size_t kk = k * k;
    const std::size_t out_w = in_w - k + 1;
    const std::size_t plane = (in_h - k + 1) * out_w;

    const Q3_4* in_data = input.data();
    const Q3_4* w_data = weight.data();
    const Q3_4* b_data = bias.data();
    Q3_4* out_data = out.data();

    for (std::size_t p = elem_begin; p < elem_end; ++p) {
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
        out_data[p] = apply_activation(Q3_4::from_accumulator(acc), activation);
    }
}

void qconv2d_trace(const QTensor& input, const QTensor& weight, const QTensor& bias,
                   Activation activation, QTensor& out, std::vector<fx::Acc>& accs) {
    validate_conv(input, weight, bias);
    const std::size_t k = weight.shape().dim(2);
    out = QTensor(Shape{weight.shape().dim(0), input.shape().dim(1) - k + 1,
                        input.shape().dim(2) - k + 1});
    gemm::conv2d_accs(input, weight, bias, accs);
    gemm::write_back(accs.data(), accs.size(), activation, out);
}

QTensor qmaxpool2(const QTensor& input) {
    expects(input.shape().rank() == 3, "qmaxpool2: input rank 3");
    expects(input.shape().dim(1) % 2 == 0 && input.shape().dim(2) % 2 == 0,
            "qmaxpool2: even spatial dims");
    const std::size_t ch = input.shape().dim(0);
    const std::size_t oh = input.shape().dim(1) / 2;
    const std::size_t ow = input.shape().dim(2) / 2;
    QTensor out(Shape{ch, oh, ow});
    const std::size_t iw = 2 * ow;
    const Q3_4* in = input.data();
    Q3_4* dst = out.data();
    for (std::size_t c = 0; c < ch; ++c) {
        for (std::size_t r = 0; r < oh; ++r) {
            const Q3_4* row0 = in + (c * 2 * oh + 2 * r) * iw;
            const Q3_4* row1 = row0 + iw;
            for (std::size_t w = 0; w < ow; ++w) {
                const Q3_4 top = std::max(row0[2 * w], row0[2 * w + 1]);
                const Q3_4 bot = std::max(row1[2 * w], row1[2 * w + 1]);
                *dst++ = std::max(top, bot);
            }
        }
    }
    return out;
}

QTensor qavgpool2(const QTensor& input) {
    expects(input.shape().rank() == 3, "qavgpool2: input rank 3");
    expects(input.shape().dim(1) % 2 == 0 && input.shape().dim(2) % 2 == 0,
            "qavgpool2: even spatial dims");
    const std::size_t ch = input.shape().dim(0);
    const std::size_t oh = input.shape().dim(1) / 2;
    const std::size_t ow = input.shape().dim(2) / 2;
    QTensor out(Shape{ch, oh, ow});
    const std::size_t iw = 2 * ow;
    const Q3_4* in = input.data();
    Q3_4* dst = out.data();
    for (std::size_t c = 0; c < ch; ++c) {
        for (std::size_t r = 0; r < oh; ++r) {
            const Q3_4* row0 = in + (c * 2 * oh + 2 * r) * iw;
            const Q3_4* row1 = row0 + iw;
            for (std::size_t w = 0; w < ow; ++w) {
                // Sum in raw units, then divide by 4 rounding to nearest
                // (ties away from zero) — an adder tree plus a shift.
                const std::int32_t sum = row0[2 * w].raw() + row0[2 * w + 1].raw() +
                                         row1[2 * w].raw() + row1[2 * w + 1].raw();
                const std::int32_t avg = sum >= 0 ? (sum + 2) / 4 : -((-sum + 2) / 4);
                *dst++ = Q3_4::from_raw(static_cast<std::int16_t>(avg));
            }
        }
    }
    return out;
}

QTensor qdense(const QTensor& input, const QTensor& weight, const QTensor& bias,
               Activation activation) {
    validate_dense(input, weight, bias);
    QTensor out(Shape{weight.shape().dim(0)});
    thread_local std::vector<fx::Acc> accs;
    gemm::dense_accs(input, weight, bias, accs);
    gemm::write_back(accs.data(), accs.size(), activation, out);
    return out;
}

void qdense_trace(const QTensor& input, const QTensor& weight, const QTensor& bias,
                  Activation activation, QTensor& out, std::vector<fx::Acc>& accs) {
    validate_dense(input, weight, bias);
    out = QTensor(Shape{weight.shape().dim(0)});
    gemm::dense_accs(input, weight, bias, accs);
    gemm::write_back(accs.data(), accs.size(), activation, out);
}

} // namespace deepstrike::quant
