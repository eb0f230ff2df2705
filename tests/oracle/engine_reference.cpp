// Whole-segment per-op implementation of the accelerator fault model: the
// original (pre-overlay) execution path. It gates golden-vs-per-op per
// schedule segment and walks every op of a glitched segment, carrying each
// DSP's output register in a pipeline array. It is the equivalence oracle
// of the interval-gated fault walk in src/accel/engine.cpp
// (tests/overlay_test.cpp asserts byte-identical results).
#include <algorithm>

#include "accel/engine_detail.hpp"
#include "oracle/oracle.hpp"
#include "quant/kernels.hpp"
#include "util/error.hpp"

namespace deepstrike::oracle {

using accel::AccelEngine;
using accel::DspSlice;
using accel::FaultCounts;
using accel::FaultKind;
using accel::LayerSegment;
using accel::RunResult;
using accel::VoltageTrace;
using accel::detail::throttled;
using fx::Q3_4;

namespace {

/// Voltage at the capture edge of DDR half `half` in `cycle` (two halves
/// per cycle); nominal when the trace does not cover the cycle.
double capture_voltage(const std::vector<double>* voltage, std::size_t cycle,
                       std::size_t half, double vdd) {
    const std::size_t idx = cycle * 2 + half;
    if (voltage == nullptr || idx >= voltage->size()) return vdd;
    return (*voltage)[idx];
}

/// Per-DSP pipeline state for duplication faults: the last product captured
/// on each physical slice (in op-stream order).
struct DspPipeline {
    std::vector<fx::Acc> last_product;

    explicit DspPipeline(std::size_t n_dsps) : last_product(n_dsps, 0) {}
};

/// Evaluates one op, optionally with triple-modular-redundancy voting:
/// under TMR an op only faults when at least two of three independent
/// evaluations fault, and the surviving fault kind is the majority kind.
FaultKind evaluate_op(const DspSlice& slice, double v, const pdn::DelayModel& delay,
                      Rng& rng, double path_scale, bool tmr) {
    if (!tmr) return slice.evaluate(v, delay, rng, path_scale);
    int dup = 0;
    int rnd = 0;
    for (int r = 0; r < 3; ++r) {
        switch (slice.evaluate(v, delay, rng, path_scale)) {
            case FaultKind::Duplication: ++dup; break;
            case FaultKind::Random: ++rnd; break;
            case FaultKind::None: break;
        }
    }
    if (dup + rnd < 2) return FaultKind::None;
    return dup >= rnd ? FaultKind::Duplication : FaultKind::Random;
}

/// True when any capture sample of the segment dips below `safe_v`.
bool segment_under_voltage(const LayerSegment& seg, const VoltageTrace* voltage,
                           double safe_v) {
    if (voltage == nullptr) return false;
    const std::size_t end = std::min(seg.end_cycle() * 2, voltage->size());
    for (std::size_t i = seg.start_cycle * 2; i < end; ++i) {
        if ((*voltage)[i] < safe_v) return true;
    }
    return false;
}

QTensor run_conv_reference(const AccelEngine& engine, const QTensor& input,
                           const quant::QLayer& layer, const LayerSegment& seg,
                           const VoltageTrace* voltage, Rng& rng,
                           const std::vector<bool>* throttle, FaultCounts& counts) {
    const double safe_v = engine.conv_safe_voltage();
    if (!segment_under_voltage(seg, voltage, safe_v)) {
        return oracle::qconv2d(input, layer.weight, layer.bias, layer.activation);
    }

    const QTensor& w = layer.weight;
    const QTensor& b = layer.bias;
    const std::size_t in_c = input.shape().dim(0);
    const std::size_t out_c = w.shape().dim(0);
    const std::size_t k = w.shape().dim(2);
    const std::size_t out_h = input.shape().dim(1) - k + 1;
    const std::size_t out_w = input.shape().dim(2) - k + 1;
    const std::size_t mpc = seg.ops_per_cycle;
    const double path_scale = engine.config().path_derate(layer);
    const pdn::DelayModel& delay = engine.delay_model();

    QTensor out(Shape{out_c, out_h, out_w});
    DspPipeline pipe(engine.config().conv_dsp_count);

    std::size_t g = 0; // global op index within the segment
    for (std::size_t oc = 0; oc < out_c; ++oc) {
        for (std::size_t r = 0; r < out_h; ++r) {
            for (std::size_t c = 0; c < out_w; ++c) {
                fx::Acc acc = static_cast<fx::Acc>(b[oc].raw()) << Q3_4::frac_bits;
                for (std::size_t ic = 0; ic < in_c; ++ic) {
                    for (std::size_t kr = 0; kr < k; ++kr) {
                        for (std::size_t kc = 0; kc < k; ++kc) {
                            const std::size_t cycle = seg.start_cycle + g / mpc;
                            const std::size_t dsp = (g % mpc) / 2;
                            const std::size_t half = (g % mpc) % 2;
                            const fx::Acc true_p = DspSlice::compute(
                                input.at(ic, r + kr, c + kc), Q3_4::zero(),
                                w.at(oc, ic, kr, kc));

                            fx::Acc contrib = true_p;
                            const double v =
                                capture_voltage(voltage, cycle, half, delay.vdd);
                            if (v < safe_v && !throttled(throttle, cycle)) {
                                switch (evaluate_op(engine.conv_dsps()[dsp], v, delay,
                                                    rng, path_scale,
                                                    engine.config().tmr_protection)) {
                                    case FaultKind::None:
                                        break;
                                    case FaultKind::Duplication:
                                        contrib = pipe.last_product[dsp];
                                        ++counts.duplication;
                                        break;
                                    case FaultKind::Random:
                                        contrib = DspSlice::random_fault_value(rng);
                                        ++counts.random;
                                        break;
                                }
                            }
                            pipe.last_product[dsp] = true_p;
                            acc += contrib;
                            ++g;
                        }
                    }
                }
                out.at(oc, r, c) = quant::apply_activation(Q3_4::from_accumulator(acc),
                                                           layer.activation);
            }
        }
    }
    return out;
}

QTensor run_fc_reference(const AccelEngine& engine, const QTensor& input,
                         const quant::QLayer& layer, const LayerSegment& seg,
                         const VoltageTrace* voltage, Rng& rng,
                         const std::vector<bool>* throttle, FaultCounts& counts) {
    const double safe_v = engine.fc_safe_voltage();
    if (!segment_under_voltage(seg, voltage, safe_v)) {
        return oracle::qdense(input, layer.weight, layer.bias, layer.activation);
    }

    const QTensor& w = layer.weight;
    const QTensor& b = layer.bias;
    const std::size_t out_n = w.shape().dim(0);
    const std::size_t in_n = w.shape().dim(1);
    const std::size_t mpc = seg.ops_per_cycle;
    const pdn::DelayModel& delay = engine.delay_model();

    QTensor out(Shape{out_n});
    DspPipeline pipe(engine.config().fc_dsp_count);

    std::size_t g = 0;
    for (std::size_t o = 0; o < out_n; ++o) {
        fx::Acc acc = static_cast<fx::Acc>(b[o].raw()) << Q3_4::frac_bits;
        for (std::size_t i = 0; i < in_n; ++i) {
            const std::size_t cycle = seg.start_cycle + g / mpc;
            const std::size_t dsp = (g % mpc) / 2;
            const std::size_t half = (g % mpc) % 2;
            const fx::Acc true_p = DspSlice::compute(
                input.at_unchecked(i), Q3_4::zero(), w.at_unchecked(o * in_n + i));

            fx::Acc contrib = true_p;
            const double v = capture_voltage(voltage, cycle, half, delay.vdd);
            if (v < safe_v && !throttled(throttle, cycle)) {
                switch (evaluate_op(engine.fc_dsps()[dsp], v, delay, rng, 1.0,
                                    engine.config().tmr_protection)) {
                    case FaultKind::None:
                        break;
                    case FaultKind::Duplication:
                        contrib = pipe.last_product[dsp];
                        ++counts.duplication;
                        break;
                    case FaultKind::Random:
                        contrib = DspSlice::random_fault_value(rng);
                        ++counts.random;
                        break;
                }
            }
            pipe.last_product[dsp] = true_p;
            acc += contrib;
            ++g;
        }
        out.at(o) =
            quant::apply_activation(Q3_4::from_accumulator(acc), layer.activation);
    }
    return out;
}

QTensor run_pool_reference(const AccelEngine& engine, const QTensor& input,
                           const quant::QLayer& layer, const LayerSegment& seg,
                           const VoltageTrace* voltage, Rng& rng,
                           const std::vector<bool>* throttle, FaultCounts& counts) {
    const bool average = layer.kind == quant::QLayerKind::AvgPool2;
    const double safe_v = engine.pool_safe_voltage();
    if (!segment_under_voltage(seg, voltage, safe_v)) {
        return average ? quant::qavgpool2(input) : quant::qmaxpool2(input);
    }

    const pdn::DelayModel& delay = engine.delay_model();
    const std::size_t ch = input.shape().dim(0);
    const std::size_t oh = input.shape().dim(1) / 2;
    const std::size_t ow = input.shape().dim(2) / 2;
    QTensor out(Shape{ch, oh, ow});

    std::size_t g = 0;
    const std::size_t opc = seg.ops_per_cycle;
    for (std::size_t c = 0; c < ch; ++c) {
        for (std::size_t r = 0; r < oh; ++r) {
            for (std::size_t wdx = 0; wdx < ow; ++wdx) {
                Q3_4 window[4] = {input.at(c, 2 * r, 2 * wdx),
                                  input.at(c, 2 * r, 2 * wdx + 1),
                                  input.at(c, 2 * r + 1, 2 * wdx),
                                  input.at(c, 2 * r + 1, 2 * wdx + 1)};
                bool faulted = false;
                for (std::size_t cmp = 0; cmp < 4; ++cmp) {
                    const std::size_t cycle = seg.start_cycle + g / opc;
                    // Pool comparators are registered on the fabric clock:
                    // one capture at end of cycle (second half sample).
                    const double v = capture_voltage(voltage, cycle, 1, delay.vdd);
                    if (v < safe_v && !throttled(throttle, cycle) &&
                        engine.pool_logic().evaluate(v, delay, rng) != FaultKind::None) {
                        faulted = true;
                        ++counts.random;
                    }
                    ++g;
                }
                if (faulted) {
                    // Comparator/adder mis-operated: an arbitrary window
                    // element (possibly the right one) wins.
                    out.at(c, r, wdx) = window[rng.uniform_int(0, 3)];
                } else if (average) {
                    const std::int32_t sum = window[0].raw() + window[1].raw() +
                                             window[2].raw() + window[3].raw();
                    const std::int32_t avg =
                        sum >= 0 ? (sum + 2) / 4 : -((-sum + 2) / 4);
                    out.at(c, r, wdx) = Q3_4::from_raw(static_cast<std::int16_t>(avg));
                } else {
                    out.at(c, r, wdx) = std::max(std::max(window[0], window[1]),
                                                 std::max(window[2], window[3]));
                }
            }
        }
    }
    return out;
}

} // namespace

RunResult run_reference(const AccelEngine& engine, const QTensor& image,
                        const VoltageTrace* voltage, Rng& fault_rng,
                        const std::vector<bool>* throttle) {
    const quant::QNetwork& network = engine.network();
    expects(image.shape() == network.input_shape, "oracle::run_reference: input shape");

    RunResult result;
    result.faults_by_layer.reserve(network.layers.size());
    result.layer_index.reserve(network.layers.size());

    QTensor x = image;
    for (std::size_t i = 0; i < network.layers.size(); ++i) {
        const quant::QLayer& layer = network.layers[i];
        const LayerSegment& seg = engine.schedule().segment_for_layer(i);

        if (layer.kind == quant::QLayerKind::Dense && x.shape().rank() != 1) {
            QTensor flat(Shape{x.size()});
            for (std::size_t j = 0; j < x.size(); ++j) {
                flat.at_unchecked(j) = x.at_unchecked(j);
            }
            x = std::move(flat);
        }

        FaultCounts counts;
        switch (layer.kind) {
            case quant::QLayerKind::Conv:
                x = run_conv_reference(engine, x, layer, seg, voltage, fault_rng,
                                       throttle, counts);
                break;
            case quant::QLayerKind::Pool2:
            case quant::QLayerKind::AvgPool2:
                x = run_pool_reference(engine, x, layer, seg, voltage, fault_rng,
                                       throttle, counts);
                break;
            case quant::QLayerKind::Dense:
                x = run_fc_reference(engine, x, layer, seg, voltage, fault_rng,
                                     throttle, counts);
                break;
        }
        result.faults_total += counts;
        result.layer_index.emplace(layer.label, result.faults_by_layer.size());
        result.faults_by_layer.push_back({layer.label, counts});
    }

    result.logits = std::move(x);
    result.predicted = argmax(result.logits);
    return result;
}

} // namespace deepstrike::oracle
