#include "accel/engine.hpp"

#include <algorithm>
#include <utility>

#include "accel/engine_detail.hpp"
#include "quant/gemm.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace deepstrike::accel {

using fx::Q3_4;

FaultCounts RunResult::faults_for(const std::string& label) const {
    if (!layer_index.empty()) {
        const auto it = layer_index.find(label);
        if (it == layer_index.end()) return {};
        return faults_by_layer[it->second].counts;
    }
    for (const LayerFaults& lf : faults_by_layer) {
        if (lf.label == label) return lf.counts;
    }
    return {};
}

namespace {

DspSlice make_pool_slice(const AccelConfig& config, std::uint64_t variation_seed) {
    // The pool comparator path gets its own variation stream so the DSP
    // draws below stay stable if the pool model changes.
    Rng pool_rng(variation_seed ^ 0x706f6f6cULL);
    return DspSlice(0xFFFF, config.logic_timing, pool_rng);
}

/// Output-element ranges whose op spans intersect an unsafe window
/// (merged, ascending). Elements outside these ranges execute entirely at
/// safe voltage and write back straight from the fault-free accumulators.
std::vector<std::pair<std::size_t, std::size_t>> hot_element_ranges(
    const SegmentOverlay& overlay, const LayerSegment& seg, std::size_t ops_per_elem,
    std::size_t n_elems) {
    std::vector<std::pair<std::size_t, std::size_t>> hot;
    const std::size_t n_ops = n_elems * ops_per_elem;
    for (const CycleWindow& w : overlay.unsafe) {
        const std::size_t op_lo =
            std::min((w.begin - seg.start_cycle) * seg.ops_per_cycle, n_ops);
        const std::size_t op_hi =
            std::min((w.end - seg.start_cycle) * seg.ops_per_cycle, n_ops);
        if (op_lo >= op_hi) continue;
        const std::size_t e_lo = op_lo / ops_per_elem;
        const std::size_t e_hi = (op_hi - 1) / ops_per_elem + 1;
        if (!hot.empty() && e_lo <= hot.back().second) {
            hot.back().second = std::max(hot.back().second, e_hi);
        } else {
            hot.emplace_back(e_lo, e_hi);
        }
    }
    return hot;
}

// --- sparse golden-delta propagation (run_elided, post-divergence) ---
//
// Once a windowed layer has faulted, its output differs from the golden
// activation at only a handful of elements (the windows' hot ranges). As
// long as downstream layers are themselves fault-free, each one can be
// patched from its cached golden output instead of fully recomputed:
//   dense — full acc[j] = golden_acc[j] + sum over changed inputs of
//           (x - golden) * w; integer sums reassociate exactly, so the
//           writeback is byte-identical to a full recompute;
//   conv  — recompute only the output elements whose receptive field
//           touches a changed input (exact: full per-element kernel);
//   pool  — recompute only the 2x2 windows covering a changed input.
// The changed set is re-derived per layer by diffing against golden, so
// saturation/LUT writebacks that swallow a delta shrink it as it flows.

/// Flat indices where `a` and `b` differ (same element count assumed).
std::vector<std::size_t> diff_indices(const QTensor& a, const QTensor& b) {
    std::vector<std::size_t> d;
    const Q3_4* pa = a.data();
    const Q3_4* pb = b.data();
    const std::size_t n = a.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (pa[i].raw() != pb[i].raw()) d.push_back(i);
    }
    return d;
}

QTensor patch_dense(const QTensor& x, const QTensor& golden_in,
                    const std::vector<std::size_t>& changed,
                    const quant::QLayer& layer, const std::vector<fx::Acc>& gaccs,
                    const QTensor& golden_out) {
    const std::size_t out_n = layer.weight.shape().dim(0);
    const std::size_t in_n = layer.weight.shape().dim(1);
    const Q3_4* xd = x.data();
    const Q3_4* gd = golden_in.data();
    const Q3_4* wd = layer.weight.data();
    QTensor out(Shape{out_n});
    Q3_4* od = out.data();
    for (std::size_t j = 0; j < out_n; ++j) {
        const Q3_4* w_row = wd + j * in_n;
        fx::Acc delta = 0;
        for (std::size_t idx : changed) {
            delta += static_cast<fx::Acc>(xd[idx].raw() - gd[idx].raw()) *
                     w_row[idx].raw();
        }
        od[j] = delta == 0 ? golden_out.data()[j]
                           : quant::apply_activation(
                                 Q3_4::from_accumulator(gaccs[j] + delta),
                                 layer.activation);
    }
    return out;
}

QTensor patch_conv(const QTensor& x, const std::vector<std::size_t>& changed,
                   const quant::QLayer& layer, const QTensor& golden_out) {
    const std::size_t in_h = x.shape().dim(1);
    const std::size_t in_w = x.shape().dim(2);
    const std::size_t k = layer.weight.shape().dim(2);
    const std::size_t out_c = layer.weight.shape().dim(0);
    const std::size_t out_h = in_h - k + 1;
    const std::size_t out_w = in_w - k + 1;
    const std::size_t plane = out_h * out_w;
    QTensor out = golden_out;
    std::vector<bool> visited(out.size(), false);
    for (std::size_t idx : changed) {
        // Every output channel sums over all input channels, so only the
        // spatial position of the changed input bounds the affected set.
        const std::size_t rc = idx % (in_h * in_w);
        const std::size_t r = rc / in_w;
        const std::size_t c = rc % in_w;
        const std::size_t r_lo = r >= k - 1 ? r - (k - 1) : 0;
        const std::size_t r_hi = std::min(r, out_h - 1);
        const std::size_t c_lo = c >= k - 1 ? c - (k - 1) : 0;
        const std::size_t c_hi = std::min(c, out_w - 1);
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            for (std::size_t rr = r_lo; rr <= r_hi; ++rr) {
                for (std::size_t cc = c_lo; cc <= c_hi; ++cc) {
                    const std::size_t p = oc * plane + rr * out_w + cc;
                    if (visited[p]) continue;
                    visited[p] = true;
                    // Hot per-element patch: shapes were validated when the
                    // golden trace was built, so skip the expects re-checks.
                    quant::detail::qconv2d_outputs_unchecked(
                        x, layer.weight, layer.bias, layer.activation, p, p + 1, out);
                }
            }
        }
    }
    return out;
}

QTensor patch_pool(const QTensor& x, const std::vector<std::size_t>& changed,
                   quant::QLayerKind kind, const QTensor& golden_out) {
    const std::size_t in_h = x.shape().dim(1);
    const std::size_t in_w = x.shape().dim(2);
    QTensor out = golden_out;
    for (std::size_t idx : changed) {
        const std::size_t ch = idx / (in_h * in_w);
        const std::size_t rc = idx % (in_h * in_w);
        const std::size_t r = (rc / in_w) / 2;
        const std::size_t c = (rc % in_w) / 2;
        // Recompute the covering window with the same semantics as
        // qmaxpool2 / qavgpool2 (idempotent when windows repeat).
        if (kind == quant::QLayerKind::AvgPool2) {
            const std::int32_t sum =
                x.at(ch, 2 * r, 2 * c).raw() + x.at(ch, 2 * r, 2 * c + 1).raw() +
                x.at(ch, 2 * r + 1, 2 * c).raw() +
                x.at(ch, 2 * r + 1, 2 * c + 1).raw();
            const std::int32_t avg = sum >= 0 ? (sum + 2) / 4 : -((-sum + 2) / 4);
            out.at(ch, r, c) = Q3_4::from_raw(static_cast<std::int16_t>(avg));
        } else {
            Q3_4 best = x.at(ch, 2 * r, 2 * c);
            for (std::size_t dr = 0; dr < 2; ++dr) {
                for (std::size_t dc = 0; dc < 2; ++dc) {
                    best = std::max(best, x.at(ch, 2 * r + dr, 2 * c + dc));
                }
            }
            out.at(ch, r, c) = best;
        }
    }
    return out;
}

} // namespace

AccelEngine::AccelEngine(quant::QNetwork network, const AccelConfig& config,
                         std::uint64_t variation_seed)
    : network_(std::move(network)),
      config_(config),
      schedule_(build_schedule(network_, config)),
      pool_logic_(make_pool_slice(config, variation_seed)) {
    Rng variation_rng(variation_seed);
    conv_dsps_.reserve(config.conv_dsp_count);
    for (std::size_t i = 0; i < config.conv_dsp_count; ++i) {
        conv_dsps_.emplace_back(static_cast<std::uint32_t>(i), config.dsp_timing,
                                variation_rng);
    }
    fc_dsps_.reserve(config.fc_dsp_count);
    for (std::size_t i = 0; i < config.fc_dsp_count; ++i) {
        fc_dsps_.emplace_back(static_cast<std::uint32_t>(1000 + i), config.fc_timing,
                              variation_rng);
    }

    conv_safe_v_ = 0.0;
    for (const DspSlice& d : conv_dsps_) {
        conv_safe_v_ = std::max(conv_safe_v_, d.safe_voltage(delay_));
    }
    fc_safe_v_ = 0.0;
    for (const DspSlice& d : fc_dsps_) {
        fc_safe_v_ = std::max(fc_safe_v_, d.safe_voltage(delay_));
    }
    pool_safe_v_ = pool_logic_.safe_voltage(delay_);
}

OverlayPlan AccelEngine::plan_overlay(const VoltageTrace* voltage) const {
    OverlayPlan plan;
    plan.trace_samples = voltage == nullptr ? 0 : voltage->size();
    plan.layers.resize(network_.layers.size());
    if (voltage == nullptr) return plan;
    for (std::size_t i = 0; i < network_.layers.size(); ++i) {
        const LayerSegment& seg = schedule_.segment_for_layer(i);
        switch (network_.layers[i].kind) {
            case quant::QLayerKind::Conv:
                plan.layers[i].unsafe = unsafe_windows(seg, voltage, conv_safe_v_);
                break;
            case quant::QLayerKind::Pool2:
            case quant::QLayerKind::AvgPool2:
                // Pool comparators are registered on the fabric clock: one
                // capture per cycle, at the second DDR sample (cycle end).
                plan.layers[i].unsafe =
                    unsafe_windows(seg, voltage, pool_safe_v_, /*half_mask=*/2u);
                break;
            case quant::QLayerKind::Dense:
                plan.layers[i].unsafe = unsafe_windows(seg, voltage, fc_safe_v_);
                break;
        }
    }
    if (metrics::enabled()) {
        std::uint64_t windows = 0;
        std::uint64_t window_cycles = 0;
        for (const SegmentOverlay& overlay : plan.layers) {
            for (const CycleWindow& w : overlay.unsafe) {
                ++windows;
                window_cycles += w.end - w.begin;
            }
        }
        metrics::counter("overlay.plans", "plans",
                         "per-(trace,schedule) unsafe-window plans built")
            .add();
        metrics::counter("overlay.unsafe_windows", "windows",
                         "merged unsafe cycle windows across all plans")
            .add(windows);
        metrics::counter("overlay.window_cycles", "cycles",
                         "fabric cycles covered by unsafe windows")
            .add(window_cycles);
    }
    return plan;
}

QTensor AccelEngine::run_conv(const QTensor& input, const quant::QLayer& layer,
                              const LayerSegment& seg, const SegmentOverlay& overlay,
                              const VoltageTrace* voltage, Rng& rng,
                              const std::vector<bool>* throttle,
                              FaultCounts& counts) const {
    if (!overlay.any()) {
        return quant::qconv2d(input, layer.weight, layer.bias, layer.activation);
    }

    const QTensor& w = layer.weight;
    const std::size_t in_c = input.shape().dim(0);
    const std::size_t out_c = w.shape().dim(0);
    const std::size_t k = w.shape().dim(2);
    const std::size_t out_h = input.shape().dim(1) - k + 1;
    const std::size_t out_w = input.shape().dim(2) - k + 1;
    const std::size_t opp = in_c * k * k; // ops per output element
    const std::size_t n_elems = out_c * out_h * out_w;

    QTensor out(Shape{out_c, out_h, out_w});

    // One im2col/GEMM pass computes the whole layer's fault-free
    // accumulators: gap elements write back directly from them, and hot
    // windows start from them and patch in the integer fault deltas.
    // Integer accumulation is exact, so the faulted outputs and the RNG
    // stream are byte-identical to the per-op reference walk.
    thread_local std::vector<fx::Acc> accs;
    quant::gemm::conv2d_accs(input, w, layer.bias, accs);
    std::size_t cursor = 0;
    for (const auto& [e0, e1] : hot_element_ranges(overlay, seg, opp, n_elems)) {
        for (std::size_t p = cursor; p < e0; ++p) {
            out.data()[p] = quant::apply_activation(Q3_4::from_accumulator(accs[p]),
                                                    layer.activation);
        }
        run_conv_window(input, layer, seg, overlay, voltage, rng, throttle, counts,
                        accs.data(), e0, e1, out);
        cursor = e1;
    }
    for (std::size_t p = cursor; p < n_elems; ++p) {
        out.data()[p] = quant::apply_activation(Q3_4::from_accumulator(accs[p]),
                                                layer.activation);
    }
    return out;
}

void AccelEngine::run_conv_window(const QTensor& input, const quant::QLayer& layer,
                                  const LayerSegment& seg, const SegmentOverlay& overlay,
                                  const VoltageTrace* voltage, Rng& rng,
                                  const std::vector<bool>* throttle,
                                  FaultCounts& counts, const fx::Acc* seed_accs,
                                  std::size_t elem_begin, std::size_t elem_end,
                                  QTensor& out) const {
    const QTensor& w = layer.weight;
    const std::size_t in_c = input.shape().dim(0);
    const std::size_t in_h = input.shape().dim(1);
    const std::size_t in_w = input.shape().dim(2);
    const std::size_t k = w.shape().dim(2);
    const std::size_t kk = k * k;
    const std::size_t out_h = in_h - k + 1;
    const std::size_t out_w = in_w - k + 1;
    const std::size_t plane = out_h * out_w;
    const std::size_t opp = in_c * kk;
    const std::size_t mpc = seg.ops_per_cycle;
    const double path_scale = config_.path_derate(layer);
    const bool tmr = config_.tmr_protection;

    const Q3_4* in_data = input.data();
    const Q3_4* w_data = w.data();
    Q3_4* out_data = out.data();

    const auto true_product_at = [&](std::size_t g) {
        const std::size_t pixel = g / opp;
        const std::size_t rem = g % opp;
        const std::size_t oc = pixel / plane;
        const std::size_t rc = pixel % plane;
        const std::size_t r = rc / out_w;
        const std::size_t c = rc % out_w;
        const std::size_t ic = rem / kk;
        const std::size_t kr = (rem % kk) / k;
        const std::size_t kc = rem % k;
        return static_cast<fx::Acc>(in_data[(ic * in_h + r + kr) * in_w + c + kc].raw()) *
               w_data[(oc * in_c + ic) * kk + kr * k + kc].raw();
    };

    // A duplication fault captures the last product issued on the same DSP
    // slice. Slice d owns positions 2d / 2d+1 of every cycle, so that
    // predecessor's op index is pure arithmetic: the pair partner earlier in
    // the same cycle (odd positions), or the slice's last position in the
    // previous cycle (even positions). The reference path records the true
    // product of every op unconditionally, so the predecessor's *true*
    // product is exactly what the stale output register holds; no pipeline
    // array needs to be carried or seeded. First-cycle slices with no
    // predecessor hold the reset value 0.
    const auto stale_product_at = [&](std::size_t g, std::size_t pos) -> fx::Acc {
        if (pos & 1) return true_product_at(g - 1);
        if (g < mpc) return 0;
        const std::size_t last_pos = pos + 1 < mpc ? pos + 1 : pos;
        return true_product_at(g - pos + last_pos - mpc);
    };

    // Golden-plus-deltas evaluation. The fault model's RNG consumption is
    // image-independent: an op draws exactly when its DDR-half sample is
    // under the safe voltage and its cycle is unthrottled, and none of that
    // depends on the image data. So instead of threading every op of the
    // covered range through a gated loop, start from the fault-free
    // accumulators, then walk only the unsafe-window ops in ascending op
    // order — drawing the RNG exactly as the sequential per-op path would —
    // and patch the owning element's accumulator with the integer delta
    // (faulted contribution minus true product). Integer sums are exact
    // under reassociation, so the result is byte-identical to the reference
    // per-op evaluation.
    const std::size_t op_begin = elem_begin * opp;
    const std::size_t op_end = elem_end * opp;
    std::vector<fx::Acc> accs(seed_accs + elem_begin, seed_accs + elem_end);

    // Fault pass: the delay factor and jitter floors are shared by every
    // op captured at the same DDR half sample (detail::HalfSampleWalk), and
    // a jitter draw that provably cannot fault is consumed without being
    // computed.
    detail::walk_unsafe_ops(
        overlay, seg, op_begin, op_end, *voltage, conv_dsps_, delay_, path_scale, tmr,
        conv_safe_v_, throttle, rng, [&](std::size_t g, std::size_t pos, FaultKind kind) {
            if (kind == FaultKind::Duplication) {
                accs[g / opp - elem_begin] += stale_product_at(g, pos) - true_product_at(g);
                ++counts.duplication;
            } else {
                accs[g / opp - elem_begin] +=
                    DspSlice::random_fault_value(rng) - true_product_at(g);
                ++counts.random;
            }
        });

    for (std::size_t p = elem_begin; p < elem_end; ++p) {
        out_data[p] = quant::apply_activation(
            Q3_4::from_accumulator(accs[p - elem_begin]), layer.activation);
    }
}

QTensor AccelEngine::run_fc(const QTensor& input, const quant::QLayer& layer,
                            const LayerSegment& seg, const SegmentOverlay& overlay,
                            const VoltageTrace* voltage, Rng& rng,
                            const std::vector<bool>* throttle,
                            FaultCounts& counts) const {
    if (!overlay.any()) {
        return quant::qdense(input, layer.weight, layer.bias, layer.activation);
    }

    const std::size_t out_n = layer.weight.shape().dim(0);
    const std::size_t in_n = layer.weight.shape().dim(1);

    QTensor out(Shape{out_n});

    // See run_conv: one GEMM pass supplies the fault-free accumulators for
    // both gap writebacks and hot-window seeding.
    thread_local std::vector<fx::Acc> accs;
    quant::gemm::dense_accs(input, layer.weight, layer.bias, accs);
    std::size_t cursor = 0;
    for (const auto& [e0, e1] : hot_element_ranges(overlay, seg, in_n, out_n)) {
        for (std::size_t p = cursor; p < e0; ++p) {
            out.data()[p] = quant::apply_activation(Q3_4::from_accumulator(accs[p]),
                                                    layer.activation);
        }
        run_fc_window(input, layer, seg, overlay, voltage, rng, throttle, counts,
                      accs.data(), e0, e1, out);
        cursor = e1;
    }
    for (std::size_t p = cursor; p < out_n; ++p) {
        out.data()[p] = quant::apply_activation(Q3_4::from_accumulator(accs[p]),
                                                layer.activation);
    }
    return out;
}

void AccelEngine::run_fc_window(const QTensor& input, const quant::QLayer& layer,
                                const LayerSegment& seg, const SegmentOverlay& overlay,
                                const VoltageTrace* voltage, Rng& rng,
                                const std::vector<bool>* throttle, FaultCounts& counts,
                                const fx::Acc* seed_accs, std::size_t elem_begin,
                                std::size_t elem_end, QTensor& out) const {
    const QTensor& w = layer.weight;
    const std::size_t in_n = w.shape().dim(1);
    const std::size_t mpc = seg.ops_per_cycle;
    const bool tmr = config_.tmr_protection;

    const Q3_4* in_data = input.data();
    const Q3_4* w_data = w.data();
    Q3_4* out_data = out.data();

    const auto true_product_at = [&](std::size_t g) {
        return static_cast<fx::Acc>(in_data[g % in_n].raw()) * w_data[g].raw();
    };

    // See run_conv_window: the stale register of the issuing slice is
    // recovered from the op stream, not carried in a pipeline array.
    const auto stale_product_at = [&](std::size_t g, std::size_t pos) -> fx::Acc {
        if (pos & 1) return true_product_at(g - 1);
        if (g < mpc) return 0;
        const std::size_t last_pos = pos + 1 < mpc ? pos + 1 : pos;
        return true_product_at(g - pos + last_pos - mpc);
    };

    // Golden-plus-deltas evaluation; see run_conv_window for the argument.
    const std::size_t op_begin = elem_begin * in_n;
    const std::size_t op_end = elem_end * in_n;
    std::vector<fx::Acc> accs(seed_accs + elem_begin, seed_accs + elem_end);

    // See run_conv_window for the fault pass.
    detail::walk_unsafe_ops(
        overlay, seg, op_begin, op_end, *voltage, fc_dsps_, delay_, 1.0, tmr, fc_safe_v_,
        throttle, rng, [&](std::size_t g, std::size_t pos, FaultKind kind) {
            if (kind == FaultKind::Duplication) {
                accs[g / in_n - elem_begin] += stale_product_at(g, pos) - true_product_at(g);
                ++counts.duplication;
            } else {
                accs[g / in_n - elem_begin] +=
                    DspSlice::random_fault_value(rng) - true_product_at(g);
                ++counts.random;
            }
        });

    for (std::size_t o = elem_begin; o < elem_end; ++o) {
        out_data[o] = quant::apply_activation(
            Q3_4::from_accumulator(accs[o - elem_begin]), layer.activation);
    }
}

QTensor AccelEngine::run_pool(const QTensor& input, const quant::QLayer& layer,
                              const LayerSegment& seg, const SegmentOverlay& overlay,
                              const VoltageTrace* voltage, Rng& rng,
                              const std::vector<bool>* throttle,
                              FaultCounts& counts) const {
    const bool average = layer.kind == quant::QLayerKind::AvgPool2;
    if (!overlay.any()) {
        return average ? quant::qavgpool2(input) : quant::qmaxpool2(input);
    }
    // Pool segments are tiny (a few thousand comparator ops); when a window
    // touches one, walking every op of the segment is already cheap and
    // trivially byte-identical to the per-op reference.
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
                    const std::size_t sidx = cycle * 2 + 1;
                    const double v = sidx < voltage->size() ? (*voltage)[sidx]
                                                            : delay_.vdd;
                    if (v < pool_safe_v_ && !detail::throttled(throttle, cycle) &&
                        pool_logic_.evaluate(v, delay_, rng) != FaultKind::None) {
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

RunResult AccelEngine::run(const QTensor& image, const VoltageTrace* voltage,
                           Rng& fault_rng, const std::vector<bool>* throttle,
                           const OverlayPlan* plan) const {
    expects(image.shape() == network_.input_shape, "AccelEngine::run: input shape");
    OverlayPlan local;
    if (plan == nullptr) {
        local = plan_overlay(voltage);
        plan = &local;
    } else {
        expects(plan->layers.size() == network_.layers.size() &&
                    plan->trace_samples == (voltage == nullptr ? 0 : voltage->size()),
                "AccelEngine::run: overlay plan does not match trace/network");
    }

    const std::uint64_t skipped_before = fault_rng.skipped_deviates();
    RunResult result;
    result.faults_by_layer.reserve(network_.layers.size());
    result.layer_index.reserve(network_.layers.size());

    QTensor x = image;
    for (std::size_t i = 0; i < network_.layers.size(); ++i) {
        const quant::QLayer& layer = network_.layers[i];
        const LayerSegment& seg = schedule_.segment_for_layer(i);
        const SegmentOverlay& overlay = plan->layers[i];

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
                x = run_conv(x, layer, seg, overlay, voltage, fault_rng, throttle,
                             counts);
                break;
            case quant::QLayerKind::Pool2:
            case quant::QLayerKind::AvgPool2:
                x = run_pool(x, layer, seg, overlay, voltage, fault_rng, throttle,
                             counts);
                break;
            case quant::QLayerKind::Dense:
                x = run_fc(x, layer, seg, overlay, voltage, fault_rng, throttle,
                           counts);
                break;
        }
        result.faults_total += counts;
        result.layer_index.emplace(layer.label, result.faults_by_layer.size());
        result.faults_by_layer.push_back({layer.label, counts});
    }

    result.logits = std::move(x);
    result.predicted = argmax(result.logits);

    // One registry visit per inference (never per op): golden-vs-faulted op
    // accounting derives from the static schedule and the overlay plan, so
    // totals are identical at any thread count.
    if (metrics::enabled()) {
        std::uint64_t ops_total = 0;
        std::uint64_t ops_unsafe = 0;
        for (std::size_t i = 0; i < network_.layers.size(); ++i) {
            const LayerSegment& seg = schedule_.segment_for_layer(i);
            ops_total += seg.total_ops;
            for (const CycleWindow& w : plan->layers[i].unsafe) {
                const std::size_t b = w.begin - seg.start_cycle;
                const std::size_t e = w.end - seg.start_cycle;
                ops_unsafe += std::min(e * seg.ops_per_cycle, seg.total_ops) -
                              std::min(b * seg.ops_per_cycle, seg.total_ops);
            }
        }
        metrics::counter("accel.inferences", "inferences",
                         "accelerator inference runs (faulted + clean)")
            .add();
        metrics::counter("accel.ops_total", "ops",
                         "scheduled MAC/comparator ops executed")
            .add(ops_total);
        metrics::counter("accel.ops_unsafe", "ops",
                         "ops inside unsafe voltage windows (per-op fault path)")
            .add(ops_unsafe);
        metrics::counter("accel.jitter_skipped", "ops",
                         "jitter draws consumed without computing (provably fault-free)")
            .add(fault_rng.skipped_deviates() - skipped_before);
        metrics::counter("accel.faults_duplication", "faults",
                         "DSP duplication faults injected")
            .add(result.faults_total.duplication);
        metrics::counter("accel.faults_random", "faults",
                         "DSP random faults injected")
            .add(result.faults_total.random);
    }
    return result;
}

// With cached accumulators a gap element costs only an int64 copy and a
// writeback, so one window call spanning every hot range beats hundreds of
// per-range calls (each re-entering the window walk). The RNG stream is
// unchanged: the same windows are visited in the same order with the same
// unclipped op bounds.
QTensor AccelEngine::run_conv_golden(const QTensor& input, const QTensor& golden_out,
                                     const quant::QLayer& layer, const LayerSegment& seg,
                                     const SegmentOverlay& overlay,
                                     const VoltageTrace* voltage, Rng& rng,
                                     const std::vector<bool>* throttle,
                                     FaultCounts& counts,
                                     const std::vector<fx::Acc>& golden_accs) const {
    const QTensor& w = layer.weight;
    const std::size_t opp =
        input.shape().dim(0) * w.shape().dim(2) * w.shape().dim(3);
    QTensor out = golden_out; // safe gap elements are already golden
    const auto ranges = hot_element_ranges(overlay, seg, opp, golden_out.size());
    if (!ranges.empty()) {
        run_conv_window(input, layer, seg, overlay, voltage, rng, throttle, counts,
                        golden_accs.data(), ranges.front().first,
                        ranges.back().second, out);
    }
    return out;
}

QTensor AccelEngine::run_fc_golden(const QTensor& input, const QTensor& golden_out,
                                   const quant::QLayer& layer, const LayerSegment& seg,
                                   const SegmentOverlay& overlay,
                                   const VoltageTrace* voltage, Rng& rng,
                                   const std::vector<bool>* throttle,
                                   FaultCounts& counts,
                                   const std::vector<fx::Acc>& golden_accs) const {
    const std::size_t in_n = layer.weight.shape().dim(1);
    QTensor out = golden_out;
    const auto ranges = hot_element_ranges(overlay, seg, in_n, golden_out.size());
    if (!ranges.empty()) {
        run_fc_window(input, layer, seg, overlay, voltage, rng, throttle, counts,
                      golden_accs.data(), ranges.front().first, ranges.back().second,
                      out);
    }
    return out;
}

RunResult AccelEngine::run_elided(const QTensor& image,
                                  const std::vector<QTensor>& golden_layers,
                                  const std::vector<std::vector<fx::Acc>>& golden_accs,
                                  const VoltageTrace* voltage, Rng& fault_rng,
                                  const OverlayPlan& plan,
                                  const std::vector<bool>* throttle) const {
    expects(image.shape() == network_.input_shape, "AccelEngine::run_elided: input shape");
    expects(golden_layers.size() == network_.layers.size(),
            "AccelEngine::run_elided: one golden activation per layer");
    expects(golden_accs.size() == network_.layers.size(),
            "AccelEngine::run_elided: one accumulator array per layer");
    for (std::size_t i = 0; i < network_.layers.size(); ++i) {
        const quant::QLayerKind kind = network_.layers[i].kind;
        const bool mac =
            kind == quant::QLayerKind::Conv || kind == quant::QLayerKind::Dense;
        expects(!mac || golden_accs[i].size() == golden_layers[i].size(),
                "AccelEngine::run_elided: accumulators for every conv/dense output");
    }
    expects(plan.layers.size() == network_.layers.size() &&
                plan.trace_samples == (voltage == nullptr ? 0 : voltage->size()),
            "AccelEngine::run_elided: overlay plan does not match trace/network");

    const std::uint64_t skipped_before = fault_rng.skipped_deviates();
    RunResult result;
    result.faults_by_layer.reserve(network_.layers.size());
    result.layer_index.reserve(network_.layers.size());

    // While `diverged` is false the activation entering layer i is byte-
    // equal to golden_layers[i - 1] (the image for i == 0): safe layers are
    // skipped outright and windowed layers go through the golden-gap
    // variants; a windowed layer that draws zero faults writes back golden
    // bytes (zero integer deltas), so the invariant survives it. The first
    // fault flips `diverged` and the remainder runs the plain gated path.
    bool diverged = false;
    // While `sparse` is true the perturbed activation x differs from the
    // golden one at exactly the flat indices in `changed`; fault-free
    // downstream layers are then patched from their golden outputs (see
    // the patch_* kernels) instead of fully recomputed. The mode is
    // abandoned — permanently — when a post-divergence layer has its own
    // unsafe windows (the window walk needs a dense pass anyway) or the
    // changed set grows past the point where patching wins.
    bool sparse = false;
    std::vector<std::size_t> changed;
    QTensor x; // the perturbed activation, valid once diverged
    std::uint64_t ops_executed = 0;
    for (std::size_t i = 0; i < network_.layers.size(); ++i) {
        const quant::QLayer& layer = network_.layers[i];
        const LayerSegment& seg = schedule_.segment_for_layer(i);
        const SegmentOverlay& overlay = plan.layers[i];

        FaultCounts counts;
        if (!diverged) {
            if (!overlay.any()) {
                ++result.golden_layers_reused;
            } else {
                // The golden tensors are contiguous row-major, so a dense
                // layer can consume a rank-3 golden input directly: the
                // implicit flatten is a shape change, never a data change.
                const QTensor& in = i == 0 ? image : golden_layers[i - 1];
                QTensor out;
                switch (layer.kind) {
                    case quant::QLayerKind::Conv:
                        out = run_conv_golden(in, golden_layers[i], layer, seg,
                                              overlay, voltage, fault_rng, throttle,
                                              counts, golden_accs[i]);
                        break;
                    case quant::QLayerKind::Pool2:
                    case quant::QLayerKind::AvgPool2:
                        out = run_pool(in, layer, seg, overlay, voltage, fault_rng,
                                       throttle, counts);
                        break;
                    case quant::QLayerKind::Dense:
                        out = run_fc_golden(in, golden_layers[i], layer, seg, overlay,
                                            voltage, fault_rng, throttle, counts,
                                            golden_accs[i]);
                        break;
                }
                ops_executed += seg.total_ops;
                if (counts.total() != 0) {
                    diverged = true;
                    sparse = true;
                    x = std::move(out);
                    changed = diff_indices(x, golden_layers[i]);
                }
            }
        } else {
            if (sparse && (overlay.any() || changed.size() * 2 >= x.size())) {
                sparse = false;
            }
            if (sparse) {
                QTensor out;
                switch (layer.kind) {
                    case quant::QLayerKind::Conv:
                        out = patch_conv(x, changed, layer, golden_layers[i]);
                        break;
                    case quant::QLayerKind::Pool2:
                    case quant::QLayerKind::AvgPool2:
                        out = patch_pool(x, changed, layer.kind, golden_layers[i]);
                        break;
                    case quant::QLayerKind::Dense:
                        out = patch_dense(x, golden_layers[i - 1], changed, layer,
                                          golden_accs[i], golden_layers[i]);
                        break;
                }
                changed = diff_indices(out, golden_layers[i]);
                x = std::move(out);
                ops_executed += seg.total_ops;
            } else {
                if (layer.kind == quant::QLayerKind::Dense && x.shape().rank() != 1) {
                    QTensor flat(Shape{x.size()});
                    for (std::size_t j = 0; j < x.size(); ++j) {
                        flat.at_unchecked(j) = x.at_unchecked(j);
                    }
                    x = std::move(flat);
                }
                switch (layer.kind) {
                    case quant::QLayerKind::Conv:
                        x = run_conv(x, layer, seg, overlay, voltage, fault_rng,
                                     throttle, counts);
                        break;
                    case quant::QLayerKind::Pool2:
                    case quant::QLayerKind::AvgPool2:
                        x = run_pool(x, layer, seg, overlay, voltage, fault_rng,
                                     throttle, counts);
                        break;
                    case quant::QLayerKind::Dense:
                        x = run_fc(x, layer, seg, overlay, voltage, fault_rng,
                                   throttle, counts);
                        break;
                }
                ops_executed += seg.total_ops;
            }
        }
        result.faults_total += counts;
        result.layer_index.emplace(layer.label, result.faults_by_layer.size());
        result.faults_by_layer.push_back({layer.label, counts});
    }

    result.logits = diverged ? std::move(x) : golden_layers.back();
    result.predicted = argmax(result.logits);

    if (metrics::enabled()) {
        std::uint64_t ops_unsafe = 0;
        for (std::size_t i = 0; i < network_.layers.size(); ++i) {
            const LayerSegment& seg = schedule_.segment_for_layer(i);
            for (const CycleWindow& w : plan.layers[i].unsafe) {
                const std::size_t b = w.begin - seg.start_cycle;
                const std::size_t e = w.end - seg.start_cycle;
                ops_unsafe += std::min(e * seg.ops_per_cycle, seg.total_ops) -
                              std::min(b * seg.ops_per_cycle, seg.total_ops);
            }
        }
        metrics::counter("accel.inferences", "inferences",
                         "accelerator inference runs (faulted + clean)")
            .add();
        // ops_total charges only the layers actually computed: skipped
        // golden layers cost no op work. The elision decision depends on
        // (plan, RNG stream) alone, so totals stay thread-count-invariant.
        metrics::counter("accel.ops_total", "ops",
                         "scheduled MAC/comparator ops executed")
            .add(ops_executed);
        metrics::counter("accel.ops_unsafe", "ops",
                         "ops inside unsafe voltage windows (per-op fault path)")
            .add(ops_unsafe);
        metrics::counter("accel.jitter_skipped", "ops",
                         "jitter draws consumed without computing (provably fault-free)")
            .add(fault_rng.skipped_deviates() - skipped_before);
        metrics::counter("accel.faults_duplication", "faults",
                         "DSP duplication faults injected")
            .add(result.faults_total.duplication);
        metrics::counter("accel.faults_random", "faults",
                         "DSP random faults injected")
            .add(result.faults_total.random);
    }
    return result;
}

RunResult AccelEngine::run_clean(const QTensor& image) const {
    Rng unused(0);
    return run(image, nullptr, unused);
}

} // namespace deepstrike::accel
