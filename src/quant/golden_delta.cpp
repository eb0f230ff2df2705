#include "quant/golden_delta.hpp"

#include <algorithm>
#include <cstring>

#include "quant/gemm.hpp"
#include "quant/kernels.hpp"
#include "util/error.hpp"

namespace deepstrike::quant {

using fx::Q3_4;

namespace {

// Cost rule, in units of one GEMM multiply-accumulate. A per-element
// update (scatter into conv outputs, one weight column of a dense layer)
// is scalar and strided, so it is priced at several MACs; the shifted-
// plane update of one conv weight delta vectorizes, at a smaller premium;
// a restricted product runs on the GEMM engine but takes two of them (x'
// and x, see below); a dense pass costs the full layer. An activation
// already held whole after a dense pass stays dense through conv and pool
// layers, which spread a wide change further, without reading golden
// data to re-price them. The rule only picks a schedule — every choice
// computes the same integers.
constexpr std::size_t kScalarUpdateCost = 4;
constexpr std::size_t kPlaneUpdateCost = 2;
/// A patched conv output reads its golden accumulator and output from the
/// golden store, which is memory traffic a dense pass does not pay.
constexpr std::size_t kGoldenReadCost = 8;
/// Changed dense inputs closer than this share one contiguous run.
constexpr std::size_t kRunGap = 16;

// Exactness of the int32 delta accumulators (dense and conv alike): every
// term added to dacc[p] is a weight times an input difference (W * dx) or
// a weight difference times an input (dW * x'), each at most 128 * 255 =
// 32640 in magnitude, and output p receives at most one term per input
// element and one per weight element — at most 2K terms for reduction
// depth K. With K <= 32768 every partial sum stays below 2^31.
constexpr std::size_t kMaxDeltaDepth = 32768;

const std::int16_t* raw(const QTensor& t) {
    return reinterpret_cast<const std::int16_t*>(t.data());
}

/// A contiguous run of changed dense-layer inputs: the span [lo, hi) and
/// the change entries [first, first + count) inside it.
struct Run {
    std::size_t lo, hi, first, count;
};

/// Per-thread scratch, reused across images so the hot path does not
/// allocate. `dacc` is all-zero between layers (emit_sparse re-zeroes the
/// entries it reads).
struct Scratch {
    std::vector<QTensor> inputs;  // materialized layer inputs, by layer index
    std::vector<QTensor> outputs; // outputs of dense passes, by layer index
    std::vector<std::int32_t> dacc;
    std::vector<Run> runs;           // a dense layer's changed-input runs
    std::vector<std::int16_t> rows;  // stacked x' / x runs of a dense layer
    std::vector<std::int32_t> c32;   // GEMM output of those runs
    std::vector<std::uint32_t> channels; // changed input channels of a conv
    std::vector<std::uint8_t> windows;   // pool outputs a change reaches
    QTensor weight;            // a conv layer's changed weights (dense pass)
    QTensor rx, rg, rw, rbias; // channel-restricted conv operands
    std::vector<std::vector<fx::Acc>> accs;
    std::vector<fx::Acc> dense_accs;
    ActivationDelta next;
};

Scratch& scratch() {
    thread_local Scratch s;
    return s;
}

void ensure_shape(QTensor& t, const Shape& shape) {
    if (t.shape() != shape) t = QTensor(shape);
}

/// Layer `li`'s scratch tensor. propagate_delta sizes the slot lists up
/// front: a held activation points into them, so they never reallocate
/// mid-pass.
QTensor& slot(std::vector<QTensor>& slots, std::size_t li, const Shape& shape) {
    ensure_shape(slots.at(li), shape);
    return slots[li];
}

/// The activation entering layer `li` when its change is sparse: golden
/// with `delta` applied, in the layer's scratch slot.
const QTensor& materialize(const QTensor& golden, const ActivationDelta& delta,
                           std::size_t li) {
    if (delta.empty()) return golden;
    QTensor& x = slot(scratch().inputs, li, golden.shape());
    std::memcpy(x.data(), golden.data(), golden.size() * sizeof(Q3_4));
    Q3_4* xd = x.data();
    for (std::size_t k = 0; k < delta.size(); ++k) xd[delta.index[k]] = delta.value[k];
    return x;
}

std::size_t count_changes(const Q3_4* x, const Q3_4* golden, std::size_t n) {
    std::size_t changed = 0;
    for (std::size_t i = 0; i < n; ++i) changed += x[i].raw() != golden[i].raw() ? 1 : 0;
    return changed;
}

/// Writes back every output whose accumulator moved (dacc != 0), keeps the
/// ones that differ from golden, and re-zeroes dacc.
void emit_sparse(std::int32_t* dacc, std::size_t n, const fx::Acc* gacc,
                 const QTensor& gout, Activation activation, ActivationDelta& out) {
    out.clear();
    const Writeback writeback(activation);
    const Q3_4* g = gout.data();
    for (std::size_t p = 0; p < n; ++p) {
        if (dacc[p] == 0) continue;
        const Q3_4 v = writeback(gacc[p] + dacc[p]);
        dacc[p] = 0;
        if (v.raw() != g[p].raw()) {
            out.index.push_back(static_cast<std::uint32_t>(p));
            out.value.push_back(v);
        }
    }
}

/// Writes a dense pass's accumulators back into layer `li`'s output slot.
const QTensor* emit_dense(const std::vector<fx::Acc>& accs, const QTensor& gout,
                          Activation activation, std::size_t li, DeltaStats& stats) {
    QTensor& out = slot(scratch().outputs, li, gout.shape());
    gemm::write_back(accs.data(), accs.size(), activation, out);
    ++stats.dense_layers;
    return &out;
}

// Each layer function takes its input as `whole` (the activation held
// whole, after a dense pass) or, when that is null, as golden plus
// `delta`. It returns its output held whole (a scratch slot) after a dense
// pass, or null with the output's change in `delta`.

// ------------------------------------------------------------------ pools

const QTensor* pool_layer(QLayerKind kind, const QTensor& gin, const QTensor& gout,
                          std::size_t li, const QTensor* whole, ActivationDelta& delta,
                          DeltaStats& stats) {
    if (whole != nullptr || delta.size() * 4 >= gin.size()) {
        const QTensor& x = whole != nullptr ? *whole : materialize(gin, delta, li);
        QTensor& out = slot(scratch().outputs, li, gout.shape());
        out = kind == QLayerKind::AvgPool2 ? qavgpool2(x) : qmaxpool2(x);
        ++stats.dense_layers;
        return &out;
    }
    const std::size_t in_h = gin.shape().dim(1);
    const std::size_t in_w = gin.shape().dim(2);
    const std::size_t ow = in_w / 2;
    const std::size_t oplane = (in_h / 2) * ow;
    std::vector<std::uint8_t>& windows = scratch().windows;
    windows.assign(gout.size(), 0);
    for (std::uint32_t idx : delta.index) {
        const std::size_t ch = idx / (in_h * in_w);
        const std::size_t rc = idx % (in_h * in_w);
        windows[ch * oplane + (rc / in_w) / 2 * ow + (rc % in_w) / 2] = 1;
    }

    const QTensor& x = materialize(gin, delta, li);
    ActivationDelta& out = scratch().next;
    out.clear();
    const Q3_4* xd = x.data();
    for (std::size_t o = 0; o < windows.size(); ++o) {
        if (windows[o] == 0) continue;
        const std::size_t ch = o / oplane;
        const std::size_t r = (o % oplane) / ow;
        const std::size_t c = o % ow;
        const Q3_4* row0 = xd + (ch * in_h + 2 * r) * in_w + 2 * c;
        const Q3_4* row1 = row0 + in_w;
        Q3_4 v;
        // Same arithmetic as qmaxpool2 / qavgpool2.
        if (kind == QLayerKind::AvgPool2) {
            const std::int32_t sum = row0[0].raw() + row0[1].raw() + row1[0].raw() +
                                     row1[1].raw();
            const std::int32_t avg = sum >= 0 ? (sum + 2) / 4 : -((-sum + 2) / 4);
            v = Q3_4::from_raw(static_cast<std::int16_t>(avg));
        } else {
            v = std::max(std::max(row0[0], row0[1]), std::max(row1[0], row1[1]));
        }
        if (v.raw() != gout.data()[o].raw()) {
            out.index.push_back(static_cast<std::uint32_t>(o));
            out.value.push_back(v);
        }
    }
    std::swap(delta, out);
    return nullptr;
}

// ------------------------------------------------------------------ dense

const QTensor* dense_layer(const QLayer& layer, const QTensor& gin, const QTensor& gout,
                           const std::vector<fx::Acc>& gacc,
                           const std::vector<WeightDelta>& wd, std::size_t li,
                           const QTensor* whole, ActivationDelta& delta,
                           DeltaStats& stats) {
    const std::size_t out_n = layer.weight.shape().dim(0);
    const std::size_t in_n = layer.weight.shape().dim(1);
    expects(in_n <= kMaxDeltaDepth, "propagate_delta: dense fan-in fits int32 deltas");
    const std::int16_t* w = raw(layer.weight);
    const std::int16_t* xg = raw(gin);

    // A changed input costs at least two MACs per output on any sparse
    // schedule, so a change set covering half the inputs goes dense
    // without being listed.
    bool dense = false;
    if (whole != nullptr) {
        dense = 2 * count_changes(whole->data(), gin.data(), in_n) >= in_n;
        if (!dense) diff_from_golden(*whole, gin, delta);
    }

    // Contiguous runs of changed inputs; each is priced as per-column
    // updates or as one restricted product, whichever is cheaper.
    Scratch& s = scratch();
    std::vector<Run>& runs = s.runs;
    runs.clear();
    if (!dense) {
        std::size_t sparse_cost = 0;
        for (std::size_t k = 0; k < delta.size();) {
            Run run{delta.index[k], delta.index[k] + 1u, k, 1};
            for (++k; k < delta.size() && delta.index[k] - run.hi < kRunGap; ++k) {
                run.hi = delta.index[k] + 1u;
                ++run.count;
            }
            sparse_cost += std::min(run.count * kScalarUpdateCost, 2 * (run.hi - run.lo));
            runs.push_back(run);
        }
        dense = sparse_cost >= in_n;
    }

    const QTensor& x = whole != nullptr ? *whole : materialize(gin, delta, li);
    const std::int16_t* xp = raw(x);
    if (dense) {
        std::vector<fx::Acc>& accs = s.dense_accs;
        gemm::dense_accs(x, layer.weight, layer.bias, accs);
        for (const WeightDelta& d : wd) {
            accs[d.element / in_n] += static_cast<fx::Acc>(d.delta) * xp[d.element % in_n];
        }
        return emit_dense(accs, gout, layer.activation, li, stats);
    }

    if (s.dacc.size() < out_n) s.dacc.resize(out_n, 0);
    std::int32_t* dacc = s.dacc.data();
    for (const WeightDelta& d : wd) {
        dacc[d.element / in_n] += static_cast<std::int32_t>(d.delta) * xp[d.element % in_n];
    }
    for (const Run& run : runs) {
        const std::size_t len = run.hi - run.lo;
        if (run.count * kScalarUpdateCost <= 2 * len) {
            for (std::size_t k = run.first; k < run.first + run.count; ++k) {
                const std::size_t i = delta.index[k];
                const std::int32_t dx = xp[i] - xg[i];
                const std::int16_t* col = w + i;
                for (std::size_t o = 0; o < out_n; ++o) dacc[o] += col[o * in_n] * dx;
            }
            continue;
        }
        // W * dx over the run as W * x' - W * x: two rows of one GEMM, so
        // every product stays within the engine's |a*b| <= 2^14 bound.
        s.rows.resize(2 * len);
        std::memcpy(s.rows.data(), xp + run.lo, len * sizeof(std::int16_t));
        std::memcpy(s.rows.data() + len, xg + run.lo, len * sizeof(std::int16_t));
        s.c32.resize(2 * out_n);
        gemm::gemm_nt_s32(s.rows.data(), len, w + run.lo, in_n, s.c32.data(), out_n, 2,
                          out_n, len);
        for (std::size_t o = 0; o < out_n; ++o) dacc[o] += s.c32[o] - s.c32[out_n + o];
    }
    emit_sparse(dacc, out_n, gacc.data(), gout, layer.activation, s.next);
    std::swap(delta, s.next);
    return nullptr;
}

// ------------------------------------------------------------------- conv

struct ConvShape {
    std::size_t in_c, in_h, in_w, out_c, k, kk, out_h, out_w, plane, K;
};

ConvShape conv_shape(const QLayer& layer, const QTensor& gin) {
    ConvShape g;
    g.in_c = gin.shape().dim(0);
    g.in_h = gin.shape().dim(1);
    g.in_w = gin.shape().dim(2);
    g.out_c = layer.weight.shape().dim(0);
    g.k = layer.weight.shape().dim(2);
    g.kk = g.k * g.k;
    g.out_h = g.in_h - g.k + 1;
    g.out_w = g.in_w - g.k + 1;
    g.plane = g.out_h * g.out_w;
    g.K = g.in_c * g.kk;
    return g;
}

/// One dense pass of a conv layer over the changed weights W + dW.
const QTensor* conv_dense_pass(const QLayer& layer, const QTensor& x, const QTensor& gout,
                               const std::vector<WeightDelta>& wd, std::size_t li,
                               DeltaStats& stats) {
    Scratch& s = scratch();
    const QTensor* weight = &layer.weight;
    if (!wd.empty()) {
        s.weight = layer.weight;
        for (const WeightDelta& d : wd) {
            s.weight[d.element] =
                Q3_4::from_raw(static_cast<std::int16_t>(s.weight[d.element].raw() + d.delta));
        }
        weight = &s.weight;
    }
    gemm::conv2d_accs(x, *weight, layer.bias, s.dense_accs);
    return emit_dense(s.dense_accs, gout, layer.activation, li, stats);
}

const QTensor* conv_layer(const QLayer& layer, const QTensor& gin, const QTensor& gout,
                          const std::vector<fx::Acc>& gacc,
                          const std::vector<WeightDelta>& wd, std::size_t li,
                          const QTensor* whole, ActivationDelta& delta,
                          DeltaStats& stats) {
    if (whole != nullptr) return conv_dense_pass(layer, *whole, gout, wd, li, stats);
    const ConvShape g = conv_shape(layer, gin);
    expects(g.K <= kMaxDeltaDepth,
            "propagate_delta: conv receptive field fits int32 deltas");
    const std::size_t in_plane = g.in_h * g.in_w;
    Scratch& s = scratch();

    // The changed input channels, and the outputs a sparse schedule would
    // patch (each reads its golden accumulator and output).
    std::vector<std::uint32_t>& channels = s.channels;
    channels.clear();
    for (std::uint32_t idx : delta.index) {
        const auto ch = static_cast<std::uint32_t>(idx / in_plane);
        if (channels.empty() || channels.back() != ch) channels.push_back(ch);
    }
    const std::size_t n_out = g.out_c * g.plane;
    std::size_t weight_channels = 0;
    for (std::size_t k = 0; k < wd.size(); ++k) {
        if (k == 0 || wd[k].element / g.K != wd[k - 1].element / g.K) ++weight_channels;
    }
    const std::size_t scatter_cost = delta.size() * g.out_c * g.kk * kScalarUpdateCost;
    const std::size_t restricted_cost = 2 * g.out_c * g.plane * channels.size() * g.kk;
    const bool scatter = scatter_cost <= restricted_cost;
    std::size_t patched = weight_channels * g.plane;
    if (!delta.empty()) patched += scatter ? delta.size() * g.out_c * g.kk : n_out;
    const std::size_t sparse_cost =
        wd.size() * g.plane * kPlaneUpdateCost +
        (delta.empty() ? 0 : std::min(scatter_cost, restricted_cost)) +
        std::min(patched, n_out) * kGoldenReadCost;

    const QTensor& x = materialize(gin, delta, li);
    if (sparse_cost >= g.out_c * g.plane * g.K) {
        return conv_dense_pass(layer, x, gout, wd, li, stats);
    }
    const std::int16_t* xp = raw(x);
    if (s.dacc.size() < n_out) s.dacc.resize(n_out, 0);
    std::int32_t* dacc = s.dacc.data();

    // dW * x': one shifted-plane multiply-add per changed weight,
    // acc[oc, r, c] += dW * x'[ic, r + kr, c + kc].
    for (const WeightDelta& d : wd) {
        const std::size_t oc = d.element / g.K;
        const std::size_t rem = d.element % g.K;
        const std::size_t ic = rem / g.kk;
        const std::size_t kr = (rem % g.kk) / g.k;
        const std::size_t kc = rem % g.k;
        const std::int32_t dw = d.delta;
        std::int32_t* dst = dacc + oc * g.plane;
        const std::int16_t* src = xp + (ic * g.in_h + kr) * g.in_w + kc;
        for (std::size_t r = 0; r < g.out_h; ++r) {
            std::int32_t* drow = dst + r * g.out_w;
            const std::int16_t* srow = src + r * g.in_w;
            for (std::size_t c = 0; c < g.out_w; ++c) drow[c] += dw * srow[c];
        }
    }

    const std::int16_t* w = raw(layer.weight);
    const std::int16_t* xg = raw(gin);
    if (delta.empty()) {
        // Weight deltas only.
    } else if (scatter) {
        // Each changed input reaches the outputs whose receptive field
        // covers it: out[oc, y - kr, x - kc] += W[oc, ic, kr, kc] * dx.
        for (std::size_t e = 0; e < delta.size(); ++e) {
            const std::size_t idx = delta.index[e];
            const std::size_t ic = idx / in_plane;
            const std::size_t y = (idx % in_plane) / g.in_w;
            const std::size_t xc = idx % g.in_w;
            const std::int32_t dx = xp[idx] - xg[idx];
            const std::size_t kr_lo = y >= g.out_h ? y - g.out_h + 1 : 0;
            const std::size_t kr_hi = std::min(y, g.k - 1);
            const std::size_t kc_lo = xc >= g.out_w ? xc - g.out_w + 1 : 0;
            const std::size_t kc_hi = std::min(xc, g.k - 1);
            for (std::size_t oc = 0; oc < g.out_c; ++oc) {
                const std::int16_t* wk = w + (oc * g.in_c + ic) * g.kk;
                std::int32_t* d = dacc + oc * g.plane;
                for (std::size_t kr = kr_lo; kr <= kr_hi; ++kr) {
                    std::int32_t* drow = d + (y - kr) * g.out_w;
                    for (std::size_t kc = kc_lo; kc <= kc_hi; ++kc) {
                        drow[xc - kc] += wk[kr * g.k + kc] * dx;
                    }
                }
            }
        }
    } else {
        // W * dx restricted to the changed input channels, as W_C * x'_C -
        // W_C * x_C: one two-image GEMM over K = |C| * k * k (two products
        // keep every term within the engine's |a*b| <= 2^14 bound).
        const std::size_t nc = channels.size();
        ensure_shape(s.rx, Shape{nc, g.in_h, g.in_w});
        ensure_shape(s.rg, Shape{nc, g.in_h, g.in_w});
        ensure_shape(s.rw, Shape{g.out_c, nc, g.k, g.k});
        ensure_shape(s.rbias, Shape{g.out_c}); // zero: the bias is in gacc already
        for (std::size_t j = 0; j < nc; ++j) {
            const std::size_t ic = channels[j];
            std::memcpy(s.rx.data() + j * in_plane, x.data() + ic * in_plane,
                        in_plane * sizeof(Q3_4));
            std::memcpy(s.rg.data() + j * in_plane, gin.data() + ic * in_plane,
                        in_plane * sizeof(Q3_4));
            for (std::size_t oc = 0; oc < g.out_c; ++oc) {
                std::memcpy(s.rw.data() + (oc * nc + j) * g.kk,
                            layer.weight.data() + (oc * g.in_c + ic) * g.kk,
                            g.kk * sizeof(Q3_4));
            }
        }
        gemm::conv2d_accs_batch({&s.rx, &s.rg}, s.rw, s.rbias, s.accs);
        const fx::Acc* ax = s.accs[0].data();
        const fx::Acc* ag = s.accs[1].data();
        for (std::size_t p = 0; p < n_out; ++p) {
            dacc[p] += static_cast<std::int32_t>(ax[p] - ag[p]);
        }
    }
    emit_sparse(dacc, n_out, gacc.data(), gout, layer.activation, s.next);
    std::swap(delta, s.next);
    return nullptr;
}

} // namespace

std::size_t first_changed_layer(const WeightDeltas& deltas) {
    for (std::size_t i = 0; i < deltas.size(); ++i) {
        if (!deltas[i].empty()) return i;
    }
    return deltas.size();
}

QTensor apply_delta(const QTensor& golden, const ActivationDelta& delta) {
    QTensor out = golden;
    Q3_4* d = out.data();
    for (std::size_t k = 0; k < delta.size(); ++k) d[delta.index[k]] = delta.value[k];
    return out;
}

void diff_from_golden(const QTensor& x, const QTensor& golden, ActivationDelta& delta) {
    expects(x.size() == golden.size(), "diff_from_golden: matching element counts");
    delta.clear();
    const Q3_4* a = x.data();
    const Q3_4* b = golden.data();
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (a[i].raw() != b[i].raw()) {
            delta.index.push_back(static_cast<std::uint32_t>(i));
            delta.value.push_back(a[i]);
        }
    }
}

void propagate_delta(const QNetwork& network, const GoldenPass& golden,
                     const WeightDeltas* weights, std::size_t begin, std::size_t end,
                     ActivationDelta& delta, DeltaStats& stats) {
    const std::size_t n_layers = network.layers.size();
    expects(begin <= end && end <= n_layers, "propagate_delta: layer range");
    expects(golden.activations.size() == n_layers &&
                golden.accumulators.size() == n_layers,
            "propagate_delta: one golden activation and accumulator list per layer");
    expects(weights == nullptr || weights->size() == n_layers,
            "propagate_delta: one weight-delta list per layer");

    // Past the last changed weight, an empty change set stays empty.
    std::size_t weights_end = begin;
    if (weights != nullptr) {
        for (std::size_t li = begin; li < end; ++li) {
            if (!(*weights)[li].empty()) weights_end = li + 1;
        }
    }
    Scratch& s = scratch();
    if (s.inputs.size() < n_layers) s.inputs.resize(n_layers);
    if (s.outputs.size() < n_layers) s.outputs.resize(n_layers);
    static const std::vector<WeightDelta> kNoDeltas;
    const QTensor* whole = nullptr; // set while the activation is held whole
    for (std::size_t li = begin; li < end; ++li) {
        if (whole == nullptr && delta.empty() && li >= weights_end) return;
        const QLayer& layer = network.layers[li];
        const std::vector<WeightDelta>& wd = weights != nullptr ? (*weights)[li] : kNoDeltas;
        if (whole == nullptr && delta.empty() && wd.empty()) continue;
        const QTensor& gin = li == 0 ? golden.input : golden.activations[li - 1];
        const QTensor& gout = golden.activations[li];
        switch (layer.kind) {
            case QLayerKind::Conv:
                whole = conv_layer(layer, gin, gout, golden.accumulators[li], wd, li, whole,
                                   delta, stats);
                break;
            case QLayerKind::Dense:
                whole = dense_layer(layer, gin, gout, golden.accumulators[li], wd, li,
                                    whole, delta, stats);
                break;
            case QLayerKind::Pool2:
            case QLayerKind::AvgPool2:
                whole = pool_layer(layer.kind, gin, gout, li, whole, delta, stats);
                break;
        }
    }
    if (whole != nullptr) diff_from_golden(*whole, golden.activations[end - 1], delta);
}

} // namespace deepstrike::quant
