// Per-op fault semantics of the engine's interval-gated fault walk
// (engine.cpp). The per-op reference engine in tests/oracle evaluates the
// same ops through DspSlice::evaluate; the two must consume RNG draws
// identically — the byte-exact equivalence the overlay tests enforce
// hangs on these helpers agreeing with it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "accel/dsp.hpp"
#include "accel/overlay.hpp"
#include "accel/schedule.hpp"

namespace deepstrike::accel::detail {

inline bool throttled(const std::vector<bool>* throttle, std::size_t cycle) {
    return throttle != nullptr && cycle < throttle->size() && (*throttle)[cycle];
}

/// Evaluates one op with the delay factor and the slice's jitter floor
/// (DspSlice::jitter_floor) precomputed by the caller, optionally with
/// triple-modular-redundancy voting: under TMR an op only faults when at
/// least two of three independent evaluations fault, and the surviving
/// fault kind is the majority kind. All three evaluations see the same
/// capture voltage, hence the same factor and floor.
inline FaultKind evaluate_op(const DspSlice& slice, double factor, double u1_floor,
                             Rng& rng, double path_scale, bool tmr) {
    if (!tmr) return slice.evaluate_with_floor(factor, u1_floor, rng, path_scale);
    int dup = 0;
    int rnd = 0;
    for (int r = 0; r < 3; ++r) {
        switch (slice.evaluate_with_floor(factor, u1_floor, rng, path_scale)) {
            case FaultKind::Duplication: ++dup; break;
            case FaultKind::Random: ++rnd; break;
            case FaultKind::None: break;
        }
    }
    if (dup + rnd < 2) return FaultKind::None;
    return dup >= rnd ? FaultKind::Duplication : FaultKind::Random;
}

/// Fault evaluation of the window walk's ops, memoized per DDR half. The
/// delay factor and every slice's jitter floor depend only on the half's
/// sample voltage, so they are recomputed only when that voltage differs
/// from the last one seen on the same half — pow and exp are paid per new
/// voltage, not per op (nor per cycle: a flat stretch of the trace reuses
/// them). Floors are kept per slice, not for the worst slice: slices
/// differ in path delay, and the per-slice floor lets more draws skip.
class HalfSampleWalk {
public:
    HalfSampleWalk(const std::vector<DspSlice>& slices, const pdn::DelayModel& delay,
                   double path_scale, bool tmr)
        : slices_(slices), delay_(delay), path_scale_(path_scale), tmr_(tmr),
          floors_(2 * slices.size()) {}

    /// Sets the capture voltage of DDR half `half` for the ops that follow.
    void set_voltage(std::size_t half, double v) {
        if (v == v_[half]) return;
        v_[half] = v;
        factor_[half] = delay_.factor(v);
        for (std::size_t s = 0; s < slices_.size(); ++s) {
            floors_[2 * s + half] = slices_[s].jitter_floor(factor_[half], path_scale_);
        }
    }

    /// Evaluates the op issued at cycle position `pos` (slice pos / 2,
    /// captured at the voltage set for DDR half pos % 2).
    FaultKind evaluate(std::size_t pos, Rng& rng) const {
        return evaluate_op(slices_[pos >> 1], factor_[pos & 1], floors_[pos], rng,
                           path_scale_, tmr_);
    }

private:
    const std::vector<DspSlice>& slices_;
    const pdn::DelayModel& delay_;
    double path_scale_;
    bool tmr_;
    double v_[2] = {std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::quiet_NaN()};
    double factor_[2] = {0.0, 0.0};
    std::vector<double> floors_; // [2 * slice + half], i.e. by cycle position
};

/// The fault pass of a window kernel: visits the ops of [op_begin, op_end)
/// inside the overlay's unsafe windows in ascending op order — the order
/// the per-op reference draws the RNG in — and evaluates every op whose
/// DDR-half sample lies under `safe_v` in an unthrottled cycle on the
/// issuing slice of `slices`. `on_fault(g, pos, kind)` handles each
/// faulting op (and draws any payload) before the next op is evaluated.
/// Voltages, the safe check and the throttle are resolved once per cycle,
/// not per op.
template <typename OnFault>
void walk_unsafe_ops(const SegmentOverlay& overlay, const LayerSegment& seg,
                     std::size_t op_begin, std::size_t op_end, const VoltageTrace& voltage,
                     const std::vector<DspSlice>& slices, const pdn::DelayModel& delay,
                     double path_scale, bool tmr, double safe_v,
                     const std::vector<bool>* throttle, Rng& rng, OnFault&& on_fault) {
    HalfSampleWalk walk(slices, delay, path_scale, tmr);
    const std::size_t mpc = seg.ops_per_cycle;
    // The windows are sorted and merged, so the first one overlapping
    // [op_begin, op_end) is found by binary search — a linear scan would
    // make the per-hot-range calls quadratic in the window count.
    const CycleWindow* wend = overlay.unsafe.data() + overlay.unsafe.size();
    const CycleWindow* wit = std::lower_bound(
        overlay.unsafe.data(), wend, op_begin,
        [&](const CycleWindow& cw, std::size_t ob) {
            return (cw.end - seg.start_cycle) * mpc <= ob;
        });
    for (; wit != wend; ++wit) {
        std::size_t lo = (wit->begin - seg.start_cycle) * mpc;
        std::size_t hi = (wit->end - seg.start_cycle) * mpc;
        if (lo >= op_end) break;
        lo = std::max(lo, op_begin);
        hi = std::min(hi, op_end);
        for (std::size_t g = lo; g < hi;) {
            const std::size_t rel = g / mpc;
            const std::size_t cycle = seg.start_cycle + rel;
            const std::size_t cycle_end = std::min(hi, (rel + 1) * mpc);
            bool live[2] = {false, false};
            if (!throttled(throttle, cycle)) {
                for (std::size_t half = 0; half < 2; ++half) {
                    const std::size_t sidx = cycle * 2 + half;
                    const double v = sidx < voltage.size() ? voltage[sidx] : delay.vdd;
                    live[half] = v < safe_v;
                    if (live[half]) walk.set_voltage(half, v);
                }
            }
            if (live[0] || live[1]) {
                for (std::size_t pos = g - rel * mpc; g < cycle_end; ++g, ++pos) {
                    if (!live[pos & 1]) continue;
                    const FaultKind kind = walk.evaluate(pos, rng);
                    if (kind != FaultKind::None) on_fault(g, pos, kind);
                }
            }
            g = cycle_end;
        }
    }
}

} // namespace deepstrike::accel::detail
