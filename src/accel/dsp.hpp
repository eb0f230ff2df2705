// DSP48 slice timing/fault model (paper Sec. IV-A, Fig. 6).
//
// The victim accelerator maps its multiply-accumulate work onto DSP48
// slices configured as (A + D) * B (pre-adder mode — the convolution
// configuration; FC layers are the k=1 special case, footnote 1). To hit
// performance targets, designers clock the DSPs at double data rate
// relative to the fabric, leaving only a few percent of timing slack —
// which is exactly why DSP-based layers are the most fault-sensitive
// (Sec. IV discussion).
//
// Fault mechanics under a voltage glitch:
//   path delay d_i * factor(V) vs. the DSP clock period T:
//     <= T                : correct capture
//     in (T, (1+dup)*T]   : the output register re-captures the previous
//                           result — a DUPLICATION fault ("the DSP output
//                           is the correct result of the previous input")
//     >  (1+dup)*T        : mid-transition capture — RANDOM fault
//   d_i carries per-slice process variation (fixed at construction) and
//   per-operation jitter (local IR drop, crosstalk), which together turn
//   the hard threshold into the smooth S-curves of Fig. 6b.
#pragma once

#include <cmath>
#include <cstdint>

#include "fx/fixed.hpp"
#include "pdn/delay.hpp"
#include "util/rng.hpp"

namespace deepstrike::accel {

enum class FaultKind : std::uint8_t { None = 0, Duplication, Random };

const char* fault_kind_name(FaultKind kind);

struct DspTimingParams {
    double clock_period_s = 5e-9;     // 200 MHz DSP clock (DDR vs 100 MHz fabric)
    double nominal_path_fraction = 0.89; // tight DDR timing: 11% slack at sign-off
    double variation_sigma = 0.010;   // per-slice process variation of d_i
    double op_jitter_sigma = 0.015;   // per-op delay jitter (local IR noise)
    double duplication_band = 0.015;  // violations up to 1.5% past T duplicate

    /// Conservatively-clocked logic (pool comparators, control): large
    /// slack, effectively immune at attack-scale droops.
    static DspTimingParams relaxed_logic() {
        DspTimingParams p;
        p.clock_period_s = 10e-9;        // fabric rate
        p.nominal_path_fraction = 0.50;  // 50% slack
        return p;
    }
};

class DspSlice {
public:
    /// Draws this slice's process variation from `construction_rng`.
    DspSlice(std::uint32_t id, const DspTimingParams& params, Rng& construction_rng);

    std::uint32_t id() const { return id_; }

    /// Nominal (voltage factor 1) path delay of this physical slice.
    double path_delay_s() const { return path_delay_s_; }

    /// Evaluates one operation captured while the die is at voltage `v`.
    /// `path_scale` derates the effective path for layer modes that do not
    /// exercise the full cascade (e.g. single-channel conv1); 1.0 = full.
    FaultKind evaluate(double v, const pdn::DelayModel& delay, Rng& op_rng,
                       double path_scale = 1.0) const {
        return evaluate_with_floor(delay.factor(v), Rng::kNoFloor, op_rng, path_scale);
    }

    /// Box–Muller u1 floor below which a jitter draw of an op at (factor,
    /// path_scale) on this slice might fault (Rng::normal_unless_below);
    /// Rng::kNoFloor when the op can fault even without positive jitter.
    ///
    /// Why skipping above it is exact. The op faults iff
    ///   d = path_delay * path_scale * factor * (1 + sigma * z) > T,
    /// and each IEEE multiply and add of that expression is monotone
    /// non-decreasing in its operand, so d is monotone in z. The real-
    /// valued threshold is t = (T / (path_delay * path_scale * factor) - 1)
    /// / sigma; any z <= t - 1e-6 keeps d below T by ~1e-8 relative, seven
    /// orders of magnitude above the few-ulp rounding of the expression.
    /// A deviate skipped by the magnitude test has u1 > exp(-t^2/2) *
    /// (1 + 1e-9), so -2 ln u1 < t^2 - 2e-9 and the computed Box–Muller
    /// magnitude sqrt(-2 ln u1) — the bound on |z|, since |sin|, |cos| <= 1
    /// — stays below t by ~1e-9/t, again far above the ulp-level error of
    /// log, exp and sqrt. A deviate skipped by the sign test is <= 0 < t.
    double jitter_floor(double factor, double path_scale = 1.0) const {
        const double t = (params_.clock_period_s / (path_delay_s_ * path_scale * factor) -
                          1.0) / params_.op_jitter_sigma -
                         1e-6;
        if (!(t > 0.0)) return Rng::kNoFloor;
        return std::exp(-0.5 * t * t) * (1.0 + 1e-9);
    }

    /// The one op evaluation, with the voltage-dependent delay factor
    /// supplied by the caller: factor(v) is shared by every op captured at
    /// the same sample, so hot loops compute it once per sample voltage.
    /// Draws the op's jitter deviate — skipping its computation when
    /// `u1_floor` (jitter_floor() of the same factor and path_scale, or
    /// Rng::kNoFloor) proves it cannot fault — and classifies the resulting
    /// path delay. Every call consumes exactly the RNG draws of a plain
    /// normal() draw, whatever the floor.
    FaultKind evaluate_with_floor(double factor, double u1_floor, Rng& op_rng,
                                  double path_scale = 1.0) const {
        double z = 0.0;
        if (!op_rng.normal_unless_below(u1_floor, z)) return FaultKind::None;
        // Rng::normal(0, sigma)'s expression, kept for bit-identical delays.
        const double jitter = 0.0 + params_.op_jitter_sigma * z;
        const double d = path_delay_s_ * path_scale * factor * (1.0 + jitter);
        const double period = params_.clock_period_s;
        if (d <= period) return FaultKind::None;
        if (d <= period * (1.0 + params_.duplication_band)) return FaultKind::Duplication;
        return FaultKind::Random;
    }

    /// Fast pre-check: the highest voltage at which *any* op on this slice
    /// could fault (including 4-sigma jitter). Above it, evaluate() can be
    /// skipped without consuming RNG draws.
    double safe_voltage(const pdn::DelayModel& delay) const;

    /// Functional model of the configured op: (a + d) * b with Q3.4
    /// operands, full-precision product in accumulator units.
    static fx::Acc compute(fx::Q3_4 a, fx::Q3_4 d, fx::Q3_4 b) {
        const std::int32_t pre = static_cast<std::int32_t>(a.raw()) + d.raw();
        return static_cast<fx::Acc>(pre) * b.raw();
    }

    /// Random-fault payload: garbage within the product register range.
    static fx::Acc random_fault_value(Rng& rng);

    const DspTimingParams& params() const { return params_; }

private:
    std::uint32_t id_;
    DspTimingParams params_;
    double path_delay_s_; // d_i = nominal * (1 + variation)
};

} // namespace deepstrike::accel
