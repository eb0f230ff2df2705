// Cloud-FPGA platform co-simulator.
//
// Binds the substrates into one clocked system, mirroring Fig. 1(a)/Fig. 4
// of the paper: the victim accelerator and the attacker's TDC sensor +
// power striker share a single PDN. The master simulation tick equals the
// PDN integration step (1 ns); a fabric cycle is 10 ticks (100 MHz); the
// TDC samples twice per fabric cycle (200 MHz).
//
// A key structural property this module exploits: the accelerator's power
// draw is data-independent (fixed schedule), the TDC observes only
// voltage, and faults do not feed back into power. Hence one co-simulated
// voltage trace per *attack configuration* serves every image in a test
// sweep; only the functional fault overlay is per-image.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "accel/engine.hpp"
#include "attack/controller.hpp"
#include "pdn/pdn.hpp"
#include "striker/striker.hpp"
#include "tdc/tdc.hpp"

namespace deepstrike::sim {

/// Supplies the striker Start bit each fabric cycle; optionally observes
/// TDC samples (the guided controller does, the blind one does not).
class StrikeSource {
public:
    virtual ~StrikeSource() = default;
    /// Called once at the start of each fabric cycle.
    virtual bool strike_bit(std::size_t cycle) = 0;
    /// Called for every TDC sample taken.
    virtual void on_tdc_sample(const tdc::TdcSample& sample) { (void)sample; }
};

/// No attack: baseline / profiling runs.
class NoAttackSource final : public StrikeSource {
public:
    bool strike_bit(std::size_t) override { return false; }
};

/// TDC-guided attack through the on-chip AttackController.
class GuidedSource final : public StrikeSource {
public:
    explicit GuidedSource(attack::AttackController& controller)
        : controller_(controller) {}
    bool strike_bit(std::size_t) override { return controller_.strike_bit(); }
    void on_tdc_sample(const tdc::TdcSample& sample) override {
        controller_.on_tdc_sample(sample);
    }

private:
    attack::AttackController& controller_;
};

/// Blind attack baseline (random start, no side channel).
class BlindSource final : public StrikeSource {
public:
    explicit BlindSource(attack::BlindController& controller)
        : controller_(controller) {}
    bool strike_bit(std::size_t cycle) override { return controller_.strike_bit(cycle); }

private:
    attack::BlindController& controller_;
};

/// Fixed absolute schedule (used by the DSP characterization rig).
class FixedSource final : public StrikeSource {
public:
    explicit FixedSource(BitVec bits) : bits_(std::move(bits)) {}
    bool strike_bit(std::size_t cycle) override {
        return cycle < bits_.size() && bits_.get(cycle);
    }

private:
    BitVec bits_;
};

struct PlatformConfig {
    pdn::PdnParams pdn = pdn::PdnParams::pynq_z1();
    tdc::TdcConfig tdc = tdc::TdcConfig::paper_config();
    striker::StrikerParams striker = striker::StrikerParams::end_to_end();
    accel::AccelConfig accel = accel::AccelConfig::pynq_z1();

    std::size_t ticks_per_cycle = 10;          // 100 MHz fabric at 1 ns ticks
    std::array<std::size_t, 2> tdc_sample_ticks{2, 7}; // 200 MHz sampling
    /// Ticks (within a fabric cycle) at which the two DDR DSP capture
    /// edges land; each in-flight op is evaluated at the voltage of its
    /// own capture instant, so ops launched early in a strike cycle see a
    /// shallower droop than ops captured at the pulse bottom.
    std::array<std::size_t, 2> dsp_capture_ticks{4, 9};
    std::uint64_t variation_seed = 2021;       // per-board DSP variation
    std::uint64_t tdc_noise_seed = 99;         // TDC jitter stream

    double samples_per_cycle() const {
        return static_cast<double>(tdc_sample_ticks.size());
    }
};

struct CosimResult {
    /// Die voltage at each DSP capture edge: two samples per fabric cycle
    /// (index = cycle * 2 + ddr_half). This is the trace the fault model
    /// consumes.
    accel::VoltageTrace capture_v;
    /// Worst-case (minimum) die voltage per fabric cycle (analysis only).
    accel::VoltageTrace min_v_per_cycle;
    /// All TDC readouts in sampling order (2 per fabric cycle).
    std::vector<std::uint8_t> tdc_readouts;
    /// Number of fabric cycles with the striker active.
    std::size_t strike_cycles = 0;
    /// Striker Start bit per fabric cycle (for waveform export / analysis).
    BitVec strike_bits;
    /// Full per-tick voltage trace (only when requested; large).
    std::vector<double> tick_voltage;
};

class Platform {
public:
    /// Generic victim: any quantized network.
    Platform(const PlatformConfig& config, quant::QNetwork network);

    const PlatformConfig& config() const { return config_; }
    const accel::AccelEngine& engine() const { return engine_; }
    const tdc::TdcSensor& sensor() const { return sensor_; }
    const striker::StrikerBank& striker_bank() const { return striker_; }

    /// Co-simulates the electrical side of one inference with the given
    /// strike source. Deterministic in (config seeds, source behaviour).
    CosimResult simulate_inference(StrikeSource& source,
                                   bool record_tick_voltage = false) const;

    /// Lane-batched equivalent (sim::CosimLanes): co-simulates one
    /// inference per source, packed into SIMD lane groups of
    /// cosim_lane_width() with a scalar fallback for single-lane
    /// remainders (or when lanes are disabled). result[i] is
    /// byte-identical to simulate_inference(*sources[i], ...).
    /// Defined in sim/cosim_lanes.cpp.
    std::vector<CosimResult> simulate_inference_lanes(
        const std::vector<StrikeSource*>& sources,
        bool record_tick_voltage = false) const;

    /// Functional inference on a previously computed voltage trace.
    /// `throttle` optionally marks defensively clock-throttled cycles
    /// (see defense::run_monitor). `plan` optionally supplies the
    /// precomputed fault overlay for `voltage` (one per campaign point;
    /// see AccelEngine::plan_overlay).
    accel::RunResult infer(const QTensor& image, const accel::VoltageTrace* voltage,
                           Rng& fault_rng,
                           const std::vector<bool>* throttle = nullptr,
                           const accel::OverlayPlan* plan = nullptr) const;

    /// Golden-elided inference (AccelEngine::run_elided): byte-identical to
    /// infer() but reuses the image's cached golden per-layer activations
    /// and accumulators (sim::GoldenCache) to skip still-golden safe layers
    /// and recompute only window-touched element ranges. The plan is
    /// required — elision is driven by its unsafe windows.
    accel::RunResult infer_elided(
        const QTensor& image, const std::vector<QTensor>& golden_layers,
        const std::vector<std::vector<fx::Acc>>& golden_accs,
        const accel::VoltageTrace* voltage, Rng& fault_rng,
        const accel::OverlayPlan& plan,
        const std::vector<bool>* throttle = nullptr) const;

    /// Idle current (platform + accelerator static) used for PDN settling.
    double idle_current_a() const;

private:
    // The lane engine reads the same precomputed schedule/action state the
    // scalar tick loop does (sim/cosim_lanes.cpp).
    friend class CosimLanes;

    /// What happens at one tick offset within a fabric cycle; precomputed
    /// at construction so the tick loop replays a flat table instead of
    /// re-matching the configured tick lists every tick.
    struct TickAction {
        std::int8_t tdc_slot = -1;     // index into tdc_sample_ticks, -1 = none
        std::int8_t capture_slot = -1; // index into dsp_capture_ticks, -1 = none
    };

    PlatformConfig config_;
    pdn::DelayModel delay_;
    tdc::TdcSensor sensor_;
    striker::StrikerBank striker_;
    accel::AccelEngine engine_;
    std::vector<double> activity_;         // per-cycle accelerator current
    std::vector<TickAction> tick_actions_; // per-tick event schedule
};

} // namespace deepstrike::sim
