// Cycle-level functional model of the DNN accelerator with fault
// injection, generic over quant::QNetwork.
//
// Execution follows the static Schedule: every MAC is assigned to a
// (cycle, DSP, DDR half-cycle) slot in a deterministic op stream. When the
// supplied voltage trace dips low enough that a DSP slice *could* miss
// timing, each in-flight op is evaluated against the slice's fault model:
//   duplication fault -> the op contributes the previous product captured
//                        on the same physical DSP (its own product is lost)
//   random fault      -> the op contributes garbage from the product register
// Cycles at safe voltage take a fast path that is bit-exact with the
// QNetwork golden model (a property the tests enforce).
//
// Execution is interval-gated (see accel/overlay.hpp): op ranges mapped to
// safe cycles run on the golden quantized kernels, and only ops inside
// unsafe [cycle_begin, cycle_end) windows take the per-op fault path, with
// stale DSP output registers recovered on demand by direct op-stream index
// arithmetic so duplication faults stay bit-exact. The fault RNG is only
// drawn when an op's capture voltage is below the safe threshold, so the
// gated path consumes the exact same RNG stream as the whole-segment
// per-op reference engine in tests/oracle — byte-identical results, which
// tests/overlay_test.cpp enforces across randomized traces.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/config.hpp"
#include "accel/dsp.hpp"
#include "accel/overlay.hpp"
#include "accel/schedule.hpp"
#include "quant/qnetwork.hpp"

namespace deepstrike::accel {

struct FaultCounts {
    std::size_t duplication = 0;
    std::size_t random = 0;

    std::size_t total() const { return duplication + random; }
    FaultCounts& operator+=(const FaultCounts& other) {
        duplication += other.duplication;
        random += other.random;
        return *this;
    }
};

struct RunResult {
    QTensor logits;
    std::size_t predicted = 0;
    FaultCounts faults_total;

    struct LayerFaults {
        std::string label;
        FaultCounts counts;
    };
    /// One entry per network layer, in execution order.
    std::vector<LayerFaults> faults_by_layer;

    /// Layers whose compute was answered entirely by a cached golden
    /// activation (only ever non-zero for run_elided; diagnostics, never
    /// serialized into reports).
    std::size_t golden_layers_reused = 0;

    /// Label -> index into faults_by_layer, built once by the engine so
    /// per-label queries don't re-scan the layer list.
    std::unordered_map<std::string, std::size_t> layer_index;

    /// Faults attributed to the layer with the given label (zero counts if
    /// the label is unknown). Uses the prebuilt index; hand-assembled
    /// results without one fall back to a linear scan.
    FaultCounts faults_for(const std::string& label) const;
};

class AccelEngine {
public:
    /// `variation_seed` fixes the per-slice process variation (one physical
    /// chip); all engines built from the same seed model the same board.
    AccelEngine(quant::QNetwork network, const AccelConfig& config,
                std::uint64_t variation_seed);

    const Schedule& schedule() const { return schedule_; }
    const AccelConfig& config() const { return config_; }
    const quant::QNetwork& network() const { return network_; }
    const pdn::DelayModel& delay_model() const { return delay_; }

    /// Highest voltage at which any conv/FC DSP op could fault; the
    /// dominant fast-path gate.
    double dsp_safe_voltage() const { return std::max(conv_safe_v_, fc_safe_v_); }
    double conv_safe_voltage() const { return conv_safe_v_; }
    double fc_safe_voltage() const { return fc_safe_v_; }
    double pool_safe_voltage() const { return pool_safe_v_; }

    /// Precomputes the per-layer unsafe-interval overlay for `voltage`
    /// (nullptr = nominal: every layer safe). The plan depends only on the
    /// (trace, schedule, safe voltages) triple — one plan serves every
    /// image evaluated on the trace; pass it to run() to avoid re-scanning
    /// the trace per image.
    OverlayPlan plan_overlay(const VoltageTrace* voltage) const;

    /// Runs one inference. `voltage` may be nullptr (nominal, fault-free)
    /// or shorter than the schedule (remaining cycles assume nominal).
    /// `fault_rng` drives fault-model draws; it is only consumed during
    /// under-voltage cycles, so fault-free runs are rng-independent.
    /// `throttle` optionally marks fabric cycles where a defensive clock
    /// throttle is active: DSP ops in those cycles run at half rate and
    /// cannot miss timing at attack-scale droops (see src/defense).
    /// `plan` optionally supplies the precomputed overlay for `voltage`
    /// (must match its sample count); when omitted it is computed locally.
    RunResult run(const QTensor& image, const VoltageTrace* voltage, Rng& fault_rng,
                  const std::vector<bool>* throttle = nullptr,
                  const OverlayPlan* plan = nullptr) const;

    /// Golden-elided inference: byte-identical to run() — same logits,
    /// fault counts, and fault-RNG stream — but answers as much of the
    /// forward pass as possible from one cached golden pass of the same
    /// image (quant::QNetwork::forward_trace): `golden_layers` holds one
    /// post-activation tensor per layer, `golden_accs` the per-layer
    /// pre-writeback accumulators (empty for pools).
    ///   - a layer with no unsafe window is skipped outright while the
    ///     activation entering it is still golden (the RNG is only drawn
    ///     inside windows, so the stream is untouched);
    ///   - a windowed conv/FC layer whose input is still golden starts from
    ///     a copy of its golden output and of its cached accumulators, and
    ///     the fault pass only patches integer deltas into the element
    ///     ranges its windows touch;
    ///   - after divergence, fault-free downstream layers are patched
    ///     sparsely from the golden output: only the elements reachable
    ///     from the changed set are recomputed (dense layers via integer
    ///     delta sums against the cached accumulators);
    ///   - a post-divergence layer with its own windows, or a changed set
    ///     too wide to patch, runs the plain gated path.
    /// All of it is exact — integer accumulation reassociates losslessly —
    /// so results stay byte-identical to run().
    /// RunResult::golden_layers_reused counts the skipped layers.
    RunResult run_elided(const QTensor& image,
                         const std::vector<QTensor>& golden_layers,
                         const std::vector<std::vector<fx::Acc>>& golden_accs,
                         const VoltageTrace* voltage, Rng& fault_rng,
                         const OverlayPlan& plan,
                         const std::vector<bool>* throttle = nullptr) const;

    /// Convenience: fault-free inference.
    RunResult run_clean(const QTensor& image) const;

    const std::vector<DspSlice>& conv_dsps() const { return conv_dsps_; }
    const std::vector<DspSlice>& fc_dsps() const { return fc_dsps_; }
    /// Relaxed-timing comparator/adder path shared by the pool layers.
    const DspSlice& pool_logic() const { return pool_logic_; }

private:
    // --- interval-gated fast path (engine.cpp) ---
    QTensor run_conv(const QTensor& input, const quant::QLayer& layer,
                     const LayerSegment& seg, const SegmentOverlay& overlay,
                     const VoltageTrace* voltage, Rng& rng,
                     const std::vector<bool>* throttle, FaultCounts& counts) const;
    QTensor run_fc(const QTensor& input, const quant::QLayer& layer,
                   const LayerSegment& seg, const SegmentOverlay& overlay,
                   const VoltageTrace* voltage, Rng& rng,
                   const std::vector<bool>* throttle, FaultCounts& counts) const;
    QTensor run_pool(const QTensor& input, const quant::QLayer& layer,
                     const LayerSegment& seg, const SegmentOverlay& overlay,
                     const VoltageTrace* voltage, Rng& rng,
                     const std::vector<bool>* throttle, FaultCounts& counts) const;

    /// Per-op execution of output elements [elem_begin, elem_end) of a conv
    /// layer. The elements start from `seed_accs` — the layer's fault-free
    /// accumulators for this input (absolute element indexing) — and only
    /// ops inside the overlay's unsafe windows take the fault path, which
    /// patches integer deltas into them (no RNG elsewhere, matching the
    /// reference, which only draws below the safe voltage). Duplication
    /// faults recover the stale DSP register by op-stream index arithmetic
    /// instead of carrying a pipeline array.
    void run_conv_window(const QTensor& input, const quant::QLayer& layer,
                         const LayerSegment& seg, const SegmentOverlay& overlay,
                         const VoltageTrace* voltage, Rng& rng,
                         const std::vector<bool>* throttle, FaultCounts& counts,
                         const fx::Acc* seed_accs, std::size_t elem_begin,
                         std::size_t elem_end, QTensor& out) const;
    void run_fc_window(const QTensor& input, const quant::QLayer& layer,
                       const LayerSegment& seg, const SegmentOverlay& overlay,
                       const VoltageTrace* voltage, Rng& rng,
                       const std::vector<bool>* throttle, FaultCounts& counts,
                       const fx::Acc* seed_accs, std::size_t elem_begin,
                       std::size_t elem_end, QTensor& out) const;

    /// Golden-gap variants for run_elided: `out` starts as a copy of the
    /// layer's cached golden output, and only the hot element ranges go
    /// through run_*_window, seeded from `golden_accs`. Valid only while
    /// the layer's input is golden.
    QTensor run_conv_golden(const QTensor& input, const QTensor& golden_out,
                            const quant::QLayer& layer, const LayerSegment& seg,
                            const SegmentOverlay& overlay, const VoltageTrace* voltage,
                            Rng& rng, const std::vector<bool>* throttle,
                            FaultCounts& counts,
                            const std::vector<fx::Acc>& golden_accs) const;
    QTensor run_fc_golden(const QTensor& input, const QTensor& golden_out,
                          const quant::QLayer& layer, const LayerSegment& seg,
                          const SegmentOverlay& overlay, const VoltageTrace* voltage,
                          Rng& rng, const std::vector<bool>* throttle,
                          FaultCounts& counts,
                          const std::vector<fx::Acc>& golden_accs) const;

    quant::QNetwork network_;
    AccelConfig config_;
    Schedule schedule_;
    pdn::DelayModel delay_;
    std::vector<DspSlice> conv_dsps_;
    std::vector<DspSlice> fc_dsps_;
    DspSlice pool_logic_; // relaxed-timing comparator path (shared model)
    double conv_safe_v_;
    double fc_safe_v_;
    double pool_safe_v_;
};

} // namespace deepstrike::accel
