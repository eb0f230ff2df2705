#include "sim/experiment.hpp"

#include <algorithm>
#include <array>

#include "quant/gemm.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace deepstrike::sim {

namespace {

/// No-strike source that also feeds a detector (profiling observer).
class ObservingSource final : public StrikeSource {
public:
    explicit ObservingSource(attack::DnnStartDetector& detector) : detector_(detector) {}
    bool strike_bit(std::size_t) override { return false; }
    void on_tdc_sample(const tdc::TdcSample& sample) override {
        detector_.on_sample(sample);
    }

private:
    attack::DnnStartDetector& detector_;
};

} // namespace

ProfilingRun run_profiling(const Platform& platform,
                           const attack::DetectorConfig& detector_config,
                           const attack::ProfilerConfig& profiler_config) {
    trace::Span span("profiling", "experiment");
    ProfilingRun run;
    attack::DnnStartDetector detector(detector_config);
    ObservingSource source(detector);
    run.cosim = platform.simulate_inference(source);
    run.detector_fired = detector.triggered();
    run.trigger_sample = detector.trigger_sample();
    run.profile = attack::profile_trace(run.cosim.tdc_readouts, profiler_config);
    return run;
}

accel::VoltageTrace guided_attack_trace(const Platform& platform,
                                        const attack::DetectorConfig& detector_config,
                                        const attack::AttackScheme& scheme) {
    attack::AttackController controller(detector_config, scheme);
    GuidedSource source(controller);
    return platform.simulate_inference(source).capture_v;
}

std::vector<accel::VoltageTrace> blind_attack_traces(const Platform& platform,
                                                     const attack::AttackScheme& scheme,
                                                     std::size_t n_offsets,
                                                     std::uint64_t offset_seed) {
    expects(n_offsets > 0, "blind_attack_traces: at least one offset");
    const std::size_t total_cycles = platform.engine().schedule().total_cycles;
    // The blind attacker knows nothing about layer boundaries; it starts
    // its replay anywhere in the execution window such that the replay
    // fits (the paper: "fault injections happen randomly along with the
    // model execution").
    const std::size_t replay_len = scheme.total_cycles();
    const std::size_t max_start =
        replay_len < total_cycles ? total_cycles - replay_len : 0;

    // Draw every start offset up front (same RNG draw order as the old
    // simulate-as-you-go loop), then co-simulate the replays as one lane
    // group (sim::CosimLanes): the offsets of a blind point are exactly
    // the independent same-platform co-sims the lane engine batches.
    // Platform::simulate_inference_lanes falls back to the scalar loop
    // per offset when lanes are disabled; traces are byte-identical
    // either way.
    Rng rng(offset_seed);
    std::vector<std::size_t> starts;
    starts.reserve(n_offsets);
    for (std::size_t i = 0; i < n_offsets; ++i) {
        starts.push_back(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(max_start))));
    }
    std::vector<attack::BlindController> controllers;
    controllers.reserve(n_offsets);
    std::vector<BlindSource> sources;
    sources.reserve(n_offsets);
    std::vector<StrikeSource*> lanes;
    lanes.reserve(n_offsets);
    for (std::size_t i = 0; i < n_offsets; ++i) {
        controllers.emplace_back(scheme, starts[i]);
        sources.emplace_back(controllers.back());
        lanes.push_back(&sources.back());
    }
    std::vector<CosimResult> cosims = platform.simulate_inference_lanes(lanes);
    std::vector<accel::VoltageTrace> traces;
    traces.reserve(n_offsets);
    for (CosimResult& cosim : cosims) traces.push_back(std::move(cosim.capture_v));
    return traces;
}

namespace {

/// The one parallel per-image evaluation loop behind every accuracy
/// entry point (plain, blind multi-trace, defended). Image i uses trace
/// i % traces.size() (none when empty = clean), a per-image RNG derived
/// from the image index alone, and — when `golden` covers it — the
/// golden-cache elision tiers:
///   tier 1 (fault-free short-circuit): a plan with no unsafe window
///     cannot fault, so the result is the cached golden label with zero
///     faults and no inference at all;
///   tier 2 (golden-elided inference): AccelEngine::run_elided skips
///     still-golden safe layers and recomputes only window-touched
///     element ranges.
/// Neither tier touches the fault RNG stream (it is only drawn inside
/// unsafe windows), so results are byte-identical with the cache on or
/// off, at any thread count.
AccuracyResult evaluate_images(const Platform& platform, const data::Dataset& dataset,
                               std::size_t n_images,
                               const std::vector<accel::VoltageTrace>& traces,
                               const std::vector<accel::OverlayPlan>* plans,
                               const std::vector<bool>* throttle,
                               std::uint64_t fault_seed, const GoldenStore* golden) {
    trace::Span span("evaluate", "experiment");
    if (metrics::enabled()) {
        metrics::counter("eval.images", "images",
                         "images classified during accuracy evaluation")
            .add(n_images);
    }

    // The short-circuit decision depends on the plan alone; take it once
    // per trace, not once per image.
    const std::size_t n_traces = traces.size();
    std::vector<std::uint8_t> plan_unsafe(n_traces, 0);
    for (std::size_t t = 0; t < n_traces; ++t) {
        plan_unsafe[t] = (*plans)[t].any_unsafe() ? 1 : 0;
    }

    AccuracyResult result;
    result.images = n_images;
    // Per-image work is independent (the engine is immutable and the RNG is
    // per-image), so evaluate across threads and reduce. Seeds derive from
    // the image index alone — results are bit-identical at any thread count.
    std::vector<std::uint8_t> correct(n_images, 0);
    std::vector<std::uint8_t> shortcircuit(n_images, 0);
    std::vector<std::size_t> prefix_skipped(n_images, 0);
    std::vector<accel::FaultCounts> faults(n_images);

    // Batched fault-free fast path for images with no golden entry: a plan
    // with no unsafe window (or no trace at all — clean evaluation) cannot
    // fault, so engine.run on such an image is exactly the golden forward
    // pass with zero faults and no RNG draws. Answer those images in fixed
    // image blocks through QNetwork::forward_batch — one GEMM per layer
    // per block — instead of per-image inferences. The block partition
    // depends only on the image set, so results and metric totals stay
    // identical at any thread count, and byte-identical to per-image
    // inference (tests/gemm_test.cpp enforces it).
    std::vector<std::uint8_t> batched(n_images, 0);
    std::vector<std::size_t> faultfree;
    for (std::size_t i = 0; i < n_images; ++i) {
        const bool cached = golden != nullptr && i < golden->size();
        if (!cached && (n_traces == 0 || plan_unsafe[i % n_traces] == 0)) {
            faultfree.push_back(i);
        }
    }
    if (faultfree.size() > 1) {
        constexpr std::size_t batch = quant::gemm::kImageBlock;
        const quant::QNetwork& network = platform.engine().network();
        const std::size_t n_blocks = (faultfree.size() + batch - 1) / batch;
        parallel_for(n_blocks, [&](std::size_t blk) {
            trace::Span bspan("eval:batch", "experiment");
            const std::size_t lo = blk * batch;
            const std::size_t hi = std::min(lo + batch, faultfree.size());
            std::vector<QTensor> qimages;
            qimages.reserve(hi - lo);
            std::vector<const QTensor*> block;
            block.reserve(hi - lo);
            for (std::size_t j = lo; j < hi; ++j) {
                qimages.push_back(quant::quantize_image(dataset.images[faultfree[j]]));
                block.push_back(&qimages.back());
            }
            const std::vector<QTensor> logits = network.forward_batch(block);
            for (std::size_t j = lo; j < hi; ++j) {
                const std::size_t i = faultfree[j];
                batched[i] = 1;
                correct[i] = argmax(logits[j - lo]) == dataset.labels[i] ? 1 : 0;
            }
        });
    }

    parallel_for(n_images, [&](std::size_t i) {
        if (batched[i] != 0) return;
        const accel::VoltageTrace* trace =
            n_traces == 0 ? nullptr : &traces[i % n_traces];
        const accel::OverlayPlan* plan =
            n_traces == 0 ? nullptr : &(*plans)[i % n_traces];
        const GoldenEntry* entry =
            golden != nullptr && i < golden->size() ? &golden->entries[i] : nullptr;
        if (entry != nullptr && (plan == nullptr || plan_unsafe[i % n_traces] == 0)) {
            correct[i] = entry->predicted == dataset.labels[i] ? 1 : 0;
            shortcircuit[i] = 1;
            return;
        }
        Rng fault_rng(derive_seed(fault_seed, i));
        if (entry != nullptr) {
            const accel::RunResult run =
                platform.infer_elided(entry->qimage, entry->activations,
                                      entry->accumulators, trace, fault_rng, *plan,
                                      throttle);
            faults[i] = run.faults_total;
            correct[i] = run.predicted == dataset.labels[i] ? 1 : 0;
            prefix_skipped[i] = run.golden_layers_reused;
            return;
        }
        const QTensor qimage = quant::quantize_image(dataset.images[i]);
        const accel::RunResult run =
            platform.infer(qimage, trace, fault_rng, throttle, plan);
        faults[i] = run.faults_total;
        correct[i] = run.predicted == dataset.labels[i] ? 1 : 0;
    });
    std::size_t n_correct = 0;
    std::uint64_t n_shortcircuit = 0;
    std::uint64_t n_prefix = 0;
    for (std::size_t i = 0; i < n_images; ++i) {
        n_correct += correct[i];
        n_shortcircuit += shortcircuit[i];
        n_prefix += prefix_skipped[i];
        result.faults += faults[i];
    }
    result.accuracy = static_cast<double>(n_correct) / static_cast<double>(n_images);
    if (metrics::enabled() && golden != nullptr) {
        metrics::counter("eval.golden_cache.shortcircuits", "images",
                         "images answered by the golden label without inference")
            .add(n_shortcircuit);
        metrics::counter("eval.prefix_layers_skipped", "layers",
                         "still-golden layers elided during cached inference")
            .add(n_prefix);
    }
    return result;
}

} // namespace

AccuracyResult evaluate_accuracy(const Platform& platform, const data::Dataset& dataset,
                                 std::size_t n_images, const accel::VoltageTrace* trace,
                                 std::uint64_t fault_seed,
                                 const accel::OverlayPlan* plan,
                                 const GoldenStore* golden) {
    std::vector<accel::VoltageTrace> traces;
    std::vector<accel::OverlayPlan> plans;
    if (trace != nullptr) {
        traces.push_back(*trace);
        if (plan != nullptr) plans.push_back(*plan);
    }
    return evaluate_accuracy_multi(platform, dataset, n_images, traces, fault_seed,
                                   plans.empty() ? nullptr : &plans, golden);
}

AccuracyResult evaluate_accuracy_multi(const Platform& platform,
                                       const data::Dataset& dataset,
                                       std::size_t n_images,
                                       const std::vector<accel::VoltageTrace>& traces,
                                       std::uint64_t fault_seed,
                                       const std::vector<accel::OverlayPlan>* plans,
                                       const GoldenStore* golden) {
    expects(dataset.size() > 0, "evaluate_accuracy: non-empty dataset");
    n_images = std::min(n_images, dataset.size());
    expects(n_images > 0, "evaluate_accuracy: at least one image");
    expects(plans == nullptr || plans->size() == traces.size(),
            "evaluate_accuracy: one overlay plan per trace");

    // Overlay plans depend only on (trace, schedule): build each once here
    // rather than re-scanning the trace inside every per-image inference.
    std::vector<accel::OverlayPlan> local_plans;
    if (plans == nullptr && !traces.empty()) {
        local_plans.reserve(traces.size());
        for (const accel::VoltageTrace& t : traces) {
            local_plans.push_back(platform.engine().plan_overlay(&t));
        }
        plans = &local_plans;
    }
    return evaluate_images(platform, dataset, n_images, traces, plans, nullptr,
                           fault_seed, golden);
}

std::vector<RepeatedInferenceStats> simulate_repeated_inferences(
    const Platform& platform, attack::AttackController& controller,
    std::size_t n_inferences) {
    expects(n_inferences > 0, "simulate_repeated_inferences: at least one inference");

    std::vector<RepeatedInferenceStats> stats;
    stats.reserve(n_inferences);
    for (std::size_t i = 0; i < n_inferences; ++i) {
        controller.rearm();
        GuidedSource source(controller);
        CosimResult cosim = platform.simulate_inference(source);

        RepeatedInferenceStats entry;
        entry.detector_fired = controller.triggered();
        entry.trigger_sample = controller.trigger_sample();
        entry.strike_cycles = cosim.strike_cycles;
        entry.capture_v = std::move(cosim.capture_v);
        stats.push_back(std::move(entry));
    }
    return stats;
}

AccuracyResult evaluate_accuracy_defended(const Platform& platform,
                                          const data::Dataset& dataset,
                                          std::size_t n_images,
                                          const accel::VoltageTrace& trace,
                                          const std::vector<bool>& throttle,
                                          std::uint64_t fault_seed,
                                          const accel::OverlayPlan* plan,
                                          const GoldenStore* golden) {
    expects(dataset.size() > 0, "evaluate_accuracy_defended: non-empty dataset");
    n_images = std::min(n_images, dataset.size());
    expects(n_images > 0, "evaluate_accuracy_defended: at least one image");

    // The throttle suppresses fault evaluation inside windows but never
    // adds windows, so the golden elision tiers stay valid: a throttled op
    // draws no RNG exactly as the uncached path would draw none.
    std::vector<accel::VoltageTrace> traces{trace};
    std::vector<accel::OverlayPlan> plans;
    plans.push_back(plan != nullptr ? *plan : platform.engine().plan_overlay(&trace));
    return evaluate_images(platform, dataset, n_images, traces, &plans, &throttle,
                           fault_seed, golden);
}

DspRigResult run_dsp_characterization(std::size_t n_striker_cells,
                                      const DspRigConfig& config) {
    expects(n_striker_cells > 0, "run_dsp_characterization: at least one cell");
    expects(config.trials > 0, "run_dsp_characterization: at least one trial");

    DspRigResult result;
    result.n_striker_cells = n_striker_cells;

    pdn::DelayModel delay{};
    striker::StrikerParams sp = config.striker_base;
    sp.n_cells = n_striker_cells;
    striker::StrikerBank bank(sp, delay);

    // The electrical transient is identical for every trial (same idle
    // state, same strike length), so compute the strike-window voltage
    // once. The DSP result is fetched after result_fetch_latency cycles;
    // the critical captures happen during the strike cycle and the ringing
    // cycle after it.
    pdn::PdnModel pdn_model(config.pdn);
    pdn_model.reset(config.idle_current_a);
    double v = pdn_model.voltage();
    double min_v = v;
    // The DSP op is enabled together with the striker; its two DDR capture
    // edges land mid-cycle and at cycle end, each seeing the instantaneous
    // droop at that point of the pulse.
    std::array<double, 2> capture{v, v};
    const std::size_t window_cycles = config.strike_cycles + 1;
    for (std::size_t cycle = 0; cycle < window_cycles; ++cycle) {
        const bool strike = cycle < config.strike_cycles;
        for (std::size_t tick = 0; tick < config.ticks_per_cycle; ++tick) {
            const double i = config.idle_current_a + bank.current_a(v, strike);
            v = pdn_model.step(i);
            min_v = std::min(min_v, v);
            if (cycle == 0 && tick == config.ticks_per_cycle / 2 - 1) capture[0] = v;
            if (cycle == 0 && tick == config.ticks_per_cycle - 1) capture[1] = v;
        }
    }
    result.min_voltage = min_v;

    // Build the DSP bank (fixed process variation per rig seed).
    Rng variation_rng(config.seed);
    std::vector<accel::DspSlice> slices;
    slices.reserve(config.n_dsp_slices);
    for (std::size_t i = 0; i < config.n_dsp_slices; ++i) {
        slices.emplace_back(static_cast<std::uint32_t>(i), config.dsp_timing,
                            variation_rng);
    }

    // Observational classification, as in the paper: compare the fetched
    // result against the expected value and the previous input's expected
    // value.
    Rng data_rng(config.seed ^ 0xDA7A);
    Rng fault_rng(config.seed ^ 0xFA17);
    std::vector<fx::Acc> prev_expected(config.n_dsp_slices, 0);

    std::size_t dup = 0;
    std::size_t rnd = 0;
    for (std::size_t t = 0; t < config.trials; ++t) {
        const std::size_t s = t % config.n_dsp_slices;
        const auto a = fx::Q3_4::from_raw(
            static_cast<std::int16_t>(data_rng.uniform_int(-128, 127)));
        const auto d = fx::Q3_4::from_raw(
            static_cast<std::int16_t>(data_rng.uniform_int(-128, 127)));
        const auto b = fx::Q3_4::from_raw(
            static_cast<std::int16_t>(data_rng.uniform_int(-128, 127)));
        const fx::Acc expected = accel::DspSlice::compute(a, d, b);

        fx::Acc observed = expected;
        switch (slices[s].evaluate(capture[t % 2], delay, fault_rng)) {
            case accel::FaultKind::None:
                break;
            case accel::FaultKind::Duplication:
                observed = prev_expected[s];
                break;
            case accel::FaultKind::Random:
                observed = accel::DspSlice::random_fault_value(fault_rng);
                break;
        }

        if (observed != expected) {
            if (observed == prev_expected[s]) ++dup;
            else ++rnd;
        }
        prev_expected[s] = expected;
    }

    result.duplication_rate = static_cast<double>(dup) / static_cast<double>(config.trials);
    result.random_rate = static_cast<double>(rnd) / static_cast<double>(config.trials);
    return result;
}

} // namespace deepstrike::sim
