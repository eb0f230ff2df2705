// Microbenchmarks of the core simulation primitives (google-benchmark).
// These bound the wall-clock cost of the figure benches: one inference
// co-simulation is ~1M PDN steps + ~200k TDC samples, and one faulted
// accelerator run is ~365k DSP op evaluations.
//
// The binary also emits a machine-readable perf trajectory: after the run
// it writes BENCH_micro.json (override with DS_BENCH_JSON) mapping each
// benchmark name to ns/op and ops/s at the producing git revision, which
// CI consumes for regression smoke checks.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "accel/engine.hpp"
#include "attack/detector.hpp"
#include "attack/profiler.hpp"
#include "attack/search.hpp"
#include "data/synth_mnist.hpp"
#include "host/frames.hpp"
#include "pdn/pdn.hpp"
#include "oracle/oracle.hpp"
#include "quant/qnetwork.hpp"
#include "sim/cosim_lanes.hpp"
#include "sim/experiment.hpp"
#include "sim/golden_cache.hpp"
#include "sim/journal.hpp"
#include "sim/platform.hpp"
#include "sim/search.hpp"
#include "striker/striker.hpp"
#include "tdc/tdc.hpp"
#include "util/bitvec.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

#ifndef DS_GIT_REV
#define DS_GIT_REV "unknown"
#endif

namespace ds = deepstrike;

namespace {

ds::quant::QNetwork bench_weights() {
    ds::Rng rng(4242);
    auto fill = [&rng](ds::Shape shape, double range) {
        ds::QTensor t(shape);
        for (std::size_t i = 0; i < t.size(); ++i) {
            t.at_unchecked(i) = ds::fx::Q3_4::from_real(rng.uniform(-range, range));
        }
        return t;
    };
    using ds::quant::Activation;
    using ds::quant::QLayerKind;
    ds::quant::QNetwork net;
    net.input_shape = ds::Shape{1, 28, 28};
    net.layers.emplace_back(QLayerKind::Conv, "CONV1", fill({6, 1, 5, 5}, 0.5),
                            fill({6}, 0.2), Activation::Tanh);
    net.layers.emplace_back(QLayerKind::Pool2, "POOL1", ds::QTensor(), ds::QTensor());
    net.layers.emplace_back(QLayerKind::Conv, "CONV2", fill({16, 6, 5, 5}, 0.4),
                            fill({16}, 0.2), Activation::Tanh);
    net.layers.emplace_back(QLayerKind::Dense, "FC1", fill({120, 1024}, 0.2),
                            fill({120}, 0.2), Activation::Tanh);
    net.layers.emplace_back(QLayerKind::Dense, "FC2", fill({10, 120}, 0.3),
                            fill({10}, 0.2), Activation::None);
    return net;
}

ds::QTensor bench_image() {
    ds::Rng rng(7);
    ds::QTensor img(ds::Shape{1, 28, 28});
    for (std::size_t i = 0; i < img.size(); ++i) {
        img.at_unchecked(i) = ds::fx::Q3_4::from_real(rng.uniform(0.0, 1.0));
    }
    return img;
}

void BM_PdnStep(benchmark::State& state) {
    ds::pdn::PdnModel model(ds::pdn::PdnParams::pynq_z1());
    model.reset(0.05);
    double load = 0.05;
    for (auto _ : state) {
        load = load < 0.3 ? load + 1e-4 : 0.05;
        benchmark::DoNotOptimize(model.step(load));
    }
}
BENCHMARK(BM_PdnStep);

void BM_TdcSample(benchmark::State& state) {
    const ds::pdn::DelayModel delay{};
    const ds::tdc::TdcSensor sensor(ds::tdc::TdcConfig::paper_config(), delay);
    ds::Rng rng(1);
    double v = 0.99;
    for (auto _ : state) {
        v = v < 0.999 ? v + 1e-6 : 0.99;
        benchmark::DoNotOptimize(sensor.sample(v, rng).readout);
    }
}
BENCHMARK(BM_TdcSample);

void BM_StrikerCurrent(benchmark::State& state) {
    const ds::pdn::DelayModel delay{};
    const ds::striker::StrikerBank bank(ds::striker::StrikerParams::end_to_end(), delay);
    double v = 0.95;
    for (auto _ : state) {
        v = v < 0.999 ? v + 1e-6 : 0.95;
        benchmark::DoNotOptimize(bank.current_a(v, true));
    }
}
BENCHMARK(BM_StrikerCurrent);

void BM_DspEvaluate(benchmark::State& state) {
    const ds::pdn::DelayModel delay{};
    ds::Rng construction(1);
    const ds::accel::DspSlice slice(0, ds::accel::DspTimingParams{}, construction);
    ds::Rng rng(2);
    const double v = 0.955; // in the fault-evaluation band
    for (auto _ : state) {
        benchmark::DoNotOptimize(slice.evaluate(v, delay, rng));
    }
}
BENCHMARK(BM_DspEvaluate);

void BM_DetectorSample(benchmark::State& state) {
    ds::attack::DnnStartDetector detector{ds::attack::DetectorConfig{}};
    const ds::pdn::DelayModel delay{};
    const ds::tdc::TdcSensor sensor(ds::tdc::TdcConfig::paper_config(), delay);
    ds::Rng rng(3);
    const ds::tdc::TdcSample sample = sensor.sample(0.996, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(detector.on_sample(sample));
    }
}
BENCHMARK(BM_DetectorSample);

// CONV2-geometry conv layer (K = 6*5*5 = 150, 16 output channels on a
// 12x12 plane) through the im2col/GEMM engine vs the scalar oracle
// kernels. Same bytes out either way (tests/gemm_test.cpp); CI gates the
// pair ratio so the GEMM path never silently degrades to the oracle's
// speed.
ds::QTensor conv2_input() {
    ds::Rng rng(9);
    ds::QTensor t(ds::Shape{6, 12, 12});
    for (std::size_t i = 0; i < t.size(); ++i) {
        t.at_unchecked(i) = ds::fx::Q3_4::from_real(rng.uniform(-1.0, 1.0));
    }
    return t;
}

void BM_Qconv2dGemm(benchmark::State& state) {
    const ds::quant::QNetwork net = bench_weights();
    const ds::quant::QLayer& conv2 = net.layer("CONV2");
    const ds::QTensor input = conv2_input();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ds::quant::qconv2d(input, conv2.weight, conv2.bias, conv2.activation));
    }
}
BENCHMARK(BM_Qconv2dGemm);

void BM_Qconv2dScalar(benchmark::State& state) {
    const ds::quant::QNetwork net = bench_weights();
    const ds::quant::QLayer& conv2 = net.layer("CONV2");
    const ds::QTensor input = conv2_input();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ds::oracle::qconv2d(input, conv2.weight, conv2.bias, conv2.activation));
    }
}
BENCHMARK(BM_Qconv2dScalar);

void BM_QConv2dLayer(benchmark::State& state) {
    const ds::quant::QNetwork net = bench_weights();
    const ds::quant::QLayer& conv1 = net.layer("CONV1");
    const ds::QTensor img = bench_image();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ds::quant::qconv2d(img, conv1.weight, conv1.bias, conv1.activation));
    }
}
BENCHMARK(BM_QConv2dLayer);

void BM_GoldenInference(benchmark::State& state) {
    const ds::quant::QNetwork net = bench_weights();
    const ds::QTensor img = bench_image();
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.forward(img));
    }
}
BENCHMARK(BM_GoldenInference);

void BM_AccelCleanInference(benchmark::State& state) {
    const ds::accel::AccelEngine engine(bench_weights(),
                                        ds::accel::AccelConfig::pynq_z1(), 2021);
    const ds::QTensor img = bench_image();
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run_clean(img).predicted);
    }
}
BENCHMARK(BM_AccelCleanInference);

void BM_AccelFaultedInference(benchmark::State& state) {
    const ds::accel::AccelEngine engine(bench_weights(),
                                        ds::accel::AccelConfig::pynq_z1(), 2021);
    const ds::QTensor img = bench_image();
    // Glitch the whole CONV2 segment: worst-case slow path.
    ds::accel::VoltageTrace trace(engine.schedule().total_cycles * 2, 1.0);
    const auto& seg = engine.schedule().segment_for("CONV2");
    for (std::size_t i = seg.start_cycle * 2; i < seg.end_cycle() * 2; ++i) {
        trace[i] = 0.955;
    }
    ds::Rng rng(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(img, &trace, rng).predicted);
    }
}
BENCHMARK(BM_AccelFaultedInference);

void BM_CosimFullInference(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    for (auto _ : state) {
        ds::sim::NoAttackSource source;
        benchmark::DoNotOptimize(platform.simulate_inference(source).strike_cycles);
    }
}
BENCHMARK(BM_CosimFullInference);

// The co-sim tick loop, lane-batched vs scalar: both benches co-simulate
// the same 8 independent inferences, through 8 scalar simulate_inference
// calls vs one 8-lane SoA/SIMD group (sim::CosimLanes). Identical bytes
// out (tests/cosim_lanes_test.cpp); CI gates the same-run pair ratio at
// 0.6 so the lane engine never silently decays to scalar speed.
constexpr std::size_t kCosimBenchLanes = 8;

void BM_CosimCycleScalar(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const std::size_t saved_width = ds::sim::cosim_lane_width();
    ds::sim::set_cosim_lane_width(0); // scalar per-point path
    for (auto _ : state) {
        for (std::size_t l = 0; l < kCosimBenchLanes; ++l) {
            ds::sim::NoAttackSource source;
            benchmark::DoNotOptimize(platform.simulate_inference(source).strike_cycles);
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kCosimBenchLanes *
                                  platform.engine().schedule().total_cycles));
    ds::sim::set_cosim_lane_width(saved_width);
}
BENCHMARK(BM_CosimCycleScalar)->Unit(benchmark::kMillisecond);

void BM_CosimCycleLanes(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const std::size_t saved_width = ds::sim::cosim_lane_width();
    ds::sim::set_cosim_lane_width(kCosimBenchLanes);
    for (auto _ : state) {
        std::vector<ds::sim::NoAttackSource> sources(kCosimBenchLanes);
        std::vector<ds::sim::StrikeSource*> lanes;
        lanes.reserve(kCosimBenchLanes);
        for (ds::sim::NoAttackSource& s : sources) lanes.push_back(&s);
        benchmark::DoNotOptimize(platform.simulate_inference_lanes(lanes).size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kCosimBenchLanes *
                                  platform.engine().schedule().total_cycles));
    ds::sim::set_cosim_lane_width(saved_width);
}
BENCHMARK(BM_CosimCycleLanes)->Unit(benchmark::kMillisecond);

// Lane-count scaling: one group of W co-sims per iteration (W=1 is the
// single-lane scalar fallback). Per-co-sim cost should fall as W grows;
// items processed = co-sims, so ops/s is directly comparable across W.
void BM_CosimLanesWidth(benchmark::State& state) {
    const auto width = static_cast<std::size_t>(state.range(0));
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const std::size_t saved_width = ds::sim::cosim_lane_width();
    ds::sim::set_cosim_lane_width(width);
    for (auto _ : state) {
        std::vector<ds::sim::NoAttackSource> sources(width);
        std::vector<ds::sim::StrikeSource*> lanes;
        lanes.reserve(width);
        for (ds::sim::NoAttackSource& s : sources) lanes.push_back(&s);
        benchmark::DoNotOptimize(platform.simulate_inference_lanes(lanes).size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * width));
    ds::sim::set_cosim_lane_width(saved_width);
}
BENCHMARK(BM_CosimLanesWidth)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// One guided campaign point end to end, the unit of work SweepRunner
// schedules: co-simulate the attack trace for a CONV2-targeting scheme,
// then evaluate 25 faulted images on it. Setup (profiling, planning) runs
// once outside the timed loop, as it does once per campaign.
ds::attack::AttackScheme conv2_scheme(const ds::sim::Platform& platform,
                                      const ds::attack::DetectorConfig& detector,
                                      std::size_t strikes) {
    const ds::sim::ProfilingRun prof = ds::sim::run_profiling(platform, detector);
    // Pick the profiled segment that best overlaps CONV2's schedule window
    // (converted to TDC-sample coordinates via the trigger).
    const auto& conv2 = platform.engine().schedule().segment_for("CONV2");
    const double spc = platform.config().samples_per_cycle();
    const double c2_begin =
        static_cast<double>(prof.trigger_sample) +
        static_cast<double>(conv2.start_cycle) * spc;
    const double c2_end = static_cast<double>(prof.trigger_sample) +
                          static_cast<double>(conv2.end_cycle()) * spc;
    std::size_t best = 0;
    double best_overlap = -1e300;
    for (std::size_t i = 0; i < prof.profile.segments.size(); ++i) {
        const auto& seg = prof.profile.segments[i];
        const double overlap =
            std::min(static_cast<double>(seg.end_sample), c2_end) -
            std::max(static_cast<double>(seg.start_sample), c2_begin);
        if (overlap > best_overlap) {
            best_overlap = overlap;
            best = i;
        }
    }
    const ds::attack::ProfiledSegment& target = prof.profile.segments[best];
    const std::size_t n =
        std::min<std::size_t>(strikes, target.duration_samples() / 4);
    return ds::attack::plan_attack(target, prof.trigger_sample, spc, n);
}

void BM_GuidedCampaignPoint(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 25);
    const ds::attack::DetectorConfig detector{};
    const ds::attack::AttackScheme scheme = conv2_scheme(platform, detector, 2000);
    for (auto _ : state) {
        const ds::accel::VoltageTrace trace =
            ds::sim::guided_attack_trace(platform, detector, scheme);
        const ds::sim::AccuracyResult res =
            ds::sim::evaluate_accuracy(platform, data.test, 25, &trace, 99);
        benchmark::DoNotOptimize(res.accuracy);
    }
}
BENCHMARK(BM_GuidedCampaignPoint)->Unit(benchmark::kMillisecond);

// The same campaign point with checkpoint journaling active, bounding the
// hot-path cost of crash safety. append() only enqueues; the dedicated
// writer thread absorbs the write+fsync, so this should track
// BM_GuidedCampaignPoint within noise (CI gates the pair ratio).
void BM_GuidedCampaignPointJournaled(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 25);
    const ds::attack::DetectorConfig detector{};
    const ds::attack::AttackScheme scheme = conv2_scheme(platform, detector, 2000);
    const std::string path = "BENCH_journal.jsonl";
    auto journal = ds::sim::CheckpointJournal::create(path, 0xBE7Cu, "bench");
    std::size_t index = 0;
    for (auto _ : state) {
        const ds::accel::VoltageTrace trace =
            ds::sim::guided_attack_trace(platform, detector, scheme);
        const ds::sim::AccuracyResult res =
            ds::sim::evaluate_accuracy(platform, data.test, 25, &trace, 99);
        ds::Json payload = ds::Json::object();
        payload.set("kind", "point");
        payload.set("accuracy", res.accuracy);
        journal->append(++index, std::move(payload));
        benchmark::DoNotOptimize(res.accuracy);
    }
    journal.reset();
    std::remove(path.c_str());
}
BENCHMARK(BM_GuidedCampaignPointJournaled)->Unit(benchmark::kMillisecond);

// The accuracy-evaluation inner loop alone (trace + plan hoisted outside,
// as SweepRunner's bundle cache provides them): 200 images against one
// guided CONV2 strike trace. Paired with the *Cached variant below to
// measure the golden-path elision (docs/architecture.md "Hot paths").
void BM_EvaluateAccuracyMulti(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 200);
    const ds::attack::DetectorConfig detector{};
    const ds::attack::AttackScheme scheme = conv2_scheme(platform, detector, 200);
    const ds::accel::VoltageTrace trace =
        ds::sim::guided_attack_trace(platform, detector, scheme);
    const ds::accel::OverlayPlan plan = platform.engine().plan_overlay(&trace);
    for (auto _ : state) {
        const ds::sim::AccuracyResult res =
            ds::sim::evaluate_accuracy(platform, data.test, 200, &trace, 99, &plan);
        benchmark::DoNotOptimize(res.accuracy);
    }
}
BENCHMARK(BM_EvaluateAccuracyMulti)->Unit(benchmark::kMillisecond);

// Same evaluation through the golden cache. The store is built once
// outside the timed loop — exactly as a campaign builds it once and
// amortizes it over every sweep point.
void BM_EvaluateAccuracyMultiCached(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 200);
    const ds::attack::DetectorConfig detector{};
    const ds::attack::AttackScheme scheme = conv2_scheme(platform, detector, 200);
    const ds::accel::VoltageTrace trace =
        ds::sim::guided_attack_trace(platform, detector, scheme);
    const ds::accel::OverlayPlan plan = platform.engine().plan_overlay(&trace);
    const auto golden =
        ds::sim::build_golden_store(platform.engine().network(), data.test, 200);
    for (auto _ : state) {
        const ds::sim::AccuracyResult res = ds::sim::evaluate_accuracy(
            platform, data.test, 200, &trace, 99, &plan, golden.get());
        benchmark::DoNotOptimize(res.accuracy);
    }
}
BENCHMARK(BM_EvaluateAccuracyMultiCached)->Unit(benchmark::kMillisecond);

// The same uncached 200-image evaluation on the tests-only scalar oracle:
// a per-image oracle forward plus argmax under the same parallel_for the
// evaluation loop uses. Paired with BM_EvaluateAccuracyMultiBatched below
// — the identical workload through GEMM + image batching — as the
// headline same-run speedup of the vectorized engine; CI gates the ratio.
// The faulted path (BM_EvaluateAccuracyMulti) is excluded from the pair on
// purpose: its per-op fault walk draws one Gaussian deviate per scheduled
// op regardless of kernel engine, a cost the report-identity contract pins
// in place.
void BM_EvaluateAccuracyMultiScalar(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 200);
    const ds::quant::QNetwork& network = platform.engine().network();
    for (auto _ : state) {
        std::vector<std::uint8_t> correct(200, 0);
        ds::parallel_for(200, [&](std::size_t i) {
            const ds::QTensor logits = ds::oracle::forward(
                network, ds::quant::quantize_image(data.test.images[i]));
            correct[i] = ds::argmax(logits) == data.test.labels[i] ? 1 : 0;
        });
        std::size_t n_correct = 0;
        for (std::uint8_t c : correct) n_correct += c;
        benchmark::DoNotOptimize(n_correct);
    }
}
BENCHMARK(BM_EvaluateAccuracyMultiScalar)->Unit(benchmark::kMillisecond);

// Clean (fault-free) 200-image evaluation: every image takes the batched
// fast path (one GEMM per layer per 16-image block). This is the shape of
// a campaign's clean-accuracy baseline and of defended runs with quiet
// traces.
void BM_EvaluateAccuracyMultiBatched(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 200);
    for (auto _ : state) {
        const ds::sim::AccuracyResult res =
            ds::sim::evaluate_accuracy(platform, data.test, 200, nullptr, 99);
        benchmark::DoNotOptimize(res.accuracy);
    }
}
BENCHMARK(BM_EvaluateAccuracyMultiBatched)->Unit(benchmark::kMillisecond);

// Golden-store construction over 200 images: batched forward_trace blocks
// with the GEMM engine vs the same per-image work (quantize_image plus a
// forward trace) on the scalar oracle. Campaigns pay this once up front,
// so CI gates the pair to keep the build win real.
void BM_GoldenStoreBuild(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 200);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ds::sim::build_golden_store(platform.engine().network(), data.test, 200));
    }
}
BENCHMARK(BM_GoldenStoreBuild)->Unit(benchmark::kMillisecond);

void BM_GoldenStoreBuildScalar(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 200);
    const ds::quant::QNetwork& network = platform.engine().network();
    for (auto _ : state) {
        std::vector<ds::quant::QNetwork::ForwardTrace> traces(200);
        ds::parallel_for(200, [&](std::size_t i) {
            traces[i] = ds::oracle::forward_trace(
                network, ds::quant::quantize_image(data.test.images[i]));
        });
        benchmark::DoNotOptimize(traces);
    }
}
BENCHMARK(BM_GoldenStoreBuildScalar)->Unit(benchmark::kMillisecond);

// Eval-heavy campaign point (200 images instead of 25): co-simulation plus
// evaluation, the configuration where the golden cache pays off. Paired
// with the *Cached variant; CI gates cached/uncached.
void BM_GuidedCampaignPointEval200(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 200);
    const ds::attack::DetectorConfig detector{};
    const ds::attack::AttackScheme scheme = conv2_scheme(platform, detector, 200);
    for (auto _ : state) {
        const ds::accel::VoltageTrace trace =
            ds::sim::guided_attack_trace(platform, detector, scheme);
        const ds::sim::AccuracyResult res =
            ds::sim::evaluate_accuracy(platform, data.test, 200, &trace, 99);
        benchmark::DoNotOptimize(res.accuracy);
    }
}
BENCHMARK(BM_GuidedCampaignPointEval200)->Unit(benchmark::kMillisecond);

void BM_GuidedCampaignPointEval200Cached(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 200);
    const ds::attack::DetectorConfig detector{};
    const ds::attack::AttackScheme scheme = conv2_scheme(platform, detector, 200);
    const auto golden =
        ds::sim::build_golden_store(platform.engine().network(), data.test, 200);
    for (auto _ : state) {
        const ds::accel::VoltageTrace trace =
            ds::sim::guided_attack_trace(platform, detector, scheme);
        const ds::accel::OverlayPlan plan = platform.engine().plan_overlay(&trace);
        const ds::sim::AccuracyResult res = ds::sim::evaluate_accuracy(
            platform, data.test, 200, &trace, 99, &plan, golden.get());
        benchmark::DoNotOptimize(res.accuracy);
    }
}
BENCHMARK(BM_GuidedCampaignPointEval200Cached)->Unit(benchmark::kMillisecond);

// One generation of the weight-fault search (nightly `search-convergence`
// lane): a DES population of 16 candidates scored through the sim-backed
// fitness — apply faults to a deployment copy, evaluate 64 images with
// golden-prefix elision, memoize by candidate. The driver's budget admits
// exactly the init population plus one evolved generation, so ns/op bounds
// the per-generation cost a fixed-budget search pays ~(budget/population)
// times. Setup cost (golden store build) is inside the loop on purpose:
// it is paid once per search run, and the pair with the pure-driver bench
// below isolates it.
void BM_SearchGeneration(benchmark::State& state) {
    const ds::quant::QNetwork net = bench_weights();
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 64);
    ds::sim::WeightFaultSearchConfig config;
    config.spec.max_faults = 4;
    config.spec.population = 16;
    config.spec.budget = 32; // init + one generation
    config.spec.seed = 5;
    config.eval_images = 64;
    config.threads = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ds::sim::run_weight_fault_search(net, data.test, config).best_drop);
    }
}
BENCHMARK(BM_SearchGeneration)->Unit(benchmark::kMillisecond);

// The search driver alone — same generation shape against a free synthetic
// fitness, bounding the bookkeeping overhead (population evolution, RNG
// derivation, convergence records) that rides on every generation above.
void BM_SearchDriverOverhead(benchmark::State& state) {
    ds::attack::SearchSpec spec;
    spec.space = 126630; // LeNet-5 stream geometry
    spec.max_faults = 4;
    spec.population = 16;
    spec.budget = 32;
    spec.seed = 5;
    const ds::attack::BatchFitness fitness =
        [](const std::vector<ds::attack::FaultSet>& batch) {
            std::vector<double> values(batch.size());
            for (std::size_t i = 0; i < batch.size(); ++i) {
                values[i] = batch[i].empty()
                                ? 0.0
                                : static_cast<double>(batch[i].front() % 97);
            }
            return values;
        };
    for (auto _ : state) {
        ds::attack::SearchDriver driver(spec, fitness);
        benchmark::DoNotOptimize(driver.run().best_fitness);
    }
}
BENCHMARK(BM_SearchDriverOverhead);

void BM_BitVecPopcount(benchmark::State& state) {
    ds::Rng rng(6);
    ds::BitVec v(4096);
    for (std::size_t i = 0; i < v.size(); ++i) v.set(i, rng.bernoulli(0.5));
    for (auto _ : state) {
        benchmark::DoNotOptimize(v.popcount());
    }
}
BENCHMARK(BM_BitVecPopcount);

void BM_Crc16(benchmark::State& state) {
    std::vector<std::uint8_t> payload(1024);
    ds::Rng rng(8);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
    for (auto _ : state) {
        benchmark::DoNotOptimize(ds::host::crc16_ccitt(payload.data(), payload.size()));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Crc16);

// Console output plus collection of every completed run for the JSON
// trajectory file.
class JsonCollector : public benchmark::ConsoleReporter {
public:
    struct Entry {
        std::string name;
        double ns_per_op = 0.0;
        double ops_per_second = 0.0;
        std::int64_t iterations = 0;
    };
    std::vector<Entry> entries;

    void ReportRuns(const std::vector<Run>& reports) override {
        for (const Run& run : reports) {
            if (run.iterations <= 0) continue;
            Entry e;
            e.name = run.benchmark_name();
            const double iters = static_cast<double>(run.iterations);
            e.ns_per_op = run.real_accumulated_time / iters * 1e9;
            e.ops_per_second = e.ns_per_op > 0.0 ? 1e9 / e.ns_per_op : 0.0;
            e.iterations = run.iterations;
            entries.push_back(std::move(e));
        }
        ConsoleReporter::ReportRuns(reports);
    }
};

} // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

    // These benches bound the *serial* cost of one unit of sweep work;
    // pin the pool to one worker so measurements are pool-width-independent.
    ds::set_global_thread_count(1);

    JsonCollector reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    ds::Json root = ds::Json::object();
    root.set("git_rev", DS_GIT_REV);
    root.set("bench", "micro_primitives");
    ds::Json marks = ds::Json::object();
    for (const JsonCollector::Entry& e : reporter.entries) {
        ds::Json m = ds::Json::object();
        m.set("ns_per_op", e.ns_per_op);
        m.set("ops_per_second", e.ops_per_second);
        m.set("iterations", e.iterations);
        marks.set(e.name, std::move(m));
    }
    root.set("benchmarks", std::move(marks));

    const char* path = std::getenv("DS_BENCH_JSON");
    std::ofstream out(path != nullptr ? path : "BENCH_micro.json");
    out << root.dump(2) << "\n";
    return 0;
}
