// Golden evaluation cache: fingerprint keying (stale-weight rejection),
// build-once/extend semantics, and the elision equivalence property — the
// golden-elided engine path (AccelEngine::run_elided) and the cached eval
// path must be byte-identical to the uncached ones for any voltage trace,
// at any thread count, including the fault RNG stream (elision never
// draws; the RNG is only consumed inside unsafe windows, which run
// unchanged).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "accel/engine.hpp"
#include "oracle/oracle.hpp"
#include "sim/campaign.hpp"
#include "sim/golden_cache.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace deepstrike::sim {
namespace {

using deepstrike::testing::random_qimage;
using deepstrike::testing::random_qnetwork;

accel::AccelEngine make_engine(std::uint64_t weight_seed = 1,
                               std::uint64_t board_seed = 2021) {
    return accel::AccelEngine(random_qnetwork(weight_seed),
                              accel::AccelConfig::pynq_z1(), board_seed);
}

accel::VoltageTrace nominal_trace(const accel::AccelEngine& engine) {
    return accel::VoltageTrace(engine.schedule().total_cycles * 2, 1.0);
}

/// Trace with `n_windows` random droop windows of random depth/length
/// anywhere in the execution (may straddle segment boundaries).
accel::VoltageTrace random_glitch_trace(const accel::AccelEngine& engine, Rng& rng,
                                        std::size_t n_windows) {
    accel::VoltageTrace trace = nominal_trace(engine);
    for (std::size_t w = 0; w < n_windows; ++w) {
        const auto len = static_cast<std::size_t>(rng.uniform_int(1, 40));
        const auto start = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(trace.size() - 1)));
        const double depth = rng.uniform(0.55, 0.97);
        for (std::size_t i = start; i < std::min(start + len, trace.size()); ++i) {
            trace[i] = depth;
        }
    }
    return trace;
}

void expect_identical(const accel::RunResult& elided, const accel::RunResult& ref) {
    ASSERT_EQ(elided.logits.size(), ref.logits.size());
    for (std::size_t i = 0; i < elided.logits.size(); ++i) {
        ASSERT_EQ(elided.logits.at_unchecked(i).raw(),
                  ref.logits.at_unchecked(i).raw())
            << "logit " << i;
    }
    EXPECT_EQ(elided.predicted, ref.predicted);
    EXPECT_EQ(elided.faults_total.duplication, ref.faults_total.duplication);
    EXPECT_EQ(elided.faults_total.random, ref.faults_total.random);
    ASSERT_EQ(elided.faults_by_layer.size(), ref.faults_by_layer.size());
    for (std::size_t i = 0; i < elided.faults_by_layer.size(); ++i) {
        EXPECT_EQ(elided.faults_by_layer[i].label, ref.faults_by_layer[i].label);
        EXPECT_EQ(elided.faults_by_layer[i].counts.duplication,
                  ref.faults_by_layer[i].counts.duplication);
        EXPECT_EQ(elided.faults_by_layer[i].counts.random,
                  ref.faults_by_layer[i].counts.random);
    }
}

void expect_entries_identical(const GoldenEntry& a, const GoldenEntry& b) {
    EXPECT_EQ(a.predicted, b.predicted);
    ASSERT_TRUE(a.qimage == b.qimage);
    ASSERT_EQ(a.activations.size(), b.activations.size());
    for (std::size_t l = 0; l < a.activations.size(); ++l) {
        ASSERT_TRUE(a.activations[l] == b.activations[l]) << "layer " << l;
    }
    ASSERT_EQ(a.accumulators.size(), b.accumulators.size());
    for (std::size_t l = 0; l < a.accumulators.size(); ++l) {
        ASSERT_EQ(a.accumulators[l], b.accumulators[l]) << "layer " << l;
    }
}

std::uint64_t bits_of(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

TEST(ForwardActivations, LastEntryEqualsForward) {
    const quant::QNetwork network = random_qnetwork(5);
    const QTensor img = random_qimage(77);
    const std::vector<QTensor> acts = network.forward_trace(img).activations;
    ASSERT_EQ(acts.size(), network.layers.size());
    const QTensor direct = network.forward(img);
    ASSERT_TRUE(acts.back() == direct);
}

// forward_trace must reproduce the oracle's per-layer activations and
// accumulators byte-for-byte, with accumulator arrays for exactly the
// parameterized (Conv/Dense) layers.
TEST(ForwardTrace, MatchesActivationsWithAccumulatorsForParamLayers) {
    const quant::QNetwork network = random_qnetwork(5);
    const QTensor img = random_qimage(77);
    const quant::QNetwork::ForwardTrace trace = network.forward_trace(img);
    const quant::QNetwork::ForwardTrace want = oracle::forward_trace(network, img);
    const std::vector<QTensor>& acts = want.activations;
    ASSERT_EQ(trace.activations.size(), acts.size());
    ASSERT_EQ(trace.accumulators.size(), acts.size());
    for (std::size_t l = 0; l < acts.size(); ++l) {
        ASSERT_TRUE(trace.activations[l] == acts[l]) << "layer " << l;
        EXPECT_EQ(trace.accumulators[l], want.accumulators[l]) << "layer " << l;
        const bool param = network.layers[l].kind == quant::QLayerKind::Conv ||
                           network.layers[l].kind == quant::QLayerKind::Dense;
        EXPECT_EQ(trace.accumulators[l].size(), param ? acts[l].size() : 0u)
            << "layer " << l;
    }
}

TEST(GoldenFingerprint, SensitiveToWeightsAndDataset) {
    const quant::QNetwork a = random_qnetwork(1);
    const quant::QNetwork a2 = random_qnetwork(1);
    const quant::QNetwork b = random_qnetwork(2);
    EXPECT_EQ(network_fingerprint(a), network_fingerprint(a2));
    EXPECT_NE(network_fingerprint(a), network_fingerprint(b));

    const auto ds1 = data::make_datasets(9, 1, 30);
    const auto ds1_again = data::make_datasets(9, 1, 30);
    const auto ds2 = data::make_datasets(10, 1, 30);
    EXPECT_EQ(dataset_fingerprint(ds1.test), dataset_fingerprint(ds1_again.test));
    EXPECT_NE(dataset_fingerprint(ds1.test), dataset_fingerprint(ds2.test));
}

TEST(GoldenCacheStore, BuildsOnceThenServesHits) {
    const quant::QNetwork network = random_qnetwork(3);
    const auto ds = data::make_datasets(9, 1, 20);

    GoldenCache cache;
    const auto first = cache.ensure(network, ds.test, 8);
    const auto second = cache.ensure(network, ds.test, 8);
    const auto smaller = cache.ensure(network, ds.test, 4); // covered prefix
    EXPECT_EQ(cache.builds(), 1u);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(first.get(), smaller.get());
    ASSERT_EQ(first->size(), 8u);
    EXPECT_EQ(first->network_fp, network_fingerprint(network));
    EXPECT_EQ(first->dataset_fp, dataset_fingerprint(ds.test));
}

TEST(GoldenCacheStore, ExtendsPilotStoreWithoutRecomputingPrefix) {
    const quant::QNetwork network = random_qnetwork(3);
    const auto ds = data::make_datasets(9, 1, 20);

    GoldenCache cache;
    const auto pilot = cache.ensure(network, ds.test, 5);
    const auto full = cache.ensure(network, ds.test, 12);
    EXPECT_EQ(cache.builds(), 2u);
    ASSERT_EQ(full->size(), 12u);
    for (std::size_t i = 0; i < pilot->size(); ++i) {
        expect_entries_identical(pilot->entries[i], full->entries[i]);
    }
    // The extended entries match a from-scratch build bit-for-bit.
    const auto scratch = build_golden_store(network, ds.test, 12);
    for (std::size_t i = 0; i < 12; ++i) {
        expect_entries_identical(full->entries[i], scratch->entries[i]);
    }
}

TEST(GoldenCacheStore, WeightMismatchRebuildsInsteadOfStaleReuse) {
    const auto ds = data::make_datasets(9, 1, 20);
    const quant::QNetwork net_a = random_qnetwork(1);
    const quant::QNetwork net_b = random_qnetwork(2);

    GoldenCache cache;
    cache.ensure(net_a, ds.test, 6);
    const auto for_b = cache.ensure(net_b, ds.test, 6);
    EXPECT_EQ(cache.builds(), 2u);
    EXPECT_EQ(for_b->network_fp, network_fingerprint(net_b));
    // Entries must come from net_b's forward pass, not net_a's store.
    const auto scratch_b = build_golden_store(net_b, ds.test, 6);
    for (std::size_t i = 0; i < 6; ++i) {
        expect_entries_identical(for_b->entries[i], scratch_b->entries[i]);
    }
}

TEST(RunElided, NominalTraceReusesEveryLayerAndDrawsNoRandomness) {
    const accel::AccelEngine engine = make_engine();
    const accel::VoltageTrace trace = nominal_trace(engine);
    const accel::OverlayPlan plan = engine.plan_overlay(&trace);
    const QTensor img = random_qimage(42);
    const quant::QNetwork::ForwardTrace fwd = engine.network().forward_trace(img);
    const std::vector<QTensor>& golden = fwd.activations;

    Rng rng(7);
    const auto before = rng.state();
    const accel::RunResult run =
        engine.run_elided(img, golden, fwd.accumulators, &trace, rng, plan);
    EXPECT_EQ(run.golden_layers_reused, engine.network().layers.size());
    EXPECT_EQ(run.faults_total.total(), 0u);
    ASSERT_TRUE(run.logits == golden.back());
    EXPECT_EQ(rng.state(), before); // stream untouched on the all-safe path
}

TEST(RunElided, MatchesRunOnRandomTracesIncludingRngStream) {
    const accel::AccelEngine engine = make_engine();
    Rng trace_rng(7);
    bool any_fault = false;
    for (std::uint64_t trial = 0; trial < 12; ++trial) {
        const accel::VoltageTrace trace =
            random_glitch_trace(engine, trace_rng, 1 + trial % 5);
        const accel::OverlayPlan plan = engine.plan_overlay(&trace);
        const QTensor img = random_qimage(300 + trial);
        const quant::QNetwork::ForwardTrace fwd =
            engine.network().forward_trace(img);
        Rng rng_elided(42 + trial);
        Rng rng_ref(42 + trial);
        // Cached window accumulators + sparse downstream patching.
        const accel::RunResult elided = engine.run_elided(
            img, fwd.activations, fwd.accumulators, &trace, rng_elided, plan);
        const accel::RunResult ref = engine.run(img, &trace, rng_ref, nullptr, &plan);
        expect_identical(elided, ref);
        EXPECT_EQ(rng_elided.state(), rng_ref.state()) << "trial " << trial;
        any_fault = any_fault || ref.faults_total.total() > 0;
    }
    // The equivalence must not be vacuous.
    EXPECT_TRUE(any_fault);
}

TEST(RunElided, MatchesRunWithThrottleMask) {
    const accel::AccelEngine engine = make_engine();
    Rng trace_rng(23);
    Rng mask_rng(29);
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
        const accel::VoltageTrace trace = random_glitch_trace(engine, trace_rng, 4);
        const accel::OverlayPlan plan = engine.plan_overlay(&trace);
        std::vector<bool> throttle(engine.schedule().total_cycles, false);
        for (std::size_t c = 0; c < throttle.size(); ++c) {
            throttle[c] = mask_rng.bernoulli(0.3);
        }
        const QTensor img = random_qimage(700 + trial);
        const quant::QNetwork::ForwardTrace fwd =
            engine.network().forward_trace(img);
        Rng rng_elided(3 + trial);
        Rng rng_ref(3 + trial);
        const accel::RunResult elided =
            engine.run_elided(img, fwd.activations, fwd.accumulators, &trace,
                              rng_elided, plan, &throttle);
        const accel::RunResult ref =
            engine.run(img, &trace, rng_ref, &throttle, &plan);
        expect_identical(elided, ref);
        EXPECT_EQ(rng_elided.state(), rng_ref.state());
    }
}

void expect_results_equal(const AccuracyResult& a, const AccuracyResult& b) {
    EXPECT_EQ(bits_of(a.accuracy), bits_of(b.accuracy));
    EXPECT_EQ(a.images, b.images);
    EXPECT_EQ(a.faults.duplication, b.faults.duplication);
    EXPECT_EQ(a.faults.random, b.faults.random);
}

// The cached eval path must yield byte-identical reports to the uncached
// one, for random traces, at thread counts 1 and 8.
TEST(GoldenCacheEval, CachedMatchesUncachedAcrossThreadCounts) {
    Platform platform(PlatformConfig{}, random_qnetwork(61));
    const auto ds = data::make_datasets(9, 1, 40);
    const std::size_t n_images = 30;

    Rng trace_rng(13);
    std::vector<accel::VoltageTrace> traces;
    traces.push_back(random_glitch_trace(platform.engine(), trace_rng, 6));
    traces.push_back(random_glitch_trace(platform.engine(), trace_rng, 3));
    traces.push_back(nominal_trace(platform.engine())); // all-safe trace mix

    const auto golden =
        build_golden_store(platform.engine().network(), ds.test, n_images);

    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        set_global_thread_count(threads);
        const AccuracyResult uncached = evaluate_accuracy_multi(
            platform, ds.test, n_images, traces, 2468, nullptr, nullptr);
        const AccuracyResult cached = evaluate_accuracy_multi(
            platform, ds.test, n_images, traces, 2468, nullptr, golden.get());
        expect_results_equal(cached, uncached);

        // Defended variant shares the same loop and elision tiers.
        std::vector<bool> throttle(platform.engine().schedule().total_cycles, false);
        Rng mask_rng(31);
        for (std::size_t c = 0; c < throttle.size(); ++c) {
            throttle[c] = mask_rng.bernoulli(0.2);
        }
        const AccuracyResult def_uncached = evaluate_accuracy_defended(
            platform, ds.test, n_images, traces[0], throttle, 2468);
        const AccuracyResult def_cached = evaluate_accuracy_defended(
            platform, ds.test, n_images, traces[0], throttle, 2468, nullptr,
            golden.get());
        expect_results_equal(def_cached, def_uncached);
    }
    set_global_thread_count(0);
}

TEST(GoldenCacheEval, CampaignReportByteIdenticalWithAndWithoutCache) {
    CampaignConfig cfg;
    cfg.strike_grid = {300, 900};
    cfg.eval_images = 20;
    cfg.blind_offsets = 2;

    std::vector<std::string> reports;
    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        for (bool cache : {true, false}) {
            set_global_thread_count(threads);
            Platform platform(PlatformConfig{}, random_qnetwork(61));
            const auto ds = data::make_datasets(9, 1, 30);
            cfg.golden_cache = cache;
            reports.push_back(run_campaign(platform, ds.test, cfg).to_json().dump(2));
        }
    }
    set_global_thread_count(0);
    for (std::size_t i = 1; i < reports.size(); ++i) {
        EXPECT_EQ(reports[0], reports[i]) << "variant " << i;
    }
}

} // namespace
} // namespace deepstrike::sim
