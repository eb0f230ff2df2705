// Randomized-property tests for the interval-gated fault overlay: the fast
// path (AccelEngine::run) must be byte-identical to the whole-segment
// per-op reference engine (oracle::run_reference) — same logits, same
// prediction, same fault counts — for any voltage trace, because both consume the
// fault RNG stream identically and duplication faults see the same
// pipeline state (seeded by index arithmetic at window entry on the fast
// path, carried op-by-op on the reference path).
#include <gtest/gtest.h>

#include "accel/engine.hpp"
#include "accel/overlay.hpp"
#include "oracle/oracle.hpp"
#include "test_helpers.hpp"

namespace deepstrike::accel {
namespace {

using deepstrike::testing::random_qimage;
using deepstrike::testing::random_qnetwork;

AccelEngine make_engine(bool tmr = false, std::uint64_t weight_seed = 1,
                        std::uint64_t board_seed = 2021) {
    AccelConfig config = AccelConfig::pynq_z1();
    config.tmr_protection = tmr;
    return AccelEngine(random_qnetwork(weight_seed), config, board_seed);
}

VoltageTrace nominal_trace(const AccelEngine& engine) {
    return VoltageTrace(engine.schedule().total_cycles * 2, 1.0);
}

/// Trace with `n_windows` random droop windows of random depth/length
/// anywhere in the execution (may straddle segment boundaries).
VoltageTrace random_glitch_trace(const AccelEngine& engine, Rng& rng,
                                 std::size_t n_windows) {
    VoltageTrace trace = nominal_trace(engine);
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

void expect_identical(const RunResult& fast, const RunResult& ref) {
    ASSERT_EQ(fast.logits.size(), ref.logits.size());
    for (std::size_t i = 0; i < fast.logits.size(); ++i) {
        ASSERT_EQ(fast.logits.at_unchecked(i).raw(), ref.logits.at_unchecked(i).raw())
            << "logit " << i;
    }
    EXPECT_EQ(fast.predicted, ref.predicted);
    EXPECT_EQ(fast.faults_total.duplication, ref.faults_total.duplication);
    EXPECT_EQ(fast.faults_total.random, ref.faults_total.random);
    ASSERT_EQ(fast.faults_by_layer.size(), ref.faults_by_layer.size());
    for (std::size_t i = 0; i < fast.faults_by_layer.size(); ++i) {
        EXPECT_EQ(fast.faults_by_layer[i].label, ref.faults_by_layer[i].label);
        EXPECT_EQ(fast.faults_by_layer[i].counts.duplication,
                  ref.faults_by_layer[i].counts.duplication);
        EXPECT_EQ(fast.faults_by_layer[i].counts.random,
                  ref.faults_by_layer[i].counts.random);
    }
}

TEST(Overlay, UnsafeWindowsMergeAndRespectHalfMask) {
    const AccelEngine engine = make_engine();
    const LayerSegment& seg = engine.schedule().segment_for("CONV2");
    VoltageTrace trace = nominal_trace(engine);

    // Three unsafe cycles: two adjacent (merged), one separate. The middle
    // one is unsafe only on the first DDR half sample.
    const std::size_t c0 = seg.start_cycle + 3;
    trace[c0 * 2] = 0.5;
    trace[(c0 + 1) * 2] = 0.5;
    trace[(c0 + 5) * 2 + 1] = 0.5;

    const auto both = unsafe_windows(seg, &trace, 0.9);
    ASSERT_EQ(both.size(), 2u);
    EXPECT_EQ(both[0].begin, c0);
    EXPECT_EQ(both[0].end, c0 + 2);
    EXPECT_EQ(both[1].begin, c0 + 5);
    EXPECT_EQ(both[1].end, c0 + 6);

    // half_mask=2 (second sample only, the pool comparator's capture) must
    // not see the first-half-only droops.
    const auto second_half = unsafe_windows(seg, &trace, 0.9, /*half_mask=*/2u);
    ASSERT_EQ(second_half.size(), 1u);
    EXPECT_EQ(second_half[0].begin, c0 + 5);

    // Safe threshold below the droop: no windows.
    EXPECT_TRUE(unsafe_windows(seg, &trace, 0.4).empty());
}

TEST(Overlay, PlanCoversAllLayersAndNominalTraceIsEmpty) {
    const AccelEngine engine = make_engine();
    const VoltageTrace trace = nominal_trace(engine);
    const OverlayPlan plan = engine.plan_overlay(&trace);
    ASSERT_EQ(plan.layers.size(), engine.network().layers.size());
    EXPECT_EQ(plan.trace_samples, trace.size());
    for (const SegmentOverlay& layer : plan.layers) EXPECT_FALSE(layer.any());

    const OverlayPlan none = engine.plan_overlay(nullptr);
    EXPECT_EQ(none.trace_samples, 0u);
    ASSERT_EQ(none.layers.size(), engine.network().layers.size());
}

TEST(Overlay, GatedRunMatchesReferenceOnRandomTraces) {
    const AccelEngine engine = make_engine();
    Rng trace_rng(7);
    for (std::uint64_t trial = 0; trial < 12; ++trial) {
        const VoltageTrace trace =
            random_glitch_trace(engine, trace_rng, 1 + trial % 5);
        const QTensor img = random_qimage(300 + trial);
        Rng rng_fast(42 + trial);
        Rng rng_ref(42 + trial);
        const RunResult fast = engine.run(img, &trace, rng_fast);
        const RunResult ref = oracle::run_reference(engine, img, &trace, rng_ref);
        expect_identical(fast, ref);
    }
}

TEST(Overlay, GatedRunMatchesReferenceUnderTmr) {
    const AccelEngine engine = make_engine(/*tmr=*/true);
    Rng trace_rng(11);
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
        const VoltageTrace trace =
            random_glitch_trace(engine, trace_rng, 2 + trial % 3);
        const QTensor img = random_qimage(500 + trial);
        Rng rng_fast(9 + trial);
        Rng rng_ref(9 + trial);
        expect_identical(engine.run(img, &trace, rng_fast),
                         oracle::run_reference(engine, img, &trace, rng_ref));
    }
}

TEST(Overlay, GatedRunMatchesReferenceWithThrottleMask) {
    const AccelEngine engine = make_engine();
    Rng trace_rng(23);
    Rng mask_rng(29);
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
        const VoltageTrace trace = random_glitch_trace(engine, trace_rng, 4);
        std::vector<bool> throttle(engine.schedule().total_cycles, false);
        for (std::size_t c = 0; c < throttle.size(); ++c) {
            throttle[c] = mask_rng.bernoulli(0.3);
        }
        const QTensor img = random_qimage(700 + trial);
        Rng rng_fast(3 + trial);
        Rng rng_ref(3 + trial);
        expect_identical(engine.run(img, &trace, rng_fast, &throttle),
                         oracle::run_reference(engine, img, &trace, rng_ref, &throttle));
    }
}

// A droop confined to the middle of each DSP segment forces the fast path
// to enter per-op execution with elem_begin > 0, exercising the
// pipeline-seeding index arithmetic (a stale last_product from before the
// window must be reconstructed, not zeroed).
TEST(Overlay, MidSegmentWindowSeedsPipelineState) {
    const AccelEngine engine = make_engine();
    for (const char* label : {"CONV1", "CONV2", "FC1", "FC2"}) {
        const LayerSegment& seg = engine.schedule().segment_for(label);
        const std::size_t mid = seg.start_cycle + seg.cycles / 2;
        VoltageTrace trace = nominal_trace(engine);
        for (std::size_t c = mid; c < std::min(mid + 3, seg.end_cycle()); ++c) {
            trace[c * 2] = 0.6;
            trace[c * 2 + 1] = 0.6;
        }
        bool any_fault = false;
        for (std::uint64_t trial = 0; trial < 4; ++trial) {
            const QTensor img = random_qimage(900 + trial);
            Rng rng_fast(17 + trial);
            Rng rng_ref(17 + trial);
            const RunResult fast = engine.run(img, &trace, rng_fast);
            const RunResult ref = oracle::run_reference(engine, img, &trace, rng_ref);
            expect_identical(fast, ref);
            any_fault = any_fault || fast.faults_total.total() > 0;
        }
        // The equivalence must not be vacuous: a 0.6 V droop faults DSPs.
        EXPECT_TRUE(any_fault) << label;
    }
}

// Windows straddling a segment boundary (end of CONV2 into FC1's region)
// must gate each segment independently.
TEST(Overlay, BoundaryStraddlingWindowMatchesReference) {
    const AccelEngine engine = make_engine();
    const LayerSegment& conv2 = engine.schedule().segment_for("CONV2");
    VoltageTrace trace = nominal_trace(engine);
    for (std::size_t c = conv2.end_cycle() - 2; c < conv2.end_cycle() + 4; ++c) {
        trace[c * 2] = 0.58;
        trace[c * 2 + 1] = 0.58;
    }
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
        const QTensor img = random_qimage(1100 + trial);
        Rng rng_fast(31 + trial);
        Rng rng_ref(31 + trial);
        expect_identical(engine.run(img, &trace, rng_fast),
                         oracle::run_reference(engine, img, &trace, rng_ref));
    }
}

TEST(Overlay, HoistedPlanMatchesLocalPlan) {
    const AccelEngine engine = make_engine();
    Rng trace_rng(41);
    const VoltageTrace trace = random_glitch_trace(engine, trace_rng, 5);
    const OverlayPlan plan = engine.plan_overlay(&trace);
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
        const QTensor img = random_qimage(1300 + trial);
        Rng rng_hoisted(5 + trial);
        Rng rng_local(5 + trial);
        const RunResult hoisted = engine.run(img, &trace, rng_hoisted, nullptr, &plan);
        const RunResult local = engine.run(img, &trace, rng_local);
        expect_identical(hoisted, local);
    }
}

TEST(Overlay, FaultsForUsesLayerIndex) {
    const AccelEngine engine = make_engine();
    Rng trace_rng(53);
    const VoltageTrace trace = random_glitch_trace(engine, trace_rng, 6);
    Rng rng(77);
    const RunResult run = engine.run(random_qimage(1500), &trace, rng);
    ASSERT_EQ(run.layer_index.size(), run.faults_by_layer.size());
    for (const RunResult::LayerFaults& lf : run.faults_by_layer) {
        const FaultCounts counts = run.faults_for(lf.label);
        EXPECT_EQ(counts.duplication, lf.counts.duplication);
        EXPECT_EQ(counts.random, lf.counts.random);
    }
    EXPECT_EQ(run.faults_for("NO_SUCH_LAYER").total(), 0u);
}

} // namespace
} // namespace deepstrike::accel
