// End-to-end properties of the observability layer (ISSUE 3):
//   - metric totals are functions of the workload alone: identical at any
//     thread count for the same seeds;
//   - metrics/tracing are observe-only: campaign reports are byte-identical
//     with collection on or off;
//   - an instrumented campaign covers every documented module prefix.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/campaign.hpp"
#include "test_helpers.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace deepstrike::sim {
namespace {

CampaignConfig small_config(std::size_t threads) {
    CampaignConfig cfg;
    cfg.strike_grid = {300, 900};
    cfg.eval_images = 20;
    cfg.blind_offsets = 2;
    cfg.threads = threads;
    return cfg;
}

/// Runs one small campaign on a fresh identical platform/dataset and
/// returns its JSON report; `collect` turns the metric/trace sinks on for
/// the duration (cleared and disabled again afterwards).
std::string run_small_campaign(std::size_t threads, bool collect,
                               metrics::MetricsSnapshot* snapshot_out = nullptr) {
    metrics::reset();
    metrics::set_enabled(collect);
    trace::set_enabled(collect);
    set_global_thread_count(threads);

    Platform platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(61));
    auto ds = data::make_datasets(9, 1, 30);
    const CampaignReport report =
        run_campaign(platform, ds.test, small_config(threads));

    if (snapshot_out != nullptr) *snapshot_out = metrics::snapshot();
    metrics::set_enabled(false);
    trace::set_enabled(false);
    metrics::reset();
    set_global_thread_count(0);
    return report.to_json().dump(2);
}

/// Counter and histogram merges commute, so these must agree exactly
/// across runs. Gauges are last-write-wins and excluded by contract
/// (docs/observability.md).
void expect_deterministic_equal(const metrics::MetricsSnapshot& a,
                                const metrics::MetricsSnapshot& b) {
    ASSERT_EQ(a.counters.size(), b.counters.size());
    for (std::size_t i = 0; i < a.counters.size(); ++i) {
        EXPECT_EQ(a.counters[i].name, b.counters[i].name);
        EXPECT_EQ(a.counters[i].value, b.counters[i].value)
            << a.counters[i].name;
    }
    ASSERT_EQ(a.histograms.size(), b.histograms.size());
    for (std::size_t i = 0; i < a.histograms.size(); ++i) {
        EXPECT_EQ(a.histograms[i].name, b.histograms[i].name);
        EXPECT_EQ(a.histograms[i].count, b.histograms[i].count)
            << a.histograms[i].name;
        EXPECT_EQ(a.histograms[i].sum, b.histograms[i].sum)
            << a.histograms[i].name;
        EXPECT_EQ(a.histograms[i].bucket_counts, b.histograms[i].bucket_counts)
            << a.histograms[i].name;
    }
}

TEST(Observability, CounterTotalsIdenticalAtAnyThreadCount) {
    metrics::MetricsSnapshot serial;
    metrics::MetricsSnapshot parallel;
    const std::string report_serial = run_small_campaign(1, true, &serial);
    const std::string report_parallel = run_small_campaign(4, true, &parallel);

    EXPECT_EQ(report_serial, report_parallel);
    expect_deterministic_equal(serial, parallel);

    // Sanity: the campaign actually exercised the instrumented modules,
    // the fault walk included: its skipped-draw count is an integer that
    // the equality above pins across thread counts, and it must be live.
    bool saw_pdn = false;
    std::uint64_t skipped = 0;
    std::uint64_t unsafe = 0;
    for (const auto& c : serial.counters) {
        if (c.name == "pdn.steps") {
            saw_pdn = true;
            EXPECT_GT(c.value, 0u);
        }
        if (c.name == "accel.jitter_skipped") skipped = c.value;
        if (c.name == "accel.ops_unsafe") unsafe = c.value;
    }
    EXPECT_TRUE(saw_pdn);
    EXPECT_GT(skipped, 0u);
    EXPECT_LE(skipped, unsafe);
}

TEST(Observability, ReportBytesUnchangedBySinks) {
    const std::string with_sinks = run_small_campaign(2, true);
    const std::string without_sinks = run_small_campaign(2, false);
    EXPECT_EQ(with_sinks, without_sinks);
}

TEST(Observability, CampaignCoversEveryDocumentedModulePrefix) {
    metrics::MetricsSnapshot snap;
    run_small_campaign(2, true, &snap);

    // The module prefixes docs/observability.md promises for a guided
    // campaign (the acceptance criterion of ISSUE 3).
    const std::vector<std::string> prefixes = {
        "pdn.", "tdc.", "detector.", "striker.", "overlay.",
        "runner.", "accel.", "cosim.", "eval.", "campaign."};
    for (const std::string& prefix : prefixes) {
        bool found = false;
        for (const auto& c : snap.counters) {
            if (c.name.rfind(prefix, 0) == 0 && c.value > 0) found = true;
        }
        for (const auto& h : snap.histograms) {
            if (h.name.rfind(prefix, 0) == 0 && h.count > 0) found = true;
        }
        EXPECT_TRUE(found) << "no non-zero metric with prefix " << prefix;
    }
}

TEST(Observability, TraceRecordsSweepAndCosimSpans) {
    run_small_campaign(2, true);
    // run_small_campaign turns tracing off at the end; re-run a tiny piece
    // with tracing live to inspect events directly.
    trace::set_enabled(true);
    {
        Platform platform(PlatformConfig{},
                          deepstrike::testing::random_qnetwork(61));
        auto ds = data::make_datasets(9, 1, 10);
        CampaignConfig cfg = small_config(2);
        cfg.strike_grid = {300};
        cfg.blind_offsets = 0;
        cfg.eval_images = 5;
        run_campaign(platform, ds.test, cfg);
    }
    const auto events = trace::events();
    trace::set_enabled(false);

    bool saw_campaign = false;
    bool saw_sweep = false;
    bool saw_point = false;
    bool saw_cosim = false;
    bool saw_trigger = false;
    for (const auto& e : events) {
        if (e.name == "campaign") saw_campaign = true;
        if (e.name == "sweep:campaign") saw_sweep = true;
        if (e.name.rfind("point:", 0) == 0) saw_point = true;
        if (e.name == "cosim.inference") saw_cosim = true;
        if (e.name == "detector.trigger" && e.instant) saw_trigger = true;
    }
    EXPECT_TRUE(saw_campaign);
    EXPECT_TRUE(saw_sweep);
    EXPECT_TRUE(saw_point);
    EXPECT_TRUE(saw_cosim);
    EXPECT_TRUE(saw_trigger);
}

} // namespace
} // namespace deepstrike::sim
