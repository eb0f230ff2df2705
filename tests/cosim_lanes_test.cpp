// Lane-batched co-simulation invariants (sim::CosimLanes).
//
// The whole value of the lane engine rests on one contract: flipping lane
// batching on/off, changing the lane width, changing the worker thread
// count or forcing the scalar SIMD twin may change wall-clock, but never
// a single byte of any result. These tests pin that contract both at the
// campaign-report level (every zoo victim) and at the raw CosimResult
// level (bitwise field comparison against the scalar tick loop, including
// compaction exit/re-entry around mid-run strikes and remainder lanes).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "accel/arch_profiles.hpp"
#include "nn/zoo.hpp"
#include "quant/qnetwork.hpp"
#include "sim/campaign.hpp"
#include "sim/cosim_lanes.hpp"
#include "util/simd.hpp"

namespace deepstrike {
namespace {

/// RAII restore of the process-wide engine knobs these tests mutate, so
/// test order cannot leak a forced mode or width into other suites.
struct EngineKnobsGuard {
    std::size_t width = sim::cosim_lane_width();
    simd::Mode mode = simd::mode();
    ~EngineKnobsGuard() {
        sim::set_cosim_lane_width(width);
        simd::set_mode(mode);
    }
};

quant::QNetwork untrained_network(nn::Architecture arch) {
    Rng rng(2024);
    nn::Sequential model = nn::build_architecture(arch, rng);
    const nn::ArchitectureInfo& info = nn::architecture_info(arch);
    return quant::quantize_sequential(model, info.input_shape, {},
                                      quant::quant_format_for(arch));
}

sim::PlatformConfig platform_config(nn::Architecture arch) {
    sim::PlatformConfig cfg;
    cfg.accel = accel::accel_config_for(arch);
    return cfg;
}

sim::CampaignConfig tiny_config(std::size_t threads) {
    sim::CampaignConfig cfg;
    cfg.strike_grid = {300, 900};
    cfg.eval_images = 12;
    // >1 offset so the blind points exercise lane-batched replay groups.
    cfg.blind_offsets = 3;
    cfg.threads = threads;
    return cfg;
}

/// Bitwise (not value) comparison: -0.0 vs 0.0 or a rounding flip anywhere
/// must fail the test even where operator== would pass.
bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_cosim_identical(const sim::CosimResult& lane,
                            const sim::CosimResult& ref,
                            const std::string& label) {
    EXPECT_TRUE(bits_equal(lane.capture_v, ref.capture_v))
        << label << ": capture_v diverged";
    EXPECT_TRUE(bits_equal(lane.min_v_per_cycle, ref.min_v_per_cycle))
        << label << ": min_v_per_cycle diverged";
    EXPECT_TRUE(bits_equal(lane.tick_voltage, ref.tick_voltage))
        << label << ": tick_voltage diverged";
    EXPECT_EQ(lane.tdc_readouts, ref.tdc_readouts)
        << label << ": tdc_readouts diverged";
    EXPECT_EQ(lane.strike_cycles, ref.strike_cycles)
        << label << ": strike_cycles diverged";
    EXPECT_TRUE(lane.strike_bits == ref.strike_bits)
        << label << ": strike_bits diverged";
}

class CosimLanesCampaign : public ::testing::TestWithParam<nn::Architecture> {};

TEST_P(CosimLanesCampaign, ReportBytesInvariantAcrossLanesThreadsAndTwin) {
    EngineKnobsGuard guard;
    const nn::Architecture arch = GetParam();
    const char* name = nn::architecture_name(arch);
    sim::Platform platform(platform_config(arch), untrained_network(arch));
    const data::Dataset test = data::make_datasets(9, 1, 20).test;

    // Reference: lane batching disabled, single-threaded — the pure
    // scalar per-point pipeline.
    sim::set_cosim_lane_width(0);
    const sim::CampaignReport base =
        sim::run_campaign(platform, test, tiny_config(1));
    EXPECT_TRUE(base.detector_fired);
    EXPECT_FALSE(base.points.empty());
    const std::string bytes = base.to_json().dump();

    sim::set_cosim_lane_width(8);
    EXPECT_EQ(bytes,
              sim::run_campaign(platform, test, tiny_config(1)).to_json().dump())
        << "lanes on/off diverged at threads=1 for " << name;
    EXPECT_EQ(bytes,
              sim::run_campaign(platform, test, tiny_config(8)).to_json().dump())
        << "lanes on/off diverged at threads=8 for " << name;

    // A width that never divides the group evenly: remainder groups and
    // single-lane scalar fallbacks all along the sweep.
    sim::set_cosim_lane_width(3);
    EXPECT_EQ(bytes,
              sim::run_campaign(platform, test, tiny_config(8)).to_json().dump())
        << "remainder lane groups diverged for " << name;

    // Portable scalar twin of every lane kernel (the DS_FORCE_SCALAR=1
    // configuration).
    sim::set_cosim_lane_width(8);
    simd::set_mode(simd::Mode::Scalar);
    EXPECT_EQ(bytes,
              sim::run_campaign(platform, test, tiny_config(8)).to_json().dump())
        << "scalar SIMD twin diverged for " << name;
}

INSTANTIATE_TEST_SUITE_P(AllZooVictims, CosimLanesCampaign,
                         ::testing::Values(nn::Architecture::LeNet5,
                                           nn::Architecture::MiniCnn,
                                           nn::Architecture::Mlp,
                                           nn::Architecture::Bnn),
                         [](const ::testing::TestParamInfo<nn::Architecture>& info) {
                             return std::string(nn::architecture_name(info.param));
                         });

/// Builds a strike schedule covering [first, last) fabric cycles (clamped
/// to the schedule length).
BitVec strike_window(std::size_t total_cycles, std::size_t first,
                     std::size_t last) {
    BitVec bits(total_cycles);
    for (std::size_t c = first; c < last && c < total_cycles; ++c) {
        bits.set(c, true);
    }
    return bits;
}

TEST(CosimLanesDirect, LaneResultsMatchScalarTickLoopBitwise) {
    EngineKnobsGuard guard;
    sim::Platform platform(platform_config(nn::Architecture::MiniCnn),
                           untrained_network(nn::Architecture::MiniCnn));
    const std::size_t total = platform.engine().schedule().total_cycles;
    ASSERT_GT(total, 400u);

    // Five deliberately unaligned schedules: an idle lane (never leaves the
    // fixed point), strikes that force compaction exit + re-entry mid-run,
    // a strike at cycle 0 (no settled state to reuse) and one against the
    // end of the schedule. Width 4 puts the first four in one SIMD group
    // and leaves the fifth as the single-lane scalar fallback.
    std::vector<BitVec> schedules;
    schedules.push_back(BitVec(total)); // idle
    schedules.push_back(strike_window(total, 50, 60));
    schedules.push_back(strike_window(total, total / 2, total / 2 + 200));
    schedules.push_back(strike_window(total, total - 30, total - 10));
    BitVec two_bursts = strike_window(total, 0, 10);
    for (std::size_t c = 300; c < 310; ++c) two_bursts.set(c, true);
    schedules.push_back(std::move(two_bursts));

    std::vector<sim::CosimResult> refs;
    for (const BitVec& bits : schedules) {
        sim::FixedSource src(bits);
        refs.push_back(platform.simulate_inference(src, /*record_tick_voltage=*/true));
    }

    auto run_lanes = [&] {
        std::vector<sim::FixedSource> sources;
        sources.reserve(schedules.size());
        for (const BitVec& bits : schedules) sources.emplace_back(bits);
        std::vector<sim::StrikeSource*> lanes;
        for (sim::FixedSource& src : sources) lanes.push_back(&src);
        return platform.simulate_inference_lanes(lanes, /*record_tick_voltage=*/true);
    };

    sim::set_cosim_lane_width(4);
    const std::vector<sim::CosimResult> lanes_auto = run_lanes();
    ASSERT_EQ(lanes_auto.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
        expect_cosim_identical(lanes_auto[i], refs[i],
                               "auto twin, lane " + std::to_string(i));
    }

    simd::set_mode(simd::Mode::Scalar);
    const std::vector<sim::CosimResult> lanes_scalar = run_lanes();
    ASSERT_EQ(lanes_scalar.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
        expect_cosim_identical(lanes_scalar[i], refs[i],
                               "scalar twin, lane " + std::to_string(i));
    }
}

TEST(CosimLanesKnob, WidthKnobClampsAndGates) {
    EngineKnobsGuard guard;
    sim::set_cosim_lane_width(0);
    EXPECT_FALSE(sim::cosim_lanes_enabled());
    sim::set_cosim_lane_width(1);
    EXPECT_FALSE(sim::cosim_lanes_enabled());
    sim::set_cosim_lane_width(2);
    EXPECT_TRUE(sim::cosim_lanes_enabled());
    EXPECT_EQ(sim::cosim_lane_width(), 2u);
    sim::set_cosim_lane_width(100000);
    EXPECT_EQ(sim::cosim_lane_width(), 64u); // clamped
}

} // namespace
} // namespace deepstrike
