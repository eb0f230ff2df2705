#include <gtest/gtest.h>

#include <vector>

#include "accel/dsp.hpp"
#include "accel/engine_detail.hpp"
#include "util/error.hpp"

namespace deepstrike::accel {
namespace {

pdn::DelayModel nominal_delay() { return pdn::DelayModel{}; }

DspSlice make_slice(std::uint64_t seed = 1, DspTimingParams params = {}) {
    Rng rng(seed);
    return DspSlice(0, params, rng);
}

TEST(Dsp, NoFaultAtNominalVoltage) {
    const DspSlice slice = make_slice();
    const pdn::DelayModel delay = nominal_delay();
    Rng rng(2);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_EQ(slice.evaluate(1.0, delay, rng), FaultKind::None);
    }
}

TEST(Dsp, AlwaysFaultsUnderDeepGlitch) {
    const DspSlice slice = make_slice();
    const pdn::DelayModel delay = nominal_delay();
    Rng rng(3);
    int faults = 0;
    for (int i = 0; i < 1000; ++i) {
        if (slice.evaluate(0.80, delay, rng) != FaultKind::None) ++faults;
    }
    EXPECT_EQ(faults, 1000);
}

TEST(Dsp, FaultRateMonotoneInDroop) {
    const DspSlice slice = make_slice();
    const pdn::DelayModel delay = nominal_delay();
    double prev_rate = -1.0;
    for (double v : {0.975, 0.960, 0.950, 0.940, 0.930, 0.915}) {
        Rng rng(4);
        int faults = 0;
        for (int i = 0; i < 4000; ++i) {
            if (slice.evaluate(v, delay, rng) != FaultKind::None) ++faults;
        }
        const double rate = faults / 4000.0;
        EXPECT_GE(rate, prev_rate - 0.02) << "at v=" << v;
        prev_rate = rate;
    }
    EXPECT_GT(prev_rate, 0.9);
}

TEST(Dsp, DuplicationAppearsBeforeRandom) {
    // At the shallow edge of the fault region, faults are (almost) all
    // duplications; deep in it they are (almost) all random.
    const DspSlice slice = make_slice();
    const pdn::DelayModel delay = nominal_delay();

    auto rates = [&](double v) {
        Rng rng(5);
        int dup = 0;
        int rnd = 0;
        for (int i = 0; i < 20000; ++i) {
            switch (slice.evaluate(v, delay, rng)) {
                case FaultKind::Duplication: ++dup; break;
                case FaultKind::Random: ++rnd; break;
                default: break;
            }
        }
        return std::pair<double, double>(dup / 20000.0, rnd / 20000.0);
    };

    const auto shallow = rates(0.955);
    EXPECT_GT(shallow.first, 0.0);
    EXPECT_GT(shallow.first, shallow.second * 2);

    const auto deep = rates(0.90);
    EXPECT_GT(deep.second, 0.9);
    EXPECT_LT(deep.first, 0.1);
}

TEST(Dsp, SafeVoltageIsActuallySafe) {
    const pdn::DelayModel delay = nominal_delay();
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const DspSlice slice = make_slice(seed);
        const double safe = slice.safe_voltage(delay);
        Rng rng(seed + 100);
        int faults = 0;
        for (int i = 0; i < 5000; ++i) {
            if (slice.evaluate(safe + 0.001, delay, rng) != FaultKind::None) ++faults;
        }
        EXPECT_EQ(faults, 0) << "seed " << seed;
    }
}

TEST(Dsp, SafeVoltageNotOverlyConservative) {
    // A bit below safe_voltage, faults must become possible (within 25 mV).
    const DspSlice slice = make_slice(1);
    const pdn::DelayModel delay = nominal_delay();
    const double safe = slice.safe_voltage(delay);
    Rng rng(6);
    int faults = 0;
    for (int i = 0; i < 20000; ++i) {
        if (slice.evaluate(safe - 0.025, delay, rng) != FaultKind::None) ++faults;
    }
    EXPECT_GT(faults, 0);
}

TEST(Dsp, PathScaleDeratesFaultRate) {
    const DspSlice slice = make_slice(1);
    const pdn::DelayModel delay = nominal_delay();
    const double v = 0.953;
    Rng rng_full(7);
    Rng rng_derated(7);
    int full = 0;
    int derated = 0;
    for (int i = 0; i < 20000; ++i) {
        if (slice.evaluate(v, delay, rng_full, 1.0) != FaultKind::None) ++full;
        if (slice.evaluate(v, delay, rng_derated, 0.99) != FaultKind::None) ++derated;
    }
    EXPECT_LT(derated, full);
}

TEST(Dsp, ProcessVariationBoundedByClamp) {
    const DspTimingParams params{};
    const double nominal = params.clock_period_s * params.nominal_path_fraction;
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const DspSlice slice = make_slice(seed);
        EXPECT_LT(std::abs(slice.path_delay_s() - nominal),
                  nominal * 3.1 * params.variation_sigma);
    }
}

TEST(Dsp, RelaxedLogicImmuneAtAttackDroops) {
    const DspSlice pool = make_slice(1, DspTimingParams::relaxed_logic());
    const pdn::DelayModel delay = nominal_delay();
    Rng rng(8);
    for (int i = 0; i < 2000; ++i) {
        EXPECT_EQ(pool.evaluate(0.92, delay, rng), FaultKind::None);
    }
}

TEST(Dsp, ComputePreAdderMultiply) {
    using fx::Q3_4;
    const fx::Acc r = DspSlice::compute(Q3_4::from_real(1.0), Q3_4::from_real(2.0),
                                        Q3_4::from_real(0.5));
    // (1.0 + 2.0) * 0.5 = 1.5 -> raw (16+32)*8 = 384 = 1.5 * 256.
    EXPECT_EQ(r, 384);
}

TEST(Dsp, RandomFaultValueWithinProductRange) {
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const fx::Acc v = DspSlice::random_fault_value(rng);
        EXPECT_GE(v, -(128 * 256));
        EXPECT_LT(v, 128 * 256);
    }
}

TEST(Dsp, InvalidTimingRejected) {
    Rng rng(10);
    DspTimingParams bad{};
    bad.nominal_path_fraction = 1.5;
    EXPECT_THROW(DspSlice(0, bad, rng), ContractError);
    bad = DspTimingParams{};
    bad.clock_period_s = 0.0;
    EXPECT_THROW(DspSlice(0, bad, rng), ContractError);
}

// The jitter floor only ever skips draws that cannot fault: over a million
// random (slice, factor, path_scale) cases — thresholds t from -1 to 6
// sigma, with an eighth of them within a few 1e-6 of 0 where the floor's
// margins bite, a quarter under TMR — the floor-based evaluation returns
// the fault kind of the floor-less one. Both streams run on continuously
// (a pending pair left by one case is consumed by the next, under another
// slice's floor), with random-fault payloads drawn in between as in the
// engine walk, and end on the same stream.
TEST(Dsp, JitterFloorNeverChangesAFaultKind) {
    Rng cases(91);
    std::vector<DspSlice> slices;
    for (std::uint32_t i = 0; i < 16; ++i) {
        DspTimingParams params;
        params.clock_period_s = i % 2 == 0 ? 5e-9 : 10e-9;
        params.nominal_path_fraction = cases.uniform(0.5, 0.95);
        params.op_jitter_sigma = cases.uniform(0.005, 0.03);
        params.duplication_band = cases.uniform(0.005, 0.03);
        slices.emplace_back(i, params, cases);
    }
    Rng with_floor(92);
    Rng without(92);
    std::size_t faults[3] = {0, 0, 0};
    std::size_t no_floor = 0;
    for (int i = 0; i < 1000000; ++i) {
        const DspSlice& slice = slices[static_cast<std::size_t>(cases.uniform_int(0, 15))];
        const double path_scale = cases.uniform(0.9, 1.0);
        const double t = cases.uniform_int(0, 7) == 0 ? cases.uniform(-2e-6, 3e-6)
                                                      : cases.uniform(-1.0, 6.0);
        const DspTimingParams& p = slice.params();
        const double factor =
            p.clock_period_s / (slice.path_delay_s() * path_scale * (1.0 + p.op_jitter_sigma * t));
        const bool tmr = cases.uniform_int(0, 3) == 0;
        const double floor = slice.jitter_floor(factor, path_scale);
        if (floor == Rng::kNoFloor) ++no_floor;
        const FaultKind got =
            detail::evaluate_op(slice, factor, floor, with_floor, path_scale, tmr);
        const FaultKind want =
            detail::evaluate_op(slice, factor, Rng::kNoFloor, without, path_scale, tmr);
        ASSERT_EQ(got, want) << "case " << i << " t=" << t << " tmr=" << tmr;
        ++faults[static_cast<int>(got)];
        if (got == FaultKind::Random) {
            ASSERT_EQ(DspSlice::random_fault_value(with_floor),
                      DspSlice::random_fault_value(without));
        }
    }
    EXPECT_TRUE(stream_equal(with_floor, without));
    EXPECT_EQ(with_floor.normal(), without.normal());
    EXPECT_EQ(with_floor.next(), without.next());
    // The property is not vacuous: draws were skipped, every kind occurred,
    // and some cases had no floor at all.
    EXPECT_GT(with_floor.skipped_deviates(), 500000u);
    EXPECT_GT(faults[static_cast<int>(FaultKind::Duplication)], 1000u);
    EXPECT_GT(faults[static_cast<int>(FaultKind::Random)], 1000u);
    EXPECT_GT(no_floor, 10000u);
}

TEST(Dsp, FaultKindNames) {
    EXPECT_STREQ(fault_kind_name(FaultKind::None), "none");
    EXPECT_STREQ(fault_kind_name(FaultKind::Duplication), "duplication");
    EXPECT_STREQ(fault_kind_name(FaultKind::Random), "random");
}

} // namespace
} // namespace deepstrike::accel
