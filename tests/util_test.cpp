#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "util/bitvec.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace deepstrike {
namespace {

// ------------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameStream) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next()) ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf) {
    Rng rng(11);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
    EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
    Rng rng(13);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::int64_t v = rng.uniform_int(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleValue) {
    Rng rng(17);
    EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntContractViolation) {
    Rng rng(19);
    EXPECT_THROW(rng.uniform_int(3, 2), ContractError);
}

TEST(Rng, NormalMoments) {
    Rng rng(23);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i) stats.add(rng.normal(2.0, 3.0));
    EXPECT_NEAR(stats.mean(), 2.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, BernoulliExtremes) {
    Rng rng(29);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliRate) {
    Rng rng(31);
    int hits = 0;
    for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ForkDecorrelates) {
    Rng parent(37);
    Rng childA = parent.fork(1);
    Rng childB = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (childA.next() == childB.next()) ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, StateRoundTrip) {
    Rng rng(41);
    rng.next();
    const auto snapshot = rng.state();
    const auto expected = rng.next();
    Rng restored(0);
    restored.set_state(snapshot);
    EXPECT_EQ(restored.next(), expected);
}

/// Bit pattern of a double, so -0.0/0.0 and NaN compare exactly.
std::uint64_t bits(double x) {
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof(b));
    return b;
}

// A stream driven through normal_unless_below() with arbitrary floors —
// randomly interleaved with normal(), uniform_int() (the random-fault
// payload) and set_state() — consumes exactly the draws of a twin driven
// through normal() alone. Every computed deviate is bit-equal to the
// twin's, every skipped one lies at or below the threshold its floor
// encodes, and the two streams stay stream_equal throughout.
TEST(Rng, SkippedDeviatesKeepTheStream) {
    Rng driver(71);
    Rng skipping(72);
    Rng plain(72);
    std::uint64_t skips = 0;
    for (int step = 0; step < 200000; ++step) {
        const std::int64_t action = driver.uniform_int(0, 19);
        if (action < 14) {
            // Threshold t spans "always faults" (no floor) to far tails.
            const bool no_floor = action == 0;
            const double t = driver.uniform(-1.0, 6.0);
            const double floor = no_floor || t <= 0.0
                                     ? Rng::kNoFloor
                                     : std::exp(-0.5 * t * t) * (1.0 + 1e-9);
            double z = 0.0;
            const bool computed = skipping.normal_unless_below(floor, z);
            const double expected = plain.normal();
            if (computed) {
                ASSERT_EQ(bits(z), bits(expected)) << "step " << step;
            } else {
                ++skips;
                ASSERT_LT(floor, Rng::kNoFloor) << "skipped without a floor";
                ASSERT_LE(expected, t) << "step " << step;
            }
        } else if (action < 17) {
            ASSERT_EQ(bits(skipping.normal()), bits(plain.normal())) << "step " << step;
        } else if (action < 19) {
            ASSERT_EQ(skipping.uniform_int(-32768, 32767), plain.uniform_int(-32768, 32767));
        } else {
            const auto state = driver.state();
            skipping.set_state(state);
            plain.set_state(state);
        }
        ASSERT_TRUE(stream_equal(skipping, plain)) << "step " << step;
    }
    EXPECT_EQ(skipping.skipped_deviates(), skips);
    EXPECT_GT(skips, 50000u);
    EXPECT_EQ(plain.skipped_deviates(), 0u);
    EXPECT_EQ(skipping.next(), plain.next());
}

TEST(Rng, StreamEqualComparesAPendingPairByItsValue) {
    // A floor of 0 encodes an infinite threshold: every deviate skips, so
    // the first call leaves its second deviate pending as a raw pair.
    const Rng start(81);
    Rng pending = start;
    double z = 0.0;
    ASSERT_FALSE(pending.normal_unless_below(0.0, z));
    Rng computed = start;
    computed.normal(); // caches the same pair's second deviate, computed
    EXPECT_TRUE(stream_equal(pending, computed));
    EXPECT_TRUE(stream_equal(computed, pending));

    // Same xoshiro state, different pending pair: one stream skips the
    // pair's first two draws, the other draws one word first and skips the
    // next pair, then the first catches up with one raw draw.
    Rng shifted = start;
    shifted.next();
    ASSERT_FALSE(shifted.normal_unless_below(0.0, z));
    Rng late = pending;
    late.next();
    ASSERT_EQ(late.state(), shifted.state());
    EXPECT_FALSE(stream_equal(late, shifted));

    // Materialized, the pending deviate is the cached one, bit for bit.
    EXPECT_EQ(bits(pending.normal()), bits(computed.normal()));
    EXPECT_TRUE(stream_equal(pending, computed));

    // set_state drops a pending pair like a computed cache.
    Rng cleared = start;
    ASSERT_FALSE(cleared.normal_unless_below(0.0, z));
    cleared.set_state(start.state());
    Rng fresh = start;
    EXPECT_TRUE(stream_equal(cleared, fresh));
    EXPECT_EQ(bits(cleared.normal()), bits(fresh.normal()));
}

// ---------------------------------------------------------- RunningStats

TEST(RunningStats, Empty) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
    Rng rng(43);
    RunningStats all;
    RunningStats left;
    RunningStats right;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(1.0, 2.0);
        all.add(x);
        (i < 400 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmpty) {
    RunningStats a;
    a.add(1.0);
    RunningStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

// -------------------------------------------------------------- Histogram

TEST(Histogram, BinningAndClamping) {
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);   // bin 0
    h.add(9.5);   // bin 9
    h.add(-5.0);  // clamps to bin 0
    h.add(50.0);  // clamps to bin 9
    EXPECT_EQ(h.bin_count(0), 2u);
    EXPECT_EQ(h.bin_count(9), 2u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, Quantile) {
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i) h.add(i + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
}

TEST(Histogram, InvalidConfig) {
    EXPECT_THROW(Histogram(1.0, 1.0, 10), ContractError);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), ContractError);
}

TEST(IndexCounter, CountsAndArgmax) {
    IndexCounter c;
    c.add(3);
    c.add(3);
    c.add(1);
    EXPECT_EQ(c.count(3), 2u);
    EXPECT_EQ(c.count(1), 1u);
    EXPECT_EQ(c.count(99), 0u);
    EXPECT_EQ(c.argmax(), 3u);
    EXPECT_EQ(c.total(), 3u);
}

// ----------------------------------------------------------------- BitVec

TEST(BitVec, BasicSetGet) {
    BitVec v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_EQ(v.popcount(), 0u);
    v.set(0, true);
    v.set(64, true);
    v.set(129, true);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(129));
    EXPECT_FALSE(v.get(1));
    EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVec, OutOfRangeThrows) {
    BitVec v(8);
    EXPECT_THROW(v.get(8), ContractError);
    EXPECT_THROW(v.set(8, true), ContractError);
}

TEST(BitVec, FromStringRoundTrip) {
    const std::string bits = "1010011100101";
    BitVec v = BitVec::from_string(bits);
    EXPECT_EQ(v.to_string(), bits);
    EXPECT_EQ(v.popcount(), 7u);
}

TEST(BitVec, FromStringRejectsGarbage) {
    EXPECT_THROW(BitVec::from_string("10x1"), FormatError);
}

TEST(BitVec, LongestOneRun) {
    EXPECT_EQ(BitVec::from_string("0110111101").longest_one_run(), 4u);
    EXPECT_EQ(BitVec::from_string("0000").longest_one_run(), 0u);
    EXPECT_EQ(BitVec::from_string("1111").longest_one_run(), 4u);
}

TEST(BitVec, FindFirstOne) {
    EXPECT_EQ(BitVec::from_string("0001").find_first_one(), 3u);
    EXPECT_EQ(BitVec::from_string("0000").find_first_one(), 4u);
    BitVec v(200);
    v.set(150, true);
    EXPECT_EQ(v.find_first_one(), 150u);
}

TEST(BitVec, PushBackAndAppend) {
    BitVec v;
    for (int i = 0; i < 70; ++i) v.push_back(i % 3 == 0);
    EXPECT_EQ(v.size(), 70u);
    EXPECT_EQ(v.popcount(), 24u);
    BitVec w = BitVec::from_string("11");
    v.append(w);
    EXPECT_EQ(v.size(), 72u);
    EXPECT_TRUE(v.get(70));
    EXPECT_TRUE(v.get(71));
}

TEST(BitVec, ResizeClearsNewBits) {
    BitVec v = BitVec::from_string("1111");
    v.resize(8);
    EXPECT_EQ(v.popcount(), 4u);
    for (std::size_t i = 4; i < 8; ++i) EXPECT_FALSE(v.get(i));
}

class BitVecPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitVecPropertyTest, PopcountMatchesNaive) {
    Rng rng(GetParam());
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 500));
    BitVec v(n);
    std::size_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const bool bit = rng.bernoulli(0.5);
        v.set(i, bit);
        expected += bit;
    }
    EXPECT_EQ(v.popcount(), expected);
    EXPECT_EQ(BitVec::from_string(v.to_string()), v);
}

INSTANTIATE_TEST_SUITE_P(RandomVectors, BitVecPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 24));

// --------------------------------------------------------------------- CSV

TEST(Csv, EscapingRules) {
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, InMemoryRows) {
    CsvWriter csv;
    csv.row("name", "value");
    csv.row("x", 1.5);
    csv.row("with,comma", 2);
    EXPECT_EQ(csv.str(), "name,value\nx,1.5\n\"with,comma\",2\n");
}

TEST(Csv, BadPathThrows) {
    EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"), IoError);
}

} // namespace
} // namespace deepstrike
