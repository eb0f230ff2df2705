// Deterministic, fast pseudo-random number generation.
//
// Every stochastic element of the simulation (dataset synthesis, weight
// init, DSP slack spread, TDC measurement noise, random-fault payloads)
// draws from an explicitly seeded Xoshiro256** stream so that whole
// experiments replay bit-exactly. We deliberately do not use std::mt19937
// in hot loops: xoshiro is ~4x faster and its state is trivially copyable,
// which the co-simulator exploits for checkpointing.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>

namespace deepstrike {

/// SplitMix64 — used only to expand a single u64 seed into xoshiro state.
class SplitMix64 {
public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

private:
    std::uint64_t state_;
};

/// Derives an independent stream seed from a base seed and a path of
/// tags (sweep index, point index, image index, ...). Deterministic in
/// (base, tags) and order-sensitive, so derive_seed(s, a, b) and
/// derive_seed(s, b, a) are decorrelated. This is how sweeps assign
/// per-point / per-image RNG streams: the derivation depends only on the
/// logical coordinates of the work item, never on which thread runs it,
/// which keeps whole campaigns bit-identical at any thread count.
std::uint64_t derive_seed(std::uint64_t base,
                          std::initializer_list<std::uint64_t> tags);

template <typename... Tags>
std::uint64_t derive_seed(std::uint64_t base, Tags... tags) {
    return derive_seed(base, {static_cast<std::uint64_t>(tags)...});
}

/// Xoshiro256** by Blackman & Vigna. Satisfies UniformRandomBitGenerator.
class Rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the generator; identical seeds yield identical streams.
    explicit Rng(std::uint64_t seed = 0x9d2c5680dULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

    result_type operator()() { return next(); }

    // The draw primitives are defined inline: every stochastic hot loop
    // (per-op fault evaluation, TDC sampling) pays for them per event, and
    // the out-of-line call overhead is measurable there. Inlining cannot
    // change any drawn value — the integer ops are exact and the floating
    // expressions keep their evaluation order (no FMA contraction on the
    // baseline x86-64 target).
    std::uint64_t next() {
        const std::uint64_t result = rotl_(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl_(s_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1): 53 high bits of one draw.
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /// Standard normal via Box–Muller (cached second deviate).
    double normal() {
        double z = 0.0;
        normal_unless_below(kNoFloor, z);
        return z;
    }

    /// u1 floor that never skips: normal_unless_below() then always
    /// computes the deviate, exactly as normal() does.
    static constexpr double kNoFloor = std::numeric_limits<double>::infinity();

    /// Consumes the next standard normal deviate of the stream — the one
    /// normal() would return — and computes it only when it may exceed a
    /// caller threshold t > 0. The caller encodes t as a Box–Muller u1
    /// floor (with its own rounding margin), u1_floor >= exp(-t^2 / 2), and
    /// promises it only needs deviates above t. The deviate is then skipped
    /// without any transcendental call when either test proves it <= t:
    ///   - sign: the angle u2 puts it at or below 0 (< t);
    ///   - magnitude: u1 > u1_floor, so |z| <= sqrt(-2 ln u1) < t.
    /// Returns false on a skip (z untouched), else true with z bit-equal to
    /// normal()'s value. Either way the same xoshiro draws are consumed, so
    /// the stream — every later draw — is identical to calling normal().
    /// A skipped first deviate leaves its pair pending as the raw (u1, u2):
    /// the second deviate is computed later only if a caller needs it.
    /// kNoFloor (no threshold) disables both tests.
    bool normal_unless_below(double u1_floor, double& z) {
        // The tests combine with non-short-circuit & and |: one branch on
        // the outcome (mostly "skip") instead of a coin-flip branch per test.
        const bool may_skip = u1_floor < kNoFloor;
        switch (second_) {
            case Second::Value:
                second_ = Second::None;
                z = second_value_;
                return true;
            case Second::Pending:
                second_ = Second::None;
                // sin(2 pi u2) <= 0 for u2 in [0.5, 1); the 1e-9 margin
                // (angle margin ~6e-9) dwarfs the rounding of 2 pi u2 and
                // of sin near pi.
                if (may_skip & ((second_u2_ >= 0.5 + 1e-9) | (second_u1_ > u1_floor))) {
                    ++skipped_deviates_;
                    return false;
                }
                z = sin_deviate(second_u1_, second_u2_);
                return true;
            case Second::None:
                break;
        }
        // Box–Muller; u1 in (0,1] avoids log(0).
        double u1 = 0.0;
        do {
            u1 = uniform();
        } while (u1 == 0.0);
        const double u2 = uniform();
        // cos(2 pi u2) <= 0 for u2 in [0.25, 0.75], same margin as above.
        if (may_skip & (((u2 >= 0.25 + 1e-9) & (u2 <= 0.75 - 1e-9)) | (u1 > u1_floor))) {
            second_ = Second::Pending;
            second_u1_ = u1;
            second_u2_ = u2;
            ++skipped_deviates_;
            return false;
        }
        double s = 0.0, c = 0.0;
        const double mag = box_muller(u1, u2, s, c);
        second_ = Second::Value;
        second_value_ = mag * s;
        z = mag * c;
        return true;
    }

    /// Deviates normal_unless_below() has consumed without computing, over
    /// the life of this object (a diagnostic; not part of the stream).
    std::uint64_t skipped_deviates() const { return skipped_deviates_; }

    /// Normal with given mean / standard deviation.
    double normal(double mean, double stddev) { return mean + stddev * normal(); }

    /// Bernoulli trial with success probability p (clamped to [0,1]).
    bool bernoulli(double p) {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return uniform() < p;
    }

    /// Derives an independent child stream; deterministic in (this stream, tag).
    Rng fork(std::uint64_t tag);

    /// Raw state, for checkpoint/restore.
    std::array<std::uint64_t, 4> state() const { return s_; }
    void set_state(const std::array<std::uint64_t, 4>& s) { s_ = s; second_ = Second::None; }

    /// True when `a` and `b` will emit identical draw sequences from here
    /// on: same xoshiro state AND same outstanding second Box–Muller
    /// deviate (set_state() and state() alone cannot see it, so raw state
    /// equality is not stream equality). The deviate may be held computed
    /// or as a pending (u1, u2) pair; either form is compared by the value
    /// it yields, so a pending pair equals a computed cache of the same
    /// pair. The lane-batched TDC sampler uses this to prove two lanes'
    /// noise streams coincide before deduplicating a draw; values are
    /// compared by bit pattern so -0.0/0.0 and NaN cannot produce a false
    /// match.
    friend bool stream_equal(const Rng& a, const Rng& b) {
        const bool a_has = a.second_ != Second::None;
        if (a.s_ != b.s_ || a_has != (b.second_ != Second::None)) return false;
        if (!a_has) return true;
        const double va = a.second_deviate();
        const double vb = b.second_deviate();
        std::uint64_t ca = 0, cb = 0;
        __builtin_memcpy(&ca, &va, sizeof(ca));
        __builtin_memcpy(&cb, &vb, sizeof(cb));
        return ca == cb;
    }

private:
    static std::uint64_t rotl_(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }

    /// The Box–Muller magnitude sqrt(-2 ln u1), with sin/cos of 2 pi u2.
    /// Both deviates of a pair come from this one expression, so a pending
    /// pair materialized later is bit-identical to one computed at once.
    static double box_muller(double u1, double u2, double& s, double& c) {
        const double mag = std::sqrt(-2.0 * std::log(u1));
        const double ang = 2.0 * M_PI * u2;
#if defined(__GNUC__) && defined(__GLIBC__)
        // glibc's sincos() shares the argument reduction and polynomial
        // kernels of the separate sin()/cos() calls, so the pair is
        // bit-identical to the two-call form while costing one call.
        __builtin_sincos(ang, &s, &c);
#else
        s = std::sin(ang);
        c = std::cos(ang);
#endif
        return mag;
    }

    static double sin_deviate(double u1, double u2) {
        double s = 0.0, c = 0.0;
        const double mag = box_muller(u1, u2, s, c);
        return mag * s;
    }

    /// Value of the outstanding second deviate (requires one).
    double second_deviate() const {
        return second_ == Second::Value ? second_value_
                                        : sin_deviate(second_u1_, second_u2_);
    }

    /// The second deviate of the current Box–Muller pair: none outstanding,
    /// computed (second_value_), or pending as its raw (u1, u2).
    enum class Second : std::uint8_t { None, Value, Pending };

    std::array<std::uint64_t, 4> s_{};
    double second_value_ = 0.0;
    double second_u1_ = 0.0;
    double second_u2_ = 0.0;
    Second second_ = Second::None;
    std::uint64_t skipped_deviates_ = 0;
};

} // namespace deepstrike
