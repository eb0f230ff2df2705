// Per-op fault semantics of the engine's interval-gated fault walk
// (engine.cpp). The per-op reference engine in tests/oracle evaluates the
// same ops through DspSlice::evaluate; the two must consume RNG draws
// identically — the byte-exact equivalence the overlay tests enforce
// hangs on these helpers agreeing with it.
#pragma once

#include <cstddef>
#include <vector>

#include "accel/dsp.hpp"

namespace deepstrike::accel::detail {

inline bool throttled(const std::vector<bool>* throttle, std::size_t cycle) {
    return throttle != nullptr && cycle < throttle->size() && (*throttle)[cycle];
}

/// Evaluates one op with the delay factor precomputed by the caller,
/// optionally with triple-modular-redundancy voting: under TMR an op only
/// faults when at least two of three independent evaluations fault, and
/// the surviving fault kind is the majority kind. All three evaluations
/// see the same capture voltage, hence the same factor.
inline FaultKind evaluate_op_with_factor(const DspSlice& slice, double factor,
                                         Rng& rng, double path_scale, bool tmr) {
    if (!tmr) return slice.evaluate_with_factor(factor, rng, path_scale);
    int dup = 0;
    int rnd = 0;
    for (int r = 0; r < 3; ++r) {
        switch (slice.evaluate_with_factor(factor, rng, path_scale)) {
            case FaultKind::Duplication: ++dup; break;
            case FaultKind::Random: ++rnd; break;
            case FaultKind::None: break;
        }
    }
    if (dup + rnd < 2) return FaultKind::None;
    return dup >= rnd ? FaultKind::Duplication : FaultKind::Random;
}

} // namespace deepstrike::accel::detail
