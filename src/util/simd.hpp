// Runtime SIMD dispatch seam shared by every vectorized hot path.
//
// One contract for all of them: an Auto mode that resolves to the AVX2
// twin when the CPU supports it, a Scalar mode forcing the portable twin,
// and DS_FORCE_SCALAR=1 in the environment selecting Scalar at startup.
// The quantized engine (quant::gemm), the co-sim lane engine
// (sim::CosimLanes), the grid PDN stencil and the striker current batch
// all dispatch on active() — one switch, every vectorized hot path.
//
// Both twins of every kernel behind this seam are required to be
// byte-identical. The co-sim kernels vectorize only vertical elementwise
// IEEE ops (add/sub/mul/div/min/max/compare), never horizontal reductions
// or fused multiply-adds; the integer GEMM is exact under any summation
// order. Flipping the mode can change speed but never a single result
// bit. Tests assert this on real workloads (tests/gemm_test,
// tests/cosim_lanes_test, tests/grid_pdn_test).
#pragma once

#include <cstdint>

namespace deepstrike::simd {

/// Auto: AVX2 twins when the CPU has them, scalar otherwise.
/// Scalar: portable twins everywhere (DS_FORCE_SCALAR=1 starts here).
enum class Mode : std::uint8_t { Auto, Scalar };

const char* mode_name(Mode mode);

/// Process-wide mode. Defaults to Auto; DS_FORCE_SCALAR=1 in the
/// environment sets Scalar at startup. set_mode() lets tests run both
/// twins in one process.
Mode mode();
void set_mode(Mode mode);

/// True when this CPU exposes AVX2 (cached cpuid probe).
bool cpu_has_avx2();

/// True when the AVX2 twins are selected right now (Auto mode on AVX2
/// hardware). Kernels branch on this once per batch, not per element.
bool active();

} // namespace deepstrike::simd
