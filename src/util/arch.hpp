// Runtime CPU-arch dispatch shared by every SIMD kernel table (DESIGN.md
// §17): the f32 kernels in lm/ and the quantized kernels in quant/.
//
// Kernel sources are compiled once per arch, each TU with its own -m flags
// (src/CMakeLists.txt); nothing else in the build gets -m flags, so the
// binary runs on any x86-64 CPU.  This header picks which copy a process
// uses.  The choice is made once per process from CPUID
// (`__builtin_cpu_supports`), overridable with
// LMPEEL_FORCE_ARCH=scalar|avx2|avx512 so the scalar copies stay
// test-covered on wide machines and perf runs can pin a lane width.
#pragma once

namespace lmpeel::util {

enum class Arch { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// "scalar" / "avx2" / "avx512" — bench-row and report labels.
const char* arch_name(Arch arch);

/// True when `arch` was both compiled in (the toolchain accepted its -m
/// flags) and the running CPU reports the needed features (AVX2 also needs
/// F16C for the fp16 kernels; AVX-512 needs F+BW+VL+DQ).
bool arch_supported(Arch arch);

/// Widest supported arch on this machine (kScalar is always supported).
Arch best_supported_arch();

/// The process-wide dispatched arch: best_supported_arch() unless
/// LMPEEL_FORCE_ARCH overrides it.  Decided once on first call (the env
/// var is read exactly once); forcing an unsupported or unknown arch
/// CHECK-fails rather than silently running a different lane width.
Arch dispatched_arch();

}  // namespace lmpeel::util
