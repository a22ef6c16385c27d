// The quantized backend's view of the shared arch dispatch (util/arch.hpp,
// DESIGN.md §17).  The kernel TUs (kernels_{scalar,avx2,avx512}.cpp) are
// compiled once per arch with their own -m flags, like the f32 kernels in
// lm/; both tables follow the one process-wide util::dispatched_arch(), so
// LMPEEL_FORCE_ARCH pins the quantized and the f32 lane width together.
#pragma once

#include "util/arch.hpp"

namespace lmpeel::quant {

using util::Arch;
using util::arch_name;
using util::arch_supported;
using util::best_supported_arch;

/// util::dispatched_arch(), publishing the `quant.dispatch_arch` gauge on
/// every call (the metrics registry is reset between bench cells, and the
/// gauge is how quant-check/serve-bench report the lane).
Arch dispatched_arch();

}  // namespace lmpeel::quant
