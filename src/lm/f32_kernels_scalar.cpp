// Baseline copy of the f32 kernels: this TU gets no -m flags, so it runs
// on every x86-64 CPU (4-lane SSE2 vectors; generic vectors elsewhere).
// The dispatch functions live here too, so the one dispatch point is
// baseline code.
#include "lm/f32_kernels_impl.hpp"

#include "util/check.hpp"

namespace lmpeel::lm {

namespace detail {

const F32Kernels& scalar_f32_kernels() {
  return F32Impl<util::Arch::kScalar>::table();
}

}  // namespace detail

const F32Kernels& f32_kernels(util::Arch arch) {
  LMPEEL_CHECK_MSG(util::arch_supported(arch),
                   "f32 kernels requested for an unsupported arch");
  switch (arch) {
    case util::Arch::kAvx512:
      return detail::avx512_f32_kernels();
    case util::Arch::kAvx2:
      return detail::avx2_f32_kernels();
    case util::Arch::kScalar:
      break;
  }
  return detail::scalar_f32_kernels();
}

const F32Kernels& f32_kernels() {
  static const F32Kernels& kernels = f32_kernels(util::dispatched_arch());
  return kernels;
}

}  // namespace lmpeel::lm
