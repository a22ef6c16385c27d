// AVX2 copy of the f32 kernels (8 float lanes).  Compiled with -mavx2
// -mf16c (src/CMakeLists.txt); falls back to the baseline table when the
// toolchain lacks those flags.
#include "lm/f32_kernels.hpp"

#if defined(__AVX2__)

#include "lm/f32_kernels_impl.hpp"

namespace lmpeel::lm::detail {

const F32Kernels& avx2_f32_kernels() {
  return F32Impl<util::Arch::kAvx2>::table();
}

}  // namespace lmpeel::lm::detail

#else

namespace lmpeel::lm::detail {

const F32Kernels& avx2_f32_kernels() { return scalar_f32_kernels(); }

}  // namespace lmpeel::lm::detail

#endif
