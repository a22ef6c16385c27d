#include "quant/arch.hpp"

#include "obs/metrics.hpp"

namespace lmpeel::quant {

Arch dispatched_arch() {
  const Arch arch = util::dispatched_arch();
  obs::Registry::global()
      .gauge("quant.dispatch_arch")
      .set(static_cast<double>(static_cast<int>(arch)));
  return arch;
}

}  // namespace lmpeel::quant
