#include "core/mnsa_d.h"

// MNSA/D delegates to RunMnsa/RunMnsaWorkload and therefore inherits its
// epsilon / 1-epsilon twin probes and plan-cost memoization. Drop
// detection adds no optimizer calls, and the degradation story is MNSA's:
// failed builds are vetoed, failed probes stop the sweep, and the failure
// counters of MnsaResult flow through unchanged.

namespace autostats {

MnsaResult RunMnsaD(const Optimizer& optimizer, StatsCatalog* catalog,
                    const Query& query, const MnsaConfig& config) {
  MnsaConfig with_drop = config;
  with_drop.drop_detection = true;
  return RunMnsa(optimizer, catalog, query, with_drop);
}

MnsaResult RunMnsaDWorkload(const Optimizer& optimizer, StatsCatalog* catalog,
                            const Workload& workload,
                            const MnsaConfig& config) {
  MnsaConfig with_drop = config;
  with_drop.drop_detection = true;
  return RunMnsaWorkload(optimizer, catalog, workload, with_drop);
}

}  // namespace autostats
