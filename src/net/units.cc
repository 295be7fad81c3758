#include "net/units.hh"

#include "workloads/registry.hh"

namespace stems {

std::vector<WorkUnit>
decomposeSweepPlan(const SweepPlan &plan)
{
    std::vector<WorkUnit> units;
    const WorkloadRegistry &registry = WorkloadRegistry::instance();
    for (const std::string &name : plan.workloads) {
        if (plan.unitGranularity == UnitGranularity::kWorkload ||
            !registry.contains(name)) {
            // run() skips unknown workload names; keeping them as
            // whole-workload units keeps the distributed run's
            // behaviour identical to the local one.
            units.push_back({UnitGranularity::kWorkload, name, -1});
            continue;
        }
        for (std::int32_t c = -1;
             c < static_cast<std::int32_t>(plan.engines.size()); ++c)
            units.push_back({UnitGranularity::kCell, name, c});
    }
    return units;
}

} // namespace stems
