/**
 * @file
 * Distributed work units: the decomposition of a SweepPlan into the
 * units the sweep service schedules (net/coord.hh) and executes
 * (net/worker.hh), at the granularity the plan asks for:
 *
 *  - kWorkload: one unit = one workload row (every cell of it).
 *  - kCell:     one unit = one (workload, engine-column) cell. The
 *               baseline column (column == -1) covers the
 *               no-prefetch lane and, under timing, the stride
 *               reference lane.
 *
 * A unit lost with its worker is requeued and run again from the
 * top; whoever runs it resumes each lane from the newest trusted
 * checkpoint in the shared store (sim/driver.hh), so a checkpointed
 * cell loses at most one checkpoint interval of work.
 *
 * Unit order is deterministic (workload-major, baseline column
 * first), and the coordinator assigns lowest-pending-first, so the
 * numbering is stable across runs of the same plan.
 */

#ifndef STEMS_NET_UNITS_HH
#define STEMS_NET_UNITS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep_plan.hh"

namespace stems {

/** One schedulable unit of a sweep. */
struct WorkUnit
{
    /// Per unit, not per plan: an unregistered workload stays a
    /// whole-workload unit at any granularity.
    UnitGranularity kind = UnitGranularity::kWorkload;
    std::string workload;
    /// Engine column for kCell: -1 = the baseline column
    /// (no-prefetch lane, plus stride under timing), >= 0 indexes
    /// the plan's engine list.
    std::int32_t column = -1;
};

/**
 * Decompose a plan into work units at plan.unitGranularity.
 * @return the units, in deterministic schedule order.
 */
std::vector<WorkUnit> decomposeSweepPlan(const SweepPlan &plan);

} // namespace stems

#endif // STEMS_NET_UNITS_HH
