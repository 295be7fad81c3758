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
 *  - kSegment:  one unit = one checkpoint-delimited slice
 *               [segBegin, segEnd) of a cell, cut on the shared
 *               boundary schedule (sim/checkpoint.hh
 *               checkpointBounds) so unit endpoints land exactly on
 *               the indices the driver checkpoints at.
 *
 * Segment decomposition runs a *seeding pass*: the decomposer
 * materializes each workload's trace into the store (generators may
 * overshoot the requested record count, so the true trace length —
 * and with it the boundary schedule — is only known from the trace
 * itself), and probes the store for trusted boundary checkpoints.
 * An interior segment depends on its predecessor unless a stored
 * checkpoint at its start index is *trusted* — present under
 * exactly the on-key state digest (trace-prefix content + warmup
 * boundary, store/keys.hh) for every lane of the cell. Untrusted or
 * stale entries never unblock a segment: a cross-seed store costs
 * scheduling freedom (time), never correctness.
 *
 * Unit order is deterministic (workload-major, baseline column
 * first, segments ascending), and the coordinator assigns
 * lowest-pending-first, so the numbering is stable across runs of
 * the same plan against the same store state.
 */

#ifndef STEMS_NET_UNITS_HH
#define STEMS_NET_UNITS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep_plan.hh"

namespace stems {

class TraceStore;

/** Work-unit kind; the wire encoding of UnitGranularity per unit
 *  (a plan's decomposition may mix kinds: an unregistered workload
 *  stays a whole-workload unit at any granularity). */
enum class UnitKind : std::uint8_t
{
    kWorkload = 0,
    kCell = 1,
    kSegment = 2,
};

/** One schedulable unit of a sweep. */
struct WorkUnit
{
    UnitKind kind = UnitKind::kWorkload;
    std::string workload;
    /// Engine column for kCell/kSegment: -1 = the baseline column
    /// (no-prefetch lane, plus stride under timing), >= 0 indexes
    /// the plan's engine list.
    std::int32_t column = -1;
    std::uint64_t segBegin = 0; ///< kSegment: first record index
    std::uint64_t segEnd = 0;   ///< kSegment: one past the last
    /// kSegment: segEnd is the trace end — executing this unit
    /// computes and persists the cell's results.
    bool finalSegment = false;
    /// Index (into the decomposition) of the unit that must complete
    /// first, or -1. Segment chains: each interior segment depends
    /// on its predecessor until a trusted checkpoint at segBegin
    /// exists in the store.
    std::int64_t dependsOn = -1;
};

/**
 * Decompose a plan into work units at plan.unitGranularity.
 *
 * Segment granularity requires a usable store (the seeding pass
 * writes traces into it); without one this fails with *error set.
 * When the plan's checkpoint policy is off (checkpointEvery == 0)
 * the schedule is the trace end alone, and segment granularity
 * decomposes each cell as its single final segment.
 *
 * @return the units, in deterministic schedule order; empty with
 *         *error set on failure (an empty plan yields empty units
 *         and no error).
 */
std::vector<WorkUnit>
decomposeSweepPlan(const SweepPlan &plan, TraceStore *store,
                   std::string *error = nullptr);

/**
 * The newest store-committed checkpoint index usable by `unit` —
 * trusted under the unit's lane specs, at or below the unit's end
 * (segment units) or the trace end (cell units); 0 when none or not
 * determinable. This is what a reconnecting worker reports in
 * ResumeMsg::lastCheckpointIndex.
 */
std::uint64_t unitLastCheckpointIndex(const SweepPlan &plan,
                                      const WorkUnit &unit,
                                      TraceStore &store);

} // namespace stems

#endif // STEMS_NET_UNITS_HH
