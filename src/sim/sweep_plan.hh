/**
 * @file
 * Declarative sweep description: the one value type that configures
 * an ExperimentDriver run.
 *
 * A SweepPlan is the driver's only configuration surface:
 * workloads x engine columns, records/seed/warmup, and the execution
 * policy, as plain data. Unlike a mutated driver, a plan can be
 * serialized, diffed, digested and handed to a remote worker: the
 * distributed sweep service (net/coord.hh, net/worker.hh) ships the
 * canonical JSON form over the wire (PlanMsg::planJson), and
 * `--plan-out` dumps the same form for any bench invocation.
 *
 * The one codec is canonical JSON (sweepPlanJson /
 * parseSweepPlanJson): key-sorted, mini_json conventions (`%.17g`
 * doubles, exact u64 integers), schema-tagged "stems-sweep-plan-v4".
 * Every field is always emitted (unset optional engine knobs as
 * `null`), so two plans are equal iff their JSON bytes are equal.
 * The parser is reject-never-misdecode: it refuses unknown fields,
 * duplicate keys, malformed numbers and values that do not fit
 * their field instead of guessing.
 *
 * The plan's identity in the store's key vocabulary is
 * sweepPlanDigest() (store/keys.hh): a digest of the canonical JSON,
 * which coordinator and worker compare before executing anything.
 *
 * Deliberately NOT in the plan: the SystemConfig (every harness runs
 * the paper's Table 1 system; describeSystem() already keys stored
 * artifacts) and probes (opaque code — probe sweeps construct
 * EngineSpecs directly and pass them to run(plan, specs)).
 */

#ifndef STEMS_SIM_SWEEP_PLAN_HH
#define STEMS_SIM_SWEEP_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "prefetch/engine_registry.hh"
#include "sim/config.hh"

namespace stems {

/// Canonical JSON schema tag (also the digest domain prefix).
/// v2 removed two execution-policy fields (`segments` among them),
/// v3 removed `batch`, v4 removed the distributed work-unit
/// granularity (a unit is always one workload); an older document is
/// refused, never read with its retired keys ignored.
inline constexpr const char *kSweepPlanSchema = "stems-sweep-plan-v4";

/**
 * One engine column of a plan: a registered engine name, the label
 * results report it under (empty = the name), and the per-cell
 * parameter overrides. The serializable subset of EngineSpec.
 */
struct PlanEngine
{
    std::string engine;
    std::string label;
    EngineOptions options;
};

/** A complete, serializable sweep description. */
struct SweepPlan
{
    /// Registered workload names, in merge order.
    std::vector<std::string> workloads;
    /// Engine columns, in merge order.
    std::vector<PlanEngine> engines;

    /// Records generated per workload trace.
    std::uint64_t records = 2'000'000;
    /// Trace-generation seed.
    std::uint64_t seed = 42;
    /// Leading warmup fraction (ignored when warmupRecords is set).
    double warmupFraction = 0.5;
    /// Absolute warmup override (0 = use the fraction).
    std::uint64_t warmupRecords = 0;
    /// Model timing (Figure 10) or run functional-only (Figure 9).
    bool timing = false;

    // Execution policy. Every knob below is pure strategy: results
    // are bitwise identical for any setting (the driver tests pin
    // this), so none of them joins any cache key.
    /// Worker threads (0 = hardware concurrency).
    unsigned jobs = 0;
    /// Checkpoint a cell every this many records, plus at the trace
    /// end (0 = off). Absolute, so a run extended to more records
    /// finds a shorter run's checkpoints.
    std::uint64_t checkpointEvery = 0;
    /// Progress-heartbeat interval in seconds (0 = off).
    double heartbeatSeconds = 0.0;
};

/**
 * Canonical key-sorted JSON form (trailing newline included). Equal
 * plans produce equal bytes; parseSweepPlanJson(sweepPlanJson(p))
 * re-emits the identical bytes (sweep_plan_test.cc pins this).
 */
std::string sweepPlanJson(const SweepPlan &plan);

/**
 * Parse the canonical JSON form. Strict: the schema tag must match,
 * unknown, duplicated or type-mismatched fields at any level (plan,
 * engine, options) are rejected, as are integers too large for
 * their field, and trailing garbage is an error.
 *
 * @param error  optional; receives a one-line reason on failure.
 * @return false (plan unspecified) on any error.
 */
bool parseSweepPlanJson(const std::string &text, SweepPlan &plan,
                        std::string *error = nullptr);

/**
 * The ExperimentConfig a plan describes: Table 1 system plus the
 * plan's trace and warmup knobs.
 */
ExperimentConfig planExperimentConfig(const SweepPlan &plan);

} // namespace stems

#endif // STEMS_SIM_SWEEP_PLAN_HH
