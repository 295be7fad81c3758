/**
 * @file
 * Parallel experiment driver: runs the (workload x lane) cells of a
 * sweep on a lane scheduler.
 *
 * Every call takes the SweepPlan it runs: workloads, trace knobs
 * (records, seed, warmup, timing) and execution policy (jobs,
 * checkpoint interval, heartbeat) all come from the plan, on the
 * paper's Table 1 system, so no call inherits another's settings.
 * The driver keeps only the attached store between calls.
 *
 * A workload's lane list is the prefetch-free baseline, under timing
 * the stride reference, then one lane per engine column. The two
 * reference lanes normalize the engine lanes (coverage by the
 * baseline, Figure 9; speedup by stride, Figure 10), and are
 * otherwise cells like any other. Compared with the serial
 * ExperimentRunner, the driver
 *  - generates each workload's trace exactly once, and runs every
 *    lane that must be simulated over that one copy as a lane of a
 *    BatchSimulator,
 *  - schedules lanes, not workloads: on up to `jobs` threads, a free
 *    thread advances the runnable lane with the lowest next record
 *    index by one 64Ki-record chunk, and materializes the next
 *    workload only when no lane is runnable, so the lanes of one
 *    trace spread over the threads and slow lanes are picked first,
 *  - releases each trace with its last lane, so at most `jobs`
 *    traces are live, and
 *  - when a persistent TraceStore is attached (setStore), consults it
 *    before generating any trace or simulating any lane (each lane's
 *    result is keyed by trace content digest + lane spec digest +
 *    config digest), and fills it afterwards — so a fully warm-store
 *    re-run of a sweep performs zero workload generations and zero
 *    cell simulations, with bitwise-identical results.
 *
 * Diagnostics go only to the process-wide metrics registry
 * (driver.trace.generated, driver.cell.simulated, driver.cell.resumed,
 * ckpt.resume.skipped_records, ckpt.written).
 *
 * Determinism: every cell (one PrefetchSimulator over one trace) is
 * independent and seeded only by the trace, and results are merged in
 * the fixed (workload order, engine order) the plan supplied — so a
 * sweep is bitwise identical for any thread count, and identical to a
 * serial ExperimentRunner reference run (driver_test.cc pins both
 * properties).
 */

#ifndef STEMS_SIM_DRIVER_HH
#define STEMS_SIM_DRIVER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/sweep_plan.hh"

namespace stems {

class TraceStore;

/**
 * One engine column of a sweep: a registered engine name plus the
 * per-cell parameter overrides (the knobs the ablation benches
 * sweep) and an optional post-run probe.
 */
struct EngineSpec
{
    EngineSpec() = default;
    EngineSpec(std::string engine_name) // NOLINT: implicit by design
        : engine(std::move(engine_name))
    {
    }
    EngineSpec(std::string engine_name, std::string result_label,
               EngineOptions opts = {})
        : engine(std::move(engine_name)),
          label(std::move(result_label)), options(std::move(opts))
    {
    }

    /// Registered engine name (EngineRegistry).
    std::string engine;
    /// Label reported in EngineResult::engine; defaults to `engine`.
    std::string label;
    /// Parameter overrides applied on top of the SystemConfig. The
    /// driver sets `options.scientific` from the workload class
    /// before instantiation.
    EngineOptions options;
    /// Optional post-run inspection hook, invoked on the worker
    /// thread right after the cell's simulation finishes; stash
    /// engine-specific metrics into EngineResult::extra. Must not
    /// touch shared state.
    std::function<void(const Prefetcher &, EngineResult &)> probe;
    /// Stable identity of `probe` for the persistent engine-result
    /// cache. A probe is opaque code, so a spec that sets one is
    /// only result-cacheable when it also names it here (bump the
    /// id when the probe's meaning changes). Specs without a probe
    /// are always cacheable.
    std::string probeId;

    /** The label reported in results. */
    const std::string &resultLabel() const
    {
        return label.empty() ? engine : label;
    }
};

/** Convenience: plain engine names -> specs with default options. */
std::vector<EngineSpec>
engineSpecs(const std::vector<std::string> &names);

/** The engine columns a plan describes, as runnable specs. */
std::vector<EngineSpec> planEngineSpecs(const SweepPlan &plan);

/**
 * The parallel sweep driver. Nothing carries across calls but the
 * attached store: a call re-simulates whatever earlier calls (of any
 * process) did not persist.
 */
class ExperimentDriver
{
  public:
    /**
     * THE entry point: execute a declarative SweepPlan — workloads x
     * engines under the plan's trace, warmup and execution-policy
     * knobs — and return results merged in the plan's (workload,
     * engine) order; bitwise identical for any jobs/checkpoint
     * policy. Unknown workload or engine names get no row/column.
     */
    std::vector<WorkloadResult> run(const SweepPlan &plan);

    /**
     * Plan-driven sweep with caller-built engine columns: for probe
     * and ablation sweeps whose EngineSpecs carry state a plan
     * cannot serialize (probes). The plan still supplies workloads,
     * config and execution policy; `engines` replaces the plan's
     * engine list.
     */
    std::vector<WorkloadResult>
    run(const SweepPlan &plan,
        const std::vector<EngineSpec> &engines);

    /** Run one externally-owned workload (e.g. a custom subclass not
     *  in the registry) under the plan's records, seed, warmup,
     *  timing and policy; the plan's workload list is not read. Its
     *  lanes still run in parallel. The store's name-keyed trace
     *  replay is bypassed: an external instance's behaviour is not
     *  determined by its name, so name-keyed caching could
     *  cross-contaminate differently-parameterized instances.
     *
     *  When the caller *can* vouch for the trace's identity — a
     *  FixedTraceWorkload replaying a captured trace — pass its
     *  content digest (traceDigest()) and an attached store will
     *  cache every lane's result under it, exactly as for
     *  store-replayed registry traces. */
    WorkloadResult
    runWorkload(const SweepPlan &plan, const Workload &workload,
                const std::vector<EngineSpec> &engines,
                std::optional<std::uint64_t> trace_digest =
                    std::nullopt);

    /**
     * Parallel map over workload traces (analysis benches): each of
     * the plan's registered workloads has its trace loaded from the
     * store or generated (plan records and seed) on up to plan.jobs
     * threads, and handed to `fn` with its position in
     * plan.workloads. `fn` runs on worker threads, once per
     * workload; writes must stay within the slot `index` addresses.
     */
    void forEachTrace(
        const SweepPlan &plan,
        const std::function<void(std::size_t index, const Workload &,
                                 const Trace &)> &fn);

    /** The jobs-resolution rule: 0 means hardware concurrency. */
    static unsigned resolveJobs(unsigned jobs);

    /**
     * Attach a persistent trace/result store. Registry-workload
     * sweeps and forEachTrace then load traces and lane results from
     * disk when present and persist what they compute. Pass null to
     * detach.
     */
    void setStore(std::shared_ptr<TraceStore> store)
    {
        store_ = std::move(store);
    }

    /** The attached store (null when none). */
    const std::shared_ptr<TraceStore> &store() const
    {
        return store_;
    }

  private:
    // Execution internals, defined in driver.cc.
    struct TraceContext;
    struct LaneSpec;
    struct LanePass;
    struct WorkloadShard;
    struct Cell;

    /** @param cacheable  workloads came from the registry, so the
     *                     name-keyed trace-replay store path applies.
     *  @param external_digest  caller-vouched trace content digest
     *                     for the non-cacheable single-workload path;
     *                     keys the stored lane results. */
    std::vector<WorkloadResult>
    runCells(const std::vector<const Workload *> &workloads,
             const std::vector<EngineSpec> &engines, bool cacheable,
             std::optional<std::uint64_t> external_digest =
                 std::nullopt);

    /** Set every per-call knob from `plan`: the Table 1 config
     *  (planExperimentConfig), jobs, checkpoint interval, heartbeat
     *  and the two store-context digests. Each public call starts
     *  here, so no call inherits an earlier call's settings. */
    void usePlan(const SweepPlan &plan);

    void dispatch(std::size_t num_tasks,
                  const std::function<void(std::size_t)> &task);

    /**
     * THE trace path: load a registry workload's trace from the store
     * (`use_store`) or generate it, adopt it into `ctx` (its warmup
     * and, when `checkpointing`, its boundary schedule) and hash it
     * in one pass (TracePrefixMemo::hashTrace) when checkpointing,
     * when `hash` (a store-served trace's digest keys its stored
     * results), or to put a generated trace into the store.
     *
     * @return whether the store holds the trace, under ctx.digest.
     */
    bool openTraceContext(TraceContext &ctx, const Workload &workload,
                          bool use_store, bool checkpointing, bool hash);

    /** THE resume-and-checkpoint routine: build `lanes` over ctx's
     *  trace, each resumed and armed for its checkpoints (see
     *  driver.cc); the lane scheduler advances them. */
    LanePass openLanes(TraceContext &ctx,
                       const std::vector<LaneSpec> &lanes);

    /** Materialize a workload's trace and open its cold lanes. */
    void openShard(WorkloadShard &shard, bool checkpointing);

    /** Advance lane k of an open workload by one chunk; a finished
     *  lane hands its stats and probe output to its cell and frees
     *  its simulator and engine. @return whether it finished. */
    bool stepLane(WorkloadShard &shard, std::size_t k);

    /** After a workload's last lane: free its trace, end its span. */
    void releaseShard(WorkloadShard &shard);

    /** Run every cold lane of `tasks` on min(jobs, cold_lanes)
     *  threads, the calling thread included (see driver.cc). */
    void scheduleLanes(const std::vector<WorkloadShard *> &tasks,
                       std::size_t cold_lanes, bool checkpointing,
                       std::atomic<std::size_t> &cells_done);

    std::shared_ptr<TraceStore> store_;

    // Per-call state, set by usePlan() from the call's plan.
    ExperimentConfig config_;
    unsigned jobs_ = 1;
    std::size_t checkpointEvery_ = 0;
    double heartbeatSeconds_ = 0.0;
    /// Digest keying stored lane results: system, warmup, timing
    /// mode and the result-format version (functional and timed
    /// runs are distinct entries).
    std::uint64_t resultConfigDigest_ = 0;
    /// Digest keying stored checkpoints: system + timing + blob
    /// version. Warmup is deliberately excluded — it joins each
    /// checkpoint's *state* digest instead, as "pending" while the
    /// boundary lies beyond the checkpoint index, so pre-warmup
    /// checkpoints are shareable across different warmup settings.
    std::uint64_t ckptConfigDigest_ = 0;
};

} // namespace stems

#endif // STEMS_SIM_DRIVER_HH
