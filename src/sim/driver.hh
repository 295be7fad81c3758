/**
 * @file
 * Parallel experiment driver: runs the (workload x lane) cells of a
 * sweep on a lane scheduler.
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
 *    cell simulations (traceGenerations() / cellRuns() diagnostics
 *    pin this), with bitwise-identical results.
 *
 * Determinism: every cell (one PrefetchSimulator over one trace) is
 * independent and seeded only by the trace, and results are merged in
 * the fixed (workload order, engine order) the caller supplied — so a
 * sweep is bitwise identical for any thread count, and identical to a
 * serial ExperimentRunner reference run (sim/driver_test.cc pins
 * both properties).
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
 * The parallel sweep driver. Nothing carries across run() calls but
 * the attached store: a call re-simulates whatever earlier calls (of
 * any process) did not persist.
 */
class ExperimentDriver
{
  public:
    /**
     * @param config  experiment knobs (system, trace length, seed).
     * @param jobs    worker threads; 0 means hardware concurrency.
     */
    explicit ExperimentDriver(ExperimentConfig config,
                              unsigned jobs = 0);

    /** A driver awaiting a plan: Table 1 system, default knobs.
     *  Attach a store (setStore) and call run(plan). */
    ExperimentDriver() : ExperimentDriver(ExperimentConfig{}) {}

    /**
     * THE entry point: execute a declarative SweepPlan — workloads x
     * engines under the plan's trace, warmup and execution-policy
     * knobs — and return results merged in the plan's (workload,
     * engine) order. Equivalent to applyPlan(plan) followed by
     * run(plan.workloads, planEngineSpecs(plan)); bitwise identical
     * for any jobs/checkpoint policy.
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

    /**
     * Adopt a plan's configuration without running: trace knobs
     * (records/seed/warmup/timing), jobs, and the whole execution
     * policy, refreshed store digests included. Used by run(plan)
     * and by harnesses that pair a plan with forEachTrace or
     * runWorkload.
     */
    void applyPlan(const SweepPlan &plan);

    /** Sweep (workloads x engines) by registered workload name.
     *  Unknown workload names are skipped (no result row). */
    std::vector<WorkloadResult>
    run(const std::vector<std::string> &workloads,
        const std::vector<EngineSpec> &engines);

    /** Sweep every registered workload (figure order). */
    std::vector<WorkloadResult>
    runSuite(const std::vector<EngineSpec> &engines);

    /** Run one externally-owned workload (e.g. a custom subclass not
     *  in the registry); its lanes still run in parallel. The
     *  store's name-keyed trace replay is bypassed: an external
     *  instance's behaviour is not determined by its name, so
     *  name-keyed caching could cross-contaminate
     *  differently-parameterized instances.
     *
     *  When the caller *can* vouch for the trace's identity — a
     *  FixedTraceWorkload replaying a captured trace — pass its
     *  content digest (traceDigest()) and an attached store will
     *  cache every lane's result under it, exactly as for
     *  store-replayed registry traces. */
    WorkloadResult
    runWorkload(const Workload &workload,
                const std::vector<EngineSpec> &engines,
                std::optional<std::uint64_t> trace_digest =
                    std::nullopt);

    /**
     * Parallel map over workload traces (analysis benches): each
     * registered workload's trace is generated in the pool and handed
     * to `fn` with its position in `workloads`. `fn` runs on worker
     * threads, once per workload; writes must stay within the slot
     * `index` addresses.
     */
    void forEachTrace(
        const std::vector<std::string> &workloads,
        const std::function<void(std::size_t index, const Workload &,
                                 const Trace &)> &fn);

    /** The configuration in use. */
    const ExperimentConfig &config() const { return config_; }

    /** Resolved worker-thread count. */
    unsigned jobs() const { return jobs_; }

    /** The jobs-resolution rule: 0 means hardware concurrency. */
    static unsigned resolveJobs(unsigned jobs);

    /**
     * Attach a persistent trace/result store. Registry-workload
     * sweeps and forEachTrace then load traces and lane results from
     * disk when present and persist what they compute. Pass null to
     * detach.
     */
    void setStore(std::shared_ptr<TraceStore> store);

    /** The attached store (null when none). */
    const std::shared_ptr<TraceStore> &store() const
    {
        return store_;
    }

    /** Cell simulations actually executed — baseline, stride and
     *  engine lanes alike — as opposed to served from the store's
     *  result cache (store diagnostics; a fully warm sweep re-run
     *  reports 0). */
    std::uint64_t cellRuns() const { return cellRuns_; }

    /** Workload traces actually generated, as opposed to replayed
     *  from the store (store diagnostics). */
    std::uint64_t traceGenerations() const
    {
        return traceGenerations_.load();
    }

    /** Cell simulations that resumed from a stored checkpoint
     *  instead of starting at record 0 (checkpointed execution). */
    std::uint64_t resumedRuns() const { return resumedRuns_.load(); }

    /** Record-steps skipped by checkpoint resumes, summed over all
     *  resumed cells: a fully warm-prefix re-run re-simulates only
     *  the suffix, so this equals (resume index x resumed cells) and
     *  the redundant re-simulated prefix is 0 records. */
    std::uint64_t
    resumedRecordsSkipped() const
    {
        return resumedRecordsSkipped_.load();
    }

    /** Checkpoints persisted to the store this driver's runs wrote. */
    std::uint64_t
    checkpointsWritten() const
    {
        return checkpointsWritten_.load();
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

    ExperimentConfig config_;
    unsigned jobs_;

    std::shared_ptr<TraceStore> store_;
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
    std::uint64_t cellRuns_ = 0;
    // Execution policy, adopted from the plan by applyPlan().
    std::size_t checkpointEvery_ = 0;
    double heartbeatSeconds_ = 0.0;
    std::atomic<std::uint64_t> traceGenerations_{0};
    std::atomic<std::uint64_t> resumedRuns_{0};
    std::atomic<std::uint64_t> resumedRecordsSkipped_{0};
    std::atomic<std::uint64_t> checkpointsWritten_{0};
};

} // namespace stems

#endif // STEMS_SIM_DRIVER_HH
