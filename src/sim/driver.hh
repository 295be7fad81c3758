/**
 * @file
 * Parallel experiment driver: shards (workload x engine) cells of a
 * sweep across a std::thread pool.
 *
 * Compared with the serial ExperimentRunner, the driver
 *  - generates each workload's trace exactly once and shares it
 *    read-only across every engine run over that workload,
 *  - by default *batches* each workload's cold cells: one
 *    BatchSimulator pass traverses the trace once and advances the
 *    baseline, stride and every engine cell together instead of
 *    re-iterating the trace per cell (SweepPlan::batch = false
 *    restores the one-task-per-cell dispatch; results are bitwise
 *    identical either way),
 *  - caches the no-prefetch and stride baselines per workload across
 *    run() calls instead of recomputing them per call,
 *  - releases each trace as soon as its last cell completes, bounding
 *    peak memory to the in-flight workloads, and
 *  - when a persistent TraceStore is attached (setStore), consults it
 *    before generating any trace, simulating any baseline, or
 *    simulating any engine cell (results are keyed by trace content
 *    digest + engine-spec digest + config digest), and fills it
 *    afterwards — so the amortization above also survives across
 *    processes: a fully warm-store re-run of a sweep performs zero
 *    workload generations, zero baseline simulations and zero engine
 *    simulations (traceGenerations() / baselineRuns() / engineRuns()
 *    diagnostics pin this), with bitwise-identical results.
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
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
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
 * The parallel sweep driver. One instance owns a baseline cache tied
 * to its ExperimentConfig; reuse the instance across calls to
 * amortize the baselines.
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
     * for any jobs/batch/checkpoint policy.
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
     * policy, refreshed store digests included. The baseline cache
     * is dropped when the trace/warmup knobs change (cached
     * baselines would describe the old configuration). Used by
     * run(plan) and by harnesses that pair a plan with forEachTrace
     * or runWorkload.
     */
    void applyPlan(const SweepPlan &plan);

    /** Sweep (workloads x engines) by registered workload name.
     *  Unknown workload names are skipped (no result row). */
    std::vector<WorkloadResult>
    run(const std::vector<std::string> &workloads,
        const std::vector<EngineSpec> &engines);

    /**
     * Distributed-segment entry point (net/units.hh): advance one
     * cell column of `workload` up to trace record seg_end only,
     * producing no results — its sole deliverable is the
     * checkpoints it persists, one at every schedule boundary it
     * crosses and one at seg_end, under exactly the keys (and with
     * exactly the bytes) a continuous run writes. `engine` selects
     * the column: null is the baseline column (the no-prefetch
     * lane plus, under timing, the stride reference lane), non-null
     * a single engine lane. The lanes go through the same
     * resume-and-checkpoint routine as run(): each resumes from the
     * newest trusted stored checkpoint at or before seg_end — a
     * segment whose predecessor committed starts at seg_begin;
     * with a cold store it recomputes from record 0 (slower, never
     * wrong). Requires an attached usable store.
     * @return false with *error set on store/workload/engine
     *         lookup failures.
     */
    bool runCellSegment(const std::string &workload,
                        const EngineSpec *engine,
                        std::size_t seg_begin, std::size_t seg_end,
                        std::string *error = nullptr);

    /** Sweep every registered workload (figure order). */
    std::vector<WorkloadResult>
    runSuite(const std::vector<EngineSpec> &engines);

    /** Run one externally-owned workload (e.g. a custom subclass not
     *  in the registry); engine cells still run in parallel. The
     *  baseline cache is bypassed: an external instance's behaviour
     *  is not determined by its name, so name-keyed caching could
     *  cross-contaminate differently-parameterized instances.
     *
     *  When the caller *can* vouch for the trace's identity — a
     *  FixedTraceWorkload replaying a captured trace — pass its
     *  content digest (traceDigest()) and an attached store will
     *  cache the baselines under it, exactly as for store-replayed
     *  registry traces. */
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
     * Attach a persistent trace/baseline store. Registry-workload
     * sweeps and forEachTrace then load traces and baselines from
     * disk when present and persist what they compute. Pass null to
     * detach.
     */
    void setStore(std::shared_ptr<TraceStore> store);

    /** The attached store (null when none). */
    const std::shared_ptr<TraceStore> &store() const
    {
        return store_;
    }

    /** Baseline simulations actually executed (cache diagnostics). */
    std::uint64_t baselineRuns() const { return baselineRuns_; }

    /** Engine-cell simulations actually executed, as opposed to
     *  served from the store's engine-result cache (store
     *  diagnostics; a fully warm sweep re-run reports 0). Counts
     *  batched and unbatched executions alike — the split between
     *  the two is batchedRuns(). */
    std::uint64_t engineRuns() const { return engineRuns_; }

    /** Cell simulations (baseline, stride and engine cells alike)
     *  executed inside batched trace passes. 0 when batching is
     *  disabled; on a fully warm sweep 0 either way (warm cells are
     *  merged from the store and join no batch). */
    std::uint64_t batchedRuns() const { return batchedRuns_; }

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

    /** Drop the per-workload baseline cache. */
    void clearBaselineCache();

  private:
    // Execution internals, defined in driver.cc.
    struct TraceContext;
    struct LaneSpec;
    struct LanePass;
    struct WorkloadShard;
    struct Cell;

    struct Baseline
    {
        std::uint64_t misses = 0;
        double cycles = 0.0; ///< no-prefetch cycles (timing runs)
        double strideCycles = 0.0;
        double strideIpc = 0.0;
        bool haveStride = false;
    };

    /** @param cacheable  workloads came from the registry, so the
     *                     name-keyed baseline cache and trace-replay
     *                     store paths apply.
     *  @param external_digest  caller-vouched trace content digest
     *                     for the non-cacheable single-workload path;
     *                     keys the stored baselines. */
    std::vector<WorkloadResult>
    runCells(const std::vector<const Workload *> &workloads,
             const std::vector<EngineSpec> &engines, bool cacheable,
             std::optional<std::uint64_t> external_digest =
                 std::nullopt);

    void dispatch(std::size_t num_tasks,
                  const std::function<void(std::size_t)> &task);

    /** Load-or-generate one registry workload's trace, maintaining
     *  the generation counter and the store. `digest_out` (optional)
     *  receives the content digest when the store provided one. */
    Trace materializeTrace(const Workload &workload,
                           std::optional<std::uint64_t> *digest_out);

    /** Adopt a materialized trace into `ctx`: its warmup and, when
     *  `checkpointing`, its boundary schedule with the prefix
     *  digest at every boundary. */
    void openTraceContext(TraceContext &ctx, Trace trace,
                          bool checkpointing) const;

    /** THE resume-and-checkpoint routine: advance `lanes` over
     *  ctx's trace up to record `end` (see driver.cc). */
    LanePass runLanes(TraceContext &ctx,
                      const std::vector<LaneSpec> &lanes,
                      std::size_t end, unsigned jobs);

    ExperimentConfig config_;
    unsigned jobs_;

    std::mutex cacheMutex_;
    std::unordered_map<std::string, Baseline> baselineCache_;
    std::uint64_t baselineRuns_ = 0;

    std::shared_ptr<TraceStore> store_;
    /// Digest of (system config, warmup) keying stored baselines.
    std::uint64_t configDigest_ = 0;
    /// Digest keying stored engine results: the baseline digest
    /// inputs plus the timing mode and the result-format version
    /// (functional and timed runs are distinct entries).
    std::uint64_t resultConfigDigest_ = 0;
    /// Digest keying stored checkpoints: system + timing + blob
    /// version. Warmup is deliberately excluded — it joins each
    /// checkpoint's *state* digest instead, as "pending" while the
    /// boundary lies beyond the checkpoint index, so pre-warmup
    /// checkpoints are shareable across different warmup settings.
    std::uint64_t ckptConfigDigest_ = 0;
    std::uint64_t engineRuns_ = 0;
    std::uint64_t batchedRuns_ = 0;
    // Execution policy, adopted from the plan by applyPlan().
    bool batching_ = true;
    std::size_t checkpointEvery_ = 0;
    double heartbeatSeconds_ = 0.0;
    std::atomic<std::uint64_t> traceGenerations_{0};
    std::atomic<std::uint64_t> resumedRuns_{0};
    std::atomic<std::uint64_t> resumedRecordsSkipped_{0};
    std::atomic<std::uint64_t> checkpointsWritten_{0};
};

} // namespace stems

#endif // STEMS_SIM_DRIVER_HH
