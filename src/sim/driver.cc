#include "sim/driver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <thread>

#include "common/log.hh"
#include "common/stats.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "prefetch/engine_registry.hh"
#include "sim/batch_sim.hh"
#include "sim/checkpoint.hh"
#include "store/keys.hh"
#include "store/trace_store.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"

namespace stems {

namespace {

/**
 * Process-wide registry mirrors of the driver diagnostics. The
 * per-driver counters stay authoritative for the accessor API
 * (tests assert them per instance); these aggregate across drivers
 * and feed metrics snapshots / run manifests.
 */
struct DriverMetrics
{
    Counter &traceGenerated;
    Counter &cellBaseline, &cellEngine, &cellBatched, &cellResumed;
    Counter &ckptSkippedRecords, &ckptWritten;
    /// One sample per BatchSimulator pass: a whole workload's lanes
    /// batched, a single cell unbatched, a segment unit's lanes.
    LatencyHistogram &passNs;

    DriverMetrics()
        : traceGenerated(
              registry().counter("driver.trace.generated")),
          cellBaseline(registry().counter("driver.cell.baseline")),
          cellEngine(registry().counter("driver.cell.engine")),
          cellBatched(registry().counter("driver.cell.batched")),
          cellResumed(registry().counter("driver.cell.resumed")),
          ckptSkippedRecords(
              registry().counter("ckpt.resume.skipped_records")),
          ckptWritten(registry().counter("ckpt.written")),
          passNs(registry().histogram("driver.pass_ns"))
    {
    }

    static MetricsRegistry &
    registry()
    {
        return MetricsRegistry::instance();
    }
};

DriverMetrics &
driverMetrics()
{
    static DriverMetrics metrics;
    return metrics;
}

/** A spec that carries an anonymous probe cannot be result-cached:
 *  the probe's output is part of the result but its code has no
 *  stable identity. Naming the probe (probeId) opts back in. */
bool
specResultCacheable(const EngineSpec &spec)
{
    return !spec.probe || !spec.probeId.empty();
}

/** Digest of everything (besides trace + system config) that
 *  determines an engine cell's result. */
std::uint64_t
specResultDigest(const EngineSpec &spec, bool scientific)
{
    EngineOptions effective = spec.options;
    effective.scientific = effective.scientific || scientific;
    return engineSpecDigest(spec.engine, effective, spec.probeId);
}

} // namespace

/**
 * One trace as the lane routine sees it: the records, the warmup
 * boundary, the checkpoint boundary schedule and the trace-prefix
 * digest memo. Shared by every lane over the trace, batched or not.
 */
struct ExperimentDriver::TraceContext
{
    /// Workload name, recorded in checkpoint metadata.
    std::string workload;
    Trace trace;
    std::size_t warmup = 0;
    /// Checkpoint boundaries (sim/checkpoint.hh checkpointBounds),
    /// ending at trace.size(); empty when checkpointing is off.
    std::vector<std::size_t> bounds;

    /**
     * Trace-prefix digests at `indices` (ascending). Computed once
     * per trace: every boundary is hashed when the context opens,
     * and an off-schedule resume candidate is hashed by whichever
     * lane asks first, in one pass with the rest of its misses.
     * Thread-safe (unbatched cells of one trace resume
     * concurrently, and lane threads write checkpoints).
     */
    std::vector<std::uint64_t>
    prefixDigests(const std::vector<std::size_t> &indices)
    {
        std::lock_guard<std::mutex> lock(prefixMutex);
        std::vector<std::size_t> missing;
        for (std::size_t i : indices)
            if (prefixes.find(i) == prefixes.end())
                missing.push_back(i);
        if (!missing.empty()) {
            const std::vector<std::uint64_t> computed =
                tracePrefixDigests(trace, missing);
            for (std::size_t m = 0; m < missing.size(); ++m)
                prefixes[missing[m]] = computed[m];
        }
        std::vector<std::uint64_t> out;
        out.reserve(indices.size());
        for (std::size_t i : indices)
            out.push_back(prefixes.at(i));
        return out;
    }

    std::mutex prefixMutex;
    std::map<std::size_t, std::uint64_t> prefixes;
};

/**
 * One simulation lane, resolved once at schedule time: the label
 * its checkpoints are filed under, the engine it builds, and its
 * checkpoint identity (store/keys.hh laneCheckpointSpecDigest).
 */
struct ExperimentDriver::LaneSpec
{
    LaneSpec(std::string lane_label, std::string engine_name,
             EngineOptions engine_options, bool scientific)
        : label(std::move(lane_label)),
          engine(std::move(engine_name)),
          options(std::move(engine_options))
    {
        options.scientific = options.scientific || scientific;
        ckptSpec = laneCheckpointSpecDigest(engine, options, scientific);
    }

    /** The no-prefetch baseline lane. */
    static LaneSpec
    baseline(bool scientific)
    {
        return LaneSpec("baseline", "", {}, scientific);
    }

    /** The stride reference lane of timing runs. */
    static LaneSpec
    stride(bool scientific)
    {
        return LaneSpec("stride", "stride", {}, scientific);
    }

    /** An engine column's lane. */
    static LaneSpec
    column(const EngineSpec &spec, bool scientific)
    {
        return LaneSpec(spec.resultLabel(), spec.engine, spec.options,
                        scientific);
    }

    std::string label;
    /// Registered engine name; empty = no engine (the baseline).
    std::string engine;
    /// Effective engine options (workload class folded in).
    EngineOptions options;
    std::uint64_t ckptSpec = 0;
};

/** A finished lane pass: per-lane statistics live in `sim`, and the
 *  engines stay alive for post-run probes. */
struct ExperimentDriver::LanePass
{
    BatchSimulator sim;
    std::vector<std::unique_ptr<Prefetcher>> engines;
};

/** Per-workload shard state shared by that workload's cells. */
struct ExperimentDriver::WorkloadShard
{
    const Workload *workload = nullptr;
    bool scientific = false;

    /// Trace opened once (first cell to touch it) and shared
    /// read-only; its records are released when the last cell
    /// finishes.
    std::once_flag traceOnce;
    TraceContext ctx;
    /// Record count of the materialized trace (outlives the early
    /// trace release; informational, for result sidecars).
    std::size_t traceSize = 0;
    std::atomic<std::size_t> remainingCells{0};

    bool needBaseline = false;
    bool needStride = false;
    /// Baseline metrics (from the cache, or filled by the baseline /
    /// stride cells; those cells write disjoint fields).
    std::uint64_t baselineMisses = 0;
    double baselineCycles = 0.0;
    double strideCycles = 0.0;
    double strideIpc = 0.0;

    /// Persistent-store state: registry workloads with an attached
    /// store replay traces from disk and key stored baselines by the
    /// trace's content digest.
    bool storeEligible = false;
    std::uint64_t traceDigest = 0;
    bool digestValid = false;

    std::vector<SimStats> engineStats;
    std::vector<std::map<std::string, double>> engineExtra;
    /// Per engine: cell served from the store's result cache, so it
    /// was never scheduled (and must not be re-persisted).
    std::vector<std::uint8_t> engineFromCache;
};

/** One unit of work: a single simulation lane over one shard's
 *  trace. */
struct ExperimentDriver::Cell
{
    enum Kind
    {
        kBaseline,
        kStride,
        kEngine,
    };

    std::size_t shard = 0;
    Kind kind = kEngine;
    std::size_t spec = 0; ///< engine index (kEngine only)
    LaneSpec lane;
};

std::vector<EngineSpec>
engineSpecs(const std::vector<std::string> &names)
{
    std::vector<EngineSpec> specs;
    specs.reserve(names.size());
    for (const std::string &name : names)
        specs.emplace_back(name);
    return specs;
}

std::vector<EngineSpec>
planEngineSpecs(const SweepPlan &plan)
{
    std::vector<EngineSpec> specs;
    specs.reserve(plan.engines.size());
    for (const PlanEngine &e : plan.engines)
        specs.emplace_back(e.engine, e.label, e.options);
    return specs;
}

unsigned
ExperimentDriver::resolveJobs(unsigned jobs)
{
    return jobs != 0
               ? jobs
               : std::max(1u, std::thread::hardware_concurrency());
}

ExperimentDriver::ExperimentDriver(ExperimentConfig config,
                                   unsigned jobs)
    : config_(std::move(config)), jobs_(resolveJobs(jobs))
{
}

void
ExperimentDriver::clearBaselineCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    baselineCache_.clear();
}

void
ExperimentDriver::setStore(std::shared_ptr<TraceStore> store)
{
    store_ = std::move(store);
    if (store_) {
        // The store's key vocabulary lives in store/keys.hh; the
        // driver only caches the three config-context digests here.
        configDigest_ = baselineConfigDigest(config_);
        resultConfigDigest_ = stems::resultConfigDigest(config_);
        ckptConfigDigest_ = checkpointConfigDigest(config_);
    }
}

void
ExperimentDriver::applyPlan(const SweepPlan &plan)
{
    ExperimentConfig next = planExperimentConfig(plan);
    next.system = config_.system;
    // The name-keyed baseline cache describes the old trace/warmup
    // configuration; a changed plan would silently serve stale
    // baselines without this.
    const bool trace_knobs_changed =
        next.traceRecords != config_.traceRecords ||
        next.seed != config_.seed ||
        next.warmupFraction != config_.warmupFraction ||
        next.warmupRecords != config_.warmupRecords ||
        next.enableTiming != config_.enableTiming;
    config_ = next;
    if (trace_knobs_changed)
        clearBaselineCache();
    jobs_ = resolveJobs(plan.jobs);
    batching_ = plan.batch;
    checkpointEvery_ =
        static_cast<std::size_t>(plan.checkpointEvery);
    heartbeatSeconds_ =
        plan.heartbeatSeconds < 0 ? 0.0 : plan.heartbeatSeconds;
    // Refresh the store-context digests for the new configuration.
    if (store_)
        setStore(store_);
}

Trace
ExperimentDriver::materializeTrace(
    const Workload &workload,
    std::optional<std::uint64_t> *digest_out)
{
    if (store_) {
        TraceKey key{workload.name(), config_.traceRecords,
                     config_.seed};
        Trace trace;
        if (store_->loadTrace(key, trace)) {
            // Hash the records actually loaded rather than trusting
            // (and re-reading) the meta sidecar: baselines stay
            // keyed to the true content even if a meta file is
            // stale, at no extra I/O.
            if (digest_out)
                *digest_out = traceDigest(trace);
            return trace;
        }
        trace = workload.generate(config_.seed,
                                  config_.traceRecords);
        traceGenerations_.fetch_add(1);
        driverMetrics().traceGenerated.add();
        if (auto info = store_->putTrace(key, trace)) {
            if (digest_out)
                *digest_out = info->digest;
        }
        return trace;
    }
    traceGenerations_.fetch_add(1);
    driverMetrics().traceGenerated.add();
    return workload.generate(config_.seed, config_.traceRecords);
}

void
ExperimentDriver::dispatch(std::size_t num_tasks,
                           const std::function<void(std::size_t)> &task)
{
    std::size_t workers =
        std::min<std::size_t>(jobs_, num_tasks);
    if (workers <= 1) {
        for (std::size_t i = 0; i < num_tasks; ++i)
            task(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;

    auto body = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= num_tasks)
                break;
            try {
                task(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t)
        pool.emplace_back(body);
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

std::vector<WorkloadResult>
ExperimentDriver::runCells(
    const std::vector<const Workload *> &workloads,
    const std::vector<EngineSpec> &engines, bool cacheable,
    std::optional<std::uint64_t> external_digest)
{
    const EngineRegistry &registry = EngineRegistry::instance();
    std::vector<bool> spec_known(engines.size());
    for (std::size_t j = 0; j < engines.size(); ++j)
        spec_known[j] = registry.contains(engines[j].engine);

    // ---- schedule ----
    // Phase spans end early (before the next phase), so they live
    // behind unique_ptrs instead of plain RAII scopes.
    auto schedule_span = std::make_unique<ScopedSpan>(
        "driver.schedule", "driver");
    std::vector<std::unique_ptr<WorkloadShard>> shards;
    std::vector<Cell> cells;
    shards.reserve(workloads.size());
    std::size_t baseline_cells = 0;
    std::size_t engine_cells = 0;
    for (const Workload *w : workloads) {
        auto shard = std::make_unique<WorkloadShard>();
        shard->workload = w;
        shard->ctx.workload = w->name();
        shard->scientific =
            w->workloadClass() == WorkloadClass::kScientific;
        shard->engineStats.resize(engines.size());
        shard->engineExtra.resize(engines.size());
        shard->engineFromCache.assign(engines.size(), 0);

        shard->needBaseline = true;
        shard->needStride = config_.enableTiming;
        shard->storeEligible = cacheable && store_ != nullptr;
        if (shard->storeEligible) {
            // Metadata-only probe: learn the trace's content digest
            // (the stored-baseline key) without decoding any records.
            if (auto info = store_->findTrace(
                    {w->name(), config_.traceRecords,
                     config_.seed})) {
                shard->traceDigest = info->digest;
                shard->digestValid = true;
            }
        } else if (store_ && external_digest) {
            // External workload with a caller-vouched trace digest
            // (a captured/imported trace): stored baselines apply
            // even though the name-keyed trace replay does not.
            shard->traceDigest = *external_digest;
            shard->digestValid = true;
        }
        if (cacheable) {
            std::lock_guard<std::mutex> lock(cacheMutex_);
            auto it = baselineCache_.find(w->name());
            if (it != baselineCache_.end()) {
                const Baseline &b = it->second;
                // A functional-only cache entry has valid misses but
                // no cycle accounting; a timing run must redo it.
                bool timed_enough =
                    !config_.enableTiming || b.cycles > 0.0;
                if (timed_enough) {
                    shard->needBaseline = false;
                    shard->baselineMisses = b.misses;
                    shard->baselineCycles = b.cycles;
                    if (b.haveStride) {
                        shard->needStride = false;
                        shard->strideCycles = b.strideCycles;
                        shard->strideIpc = b.strideIpc;
                    }
                }
            }
        }
        if ((shard->needBaseline || shard->needStride) &&
            shard->digestValid) {
            // Second-level lookup: the persistent store, keyed by
            // trace digest + system-config digest.
            if (auto b = store_->loadBaseline(shard->traceDigest,
                                              configDigest_)) {
                bool timed_enough =
                    !config_.enableTiming || b->haveTiming;
                if (timed_enough) {
                    if (shard->needBaseline) {
                        shard->needBaseline = false;
                        shard->baselineMisses = b->misses;
                        shard->baselineCycles = b->cycles;
                    }
                    if (shard->needStride && b->haveStride) {
                        shard->needStride = false;
                        shard->strideCycles = b->strideCycles;
                        shard->strideIpc = b->strideIpc;
                    }
                }
                if (cacheable && !shard->needBaseline &&
                    !shard->needStride) {
                    // Mirror into the in-memory cache so later
                    // run() calls skip the disk probe.
                    std::lock_guard<std::mutex> lock(cacheMutex_);
                    Baseline &mb = baselineCache_[w->name()];
                    mb.misses = shard->baselineMisses;
                    mb.cycles = shard->baselineCycles;
                    if (config_.enableTiming) {
                        mb.strideCycles = shard->strideCycles;
                        mb.strideIpc = shard->strideIpc;
                        mb.haveStride = true;
                    }
                }
            }
        }

        if (store_ && shard->digestValid) {
            // Probe the engine-result cache at schedule time: a warm
            // cell is merged straight from the store and never
            // scheduled, so a fully warm sweep dispatches no work at
            // all (and never even materializes the trace).
            for (std::size_t j = 0; j < engines.size(); ++j) {
                if (!spec_known[j] ||
                    !specResultCacheable(engines[j]))
                    continue;
                if (auto r = store_->loadResult(
                        shard->traceDigest,
                        specResultDigest(engines[j],
                                         shard->scientific),
                        resultConfigDigest_)) {
                    shard->engineStats[j] = r->stats;
                    shard->engineExtra[j] = std::move(r->extra);
                    shard->engineFromCache[j] = 1;
                }
            }
        }

        std::size_t shard_index = shards.size();
        std::size_t count = 0;
        if (shard->needBaseline) {
            cells.push_back({shard_index, Cell::kBaseline, 0,
                             LaneSpec::baseline(shard->scientific)});
            ++count;
            ++baseline_cells;
        }
        if (shard->needStride) {
            cells.push_back({shard_index, Cell::kStride, 0,
                             LaneSpec::stride(shard->scientific)});
            ++count;
            ++baseline_cells;
        }
        for (std::size_t j = 0; j < engines.size(); ++j) {
            if (!spec_known[j] || shard->engineFromCache[j])
                continue;
            cells.push_back(
                {shard_index, Cell::kEngine, j,
                 LaneSpec::column(engines[j], shard->scientific)});
            ++count;
            ++engine_cells;
        }
        shard->remainingCells.store(count);
        shards.push_back(std::move(shard));
    }
    if (schedule_span->active()) {
        schedule_span->arg(
            "cells", static_cast<std::uint64_t>(cells.size()));
        schedule_span->arg(
            "workloads",
            static_cast<std::uint64_t>(shards.size()));
    }
    schedule_span.reset();

    // ---- execute ----
    // Checkpointing needs a store to put checkpoints in and an
    // interval to cut them at.
    const bool checkpointing = store_ != nullptr && store_->usable() &&
                               checkpointEvery_ > 0;

    auto materialize_shard = [&](WorkloadShard &shard) {
        std::call_once(shard.traceOnce, [&] {
            ScopedSpan span("trace.materialize", "driver");
            if (span.active())
                span.arg("workload", shard.workload->name());
            Trace trace;
            if (shard.storeEligible) {
                std::optional<std::uint64_t> digest;
                trace = materializeTrace(*shard.workload, &digest);
                if (digest) {
                    shard.traceDigest = *digest;
                    shard.digestValid = true;
                }
            } else {
                trace = shard.workload->generate(config_.seed,
                                                 config_.traceRecords);
                traceGenerations_.fetch_add(1);
                driverMetrics().traceGenerated.add();
            }
            shard.traceSize = trace.size();
            openTraceContext(shard.ctx, std::move(trace),
                             checkpointing);
        });
    };

    /** Record one finished cell's statistics into its shard. */
    auto collect_cell = [&](const Cell &cell, WorkloadShard &shard,
                            const SimStats &stats,
                            Prefetcher *engine) {
        switch (cell.kind) {
        case Cell::kBaseline:
            shard.baselineMisses = stats.offChipReads;
            shard.baselineCycles = stats.cycles;
            break;
        case Cell::kStride:
            shard.strideCycles = stats.cycles;
            shard.strideIpc = stats.ipc();
            break;
        case Cell::kEngine: {
            const EngineSpec &spec = engines[cell.spec];
            shard.engineStats[cell.spec] = stats;
            if (spec.probe) {
                EngineResult scratch;
                scratch.engine = spec.resultLabel();
                scratch.stats = stats;
                spec.probe(*engine, scratch);
                shard.engineExtra[cell.spec] =
                    std::move(scratch.extra);
            }
            break;
        }
        }
    };

    /**
     * Run a group of one workload's cells as lanes of one pass over
     * the whole trace (the whole shard when batching, a single cell
     * otherwise — a 1-lane pass is bitwise identical to a standalone
     * PrefetchSimulator::run, which sim_test pins), then collect
     * every lane's statistics.
     */
    auto execute_cells = [&](WorkloadShard &shard,
                             const std::vector<Cell> &group,
                             unsigned lane_jobs) {
        ScopedSpan span("cells.execute", "driver");
        if (span.active()) {
            span.arg("workload", shard.workload->name());
            span.arg("lanes",
                     static_cast<std::uint64_t>(group.size()));
            span.arg("lane_jobs",
                     static_cast<std::uint64_t>(lane_jobs));
        }
        std::vector<LaneSpec> lanes;
        lanes.reserve(group.size());
        for (const Cell &cell : group)
            lanes.push_back(cell.lane);
        LanePass pass = runLanes(shard.ctx, lanes,
                                 shard.ctx.trace.size(), lane_jobs);
        for (std::size_t k = 0; k < group.size(); ++k)
            collect_cell(group[k], shard, pass.sim.stats(k),
                         pass.engines[k].get());
    };

    // Progress accounting for the heartbeat: scheduled cells that
    // have finished executing (warm cells never appear — they were
    // merged from the store at schedule time).
    std::atomic<std::size_t> cells_done{0};

    auto run_cell = [&](std::size_t index) {
        const Cell &cell = cells[index];
        WorkloadShard &shard = *shards[cell.shard];
        ScopedSpan span("driver.cell", "driver");
        if (span.active()) {
            span.arg("workload", shard.workload->name());
            span.arg("cell", cell.lane.label);
        }
        materialize_shard(shard);

        execute_cells(shard, {cell}, 1);
        cells_done.fetch_add(1, std::memory_order_relaxed);

        if (shard.remainingCells.fetch_sub(1) == 1) {
            // Last cell of this workload: release the trace early so
            // peak memory tracks in-flight workloads, not the suite.
            Trace().swap(shard.ctx.trace);
        }
    };

    // ---- heartbeat (opt-in; stderr only) ----
    std::mutex hb_mutex;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    std::thread hb_thread;
    if (heartbeatSeconds_ > 0 && !cells.empty()) {
        hb_thread = std::thread([&, total = cells.size()] {
            Counter &steps = MetricsRegistry::instance().counter(
                "batch.record_steps");
            std::uint64_t last_steps = steps.value();
            auto last_time = std::chrono::steady_clock::now();
            std::unique_lock<std::mutex> lock(hb_mutex);
            for (;;) {
                if (hb_cv.wait_for(
                        lock,
                        std::chrono::duration<double>(
                            heartbeatSeconds_),
                        [&] { return hb_stop; }))
                    return;
                auto now = std::chrono::steady_clock::now();
                std::uint64_t cur = steps.value();
                double secs =
                    std::chrono::duration<double>(now - last_time)
                        .count();
                double rate =
                    secs > 0 ? static_cast<double>(cur - last_steps) /
                                   secs
                             : 0.0;
                char line[128];
                std::snprintf(
                    line, sizeof(line),
                    "sweep progress: %zu/%zu cells, "
                    "%.2fM record-steps/s",
                    cells_done.load(std::memory_order_relaxed),
                    total, rate / 1e6);
                logInfo(line);
                last_steps = cur;
                last_time = now;
            }
        });
    }
    auto stop_heartbeat = [&] {
        if (!hb_thread.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(hb_mutex);
            hb_stop = true;
        }
        hb_cv.notify_all();
        hb_thread.join();
    };

    // Batched: all of a workload's schedulable cells become one task
    // that traverses the trace once, each cell an isolated lane of a
    // BatchSimulator. Unbatched: one task per cell, every cell
    // re-iterating the shared trace. Per-cell simulation state is
    // identical either way, so results are bitwise equal; what
    // changes is traversal count and dispatch granularity.
    if (batching_) {
        std::vector<std::vector<Cell>> shard_cells(shards.size());
        for (const Cell &cell : cells)
            shard_cells[cell.shard].push_back(cell);
        std::vector<std::size_t> batch_shards;
        for (std::size_t i = 0; i < shards.size(); ++i)
            if (!shard_cells[i].empty())
                batch_shards.push_back(i);

        // Batching coarsens dispatch to one task per workload; when
        // that leaves worker threads idle (fewer workloads than
        // jobs), hand the slack to each task as lane-level
        // parallelism inside its single trace pass. Lane results
        // cannot depend on this (lanes are independent), so any
        // split stays bitwise deterministic.
        unsigned lane_jobs = static_cast<unsigned>(std::max<std::size_t>(
            1, jobs_ / std::max<std::size_t>(1, batch_shards.size())));

        auto run_batch = [&](std::size_t task) {
            WorkloadShard &shard = *shards[batch_shards[task]];
            const std::vector<Cell> &batch =
                shard_cells[batch_shards[task]];
            ScopedSpan span("driver.batch", "driver");
            if (span.active()) {
                span.arg("workload", shard.workload->name());
                span.arg("cells",
                         static_cast<std::uint64_t>(batch.size()));
            }
            materialize_shard(shard);
            execute_cells(shard, batch, lane_jobs);
            cells_done.fetch_add(batch.size(),
                                 std::memory_order_relaxed);
            // The task owns all of this workload's cells: release
            // the trace as soon as its single pass completes.
            Trace().swap(shard.ctx.trace);
        };
        try {
            dispatch(batch_shards.size(), run_batch);
        } catch (...) {
            stop_heartbeat();
            throw;
        }
    } else {
        try {
            dispatch(cells.size(), run_cell);
        } catch (...) {
            stop_heartbeat();
            throw;
        }
    }
    stop_heartbeat();

    // ---- update the baseline caches (in-memory, then store) ----
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        baselineRuns_ += baseline_cells;
        engineRuns_ += engine_cells;
        driverMetrics().cellBaseline.add(baseline_cells);
        driverMetrics().cellEngine.add(engine_cells);
        if (batching_) {
            batchedRuns_ += cells.size();
            driverMetrics().cellBatched.add(cells.size());
        }
        for (const auto &shard : shards) {
            if (!cacheable ||
                (!shard->needBaseline && !shard->needStride))
                continue;
            Baseline &b = baselineCache_[shard->workload->name()];
            b.misses = shard->baselineMisses;
            b.cycles = shard->baselineCycles;
            if (config_.enableTiming) {
                b.strideCycles = shard->strideCycles;
                b.strideIpc = shard->strideIpc;
                b.haveStride = true;
            }
        }
    }
    auto persist_span =
        std::make_unique<ScopedSpan>("driver.persist", "driver");
    bool store_wrote = false;
    if (store_) {
        for (const auto &shard : shards) {
            if (!shard->digestValid ||
                (!shard->needBaseline && !shard->needStride))
                continue;
            store_wrote = true;
            StoredBaseline sb;
            sb.misses = shard->baselineMisses;
            sb.cycles = shard->baselineCycles;
            sb.strideCycles = shard->strideCycles;
            sb.strideIpc = shard->strideIpc;
            sb.haveStride = config_.enableTiming;
            sb.haveTiming = config_.enableTiming;
            store_->putBaseline(shard->traceDigest, configDigest_,
                                sb);
        }
    }
    persist_span.reset();

    // ---- merge, in fixed (workload, engine) order ----
    auto merge_span =
        std::make_unique<ScopedSpan>("driver.merge", "driver");
    std::vector<WorkloadResult> results;
    results.reserve(shards.size());
    for (const auto &shard : shards) {
        WorkloadResult r;
        r.workload = shard->workload->name();
        r.workloadClass = shard->workload->workloadClass();
        r.baselineMisses = shard->baselineMisses;
        r.baselineCycles = shard->baselineCycles;
        r.strideCycles = shard->strideCycles;
        r.baselineIpc = shard->strideIpc;
        for (std::size_t j = 0; j < engines.size(); ++j) {
            if (!spec_known[j])
                continue;
            EngineResult er;
            er.engine = engines[j].resultLabel();
            er.stats = shard->engineStats[j];
            er.coverage =
                ratio(er.stats.covered(), r.baselineMisses);
            er.uncovered =
                ratio(er.stats.offChipReads, r.baselineMisses);
            er.overprediction =
                ratio(er.stats.overpredictions, r.baselineMisses);
            if (config_.enableTiming && er.stats.cycles > 0)
                er.speedup = r.strideCycles / er.stats.cycles;
            er.extra = std::move(shard->engineExtra[j]);
            if (store_ && shard->digestValid &&
                !shard->engineFromCache[j] &&
                specResultCacheable(engines[j])) {
                StoredEngineResult sr;
                sr.stats = er.stats;
                sr.extra = er.extra;
                StoredResultMeta meta;
                meta.workload = r.workload;
                meta.engine = er.engine;
                // Registry workloads: the trace-key length. External
                // traces: the actual replayed record count (their
                // length is not a config knob).
                meta.records = cacheable ? config_.traceRecords
                                         : shard->traceSize;
                meta.seed = cacheable ? config_.seed : 0;
                meta.coverage = er.coverage;
                meta.accuracy = ratio(er.stats.covered(),
                                      er.stats.prefetchesIssued);
                meta.speedup = er.speedup;
                meta.timing = config_.enableTiming;
                store_->putResult(
                    shard->traceDigest,
                    specResultDigest(engines[j],
                                     shard->scientific),
                    resultConfigDigest_, sr, meta);
                store_wrote = true;
            }
            r.engines.push_back(std::move(er));
        }
        results.push_back(std::move(r));
    }
    merge_span.reset();
    if (store_wrote) {
        // One budget pass for the whole sweep's baseline/result
        // writes (putTrace already self-enforces per trace).
        store_->enforceBudget();
    }
    return results;
}

std::vector<WorkloadResult>
ExperimentDriver::run(const std::vector<std::string> &workloads,
                      const std::vector<EngineSpec> &engines)
{
    std::vector<std::unique_ptr<Workload>> owned;
    std::vector<const Workload *> ptrs;
    for (const std::string &name : workloads) {
        auto w = WorkloadRegistry::instance().make(name);
        if (!w)
            continue;
        ptrs.push_back(w.get());
        owned.push_back(std::move(w));
    }
    return runCells(ptrs, engines, /*cacheable=*/true);
}

void
ExperimentDriver::openTraceContext(TraceContext &ctx, Trace trace,
                                   bool checkpointing) const
{
    ctx.trace = std::move(trace);
    ctx.warmup = effectiveWarmupRecords(config_, ctx.trace.size());
    if (!checkpointing)
        return;
    // The shared boundary schedule (sim/checkpoint.hh): the same
    // formula the distributed coordinator decomposes segment units
    // with, so unit endpoints land exactly on checkpoint indices.
    ctx.bounds = checkpointBounds(ctx.trace.size(), checkpointEvery_);
    const std::vector<std::uint64_t> digests =
        tracePrefixDigests(ctx.trace, ctx.bounds);
    for (std::size_t b = 0; b < ctx.bounds.size(); ++b)
        ctx.prefixes[ctx.bounds[b]] = digests[b];
}

/**
 * Every lane pass goes through here: run()'s cells (to the trace
 * end, statistics collected by the caller) and runCellSegment's
 * units (to the segment end, checkpoints only). When the context
 * has a boundary schedule, each lane first resumes from the newest
 * trusted stored checkpoint at or before `end` — one whose trace
 * prefix, warmup boundary and lane identity all match — and then
 * writes a checkpoint at every boundary in (resume, end], `end`
 * included.
 */
ExperimentDriver::LanePass
ExperimentDriver::runLanes(TraceContext &ctx,
                           const std::vector<LaneSpec> &lanes,
                           std::size_t end, unsigned jobs)
{
    const EngineRegistry &registry = EngineRegistry::instance();
    auto make_engine =
        [&](const LaneSpec &lane) -> std::unique_ptr<Prefetcher> {
        if (lane.engine.empty())
            return nullptr;
        return registry.make(lane.engine, config_.system,
                             lane.options);
    };
    SimParams params;
    params.hierarchy = config_.system.hierarchy;
    params.enableTiming = config_.enableTiming;
    params.timing = config_.system.timing;

    LanePass pass;
    pass.engines.reserve(lanes.size());
    for (const LaneSpec &lane : lanes) {
        pass.engines.push_back(make_engine(lane));
        pass.sim.addLane(params, pass.engines.back().get(),
                         ctx.warmup);
    }

    const bool checkpointing = !ctx.bounds.empty();
    for (std::size_t k = 0; k < lanes.size(); ++k) {
        if (!checkpointing) {
            pass.sim.setLaneRange(k, 0, end);
            continue;
        }
        const LaneSpec &lane = lanes[k];
        ScopedSpan resume_span("ckpt.resume", "ckpt");

        // Resume: candidate indices come from the store's directory
        // (they may include other workloads' or record-schedules'
        // checkpoints); each is verified against this trace by its
        // prefix digest, newest first.
        std::vector<std::size_t> candidates;
        for (std::uint64_t c : store_->listCheckpointIndices(
                 lane.ckptSpec, ckptConfigDigest_))
            if (c > 0 && c <= end)
                candidates.push_back(static_cast<std::size_t>(c));
        const std::vector<std::uint64_t> prefixes =
            ctx.prefixDigests(candidates);
        std::size_t resume = 0;
        for (std::size_t c = candidates.size(); c-- > 0;) {
            const std::uint64_t state = checkpointStateDigest(
                prefixes[c], candidates[c], ctx.warmup);
            auto blob = store_->loadCheckpoint(
                lane.ckptSpec, ckptConfigDigest_, candidates[c], state);
            if (!blob)
                continue;
            std::uint64_t decoded = 0;
            if (decodeCheckpoint(*blob, pass.sim.simulator(k),
                                 &decoded) &&
                decoded == candidates[c]) {
                resume = candidates[c];
                break;
            }
            // Structurally unrestorable despite a CRC pass (key
            // collision / code skew): drop the stale entry so a
            // fresh one replaces it, rebuild the possibly
            // part-mutated lane, and keep trying older candidates
            // against the clean state.
            store_->dropCheckpoint(lane.ckptSpec, ckptConfigDigest_,
                                   candidates[c], state);
            pass.engines[k] = make_engine(lane);
            pass.sim.rebuildLane(k, pass.engines[k].get());
        }
        if (resume_span.active()) {
            resume_span.arg("engine", lane.label);
            resume_span.arg("resume_index",
                            static_cast<std::uint64_t>(resume));
        }
        if (resume > 0) {
            resumedRuns_.fetch_add(1);
            resumedRecordsSkipped_.fetch_add(resume);
            driverMetrics().cellResumed.add();
            driverMetrics().ckptSkippedRecords.add(resume);
        }
        pass.sim.setLaneRange(k, resume, end);
        std::vector<std::size_t> armed;
        for (std::size_t b : ctx.bounds)
            if (b > resume && b < end)
                armed.push_back(b);
        if (end > resume)
            armed.push_back(end);
        pass.sim.setLaneBoundaries(k, std::move(armed));
    }

    if (checkpointing) {
        pass.sim.setBoundaryCallback([&](std::size_t lane,
                                         std::size_t index,
                                         PrefetchSimulator &lane_sim) {
            // May run concurrently from lane worker threads: only
            // the thread-safe store, prefix memo and atomics below.
            ScopedSpan write_span("ckpt.write", "ckpt");
            if (write_span.active()) {
                write_span.arg("lane",
                               static_cast<std::uint64_t>(lane));
                write_span.arg("index",
                               static_cast<std::uint64_t>(index));
            }
            StoredCheckpointMeta meta;
            meta.workload = ctx.workload;
            meta.engine = lanes[lane].label;
            meta.index = index;
            meta.warmup = ctx.warmup;
            store_->putCheckpoint(
                lanes[lane].ckptSpec, ckptConfigDigest_, index,
                checkpointStateDigest(ctx.prefixDigests({index})[0],
                                      index, ctx.warmup),
                encodeCheckpoint(lane_sim, index), meta);
            checkpointsWritten_.fetch_add(1);
            driverMetrics().ckptWritten.add();
        });
    }

    const auto pass_start = std::chrono::steady_clock::now();
    pass.sim.run(ctx.trace, jobs);
    driverMetrics().passNs.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - pass_start)
            .count()));
    return pass;
}

bool
ExperimentDriver::runCellSegment(const std::string &workload_name,
                                 const EngineSpec *engine,
                                 std::size_t seg_begin,
                                 std::size_t seg_end,
                                 std::string *error)
{
    auto fail = [&](const std::string &text) {
        if (error)
            *error = text;
        return false;
    };
    if (!store_ || !store_->usable())
        return fail("segment execution requires an attached store");
    std::unique_ptr<Workload> workload =
        WorkloadRegistry::instance().make(workload_name);
    if (!workload)
        return fail("unknown workload '" + workload_name + "'");
    if (engine && !EngineRegistry::instance().contains(engine->engine))
        return fail("unknown engine '" + engine->engine + "'");

    ScopedSpan span("cells.segment", "driver");
    if (span.active()) {
        span.arg("workload", workload_name);
        span.arg("begin", static_cast<std::uint64_t>(seg_begin));
        span.arg("end", static_cast<std::uint64_t>(seg_end));
    }

    TraceContext ctx;
    ctx.workload = workload_name;
    openTraceContext(ctx, materializeTrace(*workload, nullptr),
                     /*checkpointing=*/true);
    seg_end = std::min(seg_end, ctx.trace.size());
    if (seg_begin >= seg_end)
        return true; // nothing to advance

    // The column's lanes, under the same identities run() gives
    // them: resuming here finds a continuous run's checkpoints and
    // vice versa.
    const bool scientific =
        workload->workloadClass() == WorkloadClass::kScientific;
    std::vector<LaneSpec> lanes;
    if (engine) {
        lanes.push_back(LaneSpec::column(*engine, scientific));
    } else {
        lanes.push_back(LaneSpec::baseline(scientific));
        if (config_.enableTiming)
            lanes.push_back(LaneSpec::stride(scientific));
    }
    runLanes(ctx, lanes, seg_end, jobs_);
    return true;
}

std::vector<WorkloadResult>
ExperimentDriver::run(const SweepPlan &plan)
{
    return run(plan, planEngineSpecs(plan));
}

std::vector<WorkloadResult>
ExperimentDriver::run(const SweepPlan &plan,
                      const std::vector<EngineSpec> &engines)
{
    applyPlan(plan);
    return run(plan.workloads, engines);
}

std::vector<WorkloadResult>
ExperimentDriver::runSuite(const std::vector<EngineSpec> &engines)
{
    return run(WorkloadRegistry::instance().names(), engines);
}

WorkloadResult
ExperimentDriver::runWorkload(
    const Workload &workload, const std::vector<EngineSpec> &engines,
    std::optional<std::uint64_t> trace_digest)
{
    auto results = runCells({&workload}, engines,
                            /*cacheable=*/false, trace_digest);
    return std::move(results.at(0));
}

void
ExperimentDriver::forEachTrace(
    const std::vector<std::string> &workloads,
    const std::function<void(std::size_t, const Workload &,
                             const Trace &)> &fn)
{
    std::vector<std::unique_ptr<Workload>> owned;
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        auto w = WorkloadRegistry::instance().make(workloads[i]);
        if (!w)
            continue;
        owned.push_back(std::move(w));
        indices.push_back(i);
    }
    dispatch(owned.size(), [&](std::size_t k) {
        const Workload &w = *owned[k];
        Trace trace = materializeTrace(w, nullptr);
        fn(indices[k], w, trace);
    });
}

} // namespace stems
