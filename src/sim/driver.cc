#include "sim/driver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
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
    Counter &cellSimulated, &cellResumed;
    Counter &ckptSkippedRecords, &ckptWritten;
    /// One sample per BatchSimulator pass over a workload's cold
    /// lanes.
    LatencyHistogram &passNs;

    DriverMetrics()
        : traceGenerated(
              registry().counter("driver.trace.generated")),
          cellSimulated(registry().counter("driver.cell.simulated")),
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

} // namespace

/**
 * One trace as the lane routine sees it: the records, the warmup
 * boundary, the checkpoint boundary schedule and the trace-prefix
 * digest memo. Shared by every lane of a pass over the trace.
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

    /// Trace-prefix digests (trace/trace_io.hh). Every boundary is
    /// hashed when the context opens; an off-schedule resume
    /// candidate resumes from the nearest lower index hashed.
    /// Thread-safe (lane threads write checkpoints concurrently).
    TracePrefixMemo prefixes{trace};
};

/**
 * One simulation lane, resolved once at schedule time: the label
 * its checkpoints and results are filed under, the engine it builds,
 * its checkpoint identity (store/keys.hh laneCheckpointSpecDigest)
 * and its result identity.
 */
struct ExperimentDriver::LaneSpec
{
    LaneSpec(std::string lane_label, std::string engine_name,
             EngineOptions engine_options, bool scientific,
             const std::string &probe_id = {})
        : label(std::move(lane_label)),
          engine(std::move(engine_name)),
          options(std::move(engine_options))
    {
        options.scientific = options.scientific || scientific;
        ckptSpec = laneCheckpointSpecDigest(engine, options, scientific);
        // The baseline's result is filed under its checkpoint
        // identity; an engine lane's under its engine spec, probe id
        // included (a probe's output is part of the result).
        resultSpec = engine.empty()
                         ? ckptSpec
                         : engineSpecDigest(engine, options, probe_id);
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
                        scientific, spec.probeId);
    }

    std::string label;
    /// Registered engine name; empty = no engine (the baseline).
    std::string engine;
    /// Effective engine options (workload class folded in).
    EngineOptions options;
    std::uint64_t ckptSpec = 0;
    std::uint64_t resultSpec = 0;
};

/** A finished lane pass: per-lane statistics live in `sim`, and the
 *  engines stay alive for post-run probes. */
struct ExperimentDriver::LanePass
{
    BatchSimulator sim;
    std::vector<std::unique_ptr<Prefetcher>> engines;
};

/** One lane of a workload's lane list, and its outcome. */
struct ExperimentDriver::Cell
{
    explicit Cell(LaneSpec lane_spec, const EngineSpec *column = nullptr)
        : lane(std::move(lane_spec)), spec(column)
    {
    }

    LaneSpec lane;
    /// The engine column the lane runs; null for the baseline and
    /// stride reference lanes.
    const EngineSpec *spec;
    SimStats stats;
    std::map<std::string, double> extra;
    /// Served from the store's result cache at schedule time, so
    /// never simulated (and never re-persisted).
    bool fromCache = false;

    /** A spec that carries an anonymous probe cannot be
     *  result-cached: the probe's output is part of the result but
     *  its code has no stable identity. Naming the probe (probeId)
     *  opts back in. */
    bool
    cacheable() const
    {
        return !spec || !spec->probe || !spec->probeId.empty();
    }
};

/** Per-workload shard state: the workload's lane list and trace. */
struct ExperimentDriver::WorkloadShard
{
    const Workload *workload = nullptr;
    bool scientific = false;
    TraceContext ctx;
    /// Record count of the materialized trace (outlives the trace
    /// release; informational, for result sidecars).
    std::size_t traceSize = 0;

    /// The baseline lane, under timing the stride lane, then one
    /// cell per known engine column in the caller's order.
    std::vector<Cell> cells;

    /// Persistent-store state: registry workloads with an attached
    /// store replay traces from disk, and a valid trace content
    /// digest keys the stored lane results.
    bool storeEligible = false;
    std::uint64_t traceDigest = 0;
    bool digestValid = false;
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
ExperimentDriver::setStore(std::shared_ptr<TraceStore> store)
{
    store_ = std::move(store);
    if (store_) {
        // The store's key vocabulary lives in store/keys.hh; the
        // driver only caches the config-context digests here.
        resultConfigDigest_ = stems::resultConfigDigest(config_);
        ckptConfigDigest_ = checkpointConfigDigest(config_);
    }
}

void
ExperimentDriver::applyPlan(const SweepPlan &plan)
{
    ExperimentConfig next = planExperimentConfig(plan);
    next.system = config_.system;
    config_ = next;
    jobs_ = resolveJobs(plan.jobs);
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
            // (and re-reading) the meta sidecar: results stay keyed
            // to the true content even if a meta file is stale, at
            // no extra I/O.
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

    // ---- schedule ----
    // Phase spans end early (before the next phase), so they live
    // behind unique_ptrs instead of plain RAII scopes.
    auto schedule_span = std::make_unique<ScopedSpan>(
        "driver.schedule", "driver");
    std::vector<std::unique_ptr<WorkloadShard>> shards;
    shards.reserve(workloads.size());
    // Shards with cells to simulate: one task each.
    std::vector<WorkloadShard *> tasks;
    std::size_t cold_cells = 0;
    for (const Workload *w : workloads) {
        auto shard = std::make_unique<WorkloadShard>();
        shard->workload = w;
        shard->ctx.workload = w->name();
        shard->scientific =
            w->workloadClass() == WorkloadClass::kScientific;
        shard->cells.emplace_back(LaneSpec::baseline(shard->scientific));
        if (config_.enableTiming)
            shard->cells.emplace_back(
                LaneSpec::stride(shard->scientific));
        for (const EngineSpec &spec : engines)
            if (registry.contains(spec.engine))
                shard->cells.emplace_back(
                    LaneSpec::column(spec, shard->scientific), &spec);

        shard->storeEligible = cacheable && store_ != nullptr;
        if (shard->storeEligible) {
            // Metadata-only probe: learn the trace's content digest
            // (the stored-result key) without decoding any records.
            if (auto info = store_->findTrace(
                    {w->name(), config_.traceRecords,
                     config_.seed})) {
                shard->traceDigest = info->digest;
                shard->digestValid = true;
            }
        } else if (store_ && external_digest) {
            // External workload with a caller-vouched trace digest
            // (a captured/imported trace): stored results apply even
            // though the name-keyed trace replay does not.
            shard->traceDigest = *external_digest;
            shard->digestValid = true;
        }

        if (shard->digestValid) {
            // Probe the result cache at schedule time: a warm cell is
            // merged straight from the store and never scheduled, so
            // a fully warm sweep dispatches no work at all (and never
            // even materializes the trace).
            for (Cell &cell : shard->cells) {
                if (!cell.cacheable())
                    continue;
                if (auto r = store_->loadResult(shard->traceDigest,
                                                cell.lane.resultSpec,
                                                resultConfigDigest_)) {
                    cell.stats = r->stats;
                    cell.extra = std::move(r->extra);
                    cell.fromCache = true;
                }
            }
        }

        std::size_t cold = 0;
        for (const Cell &cell : shard->cells)
            cold += cell.fromCache ? 0 : 1;
        if (cold > 0)
            tasks.push_back(shard.get());
        cold_cells += cold;
        shards.push_back(std::move(shard));
    }
    if (schedule_span->active()) {
        schedule_span->arg("cells",
                           static_cast<std::uint64_t>(cold_cells));
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

    // A sweep with fewer workloads than jobs would leave threads
    // idle: hand the slack to each pass as lane threads. Lanes are
    // independent, so any split stays bitwise deterministic.
    const unsigned lane_jobs = static_cast<unsigned>(
        std::max<std::size_t>(
            1, jobs_ / std::max<std::size_t>(1, tasks.size())));

    // Progress accounting for the heartbeat: scheduled cells that
    // have finished executing (warm cells never appear — they were
    // merged from the store at schedule time).
    std::atomic<std::size_t> cells_done{0};

    /**
     * One workload's task: materialize the trace, advance every cold
     * cell as a lane of one pass over it (a lane is bitwise identical
     * to a standalone PrefetchSimulator::run, which sim_test pins),
     * collect the lanes' statistics and probes, and release the
     * trace.
     */
    auto run_shard = [&](std::size_t task) {
        WorkloadShard &shard = *tasks[task];
        std::vector<Cell *> cold;
        std::vector<LaneSpec> lanes;
        for (Cell &cell : shard.cells) {
            if (cell.fromCache)
                continue;
            cold.push_back(&cell);
            lanes.push_back(cell.lane);
        }
        ScopedSpan span("driver.batch", "driver");
        if (span.active()) {
            span.arg("workload", shard.workload->name());
            span.arg("cells", static_cast<std::uint64_t>(cold.size()));
            span.arg("lane_jobs", static_cast<std::uint64_t>(lane_jobs));
        }
        {
            ScopedSpan materialize("trace.materialize", "driver");
            if (materialize.active())
                materialize.arg("workload", shard.workload->name());
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
        }

        LanePass pass = runLanes(shard.ctx, lanes, lane_jobs);
        for (std::size_t k = 0; k < cold.size(); ++k) {
            Cell &cell = *cold[k];
            cell.stats = pass.sim.stats(k);
            if (cell.spec && cell.spec->probe) {
                EngineResult scratch;
                scratch.engine = cell.lane.label;
                scratch.stats = cell.stats;
                cell.spec->probe(*pass.engines[k], scratch);
                cell.extra = std::move(scratch.extra);
            }
        }
        cells_done.fetch_add(cold.size(), std::memory_order_relaxed);
        // Release the trace as soon as its single pass completes, so
        // peak memory tracks in-flight workloads, not the suite.
        Trace().swap(shard.ctx.trace);
    };

    // ---- heartbeat (opt-in; stderr only) ----
    std::mutex hb_mutex;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    std::thread hb_thread;
    if (heartbeatSeconds_ > 0 && cold_cells > 0) {
        hb_thread = std::thread([&, total = cold_cells] {
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
    try {
        dispatch(tasks.size(), run_shard);
    } catch (...) {
        stop_heartbeat();
        throw;
    }
    stop_heartbeat();
    cellRuns_ += cold_cells;
    driverMetrics().cellSimulated.add(cold_cells);

    // ---- merge in fixed (workload, engine) order, persisting every
    // simulated cell ----
    auto merge_span =
        std::make_unique<ScopedSpan>("driver.merge", "driver");
    bool store_wrote = false;
    std::vector<WorkloadResult> results;
    results.reserve(shards.size());
    for (const auto &shard : shards) {
        WorkloadResult r;
        r.workload = shard->workload->name();
        r.workloadClass = shard->workload->workloadClass();
        const SimStats &baseline = shard->cells[0].stats;
        r.baselineMisses = baseline.offChipReads;
        r.baselineCycles = baseline.cycles;
        if (config_.enableTiming) {
            const SimStats &stride = shard->cells[1].stats;
            r.strideCycles = stride.cycles;
            r.baselineIpc = stride.ipc();
        }
        for (Cell &cell : shard->cells) {
            EngineResult er;
            er.engine = cell.lane.label;
            er.stats = cell.stats;
            er.coverage =
                ratio(er.stats.covered(), r.baselineMisses);
            er.uncovered =
                ratio(er.stats.offChipReads, r.baselineMisses);
            er.overprediction =
                ratio(er.stats.overpredictions, r.baselineMisses);
            if (config_.enableTiming && er.stats.cycles > 0)
                er.speedup = r.strideCycles / er.stats.cycles;
            er.extra = std::move(cell.extra);
            if (shard->digestValid && !cell.fromCache &&
                cell.cacheable()) {
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
                store_->putResult(shard->traceDigest,
                                  cell.lane.resultSpec,
                                  resultConfigDigest_, sr, meta);
                store_wrote = true;
            }
            if (cell.spec)
                r.engines.push_back(std::move(er));
        }
        results.push_back(std::move(r));
    }
    merge_span.reset();
    if (store_wrote) {
        // One budget pass for the whole sweep's result writes
        // (putTrace already self-enforces per trace).
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
    // The shared boundary schedule (sim/checkpoint.hh): absolute
    // indices, so a run extended to more records finds these.
    ctx.bounds = checkpointBounds(ctx.trace.size(), checkpointEvery_);
    ctx.prefixes.digests(ctx.bounds);
}

/**
 * Every lane pass goes through here, always to the trace end; the
 * caller collects the lanes' statistics. When the context has a
 * boundary schedule, each lane first resumes from the newest trusted
 * stored checkpoint — one whose trace prefix, warmup boundary and
 * lane identity all match, whoever wrote it (an earlier shorter run,
 * or a worker lost mid-cell) — and then writes a checkpoint at every
 * boundary past the resume index, the trace end included.
 */
ExperimentDriver::LanePass
ExperimentDriver::runLanes(TraceContext &ctx,
                           const std::vector<LaneSpec> &lanes,
                           unsigned jobs)
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
    for (std::size_t k = 0; checkpointing && k < lanes.size(); ++k) {
        const LaneSpec &lane = lanes[k];
        ScopedSpan resume_span("ckpt.resume", "ckpt");

        // Resume: candidate indices come from the store's directory
        // (they may include other workloads' or record-schedules'
        // checkpoints); each is verified against this trace by its
        // prefix digest, newest first.
        std::vector<std::size_t> candidates;
        for (std::uint64_t c : store_->listCheckpointIndices(
                 lane.ckptSpec, ckptConfigDigest_))
            if (c > 0 && c <= ctx.trace.size())
                candidates.push_back(static_cast<std::size_t>(c));
        const std::vector<std::uint64_t> prefixes =
            ctx.prefixes.digests(candidates);
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
        pass.sim.setLaneStart(k, resume);
        std::vector<std::size_t> armed;
        for (std::size_t b : ctx.bounds)
            if (b > resume)
                armed.push_back(b);
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
                checkpointStateDigest(ctx.prefixes.digests({index})[0],
                                      index, ctx.warmup),
                lane_sim, meta);
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
