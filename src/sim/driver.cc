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
#include <system_error>
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

/** The driver's diagnostics, in the process-wide registry: metrics
 *  snapshots, run manifests and the benches' `[store]` line read
 *  them, and tests read their deltas. */
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

/** The registered workloads `names` selects, each with its position
 *  in `names`; unknown names are skipped. */
std::vector<std::pair<std::size_t, std::unique_ptr<Workload>>>
registryWorkloads(const std::vector<std::string> &names)
{
    std::vector<std::pair<std::size_t, std::unique_ptr<Workload>>> out;
    for (std::size_t i = 0; i < names.size(); ++i)
        if (auto w = WorkloadRegistry::instance().make(names[i]))
            out.emplace_back(i, std::move(w));
    return out;
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

    /// Trace-prefix digests (trace/trace_io.hh). The context's one
    /// hashing pass keeps every boundary's state and yields
    /// `digest`; an off-schedule resume candidate resumes from the
    /// nearest lower index hashed. Thread-safe (lane threads write
    /// checkpoints concurrently).
    TracePrefixMemo prefixes{trace};
    /// Content digest (traceDigest), when the context hashed.
    std::uint64_t digest = 0;
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

    /** The prefetch-free baseline lane. */
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

/** A workload's armed lanes: lane k of `sim` runs `engines[k]`,
 *  which stays alive until the lane finished and was probed. */
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

    /// The cells to simulate; cold[k] is lane k of `pass`.
    std::vector<Cell *> cold;
    LanePass pass;
    /// The `driver.batch` span: materialization to trace release.
    std::unique_ptr<ScopedSpan> span;
    std::chrono::steady_clock::time_point passStart;

    /// Scheduler state, guarded by the scheduler's mutex: whether
    /// the lanes are armed and some are unfinished, and per lane its
    /// next record index and whether a thread holds or finished it.
    struct LaneSlot
    {
        std::size_t next = 0;
        bool busy = false;
        bool done = false;
    };
    bool live = false;
    std::vector<LaneSlot> slots;
    std::size_t lanesLeft = 0;
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

void
ExperimentDriver::usePlan(const SweepPlan &plan)
{
    config_ = planExperimentConfig(plan);
    jobs_ = resolveJobs(plan.jobs);
    checkpointEvery_ =
        static_cast<std::size_t>(plan.checkpointEvery);
    heartbeatSeconds_ =
        plan.heartbeatSeconds < 0 ? 0.0 : plan.heartbeatSeconds;
    // The store's key vocabulary lives in store/keys.hh; the driver
    // only caches the config-context digests here.
    resultConfigDigest_ = stems::resultConfigDigest(config_);
    ckptConfigDigest_ = checkpointConfigDigest(config_);
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
    // Shards with cells to simulate, opened in this (plan) order.
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

    // Progress accounting for the heartbeat: scheduled cells that
    // have finished executing (warm cells never appear — they were
    // merged from the store at schedule time).
    std::atomic<std::size_t> cells_done{0};

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
        scheduleLanes(tasks, cold_cells, checkpointing, cells_done);
    } catch (...) {
        stop_heartbeat();
        throw;
    }
    stop_heartbeat();
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

bool
ExperimentDriver::openTraceContext(TraceContext &ctx,
                                   const Workload &workload,
                                   bool use_store, bool checkpointing,
                                   bool hash)
{
    const TraceKey key{workload.name(), config_.traceRecords,
                       config_.seed};
    bool stored = use_store && store_->loadTrace(key, ctx.trace);
    if (!stored) {
        ctx.trace = workload.generate(config_.seed, config_.traceRecords);
        driverMetrics().traceGenerated.add();
    }
    ctx.warmup = effectiveWarmupRecords(config_, ctx.trace.size());
    // The shared boundary schedule (sim/checkpoint.hh): absolute
    // indices, so a run extended to more records finds these.
    if (checkpointing)
        ctx.bounds = checkpointBounds(ctx.trace.size(), checkpointEvery_);
    // One pass yields the content digest and every boundary's prefix
    // state. A loaded trace is hashed rather than trusting (and
    // re-reading) its meta sidecar: results stay keyed to the true
    // content even if a meta file is stale.
    const bool put = use_store && !stored;
    if (checkpointing || hash || put)
        ctx.digest = ctx.prefixes.hashTrace(ctx.bounds);
    if (put)
        stored = store_->putTrace(key, ctx.trace, ctx.digest).has_value();
    return stored;
}

/**
 * Every simulated lane is built here; the lane scheduler then
 * advances it to the trace end. When the context has a boundary
 * schedule, each lane first resumes from the newest trusted stored
 * checkpoint — one whose trace prefix, warmup boundary and lane
 * identity all match, whoever wrote it (an earlier shorter run, or a
 * worker lost mid-cell) — and is armed to write a checkpoint at
 * every boundary past the resume index, the trace end included.
 */
ExperimentDriver::LanePass
ExperimentDriver::openLanes(TraceContext &ctx,
                            const std::vector<LaneSpec> &lanes)
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
        // checkpoints). Newest first, each index's state digest is
        // computed from this trace's prefix, and only a stored key
        // carrying it is loaded.
        const std::vector<StoredCheckpointKey> stored =
            store_->listCheckpoints(lane.ckptSpec, ckptConfigDigest_);
        std::vector<std::size_t> candidates;
        for (const StoredCheckpointKey &key : stored)
            if (key.index > 0 && key.index <= ctx.trace.size() &&
                (candidates.empty() || candidates.back() != key.index))
                candidates.push_back(static_cast<std::size_t>(key.index));
        const std::vector<std::uint64_t> prefixes =
            ctx.prefixes.digests(candidates);
        std::size_t resume = 0;
        for (std::size_t c = candidates.size(); c-- > 0;) {
            const std::uint64_t state = checkpointStateDigest(
                prefixes[c], candidates[c], ctx.warmup);
            if (!std::binary_search(
                    stored.begin(), stored.end(),
                    StoredCheckpointKey{candidates[c], state}))
                continue;
            // The store verified the blob's framing, CRC and index.
            auto checkpoint = store_->loadCheckpoint(
                lane.ckptSpec, ckptConfigDigest_, candidates[c], state);
            if (!checkpoint)
                continue;
            if (decodeCheckpoint(*checkpoint, pass.sim.simulator(k))) {
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
        pass.sim.setBoundaryCallback([this, &ctx, lanes](
                                         std::size_t lane,
                                         std::size_t index,
                                         PrefetchSimulator &lane_sim) {
            // Runs on whichever thread advances the lane, beside
            // other lanes: only the thread-safe store, prefix memo
            // and registry counter below.
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
            driverMetrics().ckptWritten.add();
        });
    }

    return pass;
}

void
ExperimentDriver::openShard(WorkloadShard &shard, bool checkpointing)
{
    shard.span = std::make_unique<ScopedSpan>("driver.batch", "driver");
    std::vector<LaneSpec> lanes;
    for (Cell &cell : shard.cells) {
        if (cell.fromCache)
            continue;
        shard.cold.push_back(&cell);
        lanes.push_back(cell.lane);
    }
    if (shard.span->active()) {
        shard.span->arg("workload", shard.workload->name());
        shard.span->arg("cells",
                        static_cast<std::uint64_t>(lanes.size()));
    }
    {
        ScopedSpan materialize("trace.materialize", "driver");
        if (materialize.active())
            materialize.arg("workload", shard.workload->name());
        if (openTraceContext(shard.ctx, *shard.workload,
                             shard.storeEligible, checkpointing,
                             /*hash=*/shard.storeEligible)) {
            shard.traceDigest = shard.ctx.digest;
            shard.digestValid = true;
        }
        shard.traceSize = shard.ctx.trace.size();
    }
    shard.pass = openLanes(shard.ctx, lanes);
    shard.slots.resize(lanes.size());
    for (std::size_t k = 0; k < lanes.size(); ++k)
        shard.slots[k].next = shard.pass.sim.laneCursor(k);
    shard.lanesLeft = lanes.size();
    shard.passStart = std::chrono::steady_clock::now();
}

bool
ExperimentDriver::stepLane(WorkloadShard &shard, std::size_t k)
{
    LanePass &pass = shard.pass;
    Cell &cell = *shard.cold[k];
    bool finished = false;
    {
        ScopedSpan span("batch.chunk", "batch");
        if (span.active()) {
            span.arg("workload", shard.ctx.workload);
            span.arg("lane", cell.lane.label);
            span.arg("first", static_cast<std::uint64_t>(
                                  pass.sim.laneCursor(k)));
        }
        finished = pass.sim.advanceLane(k, shard.ctx.trace);
    }
    if (!finished)
        return false;
    cell.stats = pass.sim.stats(k);
    if (cell.spec && cell.spec->probe) {
        EngineResult scratch;
        scratch.engine = cell.lane.label;
        scratch.stats = cell.stats;
        cell.spec->probe(*pass.engines[k], scratch);
        cell.extra = std::move(scratch.extra);
    }
    pass.sim.releaseLane(k);
    pass.engines[k].reset();
    return true;
}

void
ExperimentDriver::releaseShard(WorkloadShard &shard)
{
    driverMetrics().passNs.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - shard.passStart)
            .count()));
    Trace().swap(shard.ctx.trace);
    shard.span.reset();
}

/**
 * The lane scheduler. A free thread advances, by one chunk, the
 * unfinished lane nobody holds with the lowest next record index
 * among the open workloads (ties in plan order). Lanes that step
 * slowly fall behind, so they are picked first: the threads finish
 * together without a cost model. Only when no lane is runnable does a
 * thread open the next workload (trace, prefix digests, resume and
 * boundary arming), so each live trace is held by a distinct thread
 * — one stepping its lane, opening it or releasing it — and at most
 * jobs traces are live. A lane is bitwise the same on any schedule
 * (BatchSimulator::advanceLane); results merge in plan order later.
 */
void
ExperimentDriver::scheduleLanes(const std::vector<WorkloadShard *> &tasks,
                                std::size_t cold_lanes, bool checkpointing,
                                std::atomic<std::size_t> &cells_done)
{
    std::mutex mutex;
    std::condition_variable wake;
    std::size_t opened = 0;  // tasks[0, opened) were taken
    std::size_t working = 0; // threads stepping or opening
    std::exception_ptr error;

    auto body = [&] {
        std::unique_lock<std::mutex> lock(mutex);
        while (!error) {
            WorkloadShard *shard = nullptr;
            std::size_t lane = 0;
            for (std::size_t t = 0; t < opened; ++t) {
                WorkloadShard &s = *tasks[t];
                if (!s.live)
                    continue;
                for (std::size_t k = 0; k < s.slots.size(); ++k) {
                    const auto &slot = s.slots[k];
                    if (!slot.busy && !slot.done &&
                        (!shard || slot.next < shard->slots[lane].next)) {
                        shard = &s;
                        lane = k;
                    }
                }
            }
            WorkloadShard *opening = nullptr;
            if (shard) {
                shard->slots[lane].busy = true;
            } else if (opened < tasks.size()) {
                opening = tasks[opened++];
            } else if (working == 0) {
                break;
            } else {
                wake.wait(lock);
                continue;
            }

            ++working;
            lock.unlock();
            std::exception_ptr failure;
            bool finished = false;
            try {
                if (opening)
                    openShard(*opening, checkpointing);
                else
                    finished = stepLane(*shard, lane);
            } catch (...) {
                failure = std::current_exception();
            }
            lock.lock();
            --working;
            if (failure && !error)
                error = failure;
            bool release = false;
            if (opening) {
                opening->live = !failure;
            } else {
                auto &slot = shard->slots[lane];
                slot.busy = false;
                slot.next = shard->pass.sim.laneCursor(lane);
                if (finished) {
                    slot.done = true;
                    cells_done.fetch_add(1, std::memory_order_relaxed);
                    release = --shard->lanesLeft == 0;
                    shard->live = !release;
                }
            }
            wake.notify_all();
            if (release) {
                // The trace goes with its last lane, so peak memory
                // tracks the live workloads, not the suite.
                lock.unlock();
                releaseShard(*shard);
                lock.lock();
            }
        }
        wake.notify_all();
    };

    const std::size_t threads =
        std::min<std::size_t>(jobs_, cold_lanes);
    std::vector<std::thread> pool;
    try {
        for (std::size_t t = 1; t < threads; ++t)
            pool.emplace_back(body);
    } catch (const std::system_error &) {
        // A thread that cannot start leaves its lanes to the others.
    }
    body();
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
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
    usePlan(plan);
    const auto owned = registryWorkloads(plan.workloads);
    std::vector<const Workload *> workloads;
    for (const auto &entry : owned)
        workloads.push_back(entry.second.get());
    return runCells(workloads, engines, /*cacheable=*/true);
}

WorkloadResult
ExperimentDriver::runWorkload(
    const SweepPlan &plan, const Workload &workload,
    const std::vector<EngineSpec> &engines,
    std::optional<std::uint64_t> trace_digest)
{
    usePlan(plan);
    auto results = runCells({&workload}, engines,
                            /*cacheable=*/false, trace_digest);
    return std::move(results.at(0));
}

void
ExperimentDriver::forEachTrace(
    const SweepPlan &plan,
    const std::function<void(std::size_t, const Workload &,
                             const Trace &)> &fn)
{
    usePlan(plan);
    const auto owned = registryWorkloads(plan.workloads);
    dispatch(owned.size(), [&](std::size_t k) {
        const Workload &w = *owned[k].second;
        TraceContext ctx;
        openTraceContext(ctx, w, store_ != nullptr,
                         /*checkpointing=*/false, /*hash=*/false);
        fn(owned[k].first, w, ctx.trace);
    });
}

} // namespace stems
