#include "net/worker.hh"

#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "net/protocol.hh"
#include "net/socket.hh"
#include "net/units.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "sim/driver.hh"
#include "store/keys.hh"
#include "store/trace_store.hh"
#include "workloads/registry.hh"

namespace stems {

namespace {

void
setError(std::string *error, const std::string &text)
{
    if (error)
        *error = text;
}

/** One background trace-prefetch slot: at most one hint in flight;
 *  joined before the next launch and on scope exit (putTrace is
 *  atomic, so a prefetch racing a foreground materialization of the
 *  same trace is wasted work, never corruption). */
class TracePrefetcher
{
  public:
    explicit TracePrefetcher(std::shared_ptr<TraceStore> store)
        : store_(std::move(store))
    {
    }

    ~TracePrefetcher() { join(); }

    void launch(const std::string &workload, std::uint64_t records,
                std::uint64_t seed)
    {
        join();
        TraceKey key{workload, records, seed};
        if (store_->findTrace(key))
            return; // already materialized
        std::shared_ptr<TraceStore> store = store_;
        thread_ = std::thread([store, key] {
            std::unique_ptr<Workload> w =
                WorkloadRegistry::instance().make(key.workload);
            if (!w)
                return;
            ScopedSpan span("worker.prefetch", "net");
            if (span.active())
                span.arg("workload", key.workload);
            Trace trace = w->generate(
                key.seed, static_cast<std::size_t>(key.records));
            if (store->putTrace(key, trace))
                MetricsRegistry::instance()
                    .counter("worker.trace.prefetched")
                    .add();
        });
    }

    void join()
    {
        if (thread_.joinable())
            thread_.join();
    }

  private:
    std::shared_ptr<TraceStore> store_;
    std::thread thread_;
};

WorkUnit
toWorkUnit(const UnitMsg &msg)
{
    WorkUnit work;
    work.kind = msg.kind;
    work.workload = msg.workload;
    work.column = msg.column;
    work.segBegin = msg.segBegin;
    work.segEnd = msg.segEnd;
    work.finalSegment = msg.finalSegment;
    return work;
}

} // namespace

bool
runWorker(const WorkerOptions &options, WorkerReport *report,
          std::string *error)
{
    WorkerReport local;
    WorkerReport &out = report ? *report : local;
    out = WorkerReport{};

    // The store directory must already exist — it is the shared
    // data plane the coordinator merges from. Creating a fresh one
    // here (TraceStore would) means the worker writes results where
    // no merge will ever look; fail before touching the network.
    std::error_code ec;
    if (!std::filesystem::is_directory(options.storeDir, ec)) {
        setError(error, "no trace store at '" + options.storeDir +
                            "'");
        return false;
    }
    auto store = std::make_shared<TraceStore>(options.storeDir);
    if (!store->usable()) {
        setError(error, "cannot open trace store '" +
                            options.storeDir + "'");
        return false;
    }

    // Session state carried across reconnects.
    ExperimentDriver driver;
    std::vector<EngineSpec> engine_specs;
    SweepPlan plan;
    bool have_plan = false;
    std::uint64_t plan_digest = 0;
    std::uint64_t session_id = 0;
    std::optional<UnitMsg> held; // unit kept across a connection drop
    bool drop_fired = false;
    unsigned reconnects_left = options.maxReconnects;
    TracePrefetcher prefetcher(store);

    /** Execute one unit through the driver; every store write lands
     *  under exactly the keys a single-process sweep would use. The
     *  return value of the driver calls is irrelevant here.
     *  @return false on a protocol-level violation (*error set). */
    auto execute = [&](const UnitMsg &unit) -> bool {
        ScopedSpan span("worker.unit", "net");
        if (span.active()) {
            span.arg("workload", unit.workload);
            span.arg("unit", unit.unitIndex);
        }
        if (unit.column >=
            static_cast<std::int32_t>(plan.engines.size())) {
            setError(error, "unit engine column out of range");
            return false;
        }
        switch (unit.kind) {
        case UnitKind::kWorkload: {
            SweepPlan unit_plan = plan;
            unit_plan.workloads = {unit.workload};
            driver.run(unit_plan);
            break;
        }
        case UnitKind::kCell: {
            std::vector<EngineSpec> specs;
            if (unit.column >= 0)
                specs.push_back(engine_specs[static_cast<std::size_t>(
                    unit.column)]);
            driver.run({unit.workload}, specs);
            break;
        }
        case UnitKind::kSegment: {
            const EngineSpec *engine =
                unit.column >= 0
                    ? &engine_specs[static_cast<std::size_t>(
                          unit.column)]
                    : nullptr;
            if (unit.finalSegment) {
                // The cell's last slice: run the cell through the
                // normal path — the driver resumes from the newest
                // trusted checkpoint (the predecessor unit's end
                // state) and computes and persists the results.
                std::vector<EngineSpec> specs;
                if (engine)
                    specs.push_back(*engine);
                driver.run({unit.workload}, specs);
            } else {
                std::string seg_error;
                if (!driver.runCellSegment(
                        unit.workload, engine,
                        static_cast<std::size_t>(unit.segBegin),
                        static_cast<std::size_t>(unit.segEnd),
                        &seg_error)) {
                    setError(error, "segment unit failed: " +
                                        seg_error);
                    return false;
                }
            }
            break;
        }
        }
        out.unitsCompleted++;
        MetricsRegistry::instance()
            .counter("worker.units.completed")
            .add();
        return true;
    };

    // Per-connection outcomes: finished (graceful kBye), failed
    // (protocol violation or unusable unit — unrecoverable), or
    // lost (the connection died; reconnect if budget remains).
    enum class Outcome
    {
        kFinished,
        kFailed,
        kLost,
    };

    auto runConnection = [&](int fd) -> Outcome {
        FramedConn conn(fd);

        HelloMsg hello;
        hello.sessionId = session_id;
        if (!conn.sendFrame(kMsgHello, encodeHello(hello), error))
            return have_plan ? Outcome::kLost : Outcome::kFailed;

        Frame frame;
        if (!conn.recvFrame(frame, error))
            return have_plan ? Outcome::kLost : Outcome::kFailed;
        if (frame.type == kMsgBye) {
            // The coordinator refused the session outright —
            // either the sweep already completed (a late joiner's
            // clean exit) or the protocol versions disagree.
            if (have_plan)
                return Outcome::kFinished;
            setError(error,
                     "coordinator refused the connection (version "
                     "mismatch or sweep already finished)");
            return Outcome::kFailed;
        }
        PlanMsg plan_msg;
        if (frame.type != kMsgPlan ||
            !decodePlanMsg(frame.payload, plan_msg)) {
            setError(error, "expected plan, got frame type " +
                                std::to_string(frame.type));
            return Outcome::kFailed;
        }
        if (!have_plan) {
            std::string parse_error;
            if (!parseSweepPlanJson(plan_msg.planJson, plan,
                                    &parse_error)) {
                setError(error, "bad plan: " + parse_error);
                return Outcome::kFailed;
            }
            // Round-tripping the parsed plan must land on the
            // digest the coordinator advertised; anything else
            // means we would execute (and key the store for) a
            // different sweep than it merges.
            if (sweepPlanDigest(plan) != plan_msg.planDigest) {
                setError(error, "plan digest mismatch");
                return Outcome::kFailed;
            }
            plan_digest = plan_msg.planDigest;
            engine_specs = planEngineSpecs(plan);
            // One driver for the whole session: policy from the
            // plan, and the shared store attached, so a unit merges
            // whatever cells earlier units persisted.
            driver.applyPlan(plan);
            driver.setStore(store);
            have_plan = true;
        } else if (plan_msg.planDigest != plan_digest) {
            setError(error,
                     "coordinator changed plans across reconnect");
            return Outcome::kFailed;
        }
        session_id = plan_msg.sessionId;

        PlanAckMsg ack;
        ack.planDigest = plan_msg.planDigest;
        if (!conn.sendFrame(kMsgPlanAck, encodePlanAck(ack), error))
            return Outcome::kLost;

        // Reclaim a unit held across the previous connection's
        // loss: resume it from the last store-committed checkpoint
        // instead of letting the grace window expire into a
        // from-zero requeue.
        if (held) {
            ResumeMsg resume;
            resume.sessionId = session_id;
            resume.unitIndex = held->unitIndex;
            resume.lastCheckpointIndex = unitLastCheckpointIndex(
                plan, toWorkUnit(*held), *store);
            if (!conn.sendFrame(kMsgResume, encodeResume(resume),
                                error) ||
                !conn.recvFrame(frame, error))
                return Outcome::kLost;
            // The sweep can finish between the Plan handshake and
            // this Resume (the held unit was requeued after the
            // grace window and completed elsewhere); the
            // coordinator then says Bye instead of answering.
            if (frame.type == kMsgBye)
                return Outcome::kFinished;
            ResumeAckMsg verdict;
            if (frame.type != kMsgResumeAck ||
                !decodeResumeAck(frame.payload, verdict)) {
                setError(error,
                         "expected resume ack, got frame type " +
                             std::to_string(frame.type));
                return Outcome::kFailed;
            }
            if (verdict.accepted) {
                UnitMsg unit = *held;
                held.reset();
                out.unitsResumed++;
                if (!execute(unit))
                    return Outcome::kFailed;
                UnitDoneMsg done;
                done.unitIndex = unit.unitIndex;
                if (!conn.sendFrame(kMsgUnitDone,
                                    encodeUnitDone(done), error))
                    return Outcome::kLost;
            } else {
                // Requeued or completed while we were away; the
                // coordinator will hand out whatever is pending.
                held.reset();
            }
        }

        for (;;) {
            if (!conn.sendFrame(kMsgRequestUnit, {}, error))
                return Outcome::kLost;
            if (!conn.recvFrame(frame, error))
                return Outcome::kLost;
            if (frame.type == kMsgBye)
                return Outcome::kFinished;
            UnitMsg unit;
            if (frame.type != kMsgUnit ||
                !decodeUnit(frame.payload, unit)) {
                setError(error, "expected unit, got frame type " +
                                    std::to_string(frame.type));
                return Outcome::kFailed;
            }
            if (options.abandonAfterUnits > 0 &&
                out.unitsCompleted >= options.abandonAfterUnits) {
                // Vanish mid-unit: the coordinator must requeue it
                // (after the resume grace — we are not coming
                // back).
                conn.close();
                out.abandoned = true;
                return Outcome::kFinished;
            }
            if (options.dropAfterUnits > 0 && !drop_fired &&
                out.unitsCompleted >= options.dropAfterUnits) {
                // Lose the connection but keep the unit: reconnect
                // and reclaim it via kResume.
                drop_fired = true;
                conn.close();
                held = unit;
                if (options.reconnectStallSeconds > 0.0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(
                            options.reconnectStallSeconds));
                return Outcome::kLost;
            }
            if (options.prefetchTraces &&
                !unit.prefetchWorkload.empty() &&
                unit.prefetchWorkload != unit.workload)
                prefetcher.launch(unit.prefetchWorkload,
                                  plan.records, plan.seed);
            if (!execute(unit))
                return Outcome::kFailed;
            UnitDoneMsg done;
            done.unitIndex = unit.unitIndex;
            if (!conn.sendFrame(kMsgUnitDone, encodeUnitDone(done),
                                error))
                return Outcome::kLost;
            if (options.duplicateUnitDone &&
                !conn.sendFrame(kMsgUnitDone, encodeUnitDone(done),
                                error))
                return Outcome::kLost;
        }
    };

    for (;;) { // one iteration per connection
        int fd =
            connectWithRetry(options.host, options.port,
                             options.connectTimeoutSeconds, error);
        if (fd < 0) {
            if (have_plan) {
                // A *re*-connect went unanswered. The likeliest
                // cause is a sweep that finished while we were
                // away (the coordinator stops listening once every
                // unit is done); every unit we completed is
                // already committed to the shared store either
                // way, so exit gracefully rather than fail a sweep
                // we can no longer observe.
                if (error)
                    error->clear();
                return true;
            }
            return false;
        }

        switch (runConnection(fd)) {
        case Outcome::kFinished:
            return true;
        case Outcome::kFailed:
            return false;
        case Outcome::kLost:
            break;
        }

        if (reconnects_left == 0) {
            if (error && error->empty())
                setError(error, "connection lost");
            return false;
        }
        reconnects_left--;
        out.reconnects++;
        if (error)
            error->clear();
    }
}

} // namespace stems
