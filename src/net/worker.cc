#include "net/worker.hh"

#include <filesystem>
#include <memory>

#include "net/protocol.hh"
#include "net/socket.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "sim/driver.hh"
#include "store/keys.hh"
#include "store/trace_store.hh"

namespace stems {

namespace {

void
setError(std::string *error, const std::string &text)
{
    if (error)
        *error = text;
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
    SweepPlan plan;
    bool have_plan = false;
    std::uint64_t plan_digest = 0;
    std::uint64_t session_id = 0;
    bool drop_fired = false;
    unsigned reconnects_left = options.maxReconnects;

    /** Execute one unit: the plan restricted to one workload. The
     *  driver runs its lanes on the plan's jobs threads, resumes
     *  each from the newest trusted checkpoint in the store (a lost
     *  worker's partial unit included) and persists every result
     *  under exactly the keys a single-process sweep would use. */
    auto execute = [&](const UnitMsg &unit) {
        SweepPlan unit_plan = plan;
        unit_plan.workloads = {
            plan.workloads[static_cast<std::size_t>(unit.unitIndex)]};
        ScopedSpan span("worker.unit", "net");
        if (span.active()) {
            span.arg("workload", unit_plan.workloads[0]);
            span.arg("unit", unit.unitIndex);
        }
        driver.run(unit_plan);
        out.unitsCompleted++;
        MetricsRegistry::instance()
            .counter("worker.units.completed")
            .add();
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
            // One driver for the whole session, the shared store
            // attached, so a unit merges whatever cells earlier
            // units persisted.
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
            if (unit.unitIndex >= plan.workloads.size()) {
                setError(error, "unit index " +
                                    std::to_string(unit.unitIndex) +
                                    " out of range");
                return Outcome::kFailed;
            }
            if (options.abandonAfterUnits > 0 &&
                out.unitsCompleted >= options.abandonAfterUnits) {
                // Vanish mid-unit: the coordinator must requeue it
                // (we are not coming back).
                conn.close();
                out.abandoned = true;
                return Outcome::kFinished;
            }
            if (options.dropAfterUnits > 0 && !drop_fired &&
                out.unitsCompleted >= options.dropAfterUnits) {
                // Lose the connection mid-unit: the coordinator
                // requeues the unit, and we reconnect for fresh
                // work.
                drop_fired = true;
                conn.close();
                return Outcome::kLost;
            }
            execute(unit);
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
