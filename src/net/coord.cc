#include "net/coord.hh"

#include <cerrno>
#include <poll.h>

#include "net/protocol.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "store/keys.hh"

namespace stems {

namespace {

void
setError(std::string *error, const std::string &text)
{
    if (error)
        *error = text;
}

Counter &
coordCounter(const char *name)
{
    return MetricsRegistry::instance().counter(name);
}

/** Counts assignments, not executions: a requeued unit counts
 *  again when it is handed out again. */
const char *
unitKindCounter(UnitGranularity kind)
{
    return kind == UnitGranularity::kCell ? "net.unit.cell"
                                          : "net.unit.workload";
}

} // namespace

SweepCoordinator::SweepCoordinator(const SweepPlan &plan)
    : planJson_(sweepPlanJson(plan)),
      planDigest_(sweepPlanDigest(plan))
{
    for (WorkUnit &work : decomposeSweepPlan(plan)) {
        Unit unit;
        unit.work = std::move(work);
        units_.push_back(std::move(unit));
    }
}

SweepCoordinator::~SweepCoordinator() = default;

bool
SweepCoordinator::listen(std::uint16_t port, std::string *error)
{
    return listener_.open(port, error);
}

bool
SweepCoordinator::assignUnit(Conn &conn)
{
    // Lowest pending index first: deterministic hand-out order (the
    // results themselves are order-independent, but predictable
    // scheduling keeps logs and tests readable).
    for (std::size_t i = 0; i < units_.size(); ++i) {
        if (units_[i].state != UnitState::kPending)
            continue;
        const WorkUnit &work = units_[i].work;
        UnitMsg msg;
        msg.unitIndex = i;
        msg.workload = work.workload;
        msg.kind = work.kind;
        msg.column = work.column;
        // Prefetch hint: the next pending unit with a *different*
        // workload — its trace can be materialized into the store
        // while this unit simulates.
        for (std::size_t j = 0; j < units_.size(); ++j) {
            if (j == i ||
                units_[j].state != UnitState::kPending ||
                units_[j].work.workload == work.workload)
                continue;
            msg.prefetchWorkload = units_[j].work.workload;
            break;
        }
        if (!conn.io->sendFrame(kMsgUnit, encodeUnit(msg)))
            return false;
        units_[i].state = UnitState::kInFlight;
        units_[i].session = conn.session;
        units_[i].assignedAt = std::chrono::steady_clock::now();
        conn.state = ConnState::kWorking;
        conn.unit = i;
        coordCounter("coord.units.assigned").add();
        coordCounter(unitKindCounter(work.kind)).add();
        return true;
    }
    return false; // nothing pending
}

void
SweepCoordinator::requeue(Unit &unit)
{
    unit.state = UnitState::kPending;
    unit.session = 0;
    requeued_++;
    coordCounter("coord.units.requeued").add();
}

/** Graceful end-of-sweep: kBye then close (not a failure path). */
void
SweepCoordinator::finishConn(Conn &conn)
{
    if (conn.io->closed())
        return;
    conn.io->sendFrame(kMsgBye, {});
    conn.io->close();
}

/** Abrupt loss: requeue the conn's unit and close. */
void
SweepCoordinator::dropConn(std::size_t index)
{
    Conn &conn = conns_[index];
    if (conn.io->closed())
        return;
    if (conn.state == ConnState::kWorking &&
        units_[conn.unit].state == UnitState::kInFlight &&
        units_[conn.unit].session == conn.session)
        requeue(units_[conn.unit]);
    conn.io->close();
    coordCounter("coord.workers.disconnected").add();
    // A parked worker can take over the requeued unit.
    pumpParked();
}

void
SweepCoordinator::pumpParked()
{
    for (Conn &conn : conns_) {
        if (conn.io->closed() || conn.state != ConnState::kParked)
            continue;
        conn.state = ConnState::kIdle;
        if (!assignUnit(conn))
            conn.state = ConnState::kParked;
    }
}

void
SweepCoordinator::expireUnits()
{
    if (unitTimeoutSeconds_ <= 0.0)
        return;
    const auto now = std::chrono::steady_clock::now();
    const auto unit_limit = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(unitTimeoutSeconds_));
    bool changed = false;

    for (std::size_t i = 0; i < units_.size(); ++i) {
        Unit &unit = units_[i];
        if (unit.state == UnitState::kInFlight &&
            now - unit.assignedAt >= unit_limit) {
            // Slow-worker watchdog: one hung worker must not stall
            // the sweep. Drop the connection (if it is still
            // around) and requeue; a late kUnitDone from the
            // zombie for an already-redone unit is ignored by the
            // duplicate-done path.
            for (Conn &conn : conns_) {
                if (!conn.io->closed() &&
                    conn.state == ConnState::kWorking &&
                    conn.unit == i &&
                    conn.session == unit.session) {
                    conn.io->close();
                    coordCounter("coord.workers.disconnected")
                        .add();
                    break;
                }
            }
            requeue(unit);
            coordCounter("coord.units.watchdog").add();
            changed = true;
        }
    }
    if (changed)
        pumpParked();
}

/** @return false when the connection must be dropped. */
bool
SweepCoordinator::handleFrame(std::size_t index, const Frame &frame)
{
    Conn &conn = conns_[index];
    switch (frame.type) {
    case kMsgHello: {
        HelloMsg hello;
        if (conn.state != ConnState::kAwaitHello ||
            !decodeHello(frame.payload, hello))
            return false;
        if (hello.version != kNetProtocolVersion) {
            // Clean cross-version rejection: an old (or newer) peer
            // gets a definite kBye instead of a dead socket, so it
            // reports a refusal rather than hanging in a retry.
            finishConn(conn);
            return true;
        }
        conn.session =
            hello.sessionId != 0 ? hello.sessionId : nextSession_++;
        PlanMsg plan_msg;
        plan_msg.planDigest = planDigest_;
        plan_msg.planJson = planJson_;
        plan_msg.sessionId = conn.session;
        if (!conn.io->sendFrame(kMsgPlan, encodePlanMsg(plan_msg)))
            return false;
        conn.state = ConnState::kAwaitAck;
        return true;
    }
    case kMsgPlanAck: {
        PlanAckMsg ack;
        if (conn.state != ConnState::kAwaitAck ||
            !decodePlanAck(frame.payload, ack) ||
            ack.planDigest != planDigest_)
            return false;
        conn.state = ConnState::kIdle;
        return true;
    }
    case kMsgRequestUnit: {
        if (conn.state != ConnState::kIdle)
            return false;
        if (allDone()) {
            finishConn(conn);
            return true;
        }
        if (!assignUnit(conn))
            conn.state = ConnState::kParked;
        return true;
    }
    case kMsgUnitDone: {
        UnitDoneMsg done;
        if (!decodeUnitDone(frame.payload, done))
            return false;
        if (conn.state == ConnState::kWorking &&
            done.unitIndex == conn.unit &&
            units_[conn.unit].state == UnitState::kInFlight &&
            units_[conn.unit].session == conn.session) {
            units_[conn.unit].state = UnitState::kDone;
            completed_++;
            coordCounter("coord.units.completed").add();
            conn.state = ConnState::kIdle;
            return true;
        }
        // Duplicate completion for a unit that is already done
        // (a worker hook sending kUnitDone twice): idempotent,
        // ignore.
        if (done.unitIndex < units_.size() &&
            units_[static_cast<std::size_t>(done.unitIndex)]
                    .state == UnitState::kDone)
            return true;
        return false;
    }
    default:
        return false;
    }
}

bool
SweepCoordinator::serve(double timeout_seconds, std::string *error)
{
    if (listener_.fd() < 0) {
        setError(error, "serve before listen");
        return false;
    }
    ScopedSpan span("coord.serve", "net");
    span.arg("units", static_cast<std::uint64_t>(units_.size()));

    const bool bounded = timeout_seconds > 0.0;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(
                bounded ? timeout_seconds : 0.0));

    while (!allDone()) {
        if (bounded &&
            std::chrono::steady_clock::now() >= deadline) {
            setError(error,
                     "sweep service timed out with " +
                         std::to_string(units_.size() - completed_) +
                         " unit(s) unfinished");
            for (std::size_t i = 0; i < conns_.size(); ++i)
                dropConn(i);
            return false;
        }
        expireUnits();
        if (allDone())
            break;

        std::vector<pollfd> fds;
        fds.push_back({listener_.fd(), POLLIN, 0});
        // Map pollfd index -> conns_ index (closed conns skipped).
        std::vector<std::size_t> conn_of;
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            if (conns_[i].io->closed())
                continue;
            fds.push_back({conns_[i].io->fd(), POLLIN, 0});
            conn_of.push_back(i);
        }
        int ready = ::poll(fds.data(),
                           static_cast<nfds_t>(fds.size()), 100);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            setError(error, "poll failed");
            return false;
        }
        if (ready == 0)
            continue;

        if (fds[0].revents & POLLIN) {
            int fd = listener_.accept();
            if (fd >= 0) {
                Conn conn;
                conn.io = std::make_unique<FramedConn>(fd);
                conns_.push_back(std::move(conn));
                workersSeen_++;
                coordCounter("coord.workers.connected").add();
            }
        }

        for (std::size_t k = 0; k < conn_of.size(); ++k) {
            if (!(fds[k + 1].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            std::size_t ci = conn_of[k];
            if (conns_[ci].io->closed())
                continue; // closed while handling an earlier event
            if (!conns_[ci].io->readAvailable()) {
                dropConn(ci);
                continue;
            }
            Frame frame;
            bool drop = false;
            while (!drop && conns_[ci].io->nextFrame(frame))
                drop = !handleFrame(ci, frame);
            if (drop || conns_[ci].io->frameError())
                dropConn(ci);
        }

        // Garbage-collect closed connections so long sweeps with
        // worker churn don't grow the table unboundedly.
        std::size_t alive = 0;
        for (std::size_t i = 0; i < conns_.size(); ++i)
            if (!conns_[i].io->closed())
                conns_[alive++] = std::move(conns_[i]);
        conns_.resize(alive);
    }

    for (Conn &conn : conns_)
        finishConn(conn);
    conns_.clear();
    listener_.close();
    return true;
}

} // namespace stems
