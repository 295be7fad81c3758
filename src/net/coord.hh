/**
 * @file
 * Sweep coordinator: decomposes a SweepPlan into work units
 * (net/units.hh — whole workloads or cells) and hands them to
 * connected workers over the net/protocol.hh pull protocol until
 * every unit is complete.
 *
 * Single-threaded poll() loop; no driver dependency — the
 * coordinator never simulates, it only schedules. Workers populate
 * the shared content-addressed store; the caller (stems_trace
 * serve) afterwards merges by running the same plan locally over
 * the warm store, which reproduces the single-process output
 * bitwise in fixed plan order.
 *
 * Unit lifecycle: pending -> in-flight -> done.
 *
 *  - pending: unassigned; handed out lowest index first.
 *  - in-flight: owned by one worker connection/session.
 *  - done: completed (a duplicate kUnitDone for a done unit is
 *    ignored).
 *
 * Fault model: a worker that disconnects mid-unit (crash, kill -9,
 * network loss) has its unit requeued to pending at once. Unit
 * execution is idempotent against the store (re-running writes
 * identical bytes under identical keys), and the next runner
 * resumes each lane from the newest checkpoint the lost worker
 * committed, so partial work is reused or redone, never corrupted.
 * Workers that break framing are dropped the same way; peers
 * speaking another protocol version are refused with a clean kBye
 * at the Hello stage. A slow-worker watchdog
 * (setUnitTimeoutSeconds) drops any connection holding a unit
 * longer than the limit and requeues the unit, so one hung worker
 * cannot stall sweep completion.
 */

#ifndef STEMS_NET_COORD_HH
#define STEMS_NET_COORD_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/socket.hh"
#include "net/units.hh"
#include "sim/sweep_plan.hh"

namespace stems {

class SweepCoordinator
{
  public:
    /** Serve the plan's decomposition (decomposeSweepPlan). */
    explicit SweepCoordinator(const SweepPlan &plan);

    ~SweepCoordinator();

    SweepCoordinator(const SweepCoordinator &) = delete;
    SweepCoordinator &operator=(const SweepCoordinator &) = delete;

    /** Bind the service port (0 picks an ephemeral one). */
    bool listen(std::uint16_t port, std::string *error = nullptr);

    /** The bound port, valid after listen(). */
    std::uint16_t port() const { return listener_.port(); }

    /**
     * Distribute every unit; returns when all are complete (true)
     * or when `timeout_seconds` passes without the sweep finishing
     * (false, *error set; 0 = wait forever). Blocks the calling
     * thread; safe to run on a dedicated thread in-process.
     */
    bool serve(double timeout_seconds = 0.0,
               std::string *error = nullptr);

    /** Slow-worker watchdog: a unit held in-flight longer than this
     *  has its connection dropped and is requeued (seconds; 0 = no
     *  watchdog, the default). */
    void setUnitTimeoutSeconds(double seconds)
    {
        unitTimeoutSeconds_ = seconds < 0.0 ? 0.0 : seconds;
    }

    std::size_t unitCount() const { return units_.size(); }
    std::uint64_t unitsCompleted() const { return completed_; }
    std::uint64_t unitsRequeued() const { return requeued_; }
    std::uint64_t workersSeen() const { return workersSeen_; }

  private:
    enum class UnitState : std::uint8_t
    {
        kPending,
        kInFlight,
        kDone
    };

    enum class ConnState : std::uint8_t
    {
        kAwaitHello, ///< accepted, no kMsgHello yet
        kAwaitAck,   ///< plan sent, no kMsgPlanAck yet
        kIdle,       ///< ready, no outstanding unit request
        kParked,     ///< asked for work while none was assignable
        kWorking     ///< owns an in-flight unit
    };

    struct Unit
    {
        WorkUnit work;
        UnitState state = UnitState::kPending;
        std::uint64_t session = 0; ///< owner while in flight
        std::chrono::steady_clock::time_point assignedAt{};
    };

    struct Conn
    {
        std::unique_ptr<FramedConn> io;
        ConnState state = ConnState::kAwaitHello;
        std::size_t unit = 0;      ///< valid in kWorking
        std::uint64_t session = 0; ///< assigned at kMsgHello
    };

    bool assignUnit(Conn &conn);
    /** Return an in-flight unit to pending. */
    void requeue(Unit &unit);
    void finishConn(Conn &conn);
    void dropConn(std::size_t index);
    bool handleFrame(std::size_t index, const Frame &frame);
    /** Offer newly-requeued units to parked workers. */
    void pumpParked();
    /** Slow-worker watchdog: drop and requeue overdue units. */
    void expireUnits();
    bool allDone() const { return completed_ == units_.size(); }

    std::string planJson_;
    std::uint64_t planDigest_ = 0;
    TcpListener listener_;
    std::vector<Unit> units_;
    std::vector<Conn> conns_;
    double unitTimeoutSeconds_ = 0.0;
    std::uint64_t nextSession_ = 1;
    std::uint64_t completed_ = 0;
    std::uint64_t requeued_ = 0;
    std::uint64_t workersSeen_ = 0;
};

} // namespace stems

#endif // STEMS_NET_COORD_HH
