/**
 * @file
 * Sweep worker: connects to a coordinator (net/coord.hh), receives
 * the declarative SweepPlan, and executes work units — whole
 * workload rows or (workload, engine-column) cells (net/units.hh) —
 * through the exact same ExperimentDriver lane path a local sweep
 * uses, persisting checkpoints and per-cell results into the shared
 * content-addressed store. The wire never carries results; the
 * store is the data plane.
 *
 * The worker re-derives the plan digest from the JSON it parsed and
 * refuses a coordinator whose digest disagrees (a mismatch means
 * the canonical-JSON contract broke somewhere — running anyway
 * would poison the store under wrong keys).
 *
 * Reconnect: when a connection is lost, the worker reconnects
 * (bounded retries), repeats the handshake under its original
 * session id, and asks for fresh work; the coordinator has already
 * requeued any unit the lost connection held. Trace prefetch: each
 * unit carries a hint naming the next unit's workload, which a
 * background thread materializes into the store while the current
 * unit simulates.
 */

#ifndef STEMS_NET_WORKER_HH
#define STEMS_NET_WORKER_HH

#include <cstdint>
#include <string>

namespace stems {

struct WorkerOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /// Shared store directory (the data plane). Must exist.
    std::string storeDir;
    /// How long to retry the initial connect (the worker may start
    /// before the coordinator listens).
    double connectTimeoutSeconds = 10.0;
    /// Reconnect attempts after a lost connection before giving up.
    unsigned maxReconnects = 3;
    /// Materialize prefetch-hint traces in the background.
    bool prefetchTraces = true;
    /// Test hook: after completing this many units, vanish without
    /// a goodbye (simulates kill -9) the moment the next unit
    /// arrives. 0 = never abandon.
    unsigned abandonAfterUnits = 0;
    /// Test/CI hook: after completing this many units, drop the
    /// connection the moment the next unit arrives (the coordinator
    /// requeues that unit), then reconnect and carry on. Fires
    /// once. 0 = never drop.
    unsigned dropAfterUnits = 0;
    /// Test hook: send every kUnitDone twice (the coordinator must
    /// treat the duplicate as idempotent).
    bool duplicateUnitDone = false;
};

struct WorkerReport
{
    std::uint64_t unitsCompleted = 0;
    std::uint64_t reconnects = 0;
    bool abandoned = false;
};

/**
 * Run the worker loop until the coordinator says kMsgBye (or the
 * abandon hook fires). @return false with *error set on connection,
 * protocol, store, or plan failures. One asymmetry: a *re*-connect
 * that goes unanswered is a graceful (true) exit, not a failure —
 * the coordinator stops listening the moment every unit is done, so
 * a worker whose connection died near the end of a sweep may simply
 * have outlived it; everything it completed is already committed to
 * the shared store.
 */
bool runWorker(const WorkerOptions &options,
               WorkerReport *report = nullptr,
               std::string *error = nullptr);

} // namespace stems

#endif // STEMS_NET_WORKER_HH
