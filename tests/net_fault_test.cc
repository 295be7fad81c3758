/**
 * @file
 * Fault-injection battery for the distributed sweep service: a
 * coordinator plus workers — through worker churn, mid-frame
 * disconnects, duplicate completions, stalled units, reconnects and
 * a worker lost mid-workload — always produces results bitwise
 * identical to a single-process sweep, and a cold sweep does each
 * piece of work once. Faults may cost wall-clock (requeues,
 * re-execution); they must never cost correctness, and a requeued
 * workload resumes each lane from the checkpoints its lost runner
 * committed.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <thread>

#include "net/coord.hh"
#include "net/protocol.hh"
#include "net/socket.hh"
#include "net/worker.hh"
#include "obs/metrics.hh"
#include "sim/driver.hh"
#include "store/keys.hh"
#include "store/trace_store.hh"
#include "test_util.hh"

namespace stems {
namespace {

class NetFaultTest : public test::TempDirTest
{
  protected:
    SweepPlan
    planFor(std::vector<std::string> workloads) const
    {
        SweepPlan plan;
        plan.workloads = std::move(workloads);
        plan.engines = {PlanEngine{"tms", "", {}},
                        PlanEngine{"stems", "", {}}};
        plan.records = 20'000;
        plan.jobs = 2;
        plan.checkpointEvery = 5'000;
        return plan;
    }

    std::vector<WorkloadResult>
    referenceRun(const SweepPlan &plan) const
    {
        ExperimentDriver driver;
        return driver.run(plan);
    }

    struct ScenarioResult
    {
        std::vector<WorkloadResult> results;
        std::vector<WorkerReport> reports;
        std::size_t unitCount = 0;
        std::uint64_t completed = 0;
        std::uint64_t requeued = 0;
        /// The registry once every worker is done, before the merge.
        MetricsSnapshot served;
    };

    /** One distributed sweep over the store in subdirectory `tag`
     *  (created empty unless a test prepared it): serve to the given
     *  workers, merge over the warm store. */
    ScenarioResult
    runScenario(const SweepPlan &plan, const std::string &tag,
                std::vector<WorkerOptions> workers)
    {
        ScenarioResult out;
        const std::string store_dir = dir_ + "/" + tag;
        std::filesystem::create_directories(store_dir);
        auto store = std::make_shared<TraceStore>(store_dir);
        EXPECT_TRUE(store->usable());

        std::string error;
        SweepCoordinator coord(plan);
        EXPECT_TRUE(coord.listen(0, &error)) << error;

        std::vector<std::thread> threads;
        out.reports.resize(workers.size());
        std::vector<std::string> worker_errors(workers.size());
        // char, not bool: std::vector<bool> packs entries into shared
        // words, so concurrent writes to neighbouring workers race.
        std::vector<char> worker_ok(workers.size(), 0);
        for (std::size_t i = 0; i < workers.size(); ++i) {
            workers[i].storeDir = store_dir;
            workers[i].port = coord.port();
            threads.emplace_back([&, i] {
                worker_ok[i] =
                    runWorker(workers[i], &out.reports[i],
                              &worker_errors[i]);
            });
        }
        const bool served = coord.serve(120.0, &error);
        for (std::thread &t : threads)
            t.join();
        EXPECT_TRUE(served) << error;
        for (std::size_t i = 0; i < workers.size(); ++i)
            EXPECT_TRUE(worker_ok[i])
                << "worker " << i << ": " << worker_errors[i];

        out.unitCount = coord.unitCount();
        out.completed = coord.unitsCompleted();
        out.requeued = coord.unitsRequeued();
        EXPECT_EQ(out.completed, out.unitCount);
        out.served = MetricsRegistry::instance().snapshot();

        ExperimentDriver merge;
        merge.setStore(store);
        out.results = merge.run(plan);
        return out;
    }
};

// ---- fault matrix ------------------------------------------------

TEST_F(NetFaultTest, FaultMatrixWholeWorkloadUnits)
{
    // {clean 1-worker, abandon 2-worker, drop-reconnect 2-worker,
    // mixed 4-worker}: every scenario must reproduce the
    // single-process sweep bitwise.
    const SweepPlan plan = planFor({"oltp-db2", "web-apache"});
    const auto reference = referenceRun(plan);

    // Short re-connect window: a worker whose sweep finished
    // without it (coordinator no longer listening) should conclude
    // so quickly, not pad the test run.
    WorkerOptions steady;
    steady.connectTimeoutSeconds = 2.0;
    WorkerOptions quitter = steady;
    quitter.abandonAfterUnits = 1;
    WorkerOptions dropper = steady;
    dropper.dropAfterUnits = 1;

    {
        SCOPED_TRACE("clean one worker");
        auto got = runScenario(plan, "clean", {steady});
        EXPECT_EQ(got.requeued, 0u);
        test::expectSameResults(got.results, reference);
    }
    {
        SCOPED_TRACE("abandoning worker, two workers");
        auto got = runScenario(plan, "abandon", {quitter, steady});
        test::expectSameResults(got.results, reference);
    }
    {
        SCOPED_TRACE("dropping/reconnecting worker, two workers");
        auto got = runScenario(plan, "reconnect", {dropper, steady});
        test::expectSameResults(got.results, reference);
    }
    {
        SCOPED_TRACE("mixed faults, four workers");
        auto got = runScenario(plan, "mixed",
                               {quitter, dropper, steady, steady});
        test::expectSameResults(got.results, reference);
    }
}

TEST_F(NetFaultTest, ColdSweepDoesEachPieceOfWorkOnce)
{
    // Two steady workers over a cold store: each unit is a whole
    // workload, so each trace is generated once and each of the
    // 2 x 3 lanes (baseline, tms, stems) is simulated once, over
    // the whole trace — no worker repeats another's work. The merge
    // then finds everything in the store.
    const SweepPlan plan = planFor({"oltp-db2", "web-apache"});
    const auto reference = referenceRun(plan);
    WorkerOptions steady;
    steady.connectTimeoutSeconds = 2.0;

    const test::RegistryDelta since_start;
    auto got = runScenario(plan, "cold", {steady, steady});
    const test::RegistryDelta since_served(got.served);
    test::expectSameResults(got.results, reference);
    EXPECT_EQ(got.requeued, 0u);

    std::uint64_t records = 0;
    TraceStore store(dir_ + "/cold");
    for (const std::string &workload : plan.workloads) {
        Trace trace;
        ASSERT_TRUE(store.loadTrace(
            TraceKey{workload, plan.records, plan.seed}, trace));
        records += trace.size();
    }
    const std::uint64_t lanes = 1 + plan.engines.size();

    EXPECT_EQ(since_start("driver.trace.generated", got.served),
              plan.workloads.size());
    EXPECT_EQ(since_start("driver.cell.simulated", got.served),
              plan.workloads.size() * lanes);
    EXPECT_EQ(since_start("batch.record_steps", got.served),
              lanes * records);
    for (const char *name :
         {"driver.trace.generated", "driver.cell.simulated",
          "batch.record_steps"})
        EXPECT_EQ(since_served(name), 0u) << "the merge added " << name;
}

// ---- targeted fault scenarios ------------------------------------

TEST_F(NetFaultTest, DroppedUnitIsRequeuedAndTheWorkerReconnects)
{
    // One worker, three workload units: it completes the first,
    // drops its connection when the second arrives, reconnects under
    // its session and finishes the sweep — including the unit the
    // coordinator requeued when the connection went.
    const SweepPlan plan =
        planFor({"oltp-db2", "web-apache", "dss-qry2"});
    WorkerOptions dropper;
    dropper.dropAfterUnits = 1;
    auto got = runScenario(plan, "drop", {dropper});
    EXPECT_EQ(got.unitCount, 3u);
    EXPECT_EQ(got.requeued, 1u);
    EXPECT_EQ(got.reports[0].reconnects, 1u);
    EXPECT_EQ(got.reports[0].unitsCompleted, 3u);
    test::expectSameResults(got.results, referenceRun(plan));
}

TEST_F(NetFaultTest, WorkloadUnitFinishesADeadWorkersPartialCells)
{
    // The store a worker killed mid-workload leaves behind: the
    // trace and each lane's checkpoints up to the last boundary it
    // crossed (10'000), but no results. A steady worker serving the
    // workload unit must resume every lane there — skipping exactly
    // the committed prefix and stepping exactly the rest — and still
    // reproduce a storeless sweep bitwise.
    const SweepPlan plan = planFor({"oltp-db2"});
    const auto reference = referenceRun(plan);
    constexpr std::uint64_t kCommitted = 10'000;

    const std::string store_dir = dir_ + "/dead-worker";
    std::filesystem::create_directories(store_dir);
    std::size_t trace_size = 0;
    {
        auto store = std::make_shared<TraceStore>(store_dir);
        ExperimentDriver local;
        local.setStore(store);
        local.run(plan);
        for (const auto &entry : std::filesystem::directory_iterator(
                 std::filesystem::path(store_dir) / "results"))
            std::filesystem::remove(entry.path());
        const std::uint64_t config =
            checkpointConfigDigest(planExperimentConfig(plan));
        for (const char *engine : {"", "tms", "stems"}) {
            const std::uint64_t spec =
                laneCheckpointSpecDigest(engine, {}, false);
            for (const StoredCheckpointKey &k :
                 store->listCheckpoints(spec, config))
                if (k.index > kCommitted)
                    store->dropCheckpoint(spec, config, k.index,
                                          k.stateDigest);
        }
        Trace trace;
        ASSERT_TRUE(store->loadTrace(
            TraceKey{"oltp-db2", plan.records, plan.seed}, trace));
        trace_size = trace.size();
    }
    ASSERT_GT(trace_size, kCommitted);
    const std::uint64_t lanes = 1 + plan.engines.size();

    const test::RegistryDelta delta;
    auto got = runScenario(plan, "dead-worker", {WorkerOptions{}});

    EXPECT_EQ(got.unitCount, 1u);
    EXPECT_EQ(delta("ckpt.resume.skipped_records"), lanes * kCommitted);
    EXPECT_EQ(delta("batch.record_steps"),
              lanes * (trace_size - kCommitted));
    test::expectSameResults(got.results, reference);
}

TEST_F(NetFaultTest, MidFrameDisconnectAndGarbageAreTolerated)
{
    // A peer that dies halfway through a frame, and one that speaks
    // a different protocol entirely: both must be shed without
    // disturbing the sweep the real worker completes.
    const SweepPlan plan = planFor({"oltp-db2", "web-apache"});
    const auto reference = referenceRun(plan);

    const std::string store_dir = dir_ + "/midframe";
    std::filesystem::create_directories(store_dir);
    auto store = std::make_shared<TraceStore>(store_dir);
    SweepCoordinator coord(plan);
    std::string error;
    ASSERT_TRUE(coord.listen(0, &error)) << error;

    std::thread half_frame([&] {
        int fd = connectWithRetry("127.0.0.1", coord.port(), 5.0);
        ASSERT_GE(fd, 0);
        HelloMsg hello;
        const auto wire =
            encodeFrame(kMsgHello, encodeHello(hello));
        // First half of the frame, then gone mid-message.
        ::send(fd, wire.data(), wire.size() / 2, 0);
        ::close(fd);
    });
    std::thread garbage([&] {
        int fd = connectWithRetry("127.0.0.1", coord.port(), 5.0);
        ASSERT_GE(fd, 0);
        const char junk[] = "GET / HTTP/1.1\r\n\r\n";
        ::send(fd, junk, sizeof(junk) - 1, 0);
        ::close(fd);
    });

    WorkerOptions worker;
    worker.storeDir = store_dir;
    worker.port = coord.port();
    bool worker_ok = false;
    std::string worker_error;
    std::thread worker_thread([&] {
        worker_ok = runWorker(worker, nullptr, &worker_error);
    });
    EXPECT_TRUE(coord.serve(120.0, &error)) << error;
    half_frame.join();
    garbage.join();
    worker_thread.join();
    EXPECT_TRUE(worker_ok) << worker_error;
    EXPECT_EQ(coord.unitsCompleted(), coord.unitCount());

    ExperimentDriver merge;
    merge.setStore(store);
    test::expectSameResults(merge.run(plan), reference);
}

TEST_F(NetFaultTest, DuplicateUnitDoneIsIdempotent)
{
    const SweepPlan plan = planFor({"oltp-db2", "em3d"});
    const auto reference = referenceRun(plan);

    WorkerOptions chatty;
    chatty.duplicateUnitDone = true;
    // The coordinator may finish the sweep with this worker's
    // duplicate kUnitDone still unread, so the close can surface as
    // a reset rather than a kBye; the worker's graceful
    // unanswered-reconnect exit covers it — quickly.
    chatty.connectTimeoutSeconds = 2.0;
    auto got =
        runScenario(plan, "dup-done", {chatty, chatty});
    // Exactly one completion per unit despite every kUnitDone
    // arriving twice.
    EXPECT_EQ(got.completed, got.unitCount);
    test::expectSameResults(got.results, reference);
}

TEST_F(NetFaultTest, WatchdogRequeuesUnitHeldByStalledWorker)
{
    // A worker that accepts a unit and then hangs forever: the
    // slow-worker watchdog must reclaim the unit so the steady
    // worker can finish the sweep.
    const SweepPlan plan = planFor({"oltp-db2", "web-apache"});
    const auto reference = referenceRun(plan);

    const std::string store_dir = dir_ + "/watchdog";
    std::filesystem::create_directories(store_dir);
    auto store = std::make_shared<TraceStore>(store_dir);
    SweepCoordinator coord(plan);
    coord.setUnitTimeoutSeconds(0.75);
    std::string error;
    ASSERT_TRUE(coord.listen(0, &error)) << error;

    const test::RegistryDelta delta;

    std::thread staller([&] {
        int fd = connectWithRetry("127.0.0.1", coord.port(), 5.0);
        ASSERT_GE(fd, 0);
        FramedConn conn(fd);
        HelloMsg hello;
        ASSERT_TRUE(conn.sendFrame(kMsgHello, encodeHello(hello)));
        Frame frame;
        ASSERT_TRUE(conn.recvFrame(frame));
        ASSERT_EQ(frame.type, kMsgPlan);
        PlanMsg plan_msg;
        ASSERT_TRUE(decodePlanMsg(frame.payload, plan_msg));
        PlanAckMsg ack;
        ack.planDigest = plan_msg.planDigest;
        ASSERT_TRUE(
            conn.sendFrame(kMsgPlanAck, encodePlanAck(ack)));
        ASSERT_TRUE(conn.sendFrame(kMsgRequestUnit, {}));
        ASSERT_TRUE(conn.recvFrame(frame));
        ASSERT_EQ(frame.type, kMsgUnit);
        // ... and never a word again. The watchdog must cut this
        // connection; recvFrame returning false is that cut.
        Frame cut;
        EXPECT_FALSE(conn.recvFrame(cut));
    });

    // Start the steady worker only after the staller grabbed its
    // unit — retry loops in connectWithRetry keep this simple:
    // both race the same coordinator, and the watchdog sorts out
    // whichever unit the staller ends up holding.
    WorkerOptions steady;
    steady.storeDir = store_dir;
    steady.port = coord.port();
    bool worker_ok = false;
    std::string worker_error;
    std::thread worker_thread([&] {
        worker_ok = runWorker(steady, nullptr, &worker_error);
    });

    EXPECT_TRUE(coord.serve(120.0, &error)) << error;
    staller.join();
    worker_thread.join();
    EXPECT_TRUE(worker_ok) << worker_error;
    EXPECT_EQ(coord.unitsCompleted(), coord.unitCount());
    EXPECT_GE(coord.unitsRequeued(), 1u);

    EXPECT_GE(delta("coord.units.watchdog"), 1u);

    ExperimentDriver merge;
    merge.setStore(store);
    test::expectSameResults(merge.run(plan), reference);
}

} // namespace
} // namespace stems
