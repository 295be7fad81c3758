/**
 * @file
 * Fault-injection battery for the finer-grained distributed work
 * units (net/units.hh): decomposition properties (every record of
 * every cell covered exactly once at every granularity, segment
 * endpoints aligned with the checkpoint schedule, dependency chains
 * cleared by a warm store), and the end-to-end contract that a
 * coordinator plus workers — through worker churn, mid-frame
 * disconnects, duplicate completions, stalled units and
 * reconnect-resume — always produces results bitwise identical to a
 * single-process sweep. Faults may cost wall-clock (requeues,
 * re-execution); they must never cost correctness.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "net/coord.hh"
#include "net/protocol.hh"
#include "net/socket.hh"
#include "net/units.hh"
#include "net/worker.hh"
#include "obs/metrics.hh"
#include "sim/checkpoint.hh"
#include "sim/driver.hh"
#include "store/keys.hh"
#include "store/trace_store.hh"
#include "test_util.hh"

namespace stems {
namespace {

std::uint64_t
counterDelta(const MetricsSnapshot &before,
             const MetricsSnapshot &after, const char *name)
{
    auto get = [&](const MetricsSnapshot &s) {
        auto it = s.counters.find(name);
        return it == s.counters.end() ? std::uint64_t(0)
                                      : it->second;
    };
    return get(after) - get(before);
}

class NetFaultTest : public test::TempDirTest
{
  protected:
    SweepPlan
    planFor(UnitGranularity granularity,
            std::vector<std::string> workloads) const
    {
        SweepPlan plan;
        plan.workloads = std::move(workloads);
        plan.engines = {PlanEngine{"tms", "", {}},
                        PlanEngine{"stems", "", {}}};
        plan.records = 20'000;
        plan.jobs = 2;
        plan.checkpointEvery = 5'000;
        plan.unitGranularity = granularity;
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
        std::uint64_t resumed = 0;
    };

    /** One distributed sweep in a fresh store subdirectory: decompose
     *  (seeding the store when the plan asks for segment units),
     *  serve to the given workers, merge over the warm store. */
    ScenarioResult
    runScenario(const SweepPlan &plan, const std::string &tag,
                std::vector<WorkerOptions> workers,
                double grace_seconds = 0.4,
                double unit_timeout_seconds = 0.0)
    {
        ScenarioResult out;
        const std::string store_dir = dir_ + "/" + tag;
        std::filesystem::create_directories(store_dir);
        auto store = std::make_shared<TraceStore>(store_dir);
        EXPECT_TRUE(store->usable());

        std::string error;
        std::vector<WorkUnit> units =
            decomposeSweepPlan(plan, store.get(), &error);
        EXPECT_FALSE(units.empty()) << error;
        SweepCoordinator coord(plan, std::move(units));
        coord.setResumeGraceSeconds(grace_seconds);
        coord.setUnitTimeoutSeconds(unit_timeout_seconds);
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
        out.resumed = coord.unitsResumed();
        EXPECT_EQ(out.completed, out.unitCount);

        ExperimentDriver merge;
        merge.setStore(store);
        out.results = merge.run(plan);
        return out;
    }

    /** The {clean 1-worker, abandon 2-worker, drop-resume 2-worker,
     *  mixed 4-worker} fault matrix at one granularity: every
     *  scenario must reproduce the single-process sweep bitwise. */
    void
    runFaultMatrix(UnitGranularity granularity)
    {
        const SweepPlan plan =
            planFor(granularity, {"oltp-db2", "web-apache"});
        const auto reference = referenceRun(plan);

        // Short re-connect window: a worker whose sweep finished
        // without it (coordinator no longer listening) should
        // conclude so quickly, not pad the test run.
        WorkerOptions steady;
        steady.connectTimeoutSeconds = 2.0;
        WorkerOptions quitter = steady;
        quitter.abandonAfterUnits = 1;
        WorkerOptions dropper = steady;
        dropper.dropAfterUnits = 1;
        dropper.reconnectStallSeconds = 0.5;

        {
            SCOPED_TRACE("clean one worker");
            auto got = runScenario(plan, "clean", {steady});
            EXPECT_EQ(got.requeued, 0u);
            test::expectSameResults(got.results, reference);
        }
        {
            SCOPED_TRACE("abandoning worker, two workers");
            auto got =
                runScenario(plan, "abandon", {quitter, steady});
            test::expectSameResults(got.results, reference);
        }
        {
            SCOPED_TRACE("dropping/resuming worker, two workers");
            auto got =
                runScenario(plan, "resume", {dropper, steady});
            test::expectSameResults(got.results, reference);
        }
        {
            SCOPED_TRACE("mixed faults, four workers");
            auto got = runScenario(
                plan, "mixed",
                {quitter, dropper, steady, steady});
            test::expectSameResults(got.results, reference);
        }
    }
};

// ---- decomposition properties ------------------------------------

TEST_F(NetFaultTest, WorkloadAndCellDecompositionCoverExactlyOnce)
{
    const SweepPlan base =
        planFor(UnitGranularity::kWorkload,
                {"oltp-db2", "web-apache", "em3d"});

    auto whole = decomposeSweepPlan(base, nullptr);
    ASSERT_EQ(whole.size(), base.workloads.size());
    for (std::size_t i = 0; i < whole.size(); ++i) {
        EXPECT_EQ(whole[i].kind, UnitKind::kWorkload);
        EXPECT_EQ(whole[i].workload, base.workloads[i]);
        EXPECT_EQ(whole[i].dependsOn, -1);
    }

    SweepPlan cell_plan = base;
    cell_plan.unitGranularity = UnitGranularity::kCell;
    auto cells = decomposeSweepPlan(cell_plan, nullptr);
    // One unit per (workload, column), columns = baseline + each
    // engine, each pair exactly once.
    std::map<std::pair<std::string, std::int32_t>, int> seen;
    for (const WorkUnit &u : cells) {
        EXPECT_EQ(u.kind, UnitKind::kCell);
        EXPECT_EQ(u.dependsOn, -1);
        seen[{u.workload, u.column}]++;
    }
    EXPECT_EQ(cells.size(),
              base.workloads.size() * (1 + base.engines.size()));
    for (const std::string &w : base.workloads)
        for (std::int32_t c = -1;
             c < static_cast<std::int32_t>(base.engines.size());
             ++c)
            EXPECT_EQ((seen[{w, c}]), 1)
                << w << " column " << c;
}

TEST_F(NetFaultTest, SegmentDecompositionTilesEveryCellOnSchedule)
{
    const SweepPlan plan = planFor(UnitGranularity::kSegment,
                                   {"oltp-db2", "em3d"});
    std::filesystem::create_directories(dir_);
    TraceStore store(dir_);
    std::string error;
    auto units = decomposeSweepPlan(plan, &store, &error);
    ASSERT_FALSE(units.empty()) << error;

    for (const std::string &name : plan.workloads) {
        // The seeding pass materialized the trace; its true length
        // (generators may overshoot plan.records) fixes the
        // boundary schedule.
        Trace trace;
        ASSERT_TRUE(store.loadTrace(
            TraceKey{name, plan.records, plan.seed}, trace));
        const auto bounds = checkpointBounds(
            trace.size(),
            static_cast<std::size_t>(plan.checkpointEvery));
        ASSERT_GE(bounds.size(), 2u); // interior cuts exist

        for (std::int32_t c = -1;
             c < static_cast<std::int32_t>(plan.engines.size());
             ++c) {
            std::vector<const WorkUnit *> chain;
            for (const WorkUnit &u : units)
                if (u.workload == name && u.column == c)
                    chain.push_back(&u);
            ASSERT_EQ(chain.size(), bounds.size())
                << name << " column " << c;
            std::uint64_t at = 0;
            for (std::size_t s = 0; s < chain.size(); ++s) {
                const WorkUnit &u = *chain[s];
                EXPECT_EQ(u.kind, UnitKind::kSegment);
                // Contiguous tiling: no gap, no overlap, ending
                // exactly at the trace end.
                EXPECT_EQ(u.segBegin, at);
                EXPECT_EQ(u.segEnd, bounds[s]);
                EXPECT_EQ(u.finalSegment,
                          s + 1 == chain.size());
                // Cold store: every non-first segment waits for
                // its predecessor's boundary checkpoint.
                if (s == 0)
                    EXPECT_EQ(u.dependsOn, -1);
                else
                    EXPECT_GE(u.dependsOn, 0);
                at = u.segEnd;
            }
            EXPECT_EQ(at, trace.size());
        }
    }
}

TEST_F(NetFaultTest, WarmStoreClearsSegmentDependencies)
{
    const SweepPlan plan =
        planFor(UnitGranularity::kSegment, {"oltp-db2"});
    std::filesystem::create_directories(dir_);
    auto store = std::make_shared<TraceStore>(dir_);
    std::string error;
    auto cold = decomposeSweepPlan(plan, store.get(), &error);
    ASSERT_FALSE(cold.empty()) << error;
    bool any_dep = false;
    for (const WorkUnit &u : cold)
        any_dep = any_dep || u.dependsOn >= 0;
    EXPECT_TRUE(any_dep);

    // A full local run persists a trusted checkpoint at every
    // boundary of every lane; re-decomposing over that warm store
    // must find them and emit a fully parallel (dependency-free)
    // unit set.
    ExperimentDriver driver;
    driver.setStore(store);
    driver.run(plan);
    auto warm = decomposeSweepPlan(plan, store.get(), &error);
    ASSERT_EQ(warm.size(), cold.size());
    for (const WorkUnit &u : warm)
        EXPECT_EQ(u.dependsOn, -1)
            << u.workload << " [" << u.segBegin << ", " << u.segEnd
            << ")";
}

TEST_F(NetFaultTest, ResumeBookkeepingTracksCommittedCheckpoints)
{
    const SweepPlan plan =
        planFor(UnitGranularity::kSegment, {"oltp-db2"});
    std::filesystem::create_directories(dir_);
    auto store = std::make_shared<TraceStore>(dir_);
    std::string error;
    auto units = decomposeSweepPlan(plan, store.get(), &error);
    ASSERT_FALSE(units.empty()) << error;

    // The baseline column's chain, in order.
    std::vector<const WorkUnit *> chain;
    for (const WorkUnit &u : units)
        if (u.workload == "oltp-db2" && u.column == -1)
            chain.push_back(&u);
    ASSERT_GE(chain.size(), 3u);

    // Cold store: nothing committed, nothing to resume from.
    EXPECT_EQ(unitLastCheckpointIndex(plan, *chain[0], *store), 0u);
    EXPECT_EQ(unitLastCheckpointIndex(plan, *chain[1], *store), 0u);

    ExperimentDriver driver;
    driver.applyPlan(plan);
    driver.setStore(store);
    ASSERT_TRUE(driver.runCellSegment(
        "oltp-db2", nullptr,
        static_cast<std::size_t>(chain[0]->segBegin),
        static_cast<std::size_t>(chain[0]->segEnd), &error))
        << error;

    // Unit 0 committed its end checkpoint: a resume of unit 0
    // reports exactly its end (nothing left to redo), unit 1
    // exactly its start (it can skip the whole prefix but has not
    // advanced), and later units the same index — the newest
    // committed state, never anything beyond a unit's own end, so
    // the skip accounting cannot double-count records past the
    // unit.
    EXPECT_EQ(unitLastCheckpointIndex(plan, *chain[0], *store),
              chain[0]->segEnd);
    EXPECT_EQ(unitLastCheckpointIndex(plan, *chain[1], *store),
              chain[1]->segBegin);
    EXPECT_EQ(unitLastCheckpointIndex(plan, *chain[2], *store),
              chain[0]->segEnd);
}

TEST_F(NetFaultTest, SegmentUnitEndBlobMatchesContinuousRun)
{
    // Segment units and whole-trace runs share one lane routine, so
    // the checkpoint a segment unit leaves at its end is the very
    // blob a continuous checkpointed run writes under that key.
    // Warmup is pinned to the segment end, so the blob is also
    // taken exactly before record seg_end's warmup flip.
    SweepPlan plan = planFor(UnitGranularity::kSegment, {"oltp-db2"});
    plan.warmupRecords = 10'000;
    const std::string seg_dir = dir_ + "/segment";
    const std::string cont_dir = dir_ + "/continuous";
    std::filesystem::create_directories(seg_dir);
    std::filesystem::create_directories(cont_dir);
    auto seg_store = std::make_shared<TraceStore>(seg_dir);
    auto cont_store = std::make_shared<TraceStore>(cont_dir);

    // The stems column's first two units, in order: the second
    // resumes from the first's end and stops at 10'000.
    std::string error;
    auto units = decomposeSweepPlan(plan, seg_store.get(), &error);
    ASSERT_FALSE(units.empty()) << error;
    std::vector<const WorkUnit *> chain;
    for (const WorkUnit &u : units)
        if (u.column == 1)
            chain.push_back(&u);
    ASSERT_GE(chain.size(), 3u);
    ASSERT_EQ(chain[1]->segEnd, 10'000u);
    ExperimentDriver segmented;
    segmented.applyPlan(plan);
    segmented.setStore(seg_store);
    const std::vector<EngineSpec> specs = planEngineSpecs(plan);
    for (std::size_t s = 0; s < 2; ++s)
        ASSERT_TRUE(segmented.runCellSegment(
            "oltp-db2", &specs[1],
            static_cast<std::size_t>(chain[s]->segBegin),
            static_cast<std::size_t>(chain[s]->segEnd), &error))
            << error;
    EXPECT_EQ(segmented.resumedRuns(), 1u);

    ExperimentDriver continuous;
    continuous.setStore(cont_store);
    continuous.run(plan);

    const std::uint64_t spec =
        laneCheckpointSpecDigest("stems", {}, false);
    const std::uint64_t config =
        checkpointConfigDigest(planExperimentConfig(plan));
    auto key_at = [&](TraceStore &store) {
        StoredCheckpointKey found;
        for (const StoredCheckpointKey &k :
             store.listCheckpoints(spec, config))
            if (k.index == 10'000)
                found = k;
        return found;
    };
    const StoredCheckpointKey seg_key = key_at(*seg_store);
    const StoredCheckpointKey cont_key = key_at(*cont_store);
    ASSERT_EQ(seg_key.index, 10'000u);
    EXPECT_EQ(seg_key.stateDigest, cont_key.stateDigest);
    auto seg_blob = seg_store->loadCheckpoint(spec, config, 10'000,
                                              seg_key.stateDigest);
    auto cont_blob = cont_store->loadCheckpoint(
        spec, config, 10'000, cont_key.stateDigest);
    ASSERT_TRUE(seg_blob.has_value());
    ASSERT_TRUE(cont_blob.has_value());
    EXPECT_EQ(*seg_blob, *cont_blob);
}

// ---- fault matrix, one granularity per test ----------------------

TEST_F(NetFaultTest, FaultMatrixWholeWorkloadUnits)
{
    runFaultMatrix(UnitGranularity::kWorkload);
}

TEST_F(NetFaultTest, FaultMatrixCellUnits)
{
    runFaultMatrix(UnitGranularity::kCell);
}

TEST_F(NetFaultTest, FaultMatrixSegmentUnits)
{
    runFaultMatrix(UnitGranularity::kSegment);
}

// ---- targeted fault scenarios ------------------------------------

TEST_F(NetFaultTest, ReconnectResumeSkipsCommittedPrefix)
{
    // One worker, segment units over one workload: the worker
    // completes the first segment, drops the connection while
    // holding the second, stalls, reconnects under its session and
    // resumes — from the checkpoint the first segment committed,
    // not from record 0.
    const SweepPlan plan =
        planFor(UnitGranularity::kSegment, {"oltp-db2"});
    const auto reference = referenceRun(plan);

    WorkerOptions dropper;
    dropper.dropAfterUnits = 1;
    dropper.reconnectStallSeconds = 0.5;

    const MetricsSnapshot before =
        MetricsRegistry::instance().snapshot();
    auto got = runScenario(plan, "resume-metrics", {dropper},
                           /*grace_seconds=*/5.0);
    const MetricsSnapshot after =
        MetricsRegistry::instance().snapshot();

    EXPECT_GE(got.reports[0].unitsResumed, 1u);
    EXPECT_GE(got.reports[0].reconnects, 1u);
    EXPECT_GE(got.resumed, 1u);
    EXPECT_GE(counterDelta(before, after, "net.unit.resumed"), 1u);
    EXPECT_GT(counterDelta(before, after,
                           "ckpt.resume.skipped_records"),
              0u);
    test::expectSameResults(got.results, reference);
}

TEST_F(NetFaultTest, MidFrameDisconnectAndGarbageAreTolerated)
{
    // A peer that dies halfway through a frame, and one that speaks
    // a different protocol entirely: both must be shed without
    // disturbing the sweep the real worker completes.
    const SweepPlan plan =
        planFor(UnitGranularity::kCell, {"oltp-db2"});
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
    const SweepPlan plan =
        planFor(UnitGranularity::kCell, {"oltp-db2", "em3d"});
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
    const SweepPlan plan =
        planFor(UnitGranularity::kCell, {"oltp-db2"});
    const auto reference = referenceRun(plan);

    const std::string store_dir = dir_ + "/watchdog";
    std::filesystem::create_directories(store_dir);
    auto store = std::make_shared<TraceStore>(store_dir);
    SweepCoordinator coord(plan);
    coord.setUnitTimeoutSeconds(0.75);
    coord.setResumeGraceSeconds(0.2);
    std::string error;
    ASSERT_TRUE(coord.listen(0, &error)) << error;

    const MetricsSnapshot before =
        MetricsRegistry::instance().snapshot();

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

    const MetricsSnapshot after =
        MetricsRegistry::instance().snapshot();
    EXPECT_GE(counterDelta(before, after, "coord.units.watchdog"),
              1u);

    ExperimentDriver merge;
    merge.setStore(store);
    test::expectSameResults(merge.run(plan), reference);
}

} // namespace
} // namespace stems
