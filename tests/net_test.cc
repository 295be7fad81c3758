/**
 * @file
 * Sweep-service tests: the frame codec's reject-never-misdecode
 * contract under truncation, corruption and hostile lengths; the
 * protocol payload codecs; and the end-to-end loopback property the
 * whole service is built on — a coordinator plus N workers over a
 * shared store produces results bitwise identical to a
 * single-process sweep of the same plan, including when a worker
 * vanishes mid-sweep and its unit is requeued.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/state_codec.hh"
#include "net/coord.hh"
#include "net/frame.hh"
#include "net/protocol.hh"
#include "net/socket.hh"
#include "net/worker.hh"
#include "sim/driver.hh"
#include "store/keys.hh"
#include "store/trace_store.hh"
#include "test_util.hh"

namespace stems {
namespace {

std::vector<std::uint8_t>
bytesOf(const char *text)
{
    return std::vector<std::uint8_t>(
        text, text + std::strlen(text));
}

// ---- frame codec -------------------------------------------------

TEST(Frame, RoundTripsThroughArbitraryChunking)
{
    const std::vector<std::uint8_t> payload =
        bytesOf("hello sweep service");
    const std::vector<std::uint8_t> wire = encodeFrame(7, payload);

    for (std::size_t chunk = 1; chunk <= wire.size(); ++chunk) {
        FrameParser parser;
        for (std::size_t at = 0; at < wire.size(); at += chunk)
            parser.feed(wire.data() + at,
                        std::min(chunk, wire.size() - at));
        Frame out;
        ASSERT_TRUE(parser.next(out)) << "chunk " << chunk;
        EXPECT_EQ(out.type, 7u);
        EXPECT_EQ(out.payload, payload);
        EXPECT_FALSE(parser.next(out));
        EXPECT_FALSE(parser.error());
    }
}

TEST(Frame, BackToBackFramesDecodeInOrder)
{
    std::vector<std::uint8_t> wire = encodeFrame(1, bytesOf("a"));
    const auto second = encodeFrame(2, bytesOf("bb"));
    const auto third = encodeFrame(3, {});
    wire.insert(wire.end(), second.begin(), second.end());
    wire.insert(wire.end(), third.begin(), third.end());

    FrameParser parser;
    parser.feed(wire.data(), wire.size());
    Frame out;
    ASSERT_TRUE(parser.next(out));
    EXPECT_EQ(out.type, 1u);
    ASSERT_TRUE(parser.next(out));
    EXPECT_EQ(out.type, 2u);
    ASSERT_TRUE(parser.next(out));
    EXPECT_EQ(out.type, 3u);
    EXPECT_TRUE(out.payload.empty());
    EXPECT_FALSE(parser.next(out));
    EXPECT_EQ(parser.bufferedBytes(), 0u);
}

TEST(Frame, TruncationIsNotAFrame)
{
    const auto wire = encodeFrame(5, bytesOf("payload"));
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        FrameParser parser;
        parser.feed(wire.data(), cut);
        Frame out;
        EXPECT_FALSE(parser.next(out)) << "cut " << cut;
        EXPECT_FALSE(parser.error()) << "cut " << cut;
    }
}

TEST(Frame, BadMagicLatchesError)
{
    auto wire = encodeFrame(5, bytesOf("payload"));
    wire[0] ^= 0xFF;
    FrameParser parser;
    parser.feed(wire.data(), wire.size());
    Frame out;
    EXPECT_FALSE(parser.next(out));
    EXPECT_TRUE(parser.error());
    // Latched: later valid bytes are ignored.
    const auto good = encodeFrame(1, {});
    parser.feed(good.data(), good.size());
    EXPECT_FALSE(parser.next(out));
    EXPECT_TRUE(parser.error());
}

TEST(Frame, OversizedLengthRejectedWithoutBuffering)
{
    // A hostile header announcing a huge payload must be rejected
    // from the 20 header bytes alone — nothing buffered, no
    // allocation sized from the length field.
    auto wire = encodeFrame(5, bytesOf("x"));
    const std::uint64_t huge = ~std::uint64_t(0);
    std::memcpy(wire.data() + 8, &huge, sizeof(huge));
    FrameParser parser;
    parser.feed(wire.data(), kFrameHeaderBytes);
    EXPECT_TRUE(parser.error());
    EXPECT_EQ(parser.bufferedBytes(), 0u);

    // Just over the cap is rejected; the cap itself is not.
    auto over = encodeFrame(5, {});
    const std::uint64_t limit = kMaxFramePayload + 1;
    std::memcpy(over.data() + 8, &limit, sizeof(limit));
    FrameParser parser2;
    parser2.feed(over.data(), over.size());
    EXPECT_TRUE(parser2.error());
}

TEST(Frame, PayloadCorruptionFailsTheChecksum)
{
    const auto payload = bytesOf("the checksummed payload bytes");
    for (std::size_t bit = 0; bit < payload.size() * 8; bit += 13) {
        auto wire = encodeFrame(9, payload);
        wire[kFrameHeaderBytes + bit / 8] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
        FrameParser parser;
        parser.feed(wire.data(), wire.size());
        Frame out;
        EXPECT_FALSE(parser.next(out)) << "bit " << bit;
        EXPECT_TRUE(parser.error()) << "bit " << bit;
    }
}

TEST(Frame, FuzzedStreamsNeverMisdecode)
{
    // Deterministic xorshift fuzz: flip random bytes in a valid
    // multi-frame stream. Every outcome must be either the original
    // frames or a latched error — never a different decoded frame,
    // never unbounded buffering.
    const auto payload = bytesOf("fuzz target payload");
    std::vector<std::uint8_t> clean;
    for (std::uint32_t t = 1; t <= 4; ++t) {
        const auto f = encodeFrame(t, payload);
        clean.insert(clean.end(), f.begin(), f.end());
    }
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    auto next_rand = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (int round = 0; round < 500; ++round) {
        auto fuzzed = clean;
        const int flips = 1 + static_cast<int>(next_rand() % 3);
        for (int i = 0; i < flips; ++i)
            fuzzed[next_rand() % fuzzed.size()] ^=
                static_cast<std::uint8_t>(next_rand() % 255 + 1);
        FrameParser parser;
        parser.feed(fuzzed.data(), fuzzed.size());
        Frame out;
        std::uint32_t expect_type = 1;
        while (parser.next(out)) {
            ASSERT_LE(expect_type, 4u);
            EXPECT_EQ(out.type, expect_type);
            EXPECT_EQ(out.payload, payload);
            expect_type++;
        }
        EXPECT_LE(parser.bufferedBytes(), fuzzed.size());
    }
}

// ---- protocol payloads -------------------------------------------

UnitMsg
sampleUnit()
{
    UnitMsg unit;
    unit.unitIndex = 3;
    return unit;
}

TEST(Protocol, PayloadsRoundTrip)
{
    HelloMsg hello;
    hello.sessionId = 0x77;
    HelloMsg hello2;
    ASSERT_TRUE(decodeHello(encodeHello(hello), hello2));
    EXPECT_EQ(hello2.version, kNetProtocolVersion);
    EXPECT_EQ(hello2.sessionId, 0x77u);

    PlanMsg plan;
    plan.planDigest = 0x1234567890abcdefULL;
    plan.planJson = "{\"k\": 1}\n";
    plan.sessionId = 9;
    PlanMsg plan2;
    ASSERT_TRUE(decodePlanMsg(encodePlanMsg(plan), plan2));
    EXPECT_EQ(plan2.planDigest, plan.planDigest);
    EXPECT_EQ(plan2.planJson, plan.planJson);
    EXPECT_EQ(plan2.sessionId, 9u);

    PlanAckMsg ack{42};
    PlanAckMsg ack2;
    ASSERT_TRUE(decodePlanAck(encodePlanAck(ack), ack2));
    EXPECT_EQ(ack2.planDigest, 42u);

    const UnitMsg unit = sampleUnit();
    UnitMsg unit2;
    ASSERT_TRUE(decodeUnit(encodeUnit(unit), unit2));
    EXPECT_EQ(unit2.unitIndex, 3u);

    UnitDoneMsg done{3};
    UnitDoneMsg done2;
    ASSERT_TRUE(decodeUnitDone(encodeUnitDone(done), done2));
    EXPECT_EQ(done2.unitIndex, 3u);
}

TEST(Protocol, RejectsTruncationAndWrongTags)
{
    const auto unit = encodeUnit(sampleUnit());
    UnitMsg out;
    for (std::size_t cut = 0; cut < unit.size(); ++cut)
        EXPECT_FALSE(decodeUnit(
            std::vector<std::uint8_t>(unit.begin(),
                                      unit.begin() + cut),
            out))
            << "cut " << cut;
    // A different message's bytes are not a unit (or a done).
    HelloMsg hello;
    EXPECT_FALSE(decodeUnit(encodeHello(hello), out));
    UnitDoneMsg done_out;
    EXPECT_FALSE(decodeUnitDone(encodeUnit(sampleUnit()),
                                done_out));
}

TEST(Protocol, V1ShortHelloStillDecodes)
{
    // The v1 Hello stopped after the version word. Decoding it —
    // rather than rejecting — is what lets a v2 coordinator read an
    // old peer's greeting and refuse it with a polite kMsgBye
    // instead of slamming the socket mid-handshake.
    StateWriter w;
    w.tag(stateTag('N', 'H', 'L', 'O'));
    w.u32(1);
    HelloMsg out;
    ASSERT_TRUE(decodeHello(w.take(), out));
    EXPECT_EQ(out.version, 1u);
    EXPECT_EQ(out.sessionId, 0u);
}

TEST(Protocol, ByteFlipFuzzNeverMisdecodes)
{
    // Reject-never-misdecode, payload layer: flip bytes in every
    // message type's canonical encoding. Any mutation the decoder
    // accepts must re-encode to exactly the mutated bytes — i.e.
    // acceptance means the bytes really are some valid message, not
    // a misreading of a corrupted one. (The frame CRC below this
    // layer catches wire corruption; this pins the codec's own
    // honesty against anything that slips through.)
    struct Case
    {
        const char *name;
        std::vector<std::uint8_t> clean;
        std::function<bool(const std::vector<std::uint8_t> &,
                           std::vector<std::uint8_t> &)>
            recode;
    };
    HelloMsg hello;
    hello.sessionId = 3;
    PlanMsg plan;
    plan.planDigest = 0xfeedULL;
    plan.planJson = "{\"records\": 1000}\n";
    plan.sessionId = 2;
    std::vector<Case> cases;
    cases.push_back(
        {"hello", encodeHello(hello),
         [](const std::vector<std::uint8_t> &in,
            std::vector<std::uint8_t> &again) {
             HelloMsg m;
             if (!decodeHello(in, m))
                 return false;
             again = encodeHello(m);
             return true;
         }});
    cases.push_back(
        {"plan", encodePlanMsg(plan),
         [](const std::vector<std::uint8_t> &in,
            std::vector<std::uint8_t> &again) {
             PlanMsg m;
             if (!decodePlanMsg(in, m))
                 return false;
             again = encodePlanMsg(m);
             return true;
         }});
    cases.push_back(
        {"unit", encodeUnit(sampleUnit()),
         [](const std::vector<std::uint8_t> &in,
            std::vector<std::uint8_t> &again) {
             UnitMsg m;
             if (!decodeUnit(in, m))
                 return false;
             again = encodeUnit(m);
             return true;
         }});
    std::uint64_t state = 0x2545f4914f6cdd1dULL;
    auto next_rand = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (const Case &c : cases) {
        // Exhaustive single-byte flips plus random multi-flips.
        for (std::size_t at = 0; at < c.clean.size(); ++at) {
            for (std::uint8_t bit = 0; bit < 8; ++bit) {
                auto fuzzed = c.clean;
                fuzzed[at] ^= static_cast<std::uint8_t>(1u << bit);
                std::vector<std::uint8_t> again;
                if (c.recode(fuzzed, again)) {
                    EXPECT_EQ(again, fuzzed)
                        << c.name << " byte " << at << " bit "
                        << int(bit);
                }
            }
        }
        for (int round = 0; round < 200; ++round) {
            auto fuzzed = c.clean;
            const int flips = 1 + static_cast<int>(next_rand() % 4);
            for (int i = 0; i < flips; ++i)
                fuzzed[next_rand() % fuzzed.size()] ^=
                    static_cast<std::uint8_t>(next_rand() % 255 +
                                              1);
            std::vector<std::uint8_t> again;
            if (c.recode(fuzzed, again)) {
                EXPECT_EQ(again, fuzzed) << c.name;
            }
        }
    }
}

// ---- loopback coordinator/worker sweeps --------------------------

class NetSweepTest : public test::TempDirTest
{
  protected:
    SweepPlan
    smallPlan(std::vector<std::string> workloads) const
    {
        SweepPlan plan;
        plan.workloads = std::move(workloads);
        plan.engines = {PlanEngine{"tms", "", {}},
                        PlanEngine{"stems", "", {}}};
        plan.records = 20'000;
        plan.jobs = 2;
        return plan;
    }

    std::vector<WorkloadResult>
    referenceRun(const SweepPlan &plan) const
    {
        ExperimentDriver driver;
        return driver.run(plan);
    }

    /** Serve `plan` to the given worker option sets (one thread
     *  each), then merge over the warm store. */
    std::vector<WorkloadResult>
    distributedRun(const SweepPlan &plan,
                   std::vector<WorkerOptions> workers,
                   SweepCoordinator &coord)
    {
        std::filesystem::create_directories(dir_);
        std::string error;
        EXPECT_TRUE(coord.listen(0, &error)) << error;
        std::vector<std::thread> threads;
        std::vector<WorkerReport> reports(workers.size());
        std::vector<std::string> worker_errors(workers.size());
        // char, not bool: std::vector<bool> packs entries into shared
        // words, so concurrent writes to neighbouring workers race.
        std::vector<char> worker_ok(workers.size(), 0);
        for (std::size_t i = 0; i < workers.size(); ++i) {
            workers[i].port = coord.port();
            threads.emplace_back([&, i] {
                worker_ok[i] = runWorker(
                    workers[i], &reports[i], &worker_errors[i]);
            });
        }
        const bool served = coord.serve(120.0, &error);
        for (std::thread &t : threads)
            t.join();
        EXPECT_TRUE(served) << error;
        for (std::size_t i = 0; i < workers.size(); ++i)
            EXPECT_TRUE(worker_ok[i])
                << "worker " << i << ": " << worker_errors[i];

        ExperimentDriver merge;
        merge.setStore(std::make_shared<TraceStore>(dir_));
        return merge.run(plan);
    }
};

TEST_F(NetSweepTest, TwoWorkersMatchSingleProcessBitwise)
{
    const SweepPlan plan =
        smallPlan({"oltp-db2", "web-apache", "em3d"});
    SweepCoordinator coord(plan);
    WorkerOptions worker;
    worker.storeDir = dir_;
    const auto distributed =
        distributedRun(plan, {worker, worker}, coord);
    EXPECT_EQ(coord.unitsCompleted(), 3u);
    EXPECT_EQ(coord.unitsRequeued(), 0u);

    test::expectSameResults(distributed, referenceRun(plan));

    // A later client over the warm store must simulate nothing:
    // zero trace generations, zero cell sims (counter deltas in the
    // process-wide registry).
    const test::RegistryDelta delta;
    ExperimentDriver warm;
    warm.setStore(std::make_shared<TraceStore>(dir_));
    test::expectSameResults(warm.run(plan), distributed);
    EXPECT_EQ(delta("driver.trace.generated"), 0u);
    EXPECT_EQ(delta("driver.cell.simulated"), 0u);
}

TEST_F(NetSweepTest, AbandonedUnitIsRequeuedAndResultsMatch)
{
    const SweepPlan plan =
        smallPlan({"oltp-db2", "web-apache", "em3d"});
    SweepCoordinator coord(plan);
    WorkerOptions quitter;
    quitter.storeDir = dir_;
    quitter.abandonAfterUnits = 1; // vanish on the second unit
    WorkerOptions steady;
    steady.storeDir = dir_;
    const auto distributed =
        distributedRun(plan, {quitter, steady}, coord);
    EXPECT_EQ(coord.unitsCompleted(), 3u);

    test::expectSameResults(distributed, referenceRun(plan));
}

TEST_F(NetSweepTest, ServeTimesOutWithoutWorkers)
{
    const SweepPlan plan = smallPlan({"oltp-db2"});
    SweepCoordinator coord(plan);
    std::string error;
    ASSERT_TRUE(coord.listen(0, &error)) << error;
    EXPECT_FALSE(coord.serve(0.3, &error));
    EXPECT_NE(error.find("timed out"), std::string::npos) << error;
}

TEST_F(NetSweepTest, WorkerRefusesMissingStore)
{
    WorkerOptions worker;
    worker.storeDir = dir_ + "/does-not-exist";
    worker.port = 1; // never reached
    worker.connectTimeoutSeconds = 0.1;
    std::string error;
    EXPECT_FALSE(runWorker(worker, nullptr, &error));
    EXPECT_NE(error.find("store"), std::string::npos) << error;
}

// ---- cross-version handshakes ------------------------------------

TEST_F(NetSweepTest, OldWorkerHelloIsRefusedWithCleanBye)
{
    // A v1 peer greets with the short Hello form. The current
    // coordinator must read it, answer kMsgBye, and close — a clean
    // refusal the old peer can report, never a hang or a
    // mid-handshake reset.
    const SweepPlan plan = smallPlan({"oltp-db2"});
    SweepCoordinator coord(plan);
    std::string error;
    ASSERT_TRUE(coord.listen(0, &error)) << error;

    bool got_bye = false;
    bool peer_done = false;
    std::thread peer([&] {
        int fd = connectWithRetry("127.0.0.1", coord.port(), 5.0);
        ASSERT_GE(fd, 0);
        FramedConn conn(fd);
        StateWriter w;
        w.tag(stateTag('N', 'H', 'L', 'O'));
        w.u32(1); // protocol version 1, pre-sessionId layout
        ASSERT_TRUE(conn.sendFrame(kMsgHello, w.take()));
        Frame frame;
        if (conn.recvFrame(frame))
            got_bye = frame.type == kMsgBye;
        // EOF follows: the coordinator closed after the Bye.
        Frame extra;
        EXPECT_FALSE(conn.recvFrame(extra));
        peer_done = true;
    });
    // No unit ever completes, so serve() must exit on its own
    // timeout — proving the refused peer did not wedge the loop.
    EXPECT_FALSE(coord.serve(2.0, &error));
    peer.join();
    EXPECT_TRUE(peer_done);
    EXPECT_TRUE(got_bye);
    EXPECT_EQ(coord.unitsCompleted(), 0u);
}

TEST_F(NetSweepTest, FutureVersionHelloIsRefusedWithCleanBye)
{
    const SweepPlan plan = smallPlan({"oltp-db2"});
    SweepCoordinator coord(plan);
    std::string error;
    ASSERT_TRUE(coord.listen(0, &error)) << error;

    bool got_bye = false;
    std::thread peer([&] {
        int fd = connectWithRetry("127.0.0.1", coord.port(), 5.0);
        ASSERT_GE(fd, 0);
        FramedConn conn(fd);
        HelloMsg hello;
        hello.version = kNetProtocolVersion + 7;
        ASSERT_TRUE(conn.sendFrame(kMsgHello, encodeHello(hello)));
        Frame frame;
        if (conn.recvFrame(frame))
            got_bye = frame.type == kMsgBye;
    });
    EXPECT_FALSE(coord.serve(2.0, &error));
    peer.join();
    EXPECT_TRUE(got_bye);
}

TEST_F(NetSweepTest, OldCoordinatorClosingOnHelloFailsCleanlyNoHang)
{
    // The inverse skew: a v1 coordinator cannot decode the longer
    // v2 Hello, so the best a worker can observe is a dropped
    // connection at the handshake stage. The worker must surface
    // that as a bounded, clean failure — not reconnect forever and
    // not hang.
    std::filesystem::create_directories(dir_);
    TraceStore seed(dir_); // materialize a usable store directory

    TcpListener listener;
    std::string error;
    ASSERT_TRUE(listener.open(0, &error)) << error;
    std::thread old_coord([&] {
        int fd = -1;
        while (fd < 0)
            fd = listener.accept();
        FramedConn conn(fd);
        // Read the greeting (an old decoder would reject it), then
        // slam the door the way a failed v1 handshake does.
        conn.readAvailable();
        conn.close();
    });

    WorkerOptions worker;
    worker.storeDir = dir_;
    worker.port = listener.port();
    worker.connectTimeoutSeconds = 2.0;
    std::string worker_error;
    EXPECT_FALSE(runWorker(worker, nullptr, &worker_error));
    EXPECT_FALSE(worker_error.empty());
    old_coord.join();
}

TEST_F(NetSweepTest, ByeAfterReconnectEndsTheWorkerCleanly)
{
    // A worker drops its connection on receiving a unit (the
    // coordinator requeues it), reconnects under its session and
    // asks for work. If the sweep finished in the meantime (the unit
    // completed elsewhere), the coordinator answers with Bye: a
    // clean end of the sweep, not a protocol error. A scripted
    // coordinator makes that interleaving deterministic.
    std::filesystem::create_directories(dir_);
    TraceStore seed(dir_); // materialize a usable store directory
    const SweepPlan plan = smallPlan({"oltp-db2", "web-apache"});
    PlanMsg plan_msg;
    plan_msg.planDigest = sweepPlanDigest(plan);
    plan_msg.planJson = sweepPlanJson(plan);
    plan_msg.sessionId = 7;

    TcpListener listener;
    std::string error;
    ASSERT_TRUE(listener.open(0, &error)) << error;
    std::vector<std::uint32_t> received;
    HelloMsg second_hello;
    std::thread coord([&] {
        auto accept = [&] {
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(30);
            int fd = -1;
            while (fd < 0 && std::chrono::steady_clock::now() < deadline)
                fd = listener.accept();
            return fd;
        };
        Frame frame;
        auto next = [&](FramedConn &conn) {
            received.push_back(conn.recvFrame(frame) ? frame.type : 0);
        };
        int fd = accept();
        if (fd < 0)
            return;
        FramedConn first(fd);
        next(first); // Hello
        first.sendFrame(kMsgPlan, encodePlanMsg(plan_msg));
        next(first); // PlanAck
        UnitMsg unit;
        for (std::uint64_t i = 0; i < 2; ++i) {
            next(first); // RequestUnit
            unit.unitIndex = i;
            first.sendFrame(kMsgUnit, encodeUnit(unit));
            if (i == 0)
                next(first); // UnitDone
        }
        // The worker drops on unit 1 and comes back for fresh work.
        fd = accept();
        if (fd < 0)
            return;
        FramedConn second(fd);
        next(second); // Hello
        decodeHello(frame.payload, second_hello);
        second.sendFrame(kMsgPlan, encodePlanMsg(plan_msg));
        next(second); // PlanAck
        next(second); // RequestUnit
        second.sendFrame(kMsgBye, {});
        second.close();
    });

    WorkerOptions worker;
    worker.storeDir = dir_;
    worker.port = listener.port();
    worker.connectTimeoutSeconds = 5.0;
    worker.dropAfterUnits = 1;
    WorkerReport report;
    std::string worker_error;
    EXPECT_TRUE(runWorker(worker, &report, &worker_error))
        << worker_error;
    coord.join();
    EXPECT_EQ(report.unitsCompleted, 1u);
    EXPECT_EQ(report.reconnects, 1u);
    EXPECT_EQ(second_hello.sessionId, 7u);
    EXPECT_EQ(received,
              (std::vector<std::uint32_t>{
                  kMsgHello, kMsgPlanAck, kMsgRequestUnit,
                  kMsgUnitDone, kMsgRequestUnit, kMsgHello,
                  kMsgPlanAck, kMsgRequestUnit}));
}

TEST_F(NetSweepTest, WorkerRefusesAnOutOfRangeUnit)
{
    // A unit names a workload by its index in the plan. A scripted
    // coordinator hands out the index one past the last workload:
    // the worker must stop with an error before it generates or
    // simulates anything.
    std::filesystem::create_directories(dir_);
    TraceStore seed(dir_); // materialize a usable store directory
    const SweepPlan plan = smallPlan({"oltp-db2", "web-apache"});
    PlanMsg plan_msg;
    plan_msg.planDigest = sweepPlanDigest(plan);
    plan_msg.planJson = sweepPlanJson(plan);
    plan_msg.sessionId = 1;

    TcpListener listener;
    std::string error;
    ASSERT_TRUE(listener.open(0, &error)) << error;
    WorkerOptions worker;
    worker.storeDir = dir_;
    worker.port = listener.port();
    worker.connectTimeoutSeconds = 5.0;
    std::thread coord([&] {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        int fd = -1;
        while (fd < 0 && std::chrono::steady_clock::now() < deadline)
            fd = listener.accept();
        if (fd < 0)
            return;
        FramedConn conn(fd);
        Frame frame;
        conn.recvFrame(frame); // Hello
        conn.sendFrame(kMsgPlan, encodePlanMsg(plan_msg));
        conn.recvFrame(frame); // PlanAck
        conn.recvFrame(frame); // RequestUnit
        UnitMsg unit;
        unit.unitIndex = plan.workloads.size();
        conn.sendFrame(kMsgUnit, encodeUnit(unit));
        // The worker hangs up; wait for it so the unit is read. No
        // one listens after that, so a worker that ran the unit
        // instead cannot get another.
        conn.recvFrame(frame);
        listener.close();
    });

    const test::RegistryDelta delta;
    WorkerReport report;
    std::string worker_error;
    EXPECT_FALSE(runWorker(worker, &report, &worker_error));
    coord.join();

    EXPECT_NE(worker_error.find("out of range"), std::string::npos)
        << worker_error;
    EXPECT_EQ(report.unitsCompleted, 0u);
    EXPECT_EQ(delta("driver.trace.generated"), 0u);
    EXPECT_EQ(delta("driver.cell.simulated"), 0u);
}

} // namespace
} // namespace stems
