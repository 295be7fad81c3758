/**
 * @file
 * Checkpointing tests.
 *
 * The contract under test is bitwise equivalence: for every
 * registered engine, serializing a mid-trace PrefetchSimulator and
 * resuming it in a freshly-constructed one must be indistinguishable
 * — stat for stat, cycle for cycle — from never having stopped.
 * Split points are randomized (seeded Rng) so the property is probed
 * across warmup boundaries, stream states and generation lifetimes
 * rather than at one hand-picked index.
 *
 * On top of that sit the driver-level guarantees: checkpointed
 * execution (checkpoint at every boundary, resume from the newest
 * trusted match) is bitwise identical to a continuous run at
 * jobs 1 and 8 for every registered engine;
 * re-running a sweep with more records over a warm store
 * re-simulates only the new suffix (the driver.cell.resumed and
 * ckpt.resume.skipped_records registry counters); and checkpoints
 * from a
 * different seed or an older engine state version are never
 * restored.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <sstream>

#include "common/rng.hh"
#include "prefetch/engine_registry.hh"
#include "sim/checkpoint.hh"
#include "sim/driver.hh"
#include "store/trace_store.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

namespace stems {
namespace {

using test::expectSameResults;
using test::expectSameStats;
using test::smallConfig;

/** The trace every per-engine property test runs over: a real
 *  workload mix (temporal+spatial structure) so all engines train. */
Trace
propertyTrace()
{
    auto w = makeWorkload("web-apache");
    EXPECT_NE(w, nullptr);
    return w->generate(/*seed=*/9, /*records=*/20000);
}

SimParams
timedParams()
{
    SystemConfig sys = defaultSystemConfig();
    SimParams p;
    p.hierarchy = sys.hierarchy;
    p.enableTiming = true;
    p.timing = sys.timing;
    return p;
}

std::unique_ptr<Prefetcher>
makeEngine(const std::string &name)
{
    return EngineRegistry::instance().make(name,
                                           defaultSystemConfig());
}

/** The bytes of a store's .ckpt file, read straight off disk (the
 *  layout store/trace_store.hh documents). Empty when missing. */
std::string
readCheckpointFile(const std::string &store_dir, std::uint64_t spec,
                   std::uint64_t config, std::uint64_t index,
                   std::uint64_t state)
{
    char name[80];
    std::snprintf(name, sizeof(name),
                  "%016" PRIx64 "-%016" PRIx64 "-%016" PRIx64
                  "-%016" PRIx64 ".ckpt",
                  spec, config, index, state);
    std::ifstream in(store_dir + "/checkpoints/" + name,
                     std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Step records [first, last) with the standard warmup flip, i.e.
 *  exactly what PrefetchSimulator::run does over that span. */
void
stepSpan(PrefetchSimulator &sim, const Trace &trace,
         std::size_t first, std::size_t last, std::size_t warmup)
{
    for (std::size_t i = first; i < last; ++i) {
        if (i == warmup)
            sim.setMeasuring(true);
        sim.step(trace[i]);
    }
}

TEST(Checkpoint, SnapshotResumeMatchesContinuousForEveryEngine)
{
    Trace trace = propertyTrace();
    const std::size_t warmup = trace.size() / 3;
    SimParams params = timedParams();

    for (const std::string &name :
         EngineRegistry::instance().names()) {
        SCOPED_TRACE("engine " + name);

        // Continuous reference.
        auto ref_engine = makeEngine(name);
        ASSERT_NE(ref_engine, nullptr);
        PrefetchSimulator ref(params, ref_engine.get());
        ref.setMeasuring(false);
        stepSpan(ref, trace, 0, trace.size(), warmup);
        ref.finish();

        // Random split points, spread over warmup and measurement.
        Rng rng(0xC0FFEE ^ std::hash<std::string>{}(name));
        for (int trial = 0; trial < 4; ++trial) {
            std::size_t split =
                1 + rng.below(static_cast<std::uint32_t>(
                        trace.size() - 1));
            SCOPED_TRACE("split " + std::to_string(split));

            auto prefix_engine = makeEngine(name);
            PrefetchSimulator prefix(params, prefix_engine.get());
            prefix.setMeasuring(false);
            stepSpan(prefix, trace, 0, split, warmup);
            std::vector<std::uint8_t> blob =
                encodeCheckpoint(prefix, split);

            const auto verified = verifyCheckpoint(blob);
            ASSERT_TRUE(verified.has_value());
            EXPECT_EQ(verified->recordIndex(), split);
            std::uint64_t index = 0;

            auto resumed_engine = makeEngine(name);
            PrefetchSimulator resumed(params,
                                      resumed_engine.get());
            ASSERT_TRUE(decodeCheckpoint(blob, resumed, &index));
            EXPECT_EQ(index, split);
            stepSpan(resumed, trace, split, trace.size(), warmup);
            resumed.finish();

            expectSameStats(ref.stats(), resumed.stats());
        }
    }
}

TEST(Checkpoint, DoubleSplitResumeStillMatches)
{
    // Checkpoint, resume, checkpoint again later, resume again: the
    // state must survive arbitrary chains of snapshots.
    Trace trace = propertyTrace();
    const std::size_t warmup = trace.size() / 3;
    SimParams params = timedParams();

    auto ref_engine = makeEngine("stems");
    PrefetchSimulator ref(params, ref_engine.get());
    ref.setMeasuring(false);
    stepSpan(ref, trace, 0, trace.size(), warmup);
    ref.finish();

    std::size_t first = trace.size() / 4;
    std::size_t second = (trace.size() * 3) / 4;

    auto e1 = makeEngine("stems");
    PrefetchSimulator s1(params, e1.get());
    s1.setMeasuring(false);
    stepSpan(s1, trace, 0, first, warmup);
    auto blob1 = encodeCheckpoint(s1, first);

    auto e2 = makeEngine("stems");
    PrefetchSimulator s2(params, e2.get());
    ASSERT_TRUE(decodeCheckpoint(blob1, s2));
    stepSpan(s2, trace, first, second, warmup);
    auto blob2 = encodeCheckpoint(s2, second);

    auto e3 = makeEngine("stems");
    PrefetchSimulator s3(params, e3.get());
    ASSERT_TRUE(decodeCheckpoint(blob2, s3));
    stepSpan(s3, trace, second, trace.size(), warmup);
    s3.finish();

    expectSameStats(ref.stats(), s3.stats());
}

TEST(Checkpoint, RandomSingleByteCorruptionIsAlwaysRejected)
{
    Trace trace = propertyTrace();
    SimParams params = timedParams();
    auto engine = makeEngine("stems");
    PrefetchSimulator sim(params, engine.get());
    sim.setMeasuring(false);
    stepSpan(sim, trace, 0, trace.size() / 2, trace.size() / 3);
    std::vector<std::uint8_t> blob =
        encodeCheckpoint(sim, trace.size() / 2);
    ASSERT_TRUE(checkpointValid(blob));

    Rng rng(1234);
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<std::uint8_t> corrupt = blob;
        std::size_t offset = rng.below(
            static_cast<std::uint32_t>(corrupt.size()));
        std::uint8_t flip = static_cast<std::uint8_t>(
            1 + rng.below(255)); // never a no-op
        corrupt[offset] ^= flip;
        EXPECT_FALSE(checkpointValid(corrupt))
            << "byte " << offset << " xor "
            << static_cast<int>(flip);
        auto fresh_engine = makeEngine("stems");
        PrefetchSimulator fresh(params, fresh_engine.get());
        EXPECT_FALSE(decodeCheckpoint(corrupt, fresh));
    }

    // Truncations are rejected too, at any cut.
    for (std::size_t cut : {std::size_t{0}, std::size_t{10},
                            blob.size() / 2, blob.size() - 1}) {
        std::vector<std::uint8_t> shorter(blob.begin(),
                                          blob.begin() + cut);
        EXPECT_FALSE(checkpointValid(shorter)) << "cut " << cut;
    }
}

TEST(Checkpoint, MismatchedEngineOrStructureFailsCleanly)
{
    Trace trace = propertyTrace();
    SimParams params = timedParams();

    auto stems_engine = makeEngine("stems");
    PrefetchSimulator sim(params, stems_engine.get());
    sim.setMeasuring(false);
    stepSpan(sim, trace, 0, 5000, 6000);
    auto blob = encodeCheckpoint(sim, 5000);

    // Same blob into a differently-shaped simulator: CRC passes but
    // the payload structure must be rejected, not mis-decoded.
    auto tms_engine = makeEngine("tms");
    PrefetchSimulator wrong_engine(params, tms_engine.get());
    EXPECT_FALSE(decodeCheckpoint(blob, wrong_engine));

    PrefetchSimulator no_engine(params, nullptr);
    EXPECT_FALSE(decodeCheckpoint(blob, no_engine));

    SimParams functional = params;
    functional.enableTiming = false;
    auto other = makeEngine("stems");
    PrefetchSimulator wrong_timing(functional, other.get());
    EXPECT_FALSE(decodeCheckpoint(blob, wrong_timing));
}

TEST(Checkpoint, EncodedBytesArePinnedForEveryLane)
{
    // FNV-1a digests of encodeCheckpoint's bytes (header included),
    // recorded before the hot-path containers were rewritten in
    // place. A store warmed by an earlier build keeps resuming only
    // while they hold, so container layout work must keep every
    // checkpoint byte. Each lane steps two traces to two fixed
    // indices, with timing off and on: digest[trace][timing][index].
    struct Pin
    {
        const char *engine; ///< "" = the engineless baseline lane
        std::uint64_t digest[2][2][2];
    };
    static const Pin kPins[] = {
        {"",
         {{{0x9c7ce45dfa4a757ull, 0xb7dcf03645e2c4ddull},
           {0x65cdf517c442d0cdull, 0xdb8f750dc2a0f99dull}},
          {{0x6c9023f6fee8a391ull, 0x4673ce93ed9f89f1ull},
           {0x3e583fc1af8b0869ull, 0xd477e16c8406d775ull}}}},
        {"stride",
         {{{0xe059241830ea84c5ull, 0xeb971d76efa80f84ull},
           {0x9f99c03b2aee130bull, 0x28e13a8302c1a137ull}},
          {{0xce782002723a8d4aull, 0xe3fe477df7608058ull},
           {0x60dcfba0f8e7472dull, 0x1b3ca8db3d9a884ull}}}},
        {"tms",
         {{{0xf3417c1e8bb33ae1ull, 0xa902d7bd64d974fdull},
           {0x18f6a4670abeae22ull, 0x21a06cfbdae1c763ull}},
          {{0x3b13fb4e2e38cb5bull, 0xde2985e9463ba7f6ull},
           {0x87e35ac31e51575full, 0x45c25021727603bbull}}}},
        {"sms",
         {{{0x1773ee2b46a4b615ull, 0x89d200b784b2495cull},
           {0x5e8693febbbc1168ull, 0x4a6df57b4830fcc7ull}},
          {{0xdcc810964a22121aull, 0x9278368ad24af7f1ull},
           {0x9b8331d650cdd860ull, 0x18fffc2e8f6c338cull}}}},
        {"stems",
         {{{0x774cf097f83ffc5eull, 0x51f822f19dbd9623ull},
           {0xc8e2874a3c47ab6bull, 0x845ea1077eb99c0eull}},
          {{0x4baac05fe9a1faf3ull, 0xc48c5836a40379f6ull},
           {0xe85568d124898d38ull, 0x4834ae2d183692d1ull}}}},
        {"tms+sms",
         {{{0x17f70005a7a15fadull, 0xaae950bb624dce86ull},
           {0xd27b0bbea78a3a80ull, 0x8898dfe48d4cc843ull}},
          {{0x9f20cfc6cd7b427dull, 0xd4e22ccdf7661589ull},
           {0x41a344a0bf6ece6dull, 0xb4659fd100d0e23dull}}}},
    };
    const Trace traces[2] = {test::sampleTrace(), propertyTrace()};
    const std::size_t indices[2][2] = {{256, 535}, {4096, 16384}};
    // Every lane is also streamed into a store; its .ckpt file must
    // carry the same pinned bytes.
    const std::string store_dir = test::uniqueTempPath("stems_pin_store");
    std::filesystem::remove_all(store_dir);
    TraceStore store(store_dir);
    std::vector<std::string> streamed_differs;

    std::set<std::string> pinned;
    std::ostringstream now;
    bool same = true;
    for (const Pin &pin : kPins) {
        pinned.insert(pin.engine);
        now << "        {\"" << pin.engine << "\", {";
        for (int t = 0; t < 2; ++t) {
            now << (t ? ", {" : "{");
            for (int timing = 0; timing < 2; ++timing) {
                now << (timing ? ", {" : "{");
                for (int k = 0; k < 2; ++k) {
                    SimParams params = timedParams();
                    params.enableTiming = timing == 1;
                    std::unique_ptr<Prefetcher> engine;
                    if (*pin.engine)
                        engine = makeEngine(pin.engine);
                    PrefetchSimulator sim(params, engine.get());
                    stepSpan(sim, traces[t], 0, indices[t][k], 0);
                    const std::vector<std::uint8_t> blob =
                        encodeCheckpoint(sim, indices[t][k]);
                    const std::uint64_t got = storeDigest(
                        std::string(blob.begin(), blob.end()));
                    same = same && got == pin.digest[t][timing][k];
                    ASSERT_TRUE(store.putCheckpoint(
                        0x5, 0xC, indices[t][k], 0x5D, sim,
                        {"pin", pin.engine, indices[t][k], 0}));
                    if (storeDigest(readCheckpointFile(
                            store_dir, 0x5, 0xC, indices[t][k], 0x5D)) !=
                        pin.digest[t][timing][k])
                        streamed_differs.push_back(
                            std::string(pin.engine) + " trace " +
                            std::to_string(t) + " timing " +
                            std::to_string(timing) + " index " +
                            std::to_string(indices[t][k]));
                    now << (k ? ", " : "") << "0x" << std::hex << got
                        << std::dec << "ull";
                }
                now << "}";
            }
            now << "}";
        }
        now << "}},\n";
    }
    EXPECT_TRUE(same) << "checkpoint bytes changed; digests now:\n"
                      << now.str();
    EXPECT_TRUE(streamed_differs.empty())
        << "streamed .ckpt file off its pin: " << streamed_differs[0];
    std::filesystem::remove_all(store_dir);
    for (const std::string &name : EngineRegistry::instance().names())
        EXPECT_EQ(pinned.count(name), 1u)
            << "engine " << name << " has no pinned digests";
}

TEST(Checkpoint, StreamedFileSpanningChunksEqualsEncodedBlob)
{
    // Three and a bit chunks of engine state, so the streamed writer
    // splits fields at chunk ends and writes its header last.
    test::BulkStateEngine engine(3 * StateWriter::kChunkBytes + 12345);
    PrefetchSimulator lane(timedParams(), &engine);
    const Trace trace = test::sampleTrace();
    stepSpan(lane, trace, 0, trace.size(), trace.size() / 3);
    const std::vector<std::uint8_t> blob =
        encodeCheckpoint(lane, trace.size());
    ASSERT_GE(blob.size(), 3 * StateWriter::kChunkBytes);

    const std::string store_dir =
        test::uniqueTempPath("stems_chunk_store");
    std::filesystem::remove_all(store_dir);
    TraceStore store(store_dir);
    ASSERT_TRUE(store.putCheckpoint(
        0x7, 0x8, trace.size(), 0x9, lane,
        {"chunks", engine.name(), trace.size(), 0}));
    const std::string file =
        readCheckpointFile(store_dir, 0x7, 0x8, trace.size(), 0x9);
    EXPECT_TRUE(file == std::string(blob.begin(), blob.end()))
        << "streamed " << file.size() << " bytes, encoded "
        << blob.size();
    std::filesystem::remove_all(store_dir);
}

TEST(Checkpoint, ReencodeRoundTripIsByteIdenticalForEveryEngine)
{
    // Checkpoint payloads are a pure function of logical state:
    // decoding a blob into a fresh simulator and re-encoding it must
    // reproduce the blob exactly. Trusted resume hands one run's
    // bytes to another, so any hidden iteration-order or history
    // dependence in a serializer would show up here first.
    Trace trace = propertyTrace();
    const std::size_t warmup = trace.size() / 3;
    SimParams params = timedParams();

    for (const std::string &name :
         EngineRegistry::instance().names()) {
        SCOPED_TRACE("engine " + name);
        Rng rng(0x5EED ^ std::hash<std::string>{}(name));
        for (int trial = 0; trial < 3; ++trial) {
            std::size_t split =
                1 + rng.below(static_cast<std::uint32_t>(
                        trace.size() - 1));
            SCOPED_TRACE("split " + std::to_string(split));
            auto original = makeEngine(name);
            PrefetchSimulator sim(params, original.get());
            sim.setMeasuring(false);
            stepSpan(sim, trace, 0, split, warmup);
            const auto blob = encodeCheckpoint(sim, split);

            auto fresh = makeEngine(name);
            PrefetchSimulator resumed(params, fresh.get());
            ASSERT_TRUE(decodeCheckpoint(blob, resumed));
            EXPECT_EQ(blob, encodeCheckpoint(resumed, split));
        }
    }
}

// ---- driver-level checkpointed execution ----

class SegmentedDriverTest : public test::TempDirTest
{
};

TEST_F(SegmentedDriverTest,
       SegmentedMatchesContinuousAcrossJobsForEveryEngine)
{
    // The acceptance bar: for every registered engine, a
    // checkpointed run is bitwise identical to a continuous
    // storeless run, whatever the jobs count.
    std::vector<EngineSpec> engines;
    for (const std::string &name :
         EngineRegistry::instance().names())
        engines.emplace_back(name);
    ExperimentConfig cfg = smallConfig(true, 30000);

    ExperimentDriver reference;
    auto expected =
        reference.run(test::configPlan(cfg, {"dss-qry17"}, 4), engines);

    for (unsigned jobs : {1u, 8u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        // A fresh store per jobs count keeps every cell cold, so the
        // checkpointed execution path itself runs each time.
        std::string dir = dir_ + "_jobs" + std::to_string(jobs);
        SweepPlan plan = test::configPlan(cfg, {"dss-qry17"}, jobs);
        // Three interior boundaries over the 30022-record trace.
        plan.checkpointEvery = 8000;
        const test::RegistryDelta counts;
        ExperimentDriver segmented;
        segmented.setStore(std::make_shared<TraceStore>(dir));
        auto results = segmented.run(plan, engines);
        EXPECT_GT(counts("ckpt.written"), 0u);
        // Every lane starts in the one pass, before any checkpoint
        // exists: nothing resumes in a cold sweep.
        EXPECT_EQ(counts("driver.cell.resumed"), 0u);
        expectSameResults(expected, results);
        std::filesystem::remove_all(dir);
    }
}

TEST_F(SegmentedDriverTest, SecondSegmentedRunResumesFromCheckpoints)
{
    // Same sweep twice over one store, but with the result cache
    // defeated by an anonymous probe: the second run must execute
    // its cell by resuming from the first run's final checkpoint
    // instead of re-simulating the whole trace.
    ExperimentConfig cfg = smallConfig(false, 20000);
    SweepPlan plan = test::configPlan(cfg, {"dss-qry17"}, 2);
    // Two interior boundaries over the 20006-record trace.
    plan.checkpointEvery = 7000;
    EngineSpec probed("stems");
    probed.probe = [](const Prefetcher &, EngineResult &er) {
        er.extra["probe"] = 1.0;
    };

    test::RegistryDelta counts;
    ExperimentDriver first;
    first.setStore(std::make_shared<TraceStore>(dir_));
    auto a = first.run(plan, {probed});
    EXPECT_GT(counts("ckpt.written"), 0u);
    EXPECT_EQ(counts("driver.cell.resumed"), 0u);

    counts = test::RegistryDelta();
    ExperimentDriver second;
    second.setStore(std::make_shared<TraceStore>(dir_));
    auto b = second.run(plan, {probed});
    // The probed cell re-executed (driver.cell.simulated counts it)
    // but resumed at the end-of-trace checkpoint: zero records
    // re-stepped. The baseline cell stayed warm via the result
    // cache, so exactly one cell resumed.
    EXPECT_EQ(counts("driver.cell.simulated"), 1u);
    EXPECT_EQ(counts("driver.cell.resumed"), 1u);
    auto trace_size =
        makeWorkload("dss-qry17")->generate(cfg.seed, 20000).size();
    EXPECT_EQ(counts("ckpt.resume.skipped_records"), trace_size);
    expectSameResults(a, b);
}

TEST_F(SegmentedDriverTest, ExtendedRecordsSimulateOnlyTheSuffix)
{
    // The incremental-sweep headline: extend --records over a warm
    // store and only the unseen suffix is simulated. The warmup
    // boundary is pinned absolutely so the prefix simulation is
    // identical in both runs, and checkpoint boundaries use the
    // absolute interval so both runs share the boundary schedule.
    const std::vector<std::string> engines = {"sms", "stems"};
    ExperimentConfig short_cfg = smallConfig(false, 20000);
    short_cfg.warmupRecords = 8000;
    SweepPlan short_plan =
        test::configPlan(short_cfg, {"dss-qry17"}, 2);
    short_plan.checkpointEvery = 6000;

    test::RegistryDelta counts;
    ExperimentDriver first;
    first.setStore(std::make_shared<TraceStore>(dir_));
    first.run(short_plan, engineSpecs(engines));
    EXPECT_GT(counts("ckpt.written"), 0u);
    std::size_t short_size =
        makeWorkload("dss-qry17")->generate(short_cfg.seed, 20000)
            .size();

    ExperimentConfig long_cfg = smallConfig(false, 40000);
    long_cfg.warmupRecords = 8000;
    SweepPlan long_plan = test::configPlan(long_cfg, {"dss-qry17"}, 2);
    long_plan.checkpointEvery = 6000;
    counts = test::RegistryDelta();
    ExperimentDriver extended;
    extended.setStore(std::make_shared<TraceStore>(dir_));
    auto results = extended.run(long_plan, engineSpecs(engines));

    // Every cell (baseline + both engines) resumed exactly at the
    // short run's end-of-trace checkpoint: the warm prefix cost 0
    // redundant record-steps.
    EXPECT_EQ(counts("driver.cell.resumed"), 1u + engines.size());
    EXPECT_EQ(counts("ckpt.resume.skipped_records"),
              (1u + engines.size()) * short_size);
    // New length: cold.
    EXPECT_EQ(counts("driver.trace.generated"), 1u);

    // And the extended results are bitwise identical to a storeless
    // continuous run of the long configuration.
    ExperimentDriver reference;
    auto expected = reference.run(long_plan, engineSpecs(engines));
    expectSameResults(expected, results);
}

TEST_F(SegmentedDriverTest, CorruptCheckpointFallsBackToColdRun)
{
    ExperimentConfig cfg = smallConfig(false, 20000);
    SweepPlan plan = test::configPlan(cfg, {"dss-qry17"}, 2);
    // One interior boundary over the 20006-record trace.
    plan.checkpointEvery = 12000;
    EngineSpec probed("stems"); // probe defeats the result cache
    probed.probe = [](const Prefetcher &, EngineResult &er) {
        er.extra["probe"] = 1.0;
    };

    ExperimentDriver first;
    first.setStore(std::make_shared<TraceStore>(dir_));
    auto a = first.run(plan, {probed});

    // Flip a byte in every stored checkpoint payload.
    for (const auto &de :
         std::filesystem::recursive_directory_iterator(dir_)) {
        if (de.path().extension() != ".ckpt")
            continue;
        std::fstream f(de.path(), std::ios::in | std::ios::out |
                                      std::ios::binary);
        f.seekp(64);
        f.put('\x7f');
    }

    const test::RegistryDelta counts;
    ExperimentDriver second;
    second.setStore(std::make_shared<TraceStore>(dir_));
    auto b = second.run(plan, {probed});
    // Every blob rejected.
    EXPECT_EQ(counts("driver.cell.resumed"), 0u);
    expectSameResults(a, b);
}

TEST_F(SegmentedDriverTest, EachTraceIsHashedOncePerSweep)
{
    // One pass over a trace yields its content digest (the key of its
    // stored results and of its store put) and every boundary's
    // prefix digest, whether the sweep generated the trace or loaded
    // it from the store.
    ExperimentConfig cfg = smallConfig(false, 20000);
    // em3d's trace (far past 20000 records) opens first on one
    // thread, so dss-qry17's lanes later see only em3d checkpoints
    // past their own trace end: no off-schedule resume candidate
    // adds a hashed tail.
    const std::vector<std::string> workloads = {"em3d", "dss-qry17"};
    SweepPlan plan = test::configPlan(cfg, workloads, 1);
    plan.checkpointEvery = 50000;
    auto store = std::make_shared<TraceStore>(dir_);

    test::RegistryDelta counts;
    ExperimentDriver cold;
    cold.setStore(store);
    cold.run(plan, engineSpecs({"sms"}));
    EXPECT_EQ(counts("driver.trace.generated"), 2u);
    EXPECT_GT(counts("ckpt.written"), 0u);
    std::uint64_t records = 0;
    for (const std::string &w : workloads) {
        auto info = store->findTrace({w, cfg.traceRecords, cfg.seed});
        ASSERT_TRUE(info.has_value()) << w;
        records += info->records;
    }
    EXPECT_EQ(counts("trace.hashed_records"), records);

    // A new engine column over the stored traces: loaded, not
    // generated, and hashed once more.
    counts = test::RegistryDelta();
    ExperimentDriver warm;
    warm.setStore(store);
    warm.run(plan, engineSpecs({"sms", "tms"}));
    EXPECT_EQ(counts("driver.trace.generated"), 0u);
    EXPECT_EQ(counts("driver.cell.simulated"), 2u);
    EXPECT_EQ(counts("trace.hashed_records"), records);
}

TEST_F(SegmentedDriverTest, OtherTracesCheckpointsAreNeverLoaded)
{
    // A checkpoint key names the lane and config, not the trace, so
    // a lane lists the checkpoints of every workload that ran it. On
    // one thread oltp-db2 runs first and checkpoints its trace end,
    // which lies off em3d's schedule; em3d's baseline lane then lists
    // that key, hashes its own prefix at the index, finds no stored
    // key with its state digest, and loads nothing.
    ExperimentConfig cfg = smallConfig(false, 20000);
    const std::vector<std::string> workloads = {"oltp-db2", "em3d"};
    SweepPlan plan = test::configPlan(cfg, workloads, 1);
    plan.checkpointEvery = 50000;

    const test::RegistryDelta counts;
    ExperimentDriver driver;
    driver.setStore(std::make_shared<TraceStore>(dir_));
    auto results = driver.run(plan, engineSpecs({"sms"}));
    EXPECT_GT(counts("ckpt.written"), 0u);
    EXPECT_EQ(counts("driver.cell.resumed"), 0u);
    EXPECT_EQ(counts("store.ckpt.miss"), 0u);

    ExperimentDriver reference;
    expectSameResults(reference.run(test::configPlan(cfg, workloads, 1),
                                    engineSpecs({"sms"})),
                      results);
}

TEST_F(SegmentedDriverTest, CheckpointsNeedAStore)
{
    // Without a store, a checkpoint interval is inert: the run
    // stays continuous and bitwise identical.
    std::vector<EngineSpec> engines = engineSpecs({"sms"});
    SweepPlan plan =
        test::configPlan(smallConfig(false, 20000), {"dss-qry17"}, 2);
    ExperimentDriver plain;
    auto expected = plain.run(plan, engines);

    // Three interior boundaries over the 20006-record trace.
    plan.checkpointEvery = 6000;
    const test::RegistryDelta counts;
    ExperimentDriver segmented;
    auto results = segmented.run(plan, engines);
    EXPECT_EQ(counts("ckpt.written"), 0u);
    EXPECT_EQ(counts("driver.cell.resumed"), 0u);
    expectSameResults(expected, results);
}

TEST_F(SegmentedDriverTest, CrossSeedCheckpointsAreNeverRestored)
{
    // Trace identity is not part of the checkpoint key, so a
    // different-seed sweep's checkpoints are listed under the same
    // lane spec. Their state digests fold in the trace prefix, so
    // trusted resume must pass over every one of them and run the
    // cells cold, with results identical to a storeless run.
    std::vector<EngineSpec> engines = engineSpecs({"sms"});
    ExperimentConfig store_cfg = smallConfig(false, 20000);
    store_cfg.warmupRecords = 8000;
    store_cfg.seed = 42;
    ExperimentConfig run_cfg = store_cfg;
    run_cfg.seed = 777; // different trace, same checkpoint spec

    SweepPlan seed_plan = test::configPlan(store_cfg, {"dss-qry17"}, 2);
    seed_plan.checkpointEvery = 6000;
    test::RegistryDelta counts;
    ExperimentDriver seeder;
    seeder.setStore(std::make_shared<TraceStore>(dir_));
    seeder.run(seed_plan, engines);
    EXPECT_GT(counts("ckpt.written"), 0u);

    SweepPlan run_plan = test::configPlan(run_cfg, {"dss-qry17"}, 2);
    run_plan.checkpointEvery = 6000;
    counts = test::RegistryDelta();
    ExperimentDriver resumer;
    resumer.setStore(std::make_shared<TraceStore>(dir_));
    auto results = resumer.run(run_plan, engines);
    EXPECT_EQ(counts("driver.cell.resumed"), 0u);
    EXPECT_GT(counts("ckpt.written"), 0u);

    ExperimentDriver reference;
    expectSameResults(
        reference.run(test::configPlan(run_cfg, {"dss-qry17"}, 2), engines),
        results);
}

/** RAII guard: bump an engine's state version for one test and
 *  restore it afterwards — the registry is process-global. */
class ScopedStateVersion
{
  public:
    ScopedStateVersion(const std::string &name, std::uint32_t v)
        : name_(name),
          previous_(
              EngineRegistry::instance().setStateVersion(name, v))
    {
    }
    ~ScopedStateVersion()
    {
        EngineRegistry::instance().setStateVersion(name_, previous_);
    }

  private:
    std::string name_;
    std::uint32_t previous_;
};

TEST_F(SegmentedDriverTest,
       EngineStateVersionBumpOrphansStoredCheckpoints)
{
    // kEngineStateVersion is folded into every engine's checkpoint
    // spec digest, so bumping it (a code change that alters the
    // serialized state) must fence off every stored checkpoint of
    // that engine — yet leave the results identical via the cold
    // path.
    std::vector<EngineSpec> engines = engineSpecs({"stems"});
    ExperimentConfig cfg = smallConfig(false, 20000);
    cfg.warmupRecords = 8000;
    SweepPlan short_plan = test::configPlan(cfg, {"dss-qry17"}, 2);
    short_plan.checkpointEvery = 6000;

    test::RegistryDelta counts;
    ExperimentDriver seeder;
    seeder.setStore(std::make_shared<TraceStore>(dir_));
    seeder.run(short_plan, engines);
    EXPECT_GT(counts("ckpt.written"), 0u);

    ScopedStateVersion bump(
        "stems",
        EngineRegistry::instance().stateVersion("stems") + 1);

    ExperimentConfig long_cfg = smallConfig(false, 30000);
    long_cfg.warmupRecords = 8000;
    SweepPlan long_plan = test::configPlan(long_cfg, {"dss-qry17"}, 2);
    long_plan.checkpointEvery = 6000;
    counts = test::RegistryDelta();
    ExperimentDriver extended;
    extended.setStore(std::make_shared<TraceStore>(dir_));
    auto results = extended.run(long_plan, engines);
    // The fence is per engine: the engineless baseline lane (no
    // state version in its spec) still resumes from the short run's
    // end-of-trace checkpoint, while the stems lane finds nothing
    // under its bumped digest and runs cold.
    EXPECT_EQ(counts("driver.cell.resumed"), 1u);
    EXPECT_EQ(counts("ckpt.resume.skipped_records"),
              makeWorkload("dss-qry17")
                  ->generate(cfg.seed, 20000)
                  .size());

    ExperimentDriver reference;
    expectSameResults(reference.run(long_plan, engines), results);
}

} // namespace
} // namespace stems
