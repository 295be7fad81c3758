/**
 * @file
 * Unit tests for the timing model, the prefetch simulator's coverage
 * and overprediction accounting, the batched multi-lane simulator,
 * and the experiment runner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "obs/metrics.hh"
#include "prefetch/engine_registry.hh"
#include "sim/batch_sim.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/prefetch_sim.hh"
#include "sim/timing.hh"
#include "workloads/registry.hh"

namespace stems {
namespace {

MemRecord
readRec(Addr a, std::uint32_t ops = 0, std::uint32_t dep = 0)
{
    MemRecord r;
    r.vaddr = a;
    r.pc = 0x40;
    r.cpuOps = ops;
    r.depDist = dep;
    r.kind = AccessKind::kRead;
    return r;
}

TEST(Timing, L1HitsRunAtIssueWidth)
{
    TimingModel tm;
    for (int i = 0; i < 1000; ++i)
        tm.demandAccess(readRec(0x1000, 3), AccessLevel::kL1, 0);
    // 4 instructions per access at width 4: about 1 cycle each.
    EXPECT_NEAR(tm.totalCycles(), 1000.0, 50.0);
    EXPECT_EQ(tm.instructions(), 4000u);
}

TEST(Timing, IndependentMissesOverlap)
{
    TimingParams p;
    TimingModel tm(p);
    for (int i = 0; i < 200; ++i)
        tm.demandAccess(readRec(0x1000 + i * 64, 0),
                        AccessLevel::kMemory, 0);
    // 200 serialized misses would cost 60000 cycles; with ROB/MSHR
    // overlap the total must be far lower (bounded below by the
    // channel: 200 fetches x 4 cycles).
    EXPECT_LT(tm.totalCycles(), 20000.0);
    EXPECT_GT(tm.totalCycles(), 800.0);
}

TEST(Timing, DependentMissesSerialize)
{
    TimingParams p;
    TimingModel tm(p);
    for (int i = 0; i < 100; ++i)
        tm.demandAccess(readRec(0x1000 + i * 64, 0, /*dep=*/1),
                        AccessLevel::kMemory, 0);
    // A 100-deep pointer chase pays full latency per link.
    EXPECT_GT(tm.totalCycles(), 100 * p.memLatency * 0.9);
}

TEST(Timing, CoveredChainRunsAtSvbLatency)
{
    TimingParams p;
    TimingModel chained(p);
    for (int i = 0; i < 100; ++i)
        chained.demandAccess(readRec(0x1000 + i * 64, 0, 1),
                             AccessLevel::kSvb, 0);
    // The same chain with SVB hits costs ~svbLatency per link.
    EXPECT_LT(chained.totalCycles(),
              100.0 * (p.svbLatency + 5));
}

TEST(Timing, LatePrefetchPaysResidual)
{
    TimingParams p;
    TimingModel tm(p);
    tm.demandAccess(readRec(0x1000, 0), AccessLevel::kL1, 0);
    double before = tm.totalCycles();
    // A prefetched block that completes at cycle 1000.
    tm.demandAccess(readRec(0x2000, 0, 1), AccessLevel::kSvb,
                    1000.0);
    EXPECT_GE(tm.totalCycles(), 1000.0 + p.svbLatency);
    EXPECT_GT(tm.totalCycles(), before);
}

TEST(Timing, StoresDoNotStall)
{
    TimingParams p;
    TimingModel tm(p);
    for (int i = 0; i < 100; ++i) {
        MemRecord r = readRec(0x1000 + i * 64, 0, 1);
        r.kind = AccessKind::kWrite;
        r.depDist = 0;
        tm.demandAccess(r, AccessLevel::kMemory, 0);
    }
    // Store-wait-free: 100 off-chip writes cost channel time, not
    // stall time.
    EXPECT_LT(tm.totalCycles(), 2000.0);
}

TEST(Timing, PrefetchesConsumeBandwidth)
{
    TimingParams p;
    TimingModel tm(p);
    double r1 = tm.prefetchIssued();
    double r2 = tm.prefetchIssued();
    EXPECT_DOUBLE_EQ(r2 - r1,
                     static_cast<double>(p.channelInterval));
}

TEST(Timing, BandwidthContentionDelaysDemand)
{
    TimingParams p;
    TimingModel loaded(p);
    for (int i = 0; i < 64; ++i)
        loaded.prefetchIssued();
    loaded.demandAccess(readRec(0x1000, 0), AccessLevel::kMemory, 0);

    TimingModel idle(p);
    idle.demandAccess(readRec(0x1000, 0), AccessLevel::kMemory, 0);
    EXPECT_GT(loaded.totalCycles(), idle.totalCycles() + 100);
}

// ---- simulator accounting ----

SimParams
tinySystem()
{
    SimParams p;
    p.hierarchy.l1Bytes = 16 * kBlockBytes;
    p.hierarchy.l1Ways = 2;
    p.hierarchy.l2Bytes = 64 * kBlockBytes;
    p.hierarchy.l2Ways = 4;
    return p;
}

/** An engine that prefetches a scripted list of blocks once. */
class ScriptedPrefetcher : public Prefetcher
{
  public:
    explicit ScriptedPrefetcher(std::vector<Addr> blocks,
                                PrefetchSink sink)
        : blocks_(std::move(blocks)), sink_(sink)
    {
    }

    std::string name() const override { return "scripted"; }

    void
    drainRequests(std::vector<PrefetchRequest> &out) override
    {
        for (Addr a : blocks_)
            out.push_back({a, 0, sink_});
        blocks_.clear();
    }

    int hits = 0;
    int drops = 0;

    void onPrefetchHit(Addr, int) override { ++hits; }
    void onPrefetchDrop(Addr, int) override { ++drops; }

  private:
    std::vector<Addr> blocks_;
    PrefetchSink sink_;
};

TEST(PrefetchSim, SvbHitCountsAsCovered)
{
    ScriptedPrefetcher engine({0x100000}, PrefetchSink::kBuffer);
    PrefetchSimulator sim(tinySystem(), &engine);
    TraceBuilder b;
    b.read(0x200000, 0x1); // triggers the drain of the script
    b.read(0x100000, 0x1); // demand hits the SVB
    Trace t = b.take();
    sim.run(t);
    EXPECT_EQ(sim.stats().svbHits, 1u);
    EXPECT_EQ(sim.stats().offChipReads, 1u);
    EXPECT_EQ(engine.hits, 1);
}

TEST(PrefetchSim, UnusedPrefetchBecomesOverprediction)
{
    ScriptedPrefetcher engine({0x100000}, PrefetchSink::kBuffer);
    PrefetchSimulator sim(tinySystem(), &engine);
    TraceBuilder b;
    b.read(0x200000, 0x1);
    Trace t = b.take();
    sim.run(t); // finish() drains the never-used block
    EXPECT_EQ(sim.stats().overpredictions, 1u);
    EXPECT_EQ(engine.drops, 1);
}

TEST(PrefetchSim, L2SinkCoverageAndSweep)
{
    ScriptedPrefetcher engine({0x100000, 0x300000},
                              PrefetchSink::kL2);
    PrefetchSimulator sim(tinySystem(), &engine);
    TraceBuilder b;
    b.read(0x200000, 0x1);
    b.read(0x100000, 0x1); // prefetch-tagged L2 hit: covered
    Trace t = b.take();
    sim.run(t);
    EXPECT_EQ(sim.stats().l2PrefetchHits, 1u);
    // 0x300000 was never referenced: end-of-run sweep counts it.
    EXPECT_EQ(sim.stats().overpredictions, 1u);
}

TEST(PrefetchSim, WriteConsumingL2PrefetchAdvancesStream)
{
    // A write hitting a prefetched L2 block is a successful prefetch:
    // the engine must see onPrefetchHit (streams advance past it) and
    // the block must not be swept as an overprediction. Like the SVB
    // write path, it does not count toward covered().
    ScriptedPrefetcher engine({0x100000}, PrefetchSink::kL2);
    PrefetchSimulator sim(tinySystem(), &engine);
    TraceBuilder b;
    b.read(0x200000, 0x1); // triggers the drain of the script
    b.write(0x100000, 0x1); // write consumes the prefetched block
    Trace t = b.take();
    sim.run(t);
    EXPECT_EQ(engine.hits, 1);
    EXPECT_EQ(engine.drops, 0);
    EXPECT_EQ(sim.stats().overpredictions, 0u);
    EXPECT_EQ(sim.stats().l2PrefetchHits, 0u);
    EXPECT_EQ(sim.stats().l2Hits, 1u);
}

TEST(PrefetchSim, WriteConsumingSvbPrefetchAdvancesStream)
{
    // The SVB parity case the L2 path mirrors.
    ScriptedPrefetcher engine({0x100000}, PrefetchSink::kBuffer);
    PrefetchSimulator sim(tinySystem(), &engine);
    TraceBuilder b;
    b.read(0x200000, 0x1);
    b.write(0x100000, 0x1);
    Trace t = b.take();
    sim.run(t);
    EXPECT_EQ(engine.hits, 1);
    EXPECT_EQ(sim.stats().overpredictions, 0u);
    EXPECT_EQ(sim.stats().svbHits, 0u);
}

TEST(PrefetchSim, InvalidatedPrefetchIsOverprediction)
{
    ScriptedPrefetcher engine({0x100000}, PrefetchSink::kBuffer);
    PrefetchSimulator sim(tinySystem(), &engine);
    TraceBuilder b;
    b.read(0x200000, 0x1);
    b.invalidate(0x100000);
    b.read(0x400000, 0x1);
    Trace t = b.take();
    sim.run(t);
    EXPECT_EQ(sim.stats().overpredictions, 1u);
    EXPECT_EQ(sim.stats().svbHits, 0u);
}

TEST(PrefetchSim, WarmupExcludedFromStats)
{
    PrefetchSimulator sim(tinySystem(), nullptr);
    TraceBuilder b;
    for (int i = 0; i < 100; ++i)
        b.read(0x100000 + Addr(i) * 0x10000, 0x1);
    Trace t = b.take();
    sim.run(t, 60);
    EXPECT_EQ(sim.stats().reads, 40u);
    EXPECT_EQ(sim.stats().offChipReads, 40u);
}

TEST(PrefetchSim, BaselineHasNoPrefetchActivity)
{
    PrefetchSimulator sim(tinySystem(), nullptr);
    TraceBuilder b;
    for (int i = 0; i < 50; ++i)
        b.read(0x100000 + Addr(i) * 64, 0x1);
    sim.run(b.take());
    EXPECT_EQ(sim.stats().prefetchesIssued, 0u);
    EXPECT_EQ(sim.stats().covered(), 0u);
}

// ---- batched multi-lane simulator ----

void
expectBitwiseEqualStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.invalidates, b.invalidates);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2PrefetchHits, b.l2PrefetchHits);
    EXPECT_EQ(a.svbHits, b.svbHits);
    EXPECT_EQ(a.offChipReads, b.offChipReads);
    EXPECT_EQ(a.offChipWrites, b.offChipWrites);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
    EXPECT_EQ(a.overpredictions, b.overpredictions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(BatchSim, LanesMatchStandaloneSimulators)
{
    // A batched pass must reproduce each lane's standalone run
    // bitwise — including cycles, so the timing model is exercised.
    auto w = makeWorkload("dss-qry17");
    Trace t = w->generate(7, 30000);
    std::size_t warmup = t.size() / 2;

    SystemConfig system = defaultSystemConfig();
    SimParams params;
    params.hierarchy = system.hierarchy;
    params.enableTiming = true;
    params.timing = system.timing;

    const std::vector<const char *> engines = {"stride", "sms",
                                               "stems"};
    const EngineRegistry &registry = EngineRegistry::instance();

    BatchSimulator batch;
    std::vector<std::unique_ptr<Prefetcher>> lane_engines;
    lane_engines.push_back(nullptr); // prefetch-free baseline lane
    batch.addLane(params, nullptr, warmup);
    for (const char *name : engines) {
        lane_engines.push_back(registry.make(name, system, {}));
        batch.addLane(params, lane_engines.back().get(), warmup);
    }
    batch.run(t);

    for (std::size_t lane = 0; lane < lane_engines.size(); ++lane) {
        std::unique_ptr<Prefetcher> engine =
            lane == 0 ? nullptr
                      : registry.make(engines[lane - 1], system, {});
        PrefetchSimulator solo(params, engine.get());
        solo.run(t, warmup);
        expectBitwiseEqualStats(solo.stats(), batch.stats(lane));
    }
}

TEST(BatchSim, ParallelLanesMatchSerialLanes)
{
    // A lane may continue on another thread after any chunk, beside
    // other lanes: which thread steps which chunk must not change any
    // lane's statistics. Three chunks per lane; in round r, lane k
    // steps on the round's thread (k + r) % 2, so every lane changes
    // threads after every chunk and two lanes step at once.
    auto w = makeWorkload("web-apache");
    Trace t = w->generate(3, 140000);
    ASSERT_GT(t.size(), 2u * 65536u);
    std::size_t warmup = t.size() / 2;
    SystemConfig system = defaultSystemConfig();
    SimParams params;
    params.hierarchy = system.hierarchy;
    const EngineRegistry &registry = EngineRegistry::instance();

    auto run_with = [&](bool threaded) {
        BatchSimulator batch;
        std::vector<std::unique_ptr<Prefetcher>> lane_engines;
        for (const char *name : {"stride", "tms", "sms", "stems"}) {
            lane_engines.push_back(registry.make(name, system, {}));
            batch.addLane(params, lane_engines.back().get(),
                          warmup);
        }
        if (!threaded) {
            batch.run(t);
        } else {
            std::vector<char> done(batch.lanes(), 0);
            for (std::size_t round = 0;
                 std::count(done.begin(), done.end(), 0) > 0;
                 ++round) {
                auto step = [&](std::size_t parity) {
                    for (std::size_t k = 0; k < batch.lanes(); ++k)
                        if ((k + round) % 2 == parity && !done[k])
                            done[k] = batch.advanceLane(k, t);
                };
                std::thread even(step, 0), odd(step, 1);
                even.join();
                odd.join();
            }
        }
        std::vector<SimStats> out;
        for (std::size_t i = 0; i < batch.lanes(); ++i)
            out.push_back(batch.stats(i));
        return out;
    };

    auto serial = run_with(false);
    auto parallel = run_with(true);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectBitwiseEqualStats(serial[i], parallel[i]);
}

TEST(BatchSim, PerLaneWarmupIsHonored)
{
    TraceBuilder b;
    for (int i = 0; i < 200; ++i)
        b.read(0x100000 + Addr(i) * 0x10000, 0x1);
    Trace t = b.take();

    BatchSimulator batch;
    batch.addLane(tinySystem(), nullptr, 0);
    batch.addLane(tinySystem(), nullptr, 120);
    batch.run(t);
    EXPECT_EQ(batch.stats(0).records, 200u);
    EXPECT_EQ(batch.stats(1).records, 80u);
}

TEST(BatchSim, ResumedLaneMatchesAStandaloneRunBesideAFullTraceLane)
{
    // One pass, two lanes: a full-trace lane and a lane restored
    // from a checkpoint at s, as a requeued cell resumes. The
    // resumed lane steps exactly size - s records; at an interior
    // boundary e and at the trace end it fires with the bytes a
    // standalone simulator holds after records [0, e) (before record
    // e's warmup flip) and [0, size) (before finish), and its final
    // statistics are a standalone run's. The full-trace lane stays
    // bitwise a standalone run. Start and boundary straddle a chunk
    // edge (64Ki records).
    auto w = makeWorkload("web-apache");
    Trace t = w->generate(5, 100000);
    const std::size_t s = 20001;
    const std::size_t e = 70003;
    const std::size_t warmup = 45000; // flips after the resume
    ASSERT_GT(t.size(), e);

    SystemConfig system = defaultSystemConfig();
    SimParams params;
    params.hierarchy = system.hierarchy;
    params.enableTiming = true;
    params.timing = system.timing;
    const EngineRegistry &registry = EngineRegistry::instance();

    // Standalone reference for the resumed lane, checkpointed at s,
    // at e and at the trace end under the checkpoint convention.
    auto solo_engine = registry.make("stems", system, {});
    PrefetchSimulator solo(params, solo_engine.get());
    solo.setMeasuring(false);
    std::vector<std::uint8_t> at_start, at_e;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (i == s)
            at_start = encodeCheckpoint(solo, s);
        if (i == e)
            at_e = encodeCheckpoint(solo, e);
        if (i == warmup)
            solo.setMeasuring(true);
        solo.step(t[i]);
    }
    const std::vector<std::uint8_t> at_end =
        encodeCheckpoint(solo, t.size());
    solo.finish();

    BatchSimulator batch;
    auto full_engine = registry.make("sms", system, {});
    auto resumed_engine = registry.make("stems", system, {});
    batch.addLane(params, full_engine.get(), warmup);
    batch.addLane(params, resumed_engine.get(), warmup);
    ASSERT_TRUE(decodeCheckpoint(at_start, batch.simulator(1)));
    batch.setLaneStart(1, s);
    batch.setLaneBoundaries(1, {e, t.size()});
    std::vector<std::size_t> fired_at;
    std::vector<std::vector<std::uint8_t>> fired;
    batch.setBoundaryCallback([&](std::size_t lane, std::size_t index,
                                  PrefetchSimulator &sim) {
        EXPECT_EQ(lane, 1u);
        fired_at.push_back(index);
        fired.push_back(encodeCheckpoint(sim, index));
    });

    Counter &steps =
        MetricsRegistry::instance().counter("batch.record_steps");
    const std::uint64_t steps_before = steps.value();
    batch.run(t);
    EXPECT_EQ(steps.value() - steps_before, t.size() + (t.size() - s));

    ASSERT_EQ(fired_at, (std::vector<std::size_t>{e, t.size()}));
    EXPECT_EQ(fired[0], at_e);
    EXPECT_EQ(fired[1], at_end);
    expectBitwiseEqualStats(solo.stats(), batch.stats(1));

    auto ref_engine = registry.make("sms", system, {});
    PrefetchSimulator ref(params, ref_engine.get());
    ref.run(t, warmup);
    expectBitwiseEqualStats(ref.stats(), batch.stats(0));
}

// ---- experiment runner ----

TEST(Experiment, MakeEngineKnowsAllNames)
{
    ExperimentRunner runner(ExperimentConfig{});
    for (const char *name :
         {"stride", "tms", "sms", "stems", "tms+sms"}) {
        EXPECT_NE(runner.makeEngine(name, false), nullptr) << name;
    }
    EXPECT_EQ(runner.makeEngine("bogus", false), nullptr);
}

TEST(Experiment, RunWorkloadProducesNormalizedMetrics)
{
    ExperimentConfig cfg;
    cfg.traceRecords = 60000;
    cfg.enableTiming = true;
    ExperimentRunner runner(cfg);
    auto w = makeWorkload("dss-qry17");
    auto r = runner.runWorkload(*w, {"sms"});
    EXPECT_GT(r.baselineMisses, 100u);
    ASSERT_EQ(r.engines.size(), 1u);
    const EngineResult *sms = r.find("sms");
    ASSERT_NE(sms, nullptr);
    EXPECT_GE(sms->coverage, 0.0);
    EXPECT_LE(sms->coverage, 1.2);
    EXPECT_GT(sms->speedup, 0.5);
    EXPECT_EQ(r.find("nope"), nullptr);
}

TEST(Experiment, DescribeSystemMentionsKeyStructures)
{
    std::string d = describeSystem(defaultSystemConfig());
    EXPECT_NE(d.find("L1D"), std::string::npos);
    EXPECT_NE(d.find("STeMS"), std::string::npos);
    EXPECT_NE(d.find("RMOB"), std::string::npos);
    EXPECT_NE(d.find("8 MB"), std::string::npos);
}

} // namespace
} // namespace stems
