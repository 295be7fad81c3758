/**
 * @file
 * Tests for the parallel ExperimentDriver: bitwise determinism
 * across thread counts, equivalence with the serial
 * ExperimentRunner reference, mixed warm/cold passes over a
 * persistent store (anonymous-probe cells included), the baseline
 * and stride lanes cached like any other cell, engine overrides,
 * probes, the forEachTrace analysis path, and the lane scheduler:
 * lanes that continue on other threads after any chunk, the
 * live-trace bound, and a throwing probe.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/mini_json.hh"
#include "obs/trace_span.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "store/trace_store.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

namespace stems {
namespace {

using test::expectSameResults;
using test::expectSameStats;
using test::smallConfig;

const std::vector<std::string> kWorkloads = {"web-apache",
                                             "dss-qry17", "em3d"};
const std::vector<std::string> kEngines = {"tms", "sms", "stems"};

TEST(Driver, DeterministicAcrossThreadCounts)
{
    ExperimentDriver serial(smallConfig(true), 1);
    ExperimentDriver parallel(smallConfig(true), 8);
    EXPECT_EQ(serial.jobs(), 1u);
    EXPECT_EQ(parallel.jobs(), 8u);
    auto a = serial.run(kWorkloads, engineSpecs(kEngines));
    auto b = parallel.run(kWorkloads, engineSpecs(kEngines));
    expectSameResults(a, b);
}

TEST(Driver, MatchesSerialRunnerReference)
{
    ExperimentConfig cfg = smallConfig(true);
    ExperimentRunner runner(cfg);
    std::vector<WorkloadResult> reference;
    for (const std::string &name : kWorkloads) {
        auto w = makeWorkload(name);
        ASSERT_NE(w, nullptr);
        reference.push_back(runner.runWorkload(*w, kEngines));
    }

    ExperimentDriver driver(cfg, 4);
    auto results = driver.run(kWorkloads, engineSpecs(kEngines));
    expectSameResults(reference, results);
}

/** Unique-per-test temporary store directory (ctest runs test
 *  binaries concurrently). */
std::string
tempStoreDir()
{
    std::string dir = test::uniqueTempPath("stems_driver_store");
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(Driver, BatchMergesWarmCellsAndBatchesColdOnes)
{
    // A pass over a partially warm store must only simulate the
    // cold cells; warm neighbors merge from the cache, and the
    // combined result is bitwise identical to a storeless sweep.
    std::string dir = tempStoreDir();
    ExperimentConfig cfg = smallConfig(false);
    {
        auto store = std::make_shared<TraceStore>(dir);
        ASSERT_TRUE(store->usable());
        ExperimentDriver cold(cfg, 4);
        cold.setStore(store);
        cold.run({"dss-qry17"}, engineSpecs({"tms", "sms"}));
        EXPECT_EQ(cold.cellRuns(), 3u); // baseline + tms + sms
    }
    auto store = std::make_shared<TraceStore>(dir);
    ASSERT_TRUE(store->usable());
    ExperimentDriver mixed(cfg, 4);
    mixed.setStore(store);
    auto results =
        mixed.run({"dss-qry17"}, engineSpecs({"tms", "sms", "stems"}));
    // Only the stems cell was cold; the baseline and the other two
    // engine cells came from the store.
    EXPECT_EQ(mixed.cellRuns(), 1u);
    EXPECT_EQ(mixed.store()->resultHits(), 3u);

    ExperimentDriver reference(cfg, 4);
    auto expected = reference.run({"dss-qry17"},
                                  engineSpecs({"tms", "sms", "stems"}));
    expectSameResults(expected, results);
    std::filesystem::remove_all(dir);
}

TEST(Driver, AnonymousProbeJoinsBatchWithoutPoisoningCache)
{
    // An anonymous probe (no probeId) makes a spec uncacheable: its
    // cell must re-simulate in the pass even when a cached
    // result for the same engine exists, must not overwrite that
    // cached entry, and warm neighbors must stay warm.
    std::string dir = tempStoreDir();
    ExperimentConfig cfg = smallConfig(false);
    {
        auto store = std::make_shared<TraceStore>(dir);
        ASSERT_TRUE(store->usable());
        ExperimentDriver warm(cfg, 2);
        warm.setStore(store);
        warm.run({"dss-qry17"}, engineSpecs({"stems", "sms"}));
        EXPECT_EQ(warm.cellRuns(), 3u); // baseline + stems + sms
    }

    EngineSpec probed("stems");
    probed.probe = [](const Prefetcher &engine, EngineResult &er) {
        er.extra["bufferCapacity"] =
            static_cast<double>(engine.bufferCapacity());
    };
    {
        auto store = std::make_shared<TraceStore>(dir);
        ASSERT_TRUE(store->usable());
        ExperimentDriver driver(cfg, 2);
        driver.setStore(store);
        auto results = driver.run({"dss-qry17"},
                                  {probed, EngineSpec("sms")});
        EXPECT_EQ(driver.cellRuns(), 1u); // probed cell only
        ASSERT_EQ(results.size(), 1u);
        const EngineResult *stems = results[0].find("stems");
        ASSERT_NE(stems, nullptr);
        EXPECT_EQ(stems->extra.count("bufferCapacity"), 1u);
    }

    // The probed run did not poison the cache: a plain stems sweep
    // is still served entirely from the store, probe-free and
    // bitwise identical to a storeless reference.
    auto store = std::make_shared<TraceStore>(dir);
    ASSERT_TRUE(store->usable());
    ExperimentDriver replay(cfg, 2);
    replay.setStore(store);
    auto cached = replay.run({"dss-qry17"}, engineSpecs({"stems"}));
    EXPECT_EQ(replay.cellRuns(), 0u);
    ASSERT_EQ(cached.size(), 1u);
    EXPECT_TRUE(cached[0].find("stems")->extra.empty());

    ExperimentDriver reference(cfg, 2);
    auto expected =
        reference.run({"dss-qry17"}, engineSpecs({"stems"}));
    expectSameResults(expected, cached);
    std::filesystem::remove_all(dir);
}

TEST(Driver, BaselinesCachedAcrossCalls)
{
    // The prefetch-free and stride lanes are cells like any other: the
    // attached store serves them to a later run() call, which then
    // simulates only its new engine lane.
    std::string dir = tempStoreDir();
    ExperimentDriver driver(smallConfig(true), 4);
    driver.setStore(std::make_shared<TraceStore>(dir));
    auto first =
        driver.run({"dss-qry17"}, engineSpecs({"sms"}));
    EXPECT_EQ(driver.cellRuns(), 3u); // prefetch-free + stride + sms

    auto second =
        driver.run({"dss-qry17"}, engineSpecs({"sms", "stems"}));
    EXPECT_EQ(driver.cellRuns(), 4u); // + stems
    EXPECT_EQ(first.at(0).baselineMisses,
              second.at(0).baselineMisses);
    EXPECT_EQ(first.at(0).strideCycles, second.at(0).strideCycles);
    EXPECT_EQ(first.at(0).find("sms")->coverage,
              second.at(0).find("sms")->coverage);

    // Without a store nothing carries across calls.
    driver.setStore(nullptr);
    driver.run({"dss-qry17"}, engineSpecs({"sms"}));
    EXPECT_EQ(driver.cellRuns(), 7u);
    std::filesystem::remove_all(dir);
}

TEST(Driver, FunctionalRunSkipsStrideBaseline)
{
    // Without timing there is no speedup normalization, so only the
    // prefetch-free baseline cell is scheduled.
    ExperimentConfig functional = smallConfig(false);
    ExperimentDriver driver(functional, 2);
    auto plain = driver.run({"dss-qry17"}, engineSpecs({"sms"}));
    EXPECT_EQ(plain.at(0).find("sms")->speedup, 0.0);
    EXPECT_EQ(driver.cellRuns(), 2u); // baseline + sms, no stride
}

TEST(Driver, UnknownNamesAreSkipped)
{
    ExperimentDriver driver(smallConfig(false), 2);
    auto results = driver.run({"dss-qry17", "no-such-workload"},
                              engineSpecs({"sms", "no-such-engine"}));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].workload, "dss-qry17");
    ASSERT_EQ(results[0].engines.size(), 1u);
    EXPECT_EQ(results[0].engines[0].engine, "sms");
    EXPECT_EQ(results[0].find("no-such-engine"), nullptr);
}

TEST(Driver, SpecLabelsAndOverridesProduceDistinctCells)
{
    EngineOptions shallow;
    shallow.lookahead = 2;
    EngineOptions deep;
    deep.lookahead = 24;
    std::vector<EngineSpec> specs = {{"stems", "la2", shallow},
                                     {"stems", "la24", deep}};
    ExperimentDriver driver(smallConfig(false), 4);
    auto results = driver.run({"em3d"}, specs);
    ASSERT_EQ(results.size(), 1u);
    const EngineResult *la2 = results[0].find("la2");
    const EngineResult *la24 = results[0].find("la24");
    ASSERT_NE(la2, nullptr);
    ASSERT_NE(la24, nullptr);
    // A 12x lookahead difference must change prefetch behaviour.
    EXPECT_NE(la2->stats.prefetchesIssued,
              la24->stats.prefetchesIssued);
}

TEST(Driver, ProbeCollectsExtraMetrics)
{
    EngineSpec spec("stems");
    spec.probe = [](const Prefetcher &engine, EngineResult &er) {
        er.extra["bufferCapacity"] =
            static_cast<double>(engine.bufferCapacity());
    };
    ExperimentDriver driver(smallConfig(false), 2);
    auto results = driver.run({"dss-qry17"}, {spec});
    ASSERT_EQ(results.size(), 1u);
    const EngineResult *e = results[0].find("stems");
    ASSERT_NE(e, nullptr);
    ASSERT_EQ(e->extra.count("bufferCapacity"), 1u);
    EXPECT_GT(e->extra.at("bufferCapacity"), 0.0);
}

TEST(Driver, RunWorkloadAcceptsExternalWorkload)
{
    // A workload that is not in the registry still runs (engine
    // cells sharded in parallel).
    class LocalWorkload : public Workload
    {
      public:
        std::string name() const override { return "local"; }
        WorkloadClass
        workloadClass() const override
        {
            return WorkloadClass::kDss;
        }
        Trace
        generate(std::uint64_t seed,
                 std::size_t target_records) const override
        {
            TraceBuilder b;
            Rng rng(seed);
            while (b.size() < target_records) {
                Addr page = (Addr{1} << 33) +
                            Addr(rng.below(4096)) * kRegionBytes;
                for (unsigned off = 0; off < 8; ++off)
                    b.read(addrFromRegionOffset(page, off), 0x9);
            }
            return b.take();
        }
    };

    LocalWorkload w;
    ExperimentDriver driver(smallConfig(false), 4);
    WorkloadResult r =
        driver.runWorkload(w, engineSpecs({"sms", "stems"}));
    EXPECT_EQ(r.workload, "local");
    EXPECT_GT(r.baselineMisses, 0u);
    ASSERT_EQ(r.engines.size(), 2u);
    EXPECT_GT(r.find("sms")->coverage, 0.0);
    EXPECT_EQ(driver.cellRuns(), 3u); // baseline + sms + stems

    // Nothing carries across calls without a store: a second call
    // simulates its baseline lane again.
    driver.runWorkload(w, engineSpecs({"sms"}));
    EXPECT_EQ(driver.cellRuns(), 5u);
}

TEST(Driver, ForEachTraceVisitsEveryWorkloadOnce)
{
    ExperimentConfig cfg = smallConfig(false);
    cfg.traceRecords = 20000;
    ExperimentDriver driver(cfg, 4);
    std::vector<std::string> names(kWorkloads.size());
    std::vector<std::size_t> sizes(kWorkloads.size());
    std::atomic<int> calls{0};
    driver.forEachTrace(
        kWorkloads,
        [&](std::size_t index, const Workload &w, const Trace &t) {
            names[index] = w.name();
            sizes[index] = t.size();
            ++calls;
        });
    EXPECT_EQ(calls.load(), 3);
    for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
        EXPECT_EQ(names[i], kWorkloads[i]);
        EXPECT_GE(sizes[i], 20000u);
    }
}

TEST(Driver, ScientificLookaheadAppliedPerWorkloadClass)
{
    // The driver must reproduce the runner's per-class lookahead
    // handling; this is implied by MatchesSerialRunnerReference but
    // pinned explicitly here for the scientific workload.
    ExperimentConfig cfg = smallConfig(false);
    ExperimentRunner runner(cfg);
    auto w = makeWorkload("em3d");
    auto reference = runner.runWorkload(*w, {"tms"});

    ExperimentDriver driver(cfg, 2);
    auto results = driver.run({"em3d"}, engineSpecs({"tms"}));
    ASSERT_EQ(results.size(), 1u);
    expectSameStats(reference.find("tms")->stats,
                    results[0].find("tms")->stats);
}

/** Every .ckpt file of a store, by name. */
std::map<std::string, std::string>
checkpointFiles(const std::string &store_dir)
{
    std::map<std::string, std::string> files;
    for (const auto &de : std::filesystem::directory_iterator(
             store_dir + "/checkpoints")) {
        if (de.path().extension() != ".ckpt")
            continue;
        std::ifstream in(de.path(), std::ios::binary);
        files[de.path().filename().string()] =
            std::string(std::istreambuf_iterator<char>(in), {});
    }
    return files;
}

/** The most `driver.batch` spans — live traces — open at once. */
std::size_t
maxOverlappingBatchSpans(const SpanCollector &collector,
                         std::size_t *spans)
{
    const std::string doc = collector.chromeJson();
    JsonParser parser(doc);
    JsonValue root;
    EXPECT_TRUE(parser.parseValue(root)) << parser.error;
    // (time in ns, +1 open / -1 close); a close sorts before an open
    // at the same instant.
    std::vector<std::pair<long long, int>> edges;
    if (const JsonValue *events = root.get("traceEvents")) {
        for (const JsonValue &e : events->items) {
            if (e.str("name") != "driver.batch")
                continue;
            const long long ts = std::llround(e.num("ts") * 1e3);
            const long long dur = std::llround(e.num("dur") * 1e3);
            edges.emplace_back(ts, 1);
            edges.emplace_back(ts + dur, -1);
        }
    }
    *spans = edges.size() / 2;
    std::sort(edges.begin(), edges.end());
    std::size_t open = 0, most = 0;
    for (const auto &edge : edges) {
        open += edge.second;
        most = std::max(most, open);
    }
    return most;
}

TEST(Driver, LanesCrossChunksOnEveryThreadCount)
{
    // Four 64Ki-record chunks per lane over three timed workloads,
    // checkpointed off the chunk grid, so under the lane scheduler
    // lanes continue on other threads after a chunk and checkpoints
    // fire mid-chunk. Every thread count must give the jobs-1
    // results and .ckpt bytes, and a storeless run's results. Each
    // live trace is one driver.batch span, so at most `jobs` of them
    // may overlap (three workloads, so jobs 1 and 2 can overrun).
    const std::vector<std::string> workloads = {"web-apache",
                                                "dss-qry17", "oltp-db2"};
    const auto engines = engineSpecs({"sms", "stems"});
    const ExperimentConfig cfg = smallConfig(true, 3 * 65536 + 1000);
    // Boundaries at 70001 and 140002, and one at the trace end.
    const std::size_t every = 70001;
    const std::size_t lanes = workloads.size() * (2 + engines.size());

    ExperimentDriver storeless(cfg, 4);
    const auto expected = storeless.run(workloads, engines);

    std::map<std::string, std::string> serial_ckpts;
    for (unsigned jobs : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const std::string dir =
            tempStoreDir() + "_jobs" + std::to_string(jobs);
        SweepPlan plan = test::configPlan(cfg, workloads, jobs);
        plan.checkpointEvery = every;

        SpanCollector collector;
        collector.attach();
        ExperimentDriver driver;
        driver.setStore(std::make_shared<TraceStore>(dir));
        const auto results = driver.run(plan, engines);
        collector.detach();

        expectSameResults(expected, results);
        EXPECT_EQ(driver.cellRuns(), lanes);
        EXPECT_EQ(driver.checkpointsWritten(), 3 * lanes);
        const auto ckpts = checkpointFiles(dir);
        EXPECT_EQ(ckpts.size(), 3 * lanes);
        if (jobs == 1) {
            serial_ckpts = ckpts;
        } else {
            EXPECT_TRUE(ckpts == serial_ckpts)
                << "checkpoint bytes differ from the jobs-1 run";
        }
        std::size_t spans = 0;
        EXPECT_LE(maxOverlappingBatchSpans(collector, &spans), jobs);
        EXPECT_EQ(spans, workloads.size());
        std::filesystem::remove_all(dir);
    }
}

TEST(Driver, ThrowingProbeRethrowsAfterEveryThreadJoined)
{
    // A probe runs on the thread that finishes its lane. When it
    // throws — on the first lane to finish, with workloads still to
    // open, or on the sweep's last lane — run() must stop the
    // scheduler, join every thread and rethrow, not hang or
    // terminate; the driver then runs the next sweep normally.
    const std::vector<std::string> workloads = {"dss-qry17",
                                                "web-apache", "em3d"};
    const ExperimentConfig cfg = smallConfig(false, 20000);
    ExperimentDriver reference(cfg, 1);
    const auto expected =
        reference.run(workloads, engineSpecs({"sms", "stems"}));

    for (unsigned jobs : {1u, 4u}) {
        for (int throw_at : {1, 3}) {
            SCOPED_TRACE("jobs " + std::to_string(jobs) +
                         ", probe call " + std::to_string(throw_at));
            std::atomic<int> calls{0};
            EngineSpec probed("stems");
            probed.probe = [&](const Prefetcher &, EngineResult &) {
                if (++calls == throw_at)
                    throw std::runtime_error("probe failed");
            };
            ExperimentDriver driver(cfg, jobs);
            try {
                driver.run(workloads, {EngineSpec("sms"), probed});
                ADD_FAILURE() << "run() did not rethrow";
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "probe failed");
            }
            // The stems lane is the last of each workload, so on one
            // thread the first failure stops the sweep before the
            // next workload opens.
            if (jobs == 1) {
                EXPECT_EQ(calls.load(), throw_at);
            }

            const auto again =
                driver.run(workloads, engineSpecs({"sms", "stems"}));
            expectSameResults(expected, again);
        }
    }
}

} // namespace
} // namespace stems
