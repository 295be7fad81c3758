/**
 * @file
 * Tests for the parallel ExperimentDriver: bitwise determinism
 * across thread counts, equivalence with the serial
 * ExperimentRunner reference, mixed warm/cold passes over a
 * persistent store (anonymous-probe cells included), the baseline
 * and stride lanes cached like any other cell, engine overrides,
 * probes, the forEachTrace analysis path, calls that each run only
 * their own plan, and the lane scheduler: lanes that continue on
 * other threads after any chunk, the live-trace bound, and a
 * throwing probe. Cell and cache counts are registry deltas
 * (test::RegistryDelta), the driver's only diagnostics.
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
#include "trace/trace_io.hh"
#include "workloads/registry.hh"

namespace stems {
namespace {

using test::configPlan;
using test::expectSameResults;
using test::expectSameStats;
using test::RegistryDelta;
using test::smallConfig;

const std::vector<std::string> kWorkloads = {"web-apache",
                                             "dss-qry17", "em3d"};
const std::vector<std::string> kEngines = {"tms", "sms", "stems"};

TEST(Driver, DeterministicAcrossThreadCounts)
{
    ExperimentDriver driver;
    auto a = driver.run(configPlan(smallConfig(true), kWorkloads, 1),
                        engineSpecs(kEngines));
    auto b = driver.run(configPlan(smallConfig(true), kWorkloads, 8),
                        engineSpecs(kEngines));
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

    ExperimentDriver driver;
    auto results = driver.run(configPlan(cfg, kWorkloads, 4),
                              engineSpecs(kEngines));
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
    const SweepPlan plan = configPlan(smallConfig(false), {"dss-qry17"}, 4);
    {
        auto store = std::make_shared<TraceStore>(dir);
        ASSERT_TRUE(store->usable());
        const RegistryDelta cold_counts;
        ExperimentDriver cold;
        cold.setStore(store);
        cold.run(plan, engineSpecs({"tms", "sms"}));
        // baseline + tms + sms
        EXPECT_EQ(cold_counts("driver.cell.simulated"), 3u);
    }
    auto store = std::make_shared<TraceStore>(dir);
    ASSERT_TRUE(store->usable());
    const RegistryDelta mixed_counts;
    ExperimentDriver mixed;
    mixed.setStore(store);
    auto results = mixed.run(plan, engineSpecs({"tms", "sms", "stems"}));
    // Only the stems cell was cold; the baseline and the other two
    // engine cells came from the store.
    EXPECT_EQ(mixed_counts("driver.cell.simulated"), 1u);
    EXPECT_EQ(mixed_counts("store.result.hit"), 3u);

    ExperimentDriver reference;
    auto expected =
        reference.run(plan, engineSpecs({"tms", "sms", "stems"}));
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
    const SweepPlan plan = configPlan(smallConfig(false), {"dss-qry17"}, 2);
    {
        auto store = std::make_shared<TraceStore>(dir);
        ASSERT_TRUE(store->usable());
        const RegistryDelta warm_counts;
        ExperimentDriver warm;
        warm.setStore(store);
        warm.run(plan, engineSpecs({"stems", "sms"}));
        // baseline + stems + sms
        EXPECT_EQ(warm_counts("driver.cell.simulated"), 3u);
    }

    EngineSpec probed("stems");
    probed.probe = [](const Prefetcher &engine, EngineResult &er) {
        er.extra["bufferCapacity"] =
            static_cast<double>(engine.bufferCapacity());
    };
    {
        auto store = std::make_shared<TraceStore>(dir);
        ASSERT_TRUE(store->usable());
        const RegistryDelta counts;
        ExperimentDriver driver;
        driver.setStore(store);
        auto results = driver.run(plan, {probed, EngineSpec("sms")});
        // The probed cell only.
        EXPECT_EQ(counts("driver.cell.simulated"), 1u);
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
    const RegistryDelta replay_counts;
    ExperimentDriver replay;
    replay.setStore(store);
    auto cached = replay.run(plan, engineSpecs({"stems"}));
    EXPECT_EQ(replay_counts("driver.cell.simulated"), 0u);
    ASSERT_EQ(cached.size(), 1u);
    EXPECT_TRUE(cached[0].find("stems")->extra.empty());

    ExperimentDriver reference;
    auto expected = reference.run(plan, engineSpecs({"stems"}));
    expectSameResults(expected, cached);
    std::filesystem::remove_all(dir);
}

TEST(Driver, BaselinesCachedAcrossCalls)
{
    // The prefetch-free and stride lanes are cells like any other: the
    // attached store serves them to a later run() call, which then
    // simulates only its new engine lane.
    std::string dir = tempStoreDir();
    const SweepPlan plan = configPlan(smallConfig(true), {"dss-qry17"}, 4);
    const RegistryDelta counts;
    ExperimentDriver driver;
    driver.setStore(std::make_shared<TraceStore>(dir));
    auto first = driver.run(plan, engineSpecs({"sms"}));
    // prefetch-free + stride + sms
    EXPECT_EQ(counts("driver.cell.simulated"), 3u);

    auto second = driver.run(plan, engineSpecs({"sms", "stems"}));
    EXPECT_EQ(counts("driver.cell.simulated"), 4u); // + stems
    EXPECT_EQ(first.at(0).baselineMisses,
              second.at(0).baselineMisses);
    EXPECT_EQ(first.at(0).strideCycles, second.at(0).strideCycles);
    EXPECT_EQ(first.at(0).find("sms")->coverage,
              second.at(0).find("sms")->coverage);

    // Without a store nothing carries across calls.
    driver.setStore(nullptr);
    driver.run(plan, engineSpecs({"sms"}));
    EXPECT_EQ(counts("driver.cell.simulated"), 7u);
    std::filesystem::remove_all(dir);
}

TEST(Driver, FunctionalRunSkipsStrideBaseline)
{
    // Without timing there is no speedup normalization, so only the
    // prefetch-free baseline cell is scheduled.
    const RegistryDelta counts;
    ExperimentDriver driver;
    auto plain =
        driver.run(configPlan(smallConfig(false), {"dss-qry17"}, 2),
                   engineSpecs({"sms"}));
    EXPECT_EQ(plain.at(0).find("sms")->speedup, 0.0);
    // baseline + sms, no stride
    EXPECT_EQ(counts("driver.cell.simulated"), 2u);
}

TEST(Driver, UnknownNamesAreSkipped)
{
    ExperimentDriver driver;
    auto results = driver.run(
        configPlan(smallConfig(false), {"dss-qry17", "no-such-workload"},
                   2),
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
    ExperimentDriver driver;
    auto results =
        driver.run(configPlan(smallConfig(false), {"em3d"}, 4), specs);
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
    ExperimentDriver driver;
    auto results =
        driver.run(configPlan(smallConfig(false), {"dss-qry17"}, 2), {spec});
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
    // The plan's workload list is not read: runWorkload runs `w`.
    const SweepPlan plan = configPlan(smallConfig(false), {}, 4);
    const RegistryDelta counts;
    ExperimentDriver driver;
    WorkloadResult r =
        driver.runWorkload(plan, w, engineSpecs({"sms", "stems"}));
    EXPECT_EQ(r.workload, "local");
    EXPECT_GT(r.baselineMisses, 0u);
    ASSERT_EQ(r.engines.size(), 2u);
    EXPECT_GT(r.find("sms")->coverage, 0.0);
    // baseline + sms + stems
    EXPECT_EQ(counts("driver.cell.simulated"), 3u);

    // Nothing carries across calls without a store: a second call
    // simulates its baseline lane again.
    driver.runWorkload(plan, w, engineSpecs({"sms"}));
    EXPECT_EQ(counts("driver.cell.simulated"), 5u);
}

TEST(Driver, ForEachTraceVisitsEveryWorkloadOnce)
{
    // Each call visits its own plan's workloads, in plan order, with
    // the traces that plan's records and seed generate: a second call
    // on the same driver inherits nothing from the first.
    ExperimentDriver driver;
    std::vector<std::uint64_t> first_digests;
    for (const auto &[records, seed] :
         {std::pair<std::size_t, std::uint64_t>{20000, 42},
          std::pair<std::size_t, std::uint64_t>{12000, 7}}) {
        SCOPED_TRACE("records " + std::to_string(records));
        ExperimentConfig cfg = smallConfig(false, records);
        cfg.seed = seed;
        const SweepPlan plan = configPlan(cfg, kWorkloads, 4);
        std::vector<std::string> names(kWorkloads.size());
        std::vector<std::size_t> sizes(kWorkloads.size());
        std::vector<std::uint64_t> digests(kWorkloads.size());
        std::atomic<int> calls{0};
        driver.forEachTrace(
            plan,
            [&](std::size_t index, const Workload &w, const Trace &t) {
                names[index] = w.name();
                sizes[index] = t.size();
                digests[index] = traceDigest(t);
                ++calls;
            });
        EXPECT_EQ(calls.load(), 3);
        for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
            EXPECT_EQ(names[i], kWorkloads[i]);
            const Trace expected =
                makeWorkload(kWorkloads[i])
                    ->generate(plan.seed, plan.records);
            EXPECT_EQ(sizes[i], expected.size()) << kWorkloads[i];
            EXPECT_EQ(digests[i], traceDigest(expected))
                << kWorkloads[i];
            if (!first_digests.empty()) {
                EXPECT_NE(digests[i], first_digests[i])
                    << kWorkloads[i];
            }
        }
        first_digests = digests;
    }
}

TEST(Driver, EachCallRunsOnlyItsOwnPlan)
{
    // One driver runs a timed 30k-record plan, then a functional
    // 20k-record plan, then the timed plan again over its store: each
    // result is a fresh driver's for the same plan, and the third
    // call is served from the cells the first stored under the timed
    // result key.
    const std::string dir = tempStoreDir();
    const auto engines = engineSpecs({"sms", "stems"});
    const SweepPlan timed =
        configPlan(smallConfig(true, 30000), {"dss-qry17", "oltp-db2"}, 2);
    const SweepPlan functional =
        configPlan(smallConfig(false, 20000), {"web-apache"}, 1);

    ExperimentDriver shared;
    shared.setStore(std::make_shared<TraceStore>(dir));
    const auto timed_results = shared.run(timed, engines);
    const auto functional_results = shared.run(functional, engines);
    const RegistryDelta counts;
    const auto timed_again = shared.run(timed, engines);
    EXPECT_EQ(counts("driver.cell.simulated"), 0u);

    ExperimentDriver fresh_timed;
    const auto expected_timed = fresh_timed.run(timed, engines);
    ExperimentDriver fresh_functional;
    expectSameResults(fresh_functional.run(functional, engines),
                      functional_results);
    expectSameResults(expected_timed, timed_results);
    expectSameResults(expected_timed, timed_again);
    std::filesystem::remove_all(dir);
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

    ExperimentDriver driver;
    auto results =
        driver.run(configPlan(cfg, {"em3d"}, 2), engineSpecs({"tms"}));
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

    ExperimentDriver storeless;
    const auto expected =
        storeless.run(configPlan(cfg, workloads, 4), engines);

    std::map<std::string, std::string> serial_ckpts;
    for (unsigned jobs : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const std::string dir =
            tempStoreDir() + "_jobs" + std::to_string(jobs);
        SweepPlan plan = configPlan(cfg, workloads, jobs);
        plan.checkpointEvery = every;

        SpanCollector collector;
        collector.attach();
        const RegistryDelta counts;
        ExperimentDriver driver;
        driver.setStore(std::make_shared<TraceStore>(dir));
        const auto results = driver.run(plan, engines);
        collector.detach();

        expectSameResults(expected, results);
        EXPECT_EQ(counts("driver.cell.simulated"), lanes);
        EXPECT_EQ(counts("ckpt.written"), 3 * lanes);
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
    ExperimentDriver reference;
    const auto expected = reference.run(configPlan(cfg, workloads, 1),
                                        engineSpecs({"sms", "stems"}));

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
            const SweepPlan plan = configPlan(cfg, workloads, jobs);
            ExperimentDriver driver;
            try {
                driver.run(plan, {EngineSpec("sms"), probed});
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
                driver.run(plan, engineSpecs({"sms", "stems"}));
            expectSameResults(expected, again);
        }
    }
}

} // namespace
} // namespace stems
