/**
 * @file
 * Tests for the persistent TraceStore and its driver integration:
 * content-addressed trace entries, result caching keyed by trace
 * digest (the baseline and stride lanes included), cross-process
 * reuse (a fresh store instance over the same directory), eviction
 * under a size budget, and the headline guarantee — a warm-store
 * re-run of a (workloads x engines) sweep performs zero trace
 * generations and zero cell simulations (every cell served from the
 * result cache) and produces results bitwise identical to a cold run
 * and to the serial ExperimentRunner reference.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "sim/checkpoint.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "store/trace_store.hh"
#include "test_util.hh"
#include "trace/text_trace.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"
#include "workloads/trace_workload.hh"

namespace stems {
namespace {

using test::expectSameResults;
using test::expectSameTrace;
using test::sampleTrace;
using test::smallConfig;

const std::vector<std::string> kWorkloads = {"web-apache",
                                             "dss-qry17", "em3d"};
const std::vector<std::string> kEngines = {"tms", "sms", "stems"};

class TraceStoreTest : public test::TempDirTest
{
};

TEST_F(TraceStoreTest, PutFindLoadRoundTrip)
{
    TraceStore store(dir_);
    ASSERT_TRUE(store.usable());
    Trace t = sampleTrace();
    TraceKey key{"unit-test", 500, 42};

    EXPECT_FALSE(store.findTrace(key).has_value());
    auto info = store.putTrace(key, t);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->digest, traceDigest(t));
    EXPECT_EQ(info->records, t.size());

    auto found = store.findTrace(key);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->digest, info->digest);
    EXPECT_EQ(found->key.workload, "unit-test");

    Trace loaded;
    ASSERT_TRUE(store.loadTrace(key, loaded));
    expectSameTrace(t, loaded);
    EXPECT_EQ(store.traceHits(), 1u);

    // Different records/seed are different entries.
    EXPECT_FALSE(store.findTrace({"unit-test", 500, 43}).has_value());
    EXPECT_FALSE(store.findTrace({"unit-test", 501, 42}).has_value());
    EXPECT_FALSE(store.loadTrace({"other", 500, 42}, loaded));
    EXPECT_GT(store.traceMisses(), 0u);
}

TEST_F(TraceStoreTest, CrossProcessReuse)
{
    Trace t = sampleTrace();
    TraceKey key{"cross-proc", 500, 7};
    std::uint64_t digest = 0;
    {
        TraceStore writer(dir_);
        auto info = writer.putTrace(key, t);
        ASSERT_TRUE(info.has_value());
        digest = info->digest;
    }
    // A fresh instance over the same directory — as a new process
    // would construct — sees the entry.
    TraceStore reader(dir_);
    auto found = reader.findTrace(key);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->digest, digest);
    Trace loaded;
    ASSERT_TRUE(reader.loadTrace(key, loaded));
    expectSameTrace(t, loaded);
}

TEST_F(TraceStoreTest, OpenTraceStreamsViaMmap)
{
    TraceStore store(dir_);
    Trace t = sampleTrace();
    TraceKey key{"mmap", 500, 1};
    ASSERT_TRUE(store.putTrace(key, t).has_value());
    auto src = store.openTrace(key);
    ASSERT_NE(src, nullptr);
    EXPECT_EQ(src->size(), t.size());
    Trace replayed;
    src->readAll(replayed);
    expectSameTrace(t, replayed);
}

TEST_F(TraceStoreTest, CorruptEntryIsDroppedNotServed)
{
    TraceStore store(dir_);
    Trace t = sampleTrace();
    TraceKey key{"corrupt", 500, 1};
    ASSERT_TRUE(store.putTrace(key, t).has_value());

    // Flip a payload byte of the stored .trc file.
    for (const auto &de : std::filesystem::recursive_directory_iterator(
             dir_)) {
        if (de.path().extension() != ".trc")
            continue;
        std::fstream f(de.path(),
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        f.seekp(40);
        f.put('\x7f');
    }

    Trace loaded;
    EXPECT_FALSE(store.loadTrace(key, loaded));
    // The corrupt entry was dropped entirely.
    EXPECT_FALSE(store.findTrace(key).has_value());
}

TEST_F(TraceStoreTest, EvictionRemovesOldestFirstUnderBudget)
{
    TraceStore::Options opts;
    opts.sizeBudgetBytes = 0; // manual gc only
    TraceStore store(dir_, opts);
    for (std::uint64_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(store
                        .putTrace({"evict", 500, i},
                                  sampleTrace(i))
                        .has_value());
    }
    // Assign explicit, strictly-increasing mtimes so LRU order is
    // deterministic regardless of filesystem clock granularity.
    int rank = 4;
    std::vector<std::filesystem::path> trcs;
    for (const auto &de : std::filesystem::directory_iterator(
             dir_ + std::string("/traces")))
        if (de.path().extension() == ".trc")
            trcs.push_back(de.path());
    ASSERT_EQ(trcs.size(), 4u);
    std::sort(trcs.begin(), trcs.end());
    auto now = std::filesystem::file_time_type::clock::now();
    for (const auto &p : trcs)
        std::filesystem::last_write_time(
            p, now - std::chrono::seconds(rank--));

    std::uint64_t total = store.totalBytes();
    ASSERT_GT(total, 0u);
    std::uint64_t per_entry = total / 4;
    std::uint64_t removed =
        store.evictWithin(total - per_entry); // force >= 1 eviction
    EXPECT_GT(removed, 0u);
    EXPECT_LE(store.totalBytes(), total - per_entry);

    // The oldest-touched (first in trcs order) was evicted; the
    // newest survives.
    EXPECT_FALSE(std::filesystem::exists(trcs.front()));
    EXPECT_TRUE(std::filesystem::exists(trcs.back()));

    // Full gc empties the store.
    store.evictWithin(0);
    EXPECT_EQ(store.totalBytes(), 0u);
    EXPECT_TRUE(store.list().empty());
}

TEST_F(TraceStoreTest, ListDescribesEntries)
{
    TraceStore store(dir_);
    store.putTrace({"lister", 500, 9}, sampleTrace());
    StoredEngineResult r;
    r.stats.records = 1;
    store.putResult(1, 2, 3, r,
                    {"lister", "baseline", 500, 9, 0, 0, 0, false});
    auto entries = store.list();
    ASSERT_EQ(entries.size(), 2u);
    bool have_trace = false, have_result = false;
    for (const StoreEntry &e : entries) {
        if (e.kind == StoreEntry::Kind::kTrace) {
            have_trace = true;
            EXPECT_NE(e.description.find("lister"),
                      std::string::npos);
            EXPECT_GT(e.bytes, 0u);
        } else {
            have_result = e.kind == StoreEntry::Kind::kResult;
            EXPECT_NE(e.description.find("lister x baseline"),
                      std::string::npos);
        }
    }
    EXPECT_TRUE(have_trace);
    EXPECT_TRUE(have_result);
}

TEST_F(TraceStoreTest, UnusableDirectoryDegradesGracefully)
{
    // A path under a regular file cannot be created.
    std::string file = testing::TempDir() + "stems_store_blocker";
    std::ofstream(file) << "x";
    TraceStore store(file + "/store");
    EXPECT_FALSE(store.usable());
    EXPECT_FALSE(store.putTrace({"w", 1, 1}, sampleTrace())
                     .has_value());
    Trace t;
    EXPECT_FALSE(store.loadTrace({"w", 1, 1}, t));
    EXPECT_FALSE(store.loadResult(1, 2, 3).has_value());
    std::remove(file.c_str());
}

// ---- driver integration ----

TEST_F(TraceStoreTest, WarmSweepDoesZeroGenerationsAndBaselines)
{
    ExperimentConfig cfg = smallConfig(true);

    // Cold run: fresh store, everything computed and persisted.
    ExperimentDriver cold(cfg, 2);
    cold.setStore(std::make_shared<TraceStore>(dir_));
    auto cold_results = cold.run(kWorkloads, engineSpecs(kEngines));
    // Per workload: the no-prefetch and stride lanes, then one lane
    // per engine.
    const std::size_t cells = kWorkloads.size() * (2 + kEngines.size());
    EXPECT_EQ(cold.traceGenerations(), kWorkloads.size());
    EXPECT_EQ(cold.cellRuns(), cells);

    // Warm run: fresh driver AND fresh store instance over the same
    // directory, as a separate process would see it. Every cell is
    // served from the result cache, so nothing at all is simulated —
    // not even the traces are decoded.
    ExperimentDriver warm(cfg, 4);
    warm.setStore(std::make_shared<TraceStore>(dir_));
    auto warm_results = warm.run(kWorkloads, engineSpecs(kEngines));
    EXPECT_EQ(warm.traceGenerations(), 0u);
    EXPECT_EQ(warm.cellRuns(), 0u);
    EXPECT_EQ(warm.store()->resultHits(), cells);
    EXPECT_EQ(warm.store()->traceHits(), 0u);

    // Bitwise-identical merged results: warm vs cold...
    expectSameResults(cold_results, warm_results);

    // ...and both vs the independent serial reference.
    ExperimentRunner runner(cfg);
    std::vector<WorkloadResult> reference;
    for (const std::string &name : kWorkloads) {
        auto w = makeWorkload(name);
        ASSERT_NE(w, nullptr);
        reference.push_back(runner.runWorkload(*w, kEngines));
    }
    expectSameResults(reference, warm_results);
}

TEST_F(TraceStoreTest, FunctionalAndTimedEntriesNeverServeEachOther)
{
    // A functional run persists cells without cycle data; a later
    // timing run must recompute rather than trust them.
    ExperimentDriver functional(smallConfig(false), 2);
    functional.setStore(std::make_shared<TraceStore>(dir_));
    functional.run({"dss-qry17"}, engineSpecs({"sms"}));
    EXPECT_EQ(functional.cellRuns(), 2u); // baseline + sms

    ExperimentDriver timed(smallConfig(true), 2);
    timed.setStore(std::make_shared<TraceStore>(dir_));
    timed.run({"dss-qry17"}, engineSpecs({"sms"}));
    EXPECT_EQ(timed.traceGenerations(), 0u); // trace still reused
    // Results are keyed by the timing mode, so the baseline, stride
    // and sms lanes all re-simulate.
    EXPECT_EQ(timed.cellRuns(), 3u);

    ExperimentDriver warm(smallConfig(true), 2);
    warm.setStore(std::make_shared<TraceStore>(dir_));
    warm.run({"dss-qry17"}, engineSpecs({"sms"}));
    EXPECT_EQ(warm.cellRuns(), 0u);

    // The other direction: the timed cells must not serve a
    // functional run either (their baseline carries cycles a
    // functional run reports as 0).
    ExperimentDriver replay(smallConfig(false), 2);
    replay.setStore(std::make_shared<TraceStore>(dir_));
    auto replayed = replay.run({"dss-qry17"}, engineSpecs({"sms"}));
    ExperimentDriver reference(smallConfig(false), 2);
    expectSameResults(
        reference.run({"dss-qry17"}, engineSpecs({"sms"})), replayed);
}

TEST_F(TraceStoreTest, DifferentSeedMissesTheStore)
{
    ExperimentConfig cfg = smallConfig(false);
    ExperimentDriver a(cfg, 2);
    a.setStore(std::make_shared<TraceStore>(dir_));
    a.run({"dss-qry17"}, engineSpecs({"sms"}));

    cfg.seed = 43;
    ExperimentDriver b(cfg, 2);
    b.setStore(std::make_shared<TraceStore>(dir_));
    b.run({"dss-qry17"}, engineSpecs({"sms"}));
    EXPECT_EQ(b.traceGenerations(), 1u);
    EXPECT_EQ(b.cellRuns(), 2u);
}

TEST_F(TraceStoreTest, ForEachTraceReplaysFromStore)
{
    ExperimentConfig cfg = smallConfig(false);
    cfg.traceRecords = 20000;

    ExperimentDriver cold(cfg, 2);
    cold.setStore(std::make_shared<TraceStore>(dir_));
    std::vector<std::size_t> cold_sizes(kWorkloads.size());
    cold.forEachTrace(kWorkloads,
                      [&](std::size_t i, const Workload &,
                          const Trace &t) { cold_sizes[i] = t.size(); });
    EXPECT_EQ(cold.traceGenerations(), kWorkloads.size());

    ExperimentDriver warm(cfg, 2);
    warm.setStore(std::make_shared<TraceStore>(dir_));
    std::vector<std::size_t> warm_sizes(kWorkloads.size());
    warm.forEachTrace(kWorkloads,
                      [&](std::size_t i, const Workload &,
                          const Trace &t) { warm_sizes[i] = t.size(); });
    EXPECT_EQ(warm.traceGenerations(), 0u);
    EXPECT_EQ(warm_sizes, cold_sizes);
}

TEST_F(TraceStoreTest, ExternalTraceDigestKeysStoredBaselines)
{
    // runWorkload with a caller-vouched content digest caches the
    // baseline lane's result in the store even though the name-keyed
    // paths are bypassed — this is what `stems_trace run --store`
    // relies on.
    Trace t = sampleTrace();
    std::uint64_t digest = traceDigest(t);
    FixedTraceWorkload w("captured", Trace(t));

    ExperimentDriver first(smallConfig(false), 2);
    first.setStore(std::make_shared<TraceStore>(dir_));
    auto a = first.runWorkload(w, engineSpecs({"sms"}), digest);
    EXPECT_EQ(first.cellRuns(), 2u);

    // Fresh driver + store instance (a new process): every cell,
    // the baseline included, hits.
    ExperimentDriver second(smallConfig(false), 2);
    second.setStore(std::make_shared<TraceStore>(dir_));
    auto b = second.runWorkload(w, engineSpecs({"sms"}), digest);
    EXPECT_EQ(second.cellRuns(), 0u);
    EXPECT_EQ(a.baselineMisses, b.baselineMisses);
    EXPECT_EQ(a.find("sms")->coverage, b.find("sms")->coverage);

    // Without a digest the store is (correctly) not consulted.
    ExperimentDriver third(smallConfig(false), 2);
    third.setStore(std::make_shared<TraceStore>(dir_));
    third.runWorkload(w, engineSpecs({"sms"}));
    EXPECT_EQ(third.cellRuns(), 2u);
}

TEST_F(TraceStoreTest, ImportedTraceRunsThroughDriverWithAllEngines)
{
    // Round-trip a real workload capture through the external text
    // format — as if it had been dumped by another simulator — then
    // ingest it into the store and sweep every registered engine
    // over it.
    auto w = makeWorkload("oltp-db2");
    ASSERT_NE(w, nullptr);
    Trace captured = w->generate(42, 30000);
    std::string csv = dir_ + "_external.csv";
    ASSERT_TRUE(exportTextTrace(csv, captured));
    Trace imported;
    std::string error;
    ASSERT_TRUE(importTextTrace(csv, imported, &error)) << error;
    std::remove(csv.c_str());
    expectSameTrace(captured, imported);

    // Ingest into the store and replay out of it, as the tool does.
    TraceStore store(dir_);
    TraceKey key{"external:capture", imported.size(), 0};
    ASSERT_TRUE(store.putTrace(key, imported).has_value());
    Trace replayed;
    ASSERT_TRUE(store.loadTrace(key, replayed));
    expectSameTrace(imported, replayed);

    // Drive every registered engine over it.
    FixedTraceWorkload workload("external:capture",
                                std::move(replayed));
    ExperimentDriver driver(ExperimentConfig{}, 2);
    WorkloadResult r = driver.runWorkload(
        workload,
        engineSpecs({"stride", "tms", "sms", "stems", "tms+sms"}));
    ASSERT_EQ(r.engines.size(), 5u);
    EXPECT_GT(r.baselineMisses, 0u);
    double best = 0.0;
    for (const EngineResult &e : r.engines) {
        EXPECT_GE(e.coverage, 0.0) << e.engine;
        best = std::max(best, e.coverage);
    }
    // The OLTP capture is predictable: some engine must cover it.
    EXPECT_GT(best, 0.05);
}

// ---- engine-result cache ----

TEST_F(TraceStoreTest, EngineResultRoundTripIsBitExact)
{
    TraceStore store(dir_);
    StoredEngineResult r;
    r.stats.records = 123456;
    r.stats.reads = 100000;
    r.stats.writes = 20000;
    r.stats.invalidates = 3456;
    r.stats.l1Hits = 90000;
    r.stats.l2Hits = 5000;
    r.stats.l2PrefetchHits = 1234;
    r.stats.svbHits = 2345;
    r.stats.offChipReads = 1421;
    r.stats.offChipWrites = 777;
    r.stats.prefetchesIssued = 4242;
    r.stats.overpredictions = 663;
    r.stats.cycles = 1.0 / 7.0;
    r.stats.instructions = 987654321;
    r.extra["placed"] = 0.30000000000000004;
    r.extra["within2"] = 0.9999999999999999;
    ASSERT_TRUE(store.putResult(0xA, 0xB, 0xC, r,
                                {"wl", "eng", 1000, 42, 0.5, 0.9,
                                 1.25, true}));

    auto loaded = store.loadResult(0xA, 0xB, 0xC);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->stats.records, r.stats.records);
    EXPECT_EQ(loaded->stats.l2PrefetchHits,
              r.stats.l2PrefetchHits);
    EXPECT_EQ(loaded->stats.svbHits, r.stats.svbHits);
    EXPECT_EQ(loaded->stats.offChipReads, r.stats.offChipReads);
    EXPECT_EQ(loaded->stats.prefetchesIssued,
              r.stats.prefetchesIssued);
    EXPECT_EQ(loaded->stats.overpredictions,
              r.stats.overpredictions);
    EXPECT_EQ(loaded->stats.cycles, r.stats.cycles); // bitwise
    EXPECT_EQ(loaded->stats.instructions, r.stats.instructions);
    EXPECT_EQ(loaded->extra, r.extra);

    // Any other key misses.
    EXPECT_FALSE(store.loadResult(0xA, 0xB, 0xD).has_value());
    EXPECT_FALSE(store.loadResult(0xA, 0xD, 0xC).has_value());
    EXPECT_FALSE(store.loadResult(0xD, 0xB, 0xC).has_value());
    EXPECT_EQ(store.resultHits(), 1u);
    EXPECT_EQ(store.resultMisses(), 3u);

    // The sidecar is enumerable.
    auto infos = store.listResults();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].meta.workload, "wl");
    EXPECT_EQ(infos[0].meta.engine, "eng");
    EXPECT_EQ(infos[0].meta.records, 1000u);
    EXPECT_EQ(infos[0].meta.coverage, 0.5);
    EXPECT_TRUE(infos[0].meta.timing);
    EXPECT_GT(infos[0].savedAtUnix, 0);
}

TEST_F(TraceStoreTest, CorruptResultEntryFallsBackToSimulation)
{
    ExperimentConfig cfg = smallConfig(false);
    ExperimentDriver cold(cfg, 2);
    cold.setStore(std::make_shared<TraceStore>(dir_));
    auto cold_results = cold.run({"dss-qry17"}, engineSpecs({"sms"}));
    EXPECT_EQ(cold.cellRuns(), 2u);

    // Flip a byte in the middle of every stored .res payload.
    for (const auto &de :
         std::filesystem::recursive_directory_iterator(dir_)) {
        if (de.path().extension() != ".res")
            continue;
        std::fstream f(de.path(), std::ios::in | std::ios::out |
                                      std::ios::binary);
        f.seekp(24);
        f.put('\x7f');
    }

    ExperimentDriver warm(cfg, 2);
    warm.setStore(std::make_shared<TraceStore>(dir_));
    auto warm_results = warm.run({"dss-qry17"}, engineSpecs({"sms"}));
    EXPECT_EQ(warm.cellRuns(), 2u); // cache rejected, re-simulated
    EXPECT_EQ(warm.store()->resultHits(), 0u);
    expectSameResults(cold_results, warm_results);

    // The re-simulation re-persisted a good entry.
    ExperimentDriver third(cfg, 2);
    third.setStore(std::make_shared<TraceStore>(dir_));
    expectSameResults(cold_results,
                      third.run({"dss-qry17"}, engineSpecs({"sms"})));
    EXPECT_EQ(third.cellRuns(), 0u);
}

TEST_F(TraceStoreTest, TruncatedResultEntryFallsBackToSimulation)
{
    ExperimentConfig cfg = smallConfig(false);
    ExperimentDriver cold(cfg, 2);
    cold.setStore(std::make_shared<TraceStore>(dir_));
    auto cold_results = cold.run({"dss-qry17"}, engineSpecs({"sms"}));

    for (const auto &de :
         std::filesystem::recursive_directory_iterator(dir_)) {
        if (de.path().extension() != ".res")
            continue;
        std::filesystem::resize_file(de.path(), 10);
    }

    ExperimentDriver warm(cfg, 2);
    warm.setStore(std::make_shared<TraceStore>(dir_));
    auto warm_results = warm.run({"dss-qry17"}, engineSpecs({"sms"}));
    EXPECT_EQ(warm.cellRuns(), 2u);
    expectSameResults(cold_results, warm_results);
}

TEST_F(TraceStoreTest, EvictionSharesBudgetAcrossAllEntryKinds)
{
    TraceStore::Options opts;
    opts.sizeBudgetBytes = 0; // manual gc only
    TraceStore store(dir_, opts);
    ASSERT_TRUE(
        store.putTrace({"evict", 500, 1}, sampleTrace(1)).has_value());
    StoredEngineResult r;
    r.stats.records = 1;
    ASSERT_TRUE(store.putResult(1, 2, 3, r,
                                {"wl", "eng", 500, 1, 0, 0, 0,
                                 false}));

    // totalBytes counts both kinds.
    std::uint64_t total = store.totalBytes();
    std::uint64_t listed = 0;
    bool have_result = false;
    for (const StoreEntry &e : store.list()) {
        listed += e.bytes;
        have_result |= e.kind == StoreEntry::Kind::kResult;
    }
    EXPECT_TRUE(have_result);
    // list() reports payload bytes; meta sidecars add the rest.
    EXPECT_LE(listed, total);
    EXPECT_GT(listed, 0u);

    // Make the result entry the oldest; evicting to just below the
    // total must remove it first, as a .res/.meta pair.
    auto now = std::filesystem::file_time_type::clock::now();
    for (const auto &de :
         std::filesystem::recursive_directory_iterator(dir_)) {
        bool is_result = de.path().parent_path().filename() ==
                         "results";
        std::filesystem::last_write_time(
            de.path(),
            now - std::chrono::seconds(is_result ? 1000 : 10));
    }
    std::uint64_t removed = store.evictWithin(total - 1);
    EXPECT_GT(removed, 0u);
    EXPECT_FALSE(store.loadResult(1, 2, 3).has_value());
    EXPECT_TRUE(store.listResults().empty());
    // The newer trace survives.
    EXPECT_TRUE(store.findTrace({"evict", 500, 1}).has_value());

    // Full gc removes everything, results included.
    store.evictWithin(0);
    EXPECT_EQ(store.totalBytes(), 0u);
    EXPECT_TRUE(store.list().empty());
}

TEST_F(TraceStoreTest, ExternalTraceHitsResultCacheByDigest)
{
    // stems_trace run --store: the caller vouches for the trace's
    // content digest, so even the engine cells of an external trace
    // become incremental across processes.
    Trace t = sampleTrace();
    std::uint64_t digest = traceDigest(t);
    FixedTraceWorkload w("captured", Trace(t));

    ExperimentDriver first(smallConfig(false), 2);
    first.setStore(std::make_shared<TraceStore>(dir_));
    auto a =
        first.runWorkload(w, engineSpecs({"sms", "stems"}), digest);
    EXPECT_EQ(first.cellRuns(), 3u);

    ExperimentDriver second(smallConfig(false), 2);
    second.setStore(std::make_shared<TraceStore>(dir_));
    auto b =
        second.runWorkload(w, engineSpecs({"sms", "stems"}), digest);
    EXPECT_EQ(second.cellRuns(), 0u);
    EXPECT_EQ(second.store()->resultHits(), 3u);
    expectSameResults({a}, {b});

    // Without a digest nothing is cached or served.
    ExperimentDriver third(smallConfig(false), 2);
    third.setStore(std::make_shared<TraceStore>(dir_));
    third.runWorkload(w, engineSpecs({"sms", "stems"}));
    EXPECT_EQ(third.cellRuns(), 3u);
}

TEST_F(TraceStoreTest, AnonymousProbeBypassesResultCache)
{
    // A probe is opaque code: without a stable probeId the cell must
    // re-simulate every run (the cached extras could be stale).
    ExperimentConfig cfg = smallConfig(false);
    EngineSpec spec("stems");
    spec.probe = [](const Prefetcher &, EngineResult &er) {
        er.extra["marker"] = 1.0;
    };

    ExperimentDriver cold(cfg, 2);
    cold.setStore(std::make_shared<TraceStore>(dir_));
    cold.run({"dss-qry17"}, {spec});
    EXPECT_EQ(cold.cellRuns(), 2u); // baseline + stems

    ExperimentDriver warm(cfg, 2);
    warm.setStore(std::make_shared<TraceStore>(dir_));
    auto results = warm.run({"dss-qry17"}, {spec});
    EXPECT_EQ(warm.cellRuns(), 1u); // not served from the cache
    EXPECT_EQ(results.at(0).engines.at(0).extra.at("marker"), 1.0);
}

TEST_F(TraceStoreTest, NamedProbeRoundTripsExtrasThroughCache)
{
    ExperimentConfig cfg = smallConfig(false);
    EngineSpec spec("stems");
    spec.probe = [](const Prefetcher &, EngineResult &er) {
        er.extra["marker"] = 2.5;
        er.extra["other"] = -0.125;
    };
    spec.probeId = "marker-probe-v1";

    ExperimentDriver cold(cfg, 2);
    cold.setStore(std::make_shared<TraceStore>(dir_));
    auto cold_results = cold.run({"dss-qry17"}, {spec});
    EXPECT_EQ(cold.cellRuns(), 2u);

    ExperimentDriver warm(cfg, 2);
    warm.setStore(std::make_shared<TraceStore>(dir_));
    auto warm_results = warm.run({"dss-qry17"}, {spec});
    EXPECT_EQ(warm.cellRuns(), 0u);
    const auto &extra = warm_results.at(0).engines.at(0).extra;
    EXPECT_EQ(extra.at("marker"), 2.5);
    EXPECT_EQ(extra.at("other"), -0.125);
    expectSameResults(cold_results, warm_results);

    // A different probe identity is a different cache key.
    spec.probeId = "marker-probe-v2";
    ExperimentDriver bumped(cfg, 2);
    bumped.setStore(std::make_shared<TraceStore>(dir_));
    bumped.run({"dss-qry17"}, {spec});
    EXPECT_EQ(bumped.cellRuns(), 1u);
}

// ---- checkpoint entries ----

/** A real (small, engineless) simulator snapshot to store. */
std::vector<std::uint8_t>
sampleCheckpointBlob(std::uint64_t index)
{
    PrefetchSimulator sim(SimParams{}, nullptr);
    Trace t = sampleTrace();
    for (std::uint64_t i = 0; i < index && i < t.size(); ++i)
        sim.step(t[static_cast<std::size_t>(i)]);
    return encodeCheckpoint(sim, index);
}

TEST_F(TraceStoreTest, CheckpointRoundTripAndIndexListing)
{
    TraceStore store(dir_);
    auto blob = sampleCheckpointBlob(100);
    StoredCheckpointMeta meta{"wl", "stems", 100, 40};
    ASSERT_TRUE(store.putCheckpoint(0xA, 0xB, 100, 0xC, blob, meta));
    ASSERT_TRUE(store.putCheckpoint(0xA, 0xB, 50, 0xD,
                                    sampleCheckpointBlob(50),
                                    {"wl", "stems", 50, 40}));

    auto loaded = store.loadCheckpoint(0xA, 0xB, 100, 0xC);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, blob); // byte-for-byte

    // Indices enumerate ascending across state digests.
    EXPECT_EQ(store.listCheckpointIndices(0xA, 0xB),
              (std::vector<std::uint64_t>{50, 100}));
    EXPECT_TRUE(store.listCheckpointIndices(0xA, 0xE).empty());
    EXPECT_TRUE(store.listCheckpointIndices(0xE, 0xB).empty());

    // Any other key misses.
    EXPECT_FALSE(store.loadCheckpoint(0xA, 0xB, 100, 0xD)
                     .has_value());
    EXPECT_FALSE(store.loadCheckpoint(0xA, 0xB, 99, 0xC)
                     .has_value());
    EXPECT_EQ(store.checkpointHits(), 1u);
    EXPECT_EQ(store.checkpointMisses(), 2u);

    // The listing carries the new entry kind with its identity.
    bool have_ckpt = false;
    for (const StoreEntry &e : store.list()) {
        if (e.kind != StoreEntry::Kind::kCheckpoint)
            continue;
        have_ckpt = true;
        EXPECT_NE(e.description.find("wl x stems"),
                  std::string::npos)
            << e.description;
        EXPECT_GT(e.bytes, 0u);
    }
    EXPECT_TRUE(have_ckpt);
}

TEST_F(TraceStoreTest, CorruptCheckpointEntryIsDroppedNotServed)
{
    TraceStore store(dir_);
    ASSERT_TRUE(store.putCheckpoint(1, 2, 100, 3,
                                    sampleCheckpointBlob(100),
                                    {"wl", "sms", 100, 0}));
    for (const auto &de :
         std::filesystem::recursive_directory_iterator(dir_)) {
        if (de.path().extension() != ".ckpt")
            continue;
        std::fstream f(de.path(), std::ios::in | std::ios::out |
                                      std::ios::binary);
        f.seekp(40);
        f.put('\x7f');
    }
    EXPECT_FALSE(store.loadCheckpoint(1, 2, 100, 3).has_value());
    // Both files of the pair are gone, so the index listing is too.
    EXPECT_TRUE(store.listCheckpointIndices(1, 2).empty());
}

TEST_F(TraceStoreTest, CheckpointsShareTheEvictionBudget)
{
    TraceStore::Options opts;
    opts.sizeBudgetBytes = 0; // manual gc only
    TraceStore store(dir_, opts);
    ASSERT_TRUE(
        store.putTrace({"evict", 500, 1}, sampleTrace(1)).has_value());
    ASSERT_TRUE(store.putCheckpoint(7, 8, 100, 9,
                                    sampleCheckpointBlob(100),
                                    {"wl", "stems", 100, 0}));

    std::uint64_t total = store.totalBytes();
    ASSERT_GT(total, 0u);

    // Make the checkpoint pair the oldest: a below-total budget must
    // evict it first, .meta sidecar included, like a .res pair.
    auto now = std::filesystem::file_time_type::clock::now();
    for (const auto &de :
         std::filesystem::recursive_directory_iterator(dir_)) {
        bool is_ckpt = de.path().parent_path().filename() ==
                       "checkpoints";
        std::filesystem::last_write_time(
            de.path(),
            now - std::chrono::seconds(is_ckpt ? 1000 : 10));
    }
    EXPECT_GT(store.evictWithin(total - 1), 0u);
    EXPECT_FALSE(store.loadCheckpoint(7, 8, 100, 9).has_value());
    EXPECT_TRUE(store.listCheckpointIndices(7, 8).empty());
    bool meta_left = false;
    for (const auto &de : std::filesystem::directory_iterator(
             dir_ + "/checkpoints"))
        meta_left |= de.path().extension() == ".meta";
    EXPECT_FALSE(meta_left);
    // The newer trace survives.
    EXPECT_TRUE(store.findTrace({"evict", 500, 1}).has_value());

    // Full gc removes everything, checkpoints included.
    store.evictWithin(0);
    EXPECT_EQ(store.totalBytes(), 0u);
}

TEST_F(TraceStoreTest, ConcurrentCheckpointWritesAllLand)
{
    // Parallel driver tasks persist checkpoints concurrently — both
    // to distinct keys (different boundaries/states) and, when two
    // cells share a checkpoint identity, to the same key with the
    // same bytes. No write may be lost, torn, or cross-wired.
    TraceStore store(dir_);
    const std::uint64_t spec = 0x51EC, cfg = 0xC0F;
    auto shared_blob = sampleCheckpointBlob(500);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            // Distinct key per thread...
            std::uint64_t index = 100 * (t + 1);
            ASSERT_TRUE(store.putCheckpoint(
                spec, cfg, index, /*state=*/t,
                sampleCheckpointBlob(index),
                {"wl", "stems", index, 0}));
            // ...plus everyone racing on one shared key.
            ASSERT_TRUE(store.putCheckpoint(
                spec, cfg, 500, /*state=*/0xABC, shared_blob,
                {"wl", "stems", 500, 0}));
        });
    }
    for (std::thread &th : threads)
        th.join();

    // Every distinct key round-trips byte-for-byte.
    for (unsigned t = 0; t < 8; ++t) {
        std::uint64_t index = 100 * (t + 1);
        auto loaded = store.loadCheckpoint(spec, cfg, index, t);
        ASSERT_TRUE(loaded.has_value()) << "thread " << t;
        EXPECT_EQ(*loaded, sampleCheckpointBlob(index));
    }
    auto shared = store.loadCheckpoint(spec, cfg, 500, 0xABC);
    ASSERT_TRUE(shared.has_value());
    EXPECT_EQ(*shared, shared_blob);

    // The key listing sees all of them, sorted, no duplicates.
    auto keys = store.listCheckpoints(spec, cfg);
    ASSERT_EQ(keys.size(), 9u);
    for (std::size_t i = 1; i < keys.size(); ++i) {
        EXPECT_TRUE(keys[i - 1].index < keys[i].index ||
                    (keys[i - 1].index == keys[i].index &&
                     keys[i - 1].stateDigest <
                         keys[i].stateDigest));
    }
}

TEST_F(TraceStoreTest, EvictionCollectsOrphanedTempFiles)
{
    // A writer killed mid-put leaves <entry>.tmp.<pid>.<seq> in the
    // store. totalBytes() counts it, so eviction must collect it as
    // well: otherwise no budget is ever met once every committed
    // entry is gone, and the orphan stays forever.
    TraceStore store(dir_);
    PrefetchSimulator sim(SimParams{}, nullptr);
    const StoredCheckpointMeta meta{"wl", "baseline", 700, 0};
    ASSERT_TRUE(store.putCheckpoint(1, 2, 700, 3,
                                    encodeCheckpoint(sim, 700), meta));
    std::filesystem::path orphan;
    for (const auto &de : std::filesystem::directory_iterator(
             std::filesystem::path(dir_) / "checkpoints"))
        if (de.path().extension() == ".ckpt")
            orphan = de.path().string() + ".tmp.99999.0";
    ASSERT_FALSE(orphan.empty());
    {
        std::ofstream out(orphan, std::ios::binary);
        out << std::string(4096, 'x');
    }
    ASSERT_GT(store.totalBytes(), 4096u);

    store.evictWithin(0);
    EXPECT_EQ(store.totalBytes(), 0u);
    for (const auto &de :
         std::filesystem::recursive_directory_iterator(dir_))
        EXPECT_EQ(de.path().filename().string().find(".tmp."),
                  std::string::npos)
            << de.path();
}

TEST_F(TraceStoreTest, StoresInOneProcessNeverShareATempFile)
{
    // Distributed workers run as threads of one process, each with
    // its own store over one directory, and duplicate engine columns
    // share a checkpoint key. Temp names that depended on the pid
    // alone collided there, and the losing rename failed the put.
    // Every put of the shared key must land, blob and streamed alike.
    constexpr unsigned kThreads = 4;
    constexpr int kPuts = 100;
    std::vector<std::thread> threads;
    std::vector<int> failed(kThreads, 0);
    std::vector<std::uint8_t> blob;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            TraceStore store(dir_);
            test::BulkStateEngine engine(256 << 10);
            PrefetchSimulator sim(SimParams{}, &engine);
            const std::vector<std::uint8_t> mine =
                encodeCheckpoint(sim, 700);
            if (t == 0)
                blob = mine;
            const StoredCheckpointMeta meta{"wl", "tms", 700, 0};
            for (int i = 0; i < kPuts; ++i) {
                const bool ok =
                    i % 2 == 0
                        ? store.putCheckpoint(1, 2, 700, 3, mine, meta)
                        : store.putCheckpoint(1, 2, 700, 3, sim, meta);
                failed[t] += ok ? 0 : 1;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(failed[t], 0) << "thread " << t;

    TraceStore store(dir_);
    auto loaded = store.loadCheckpoint(1, 2, 700, 3);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, blob);
    for (const auto &de :
         std::filesystem::recursive_directory_iterator(dir_))
        EXPECT_EQ(de.path().filename().string().find(".tmp."),
                  std::string::npos)
            << de.path();
}

TEST_F(TraceStoreTest, ListCheckpointsOnMixedStore)
{
    // listCheckpoints() tells trusted boundary checkpoints from
    // stale ones without loading a blob: it must
    // enumerate every well-formed key of the requested identity —
    // including multiple state digests per index and entries whose
    // blob is corrupt (integrity is loadCheckpoint's job) — while
    // skipping foreign identities and malformed filenames.
    TraceStore store(dir_);
    const std::uint64_t spec = 0xFEED, cfg = 0xBEEF;
    ASSERT_TRUE(store.putCheckpoint(spec, cfg, 100, 1,
                                    sampleCheckpointBlob(100),
                                    {"wl", "stems", 100, 0}));
    ASSERT_TRUE(store.putCheckpoint(spec, cfg, 100, 2,
                                    sampleCheckpointBlob(100),
                                    {"wl", "stems", 100, 0}));
    ASSERT_TRUE(store.putCheckpoint(spec, cfg, 50, 9,
                                    sampleCheckpointBlob(50),
                                    {"wl", "stems", 50, 0}));
    // Foreign config and foreign spec: same directory, other runs.
    ASSERT_TRUE(store.putCheckpoint(spec, 0x0DD, 100, 1,
                                    sampleCheckpointBlob(100),
                                    {"wl", "stems", 100, 0}));
    ASSERT_TRUE(store.putCheckpoint(0x0DD, cfg, 100, 1,
                                    sampleCheckpointBlob(100),
                                    {"wl", "stems", 100, 0}));

    // Corrupt one on-identity blob: still *listed* (the filename is
    // the key), only loadCheckpoint rejects it.
    {
        char stem[80];
        std::snprintf(stem, sizeof(stem),
                      "%016llx-%016llx-%016llx-%016llx",
                      static_cast<unsigned long long>(spec),
                      static_cast<unsigned long long>(cfg), 50ull,
                      9ull);
        std::fstream f(dir_ + "/checkpoints/" + stem + ".ckpt",
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(40);
        f.put('\x7f');
    }

    // Malformed filenames sharing the identity prefix: skipped.
    char prefix[40];
    std::snprintf(prefix, sizeof(prefix), "%016llx-%016llx-",
                  static_cast<unsigned long long>(spec),
                  static_cast<unsigned long long>(cfg));
    for (const std::string &junk :
         {std::string(prefix) + "junk.ckpt",
          std::string(prefix) + "0000000000000100.ckpt",
          std::string(prefix) +
              "0000000000000100_0000000000000001.ckpt",
          std::string("garbage.ckpt")}) {
        std::ofstream(dir_ + "/checkpoints/" + junk) << "x";
    }

    auto keys = store.listCheckpoints(spec, cfg);
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0].index, 50u);
    EXPECT_EQ(keys[0].stateDigest, 9u);
    EXPECT_EQ(keys[1].index, 100u);
    EXPECT_EQ(keys[1].stateDigest, 1u);
    EXPECT_EQ(keys[2].index, 100u);
    EXPECT_EQ(keys[2].stateDigest, 2u);

    // The corrupt entry is listed but not served.
    EXPECT_FALSE(store.loadCheckpoint(spec, cfg, 50, 9).has_value());
    EXPECT_TRUE(store.loadCheckpoint(spec, cfg, 100, 1).has_value());

    // Unknown identities stay empty.
    EXPECT_TRUE(store.listCheckpoints(spec, 0x123).empty());
    EXPECT_TRUE(store.listCheckpoints(0x123, cfg).empty());
}

TEST_F(TraceStoreTest, DifferentEngineOptionsAreDifferentResults)
{
    ExperimentConfig cfg = smallConfig(false);
    EngineOptions small_rmob;
    small_rmob.bufferEntries = 256;

    ExperimentDriver cold(cfg, 2);
    cold.setStore(std::make_shared<TraceStore>(dir_));
    cold.run({"dss-qry17"}, {EngineSpec("stems")});
    EXPECT_EQ(cold.cellRuns(), 2u);

    // Same engine name, different overrides: must not be served
    // from the default-options entry.
    ExperimentDriver swept(cfg, 2);
    swept.setStore(std::make_shared<TraceStore>(dir_));
    swept.run({"dss-qry17"},
              {EngineSpec("stems", "stems-small", small_rmob)});
    EXPECT_EQ(swept.cellRuns(), 1u);

    // While a *label-only* change shares the entry (labels are
    // cosmetic; the simulation is identical).
    ExperimentDriver relabeled(cfg, 2);
    relabeled.setStore(std::make_shared<TraceStore>(dir_));
    auto results = relabeled.run(
        {"dss-qry17"}, {EngineSpec("stems", "stems-renamed")});
    EXPECT_EQ(relabeled.cellRuns(), 0u);
    EXPECT_EQ(results.at(0).engines.at(0).engine, "stems-renamed");
}

} // namespace
} // namespace stems