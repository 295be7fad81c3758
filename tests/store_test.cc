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

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <thread>
#include <utility>

#include "common/crc32.hh"
#include "sim/checkpoint.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "store/trace_store.hh"
#include "test_util.hh"
#include "trace/text_trace.hh"
#include "trace/trace_codec.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"
#include "workloads/trace_workload.hh"

namespace stems {
namespace {

using test::configPlan;
using test::expectSameResults;
using test::expectSameTrace;
using test::RegistryDelta;
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
    const RegistryDelta counts;
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
    EXPECT_EQ(counts("store.trace.hit"), 1u);

    // Different records/seed are different entries.
    EXPECT_FALSE(store.findTrace({"unit-test", 500, 43}).has_value());
    EXPECT_FALSE(store.findTrace({"unit-test", 501, 42}).has_value());
    EXPECT_FALSE(store.loadTrace({"other", 500, 42}, loaded));
    EXPECT_GT(counts("store.trace.miss"), 0u);
}

TEST_F(TraceStoreTest, PutTraceGivenItsDigestWritesTheSameBytes)
{
    // The driver hashes a trace once and hands putTrace the content
    // digest; the entry must be the one putTrace(key, trace) writes.
    namespace fs = std::filesystem;
    const Trace t = sampleTrace();
    const TraceKey key{"unit-test", 500, 42};
    const fs::path hashing = fs::path(dir_) / "hashing";
    const fs::path given = fs::path(dir_) / "given";
    auto a = TraceStore(hashing.string()).putTrace(key, t);
    auto b = TraceStore(given.string()).putTrace(key, t, traceDigest(t));
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->digest, b->digest);

    auto bytes = [](const fs::path &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    std::vector<std::string> compared;
    for (const auto &de : fs::recursive_directory_iterator(hashing)) {
        if (!de.is_regular_file())
            continue;
        const fs::path rel = fs::relative(de.path(), hashing);
        EXPECT_EQ(bytes(de.path()), bytes(given / rel)) << rel;
        compared.push_back(rel.extension().string());
    }
    std::sort(compared.begin(), compared.end());
    EXPECT_EQ(compared, (std::vector<std::string>{".meta", ".trc"}));
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

TEST_F(TraceStoreTest, CorruptEntryIsDroppedNotServed)
{
    // Three damaged entries: a flipped payload byte (the CRC catches
    // it), a header count lowered by one, and two bytes of a whole
    // extra record after the last one, with the payload length and
    // CRC rewritten to match. The header is not under the CRC, so
    // only decoding exactly `count` records over exactly the payload
    // refuses the last two.
    using Bytes = std::vector<std::uint8_t>;
    auto put_u64 = [](Bytes &b, std::size_t at, std::uint64_t v) {
        std::memcpy(b.data() + at, &v, sizeof(v));
    };
    const std::vector<std::pair<const char *, std::function<void(Bytes &)>>>
        damages = {
            {"flipped payload byte", [](Bytes &b) { b[40] = 0x7f; }},
            {"count lowered by one",
             [&](Bytes &b) {
                 std::uint64_t count = 0;
                 std::memcpy(&count, b.data() + codec::kV2CountOffset,
                             sizeof(count));
                 put_u64(b, codec::kV2CountOffset, count - 1);
             }},
            {"extra record after the last",
             [&](Bytes &b) {
                 // Tag "same PC", address delta 0: a whole record.
                 b.push_back(codec::kTagSamePc);
                 b.push_back(0x00);
                 const std::size_t payload =
                     b.size() - codec::kV2HeaderBytes;
                 put_u64(b, codec::kV2PayloadLenOffset, payload);
                 const std::uint32_t crc =
                     crc32(b.data() + codec::kV2HeaderBytes, payload);
                 std::memcpy(b.data() + codec::kV2CrcOffset, &crc,
                             sizeof(crc));
             }},
        };
    const Trace t = sampleTrace();
    for (const auto &[name, damage] : damages) {
        SCOPED_TRACE(name);
        TraceStore store(dir_);
        const TraceKey key{"corrupt", 500, 1};
        ASSERT_TRUE(store.putTrace(key, t).has_value());
        for (const auto &de :
             std::filesystem::recursive_directory_iterator(dir_)) {
            if (de.path().extension() != ".trc")
                continue;
            Bytes bytes;
            {
                std::ifstream in(de.path(), std::ios::binary);
                bytes.assign(std::istreambuf_iterator<char>(in), {});
            }
            damage(bytes);
            std::ofstream out(de.path(),
                              std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char *>(bytes.data()),
                      static_cast<std::streamsize>(bytes.size()));
        }

        const RegistryDelta counts;
        Trace loaded;
        EXPECT_FALSE(store.loadTrace(key, loaded));
        EXPECT_EQ(counts("store.trace.hit"), 0u);
        EXPECT_EQ(counts("store.trace.miss"), 1u);
        // The corrupt entry was dropped entirely.
        EXPECT_FALSE(store.findTrace(key).has_value());
    }
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
    std::string file = test::uniqueTempPath("stems_store_blocker");
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
    const RegistryDelta cold_counts;
    ExperimentDriver cold;
    cold.setStore(std::make_shared<TraceStore>(dir_));
    auto cold_results =
        cold.run(configPlan(cfg, kWorkloads, 2), engineSpecs(kEngines));
    // Per workload: the prefetch-free and stride lanes, then one lane
    // per engine.
    const std::size_t cells = kWorkloads.size() * (2 + kEngines.size());
    EXPECT_EQ(cold_counts("driver.trace.generated"), kWorkloads.size());
    EXPECT_EQ(cold_counts("driver.cell.simulated"), cells);

    // Warm run: fresh driver AND fresh store instance over the same
    // directory, as a separate process would see it. Every cell is
    // served from the result cache, so nothing at all is simulated —
    // not even the traces are decoded.
    const RegistryDelta warm_counts;
    ExperimentDriver warm;
    warm.setStore(std::make_shared<TraceStore>(dir_));
    auto warm_results =
        warm.run(configPlan(cfg, kWorkloads, 4), engineSpecs(kEngines));
    EXPECT_EQ(warm_counts("driver.trace.generated"), 0u);
    EXPECT_EQ(warm_counts("driver.cell.simulated"), 0u);
    EXPECT_EQ(warm_counts("store.result.hit"), cells);
    EXPECT_EQ(warm_counts("store.trace.hit"), 0u);

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
    const SweepPlan functional =
        configPlan(smallConfig(false), {"dss-qry17"}, 2);
    const SweepPlan timed = configPlan(smallConfig(true), {"dss-qry17"}, 2);
    const auto sms = engineSpecs({"sms"});
    auto store = std::make_shared<TraceStore>(dir_);
    ExperimentDriver driver;
    driver.setStore(store);

    RegistryDelta counts;
    driver.run(functional, sms);
    // baseline + sms
    EXPECT_EQ(counts("driver.cell.simulated"), 2u);

    counts = RegistryDelta();
    driver.run(timed, sms);
    // The trace is still reused...
    EXPECT_EQ(counts("driver.trace.generated"), 0u);
    // ...but results are keyed by the timing mode, so the baseline,
    // stride and sms lanes all re-simulate.
    EXPECT_EQ(counts("driver.cell.simulated"), 3u);

    counts = RegistryDelta();
    driver.run(timed, sms);
    EXPECT_EQ(counts("driver.cell.simulated"), 0u);

    // The other direction: the timed cells must not serve a
    // functional run either (their baseline carries cycles a
    // functional run reports as 0).
    auto replayed = driver.run(functional, sms);
    ExperimentDriver reference;
    expectSameResults(reference.run(functional, sms), replayed);
}

TEST_F(TraceStoreTest, DifferentSeedMissesTheStore)
{
    ExperimentConfig cfg = smallConfig(false);
    ExperimentDriver a;
    a.setStore(std::make_shared<TraceStore>(dir_));
    a.run(configPlan(cfg, {"dss-qry17"}, 2), engineSpecs({"sms"}));

    cfg.seed = 43;
    const RegistryDelta counts;
    ExperimentDriver b;
    b.setStore(std::make_shared<TraceStore>(dir_));
    b.run(configPlan(cfg, {"dss-qry17"}, 2), engineSpecs({"sms"}));
    EXPECT_EQ(counts("driver.trace.generated"), 1u);
    EXPECT_EQ(counts("driver.cell.simulated"), 2u);
}

TEST_F(TraceStoreTest, ForEachTraceReplaysFromStore)
{
    const SweepPlan plan =
        configPlan(smallConfig(false, 20000), kWorkloads, 2);

    const RegistryDelta cold_counts;
    ExperimentDriver cold;
    cold.setStore(std::make_shared<TraceStore>(dir_));
    std::vector<std::size_t> cold_sizes(kWorkloads.size());
    cold.forEachTrace(plan,
                      [&](std::size_t i, const Workload &,
                          const Trace &t) { cold_sizes[i] = t.size(); });
    EXPECT_EQ(cold_counts("driver.trace.generated"), kWorkloads.size());

    const RegistryDelta warm_counts;
    ExperimentDriver warm;
    warm.setStore(std::make_shared<TraceStore>(dir_));
    std::vector<std::size_t> warm_sizes(kWorkloads.size());
    warm.forEachTrace(plan,
                      [&](std::size_t i, const Workload &,
                          const Trace &t) { warm_sizes[i] = t.size(); });
    EXPECT_EQ(warm_counts("driver.trace.generated"), 0u);
    EXPECT_EQ(warm_counts("store.trace.hit"), kWorkloads.size());
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
    const SweepPlan plan = configPlan(smallConfig(false), {}, 2);

    RegistryDelta counts;
    ExperimentDriver first;
    first.setStore(std::make_shared<TraceStore>(dir_));
    auto a = first.runWorkload(plan, w, engineSpecs({"sms"}), digest);
    EXPECT_EQ(counts("driver.cell.simulated"), 2u);

    // Fresh driver + store instance (a new process): every cell,
    // the baseline included, hits.
    counts = RegistryDelta();
    ExperimentDriver second;
    second.setStore(std::make_shared<TraceStore>(dir_));
    auto b = second.runWorkload(plan, w, engineSpecs({"sms"}), digest);
    EXPECT_EQ(counts("driver.cell.simulated"), 0u);
    EXPECT_EQ(a.baselineMisses, b.baselineMisses);
    EXPECT_EQ(a.find("sms")->coverage, b.find("sms")->coverage);

    // Without a digest the store is (correctly) not consulted.
    counts = RegistryDelta();
    ExperimentDriver third;
    third.setStore(std::make_shared<TraceStore>(dir_));
    third.runWorkload(plan, w, engineSpecs({"sms"}));
    EXPECT_EQ(counts("driver.cell.simulated"), 2u);
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
    SweepPlan plan;
    plan.jobs = 2;
    ExperimentDriver driver;
    WorkloadResult r = driver.runWorkload(
        plan, workload,
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
    const RegistryDelta counts;
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
    EXPECT_EQ(counts("store.result.hit"), 1u);
    EXPECT_EQ(counts("store.result.miss"), 3u);

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
    const SweepPlan plan = configPlan(smallConfig(false), {"dss-qry17"}, 2);
    const auto sms = engineSpecs({"sms"});
    RegistryDelta counts;
    ExperimentDriver cold;
    cold.setStore(std::make_shared<TraceStore>(dir_));
    auto cold_results = cold.run(plan, sms);
    EXPECT_EQ(counts("driver.cell.simulated"), 2u);

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

    counts = RegistryDelta();
    ExperimentDriver warm;
    warm.setStore(std::make_shared<TraceStore>(dir_));
    auto warm_results = warm.run(plan, sms);
    // Cache rejected, re-simulated.
    EXPECT_EQ(counts("driver.cell.simulated"), 2u);
    EXPECT_EQ(counts("store.result.hit"), 0u);
    expectSameResults(cold_results, warm_results);

    // The re-simulation re-persisted a good entry.
    counts = RegistryDelta();
    ExperimentDriver third;
    third.setStore(std::make_shared<TraceStore>(dir_));
    expectSameResults(cold_results, third.run(plan, sms));
    EXPECT_EQ(counts("driver.cell.simulated"), 0u);
}

TEST_F(TraceStoreTest, TruncatedResultEntryFallsBackToSimulation)
{
    const SweepPlan plan = configPlan(smallConfig(false), {"dss-qry17"}, 2);
    const auto sms = engineSpecs({"sms"});
    ExperimentDriver cold;
    cold.setStore(std::make_shared<TraceStore>(dir_));
    auto cold_results = cold.run(plan, sms);

    for (const auto &de :
         std::filesystem::recursive_directory_iterator(dir_)) {
        if (de.path().extension() != ".res")
            continue;
        std::filesystem::resize_file(de.path(), 10);
    }

    const RegistryDelta counts;
    ExperimentDriver warm;
    warm.setStore(std::make_shared<TraceStore>(dir_));
    auto warm_results = warm.run(plan, sms);
    EXPECT_EQ(counts("driver.cell.simulated"), 2u);
    expectSameResults(cold_results, warm_results);
}

TEST_F(TraceStoreTest, MalformedSidecarsAreRefusedNotMisread)
{
    // Sidecars are read strictly: a repeated key, or a value that
    // does not parse whole, refuses the entry instead of reading the
    // last value or a parsed prefix. A refused trace sidecar makes
    // findTrace miss (its digest keys the results the driver serves
    // at schedule time); a refused result sidecar is not listed.
    namespace fs = std::filesystem;
    auto sidecar = [](const fs::path &dir) {
        for (const auto &de : fs::directory_iterator(dir))
            if (de.path().extension() == ".meta")
                return de.path();
        return fs::path();
    };
    int run = 0;
    auto next_dir = [&] { return dir_ + "/" + std::to_string(run++); };

    const TraceKey key{"unit-test", 500, 42};
    for (const char *appended :
         {"count=7\n", "digest=0000000000000007\n"}) {
        SCOPED_TRACE(appended);
        const std::string dir = next_dir();
        TraceStore store(dir);
        ASSERT_TRUE(store.putTrace(key, sampleTrace()).has_value());
        ASSERT_TRUE(store.findTrace(key).has_value());
        std::ofstream(sidecar(fs::path(dir) / "traces"), std::ios::app)
            << appended;
        EXPECT_FALSE(store.findTrace(key).has_value());
    }

    const std::pair<std::string, std::string> edits[] = {
        {"records=1000\n", "records=1000abc\n"},
        {"coverage=0.5\n", "coverage=zz\n"},
        {"seed=42\n", "seed=42\nseed=7\n"},
    };
    for (const auto &[from, to] : edits) {
        SCOPED_TRACE(to);
        const std::string dir = next_dir();
        TraceStore store(dir);
        ASSERT_TRUE(store.putResult(0xA, 0xB, 0xC, StoredEngineResult{},
                                    {"wl", "eng", 1000, 42, 0.5, 0.9,
                                     1.25, true}));
        ASSERT_EQ(store.listResults().size(), 1u);
        const fs::path meta = sidecar(fs::path(dir) / "results");
        std::string text;
        {
            std::ifstream in(meta);
            text.assign(std::istreambuf_iterator<char>(in), {});
        }
        const std::size_t at = text.find(from);
        ASSERT_NE(at, std::string::npos);
        text.replace(at, from.size(), to);
        std::ofstream(meta, std::ios::trunc) << text;
        EXPECT_TRUE(store.listResults().empty());
    }
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
    const SweepPlan plan = configPlan(smallConfig(false), {}, 2);
    const auto engines = engineSpecs({"sms", "stems"});

    RegistryDelta counts;
    ExperimentDriver first;
    first.setStore(std::make_shared<TraceStore>(dir_));
    auto a = first.runWorkload(plan, w, engines, digest);
    EXPECT_EQ(counts("driver.cell.simulated"), 3u);

    counts = RegistryDelta();
    ExperimentDriver second;
    second.setStore(std::make_shared<TraceStore>(dir_));
    auto b = second.runWorkload(plan, w, engines, digest);
    EXPECT_EQ(counts("driver.cell.simulated"), 0u);
    EXPECT_EQ(counts("store.result.hit"), 3u);
    expectSameResults({a}, {b});

    // Without a digest nothing is cached or served.
    counts = RegistryDelta();
    ExperimentDriver third;
    third.setStore(std::make_shared<TraceStore>(dir_));
    third.runWorkload(plan, w, engines);
    EXPECT_EQ(counts("driver.cell.simulated"), 3u);
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

    const SweepPlan plan = configPlan(cfg, {"dss-qry17"}, 2);

    RegistryDelta counts;
    ExperimentDriver cold;
    cold.setStore(std::make_shared<TraceStore>(dir_));
    cold.run(plan, {spec});
    // baseline + stems
    EXPECT_EQ(counts("driver.cell.simulated"), 2u);

    counts = RegistryDelta();
    ExperimentDriver warm;
    warm.setStore(std::make_shared<TraceStore>(dir_));
    auto results = warm.run(plan, {spec});
    // Not served from the cache.
    EXPECT_EQ(counts("driver.cell.simulated"), 1u);
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

    const SweepPlan plan = configPlan(cfg, {"dss-qry17"}, 2);

    RegistryDelta counts;
    ExperimentDriver cold;
    cold.setStore(std::make_shared<TraceStore>(dir_));
    auto cold_results = cold.run(plan, {spec});
    EXPECT_EQ(counts("driver.cell.simulated"), 2u);

    counts = RegistryDelta();
    ExperimentDriver warm;
    warm.setStore(std::make_shared<TraceStore>(dir_));
    auto warm_results = warm.run(plan, {spec});
    EXPECT_EQ(counts("driver.cell.simulated"), 0u);
    const auto &extra = warm_results.at(0).engines.at(0).extra;
    EXPECT_EQ(extra.at("marker"), 2.5);
    EXPECT_EQ(extra.at("other"), -0.125);
    expectSameResults(cold_results, warm_results);

    // A different probe identity is a different cache key.
    spec.probeId = "marker-probe-v2";
    counts = RegistryDelta();
    ExperimentDriver bumped;
    bumped.setStore(std::make_shared<TraceStore>(dir_));
    bumped.run(plan, {spec});
    EXPECT_EQ(counts("driver.cell.simulated"), 1u);
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
    const RegistryDelta counts;
    TraceStore store(dir_);
    auto blob = sampleCheckpointBlob(100);
    StoredCheckpointMeta meta{"wl", "stems", 100, 40};
    ASSERT_TRUE(store.putCheckpoint(0xA, 0xB, 100, 0xC, blob, meta));
    ASSERT_TRUE(store.putCheckpoint(0xA, 0xB, 50, 0xD,
                                    sampleCheckpointBlob(50),
                                    {"wl", "stems", 50, 40}));

    auto loaded = store.loadCheckpoint(0xA, 0xB, 100, 0xC);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->bytes(), blob); // byte-for-byte

    // Keys enumerate by ascending index, each with its state digest.
    EXPECT_EQ(store.listCheckpoints(0xA, 0xB),
              (std::vector<StoredCheckpointKey>{{50, 0xD}, {100, 0xC}}));
    EXPECT_TRUE(store.listCheckpoints(0xA, 0xE).empty());
    EXPECT_TRUE(store.listCheckpoints(0xE, 0xB).empty());

    // Any other key misses.
    EXPECT_FALSE(store.loadCheckpoint(0xA, 0xB, 100, 0xD)
                     .has_value());
    EXPECT_FALSE(store.loadCheckpoint(0xA, 0xB, 99, 0xC)
                     .has_value());
    EXPECT_EQ(counts("store.ckpt.hit"), 1u);
    EXPECT_EQ(counts("store.ckpt.miss"), 2u);

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
    // Both files of the pair are gone, so the key listing is too.
    EXPECT_TRUE(store.listCheckpoints(1, 2).empty());
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
    EXPECT_TRUE(store.listCheckpoints(7, 8).empty());
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
        EXPECT_EQ(loaded->bytes(), sampleCheckpointBlob(index));
    }
    auto shared = store.loadCheckpoint(spec, cfg, 500, 0xABC);
    ASSERT_TRUE(shared.has_value());
    EXPECT_EQ(shared->bytes(), shared_blob);

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
    EXPECT_EQ(loaded->bytes(), blob);
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
    const SweepPlan plan = configPlan(smallConfig(false), {"dss-qry17"}, 2);
    EngineOptions small_rmob;
    small_rmob.bufferEntries = 256;

    RegistryDelta counts;
    ExperimentDriver cold;
    cold.setStore(std::make_shared<TraceStore>(dir_));
    cold.run(plan, {EngineSpec("stems")});
    EXPECT_EQ(counts("driver.cell.simulated"), 2u);

    // Same engine name, different overrides: must not be served
    // from the default-options entry.
    counts = RegistryDelta();
    ExperimentDriver swept;
    swept.setStore(std::make_shared<TraceStore>(dir_));
    swept.run(plan, {EngineSpec("stems", "stems-small", small_rmob)});
    EXPECT_EQ(counts("driver.cell.simulated"), 1u);

    // While a *label-only* change shares the entry (labels are
    // cosmetic; the simulation is identical).
    counts = RegistryDelta();
    ExperimentDriver relabeled;
    relabeled.setStore(std::make_shared<TraceStore>(dir_));
    auto results =
        relabeled.run(plan, {EngineSpec("stems", "stems-renamed")});
    EXPECT_EQ(counts("driver.cell.simulated"), 0u);
    EXPECT_EQ(results.at(0).engines.at(0).engine, "stems-renamed");
}

} // namespace
} // namespace stems