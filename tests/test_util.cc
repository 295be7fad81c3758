#include "test_util.hh"

#include <filesystem>
#include <utility>

#include <unistd.h>

#include "common/rng.hh"

namespace stems {
namespace test {

std::string
uniqueTestTag()
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "." +
                       info->name() + "." +
                       std::to_string(::getpid());
    for (char &c : name)
        if (c == '/')
            c = '_';
    return name;
}

std::string
uniqueTempPath(const std::string &stem, const std::string &suffix)
{
    return testing::TempDir() + stem + "_" + uniqueTestTag() +
           suffix;
}

void
TempDirTest::SetUp()
{
    dir_ = uniqueTempPath("stems_test_dir");
    std::filesystem::remove_all(dir_);
}

void
TempDirTest::TearDown()
{
    std::filesystem::remove_all(dir_);
}

Trace
sampleTrace(std::uint64_t salt)
{
    TraceBuilder b;
    for (int i = 0; i < 500; ++i) {
        b.read(0x10000 + (i * 64) + salt * 0x100000, 0x400 + i % 7,
               i % 3, i % 5 == 1);
        if (i % 20 == 0)
            b.write(0x90000 + i * 64, 0x500);
        if (i % 50 == 0)
            b.invalidate(0x10000 + i * 64);
    }
    return b.take();
}

ExperimentConfig
smallConfig(bool timing, std::size_t records)
{
    ExperimentConfig cfg;
    cfg.traceRecords = records;
    cfg.enableTiming = timing;
    return cfg;
}

SweepPlan
configPlan(const ExperimentConfig &config,
           std::vector<std::string> workloads, unsigned jobs)
{
    SweepPlan plan;
    plan.workloads = std::move(workloads);
    plan.records = config.traceRecords;
    plan.seed = config.seed;
    plan.warmupFraction = config.warmupFraction;
    plan.warmupRecords = config.warmupRecords;
    plan.timing = config.enableTiming;
    plan.jobs = jobs;
    return plan;
}

RegistryDelta::RegistryDelta()
    : RegistryDelta(MetricsRegistry::instance().snapshot())
{
}

RegistryDelta::RegistryDelta(MetricsSnapshot base) : base_(std::move(base))
{
}

std::uint64_t
RegistryDelta::operator()(const std::string &counter) const
{
    return (*this)(counter, MetricsRegistry::instance().snapshot());
}

std::uint64_t
RegistryDelta::operator()(const std::string &counter,
                          const MetricsSnapshot &at) const
{
    auto value = [&](const MetricsSnapshot &s) {
        auto it = s.counters.find(counter);
        return it == s.counters.end() ? std::uint64_t{0} : it->second;
    };
    return value(at) - value(base_);
}

void
expectSameTrace(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].vaddr, b[i].vaddr) << "record " << i;
        EXPECT_EQ(a[i].pc, b[i].pc) << "record " << i;
        EXPECT_EQ(a[i].cpuOps, b[i].cpuOps) << "record " << i;
        EXPECT_EQ(a[i].depDist, b[i].depDist) << "record " << i;
        EXPECT_EQ(a[i].kind, b[i].kind) << "record " << i;
    }
}

void
expectSameStats(const SimStats &a, const SimStats &b)
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
    // Bitwise, not approximate: determinism is the contract.
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
}

void
expectSameResults(const std::vector<WorkloadResult> &a,
                  const std::vector<WorkloadResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].workloadClass, b[i].workloadClass);
        EXPECT_EQ(a[i].baselineMisses, b[i].baselineMisses);
        EXPECT_EQ(a[i].baselineIpc, b[i].baselineIpc);
        EXPECT_EQ(a[i].baselineCycles, b[i].baselineCycles);
        EXPECT_EQ(a[i].strideCycles, b[i].strideCycles);
        ASSERT_EQ(a[i].engines.size(), b[i].engines.size());
        for (std::size_t j = 0; j < a[i].engines.size(); ++j) {
            const EngineResult &ea = a[i].engines[j];
            const EngineResult &eb = b[i].engines[j];
            EXPECT_EQ(ea.engine, eb.engine);
            EXPECT_EQ(ea.coverage, eb.coverage);
            EXPECT_EQ(ea.uncovered, eb.uncovered);
            EXPECT_EQ(ea.overprediction, eb.overprediction);
            EXPECT_EQ(ea.speedup, eb.speedup);
            expectSameStats(ea.stats, eb.stats);
        }
    }
}

void
BulkStateEngine::saveState(StateWriter &w) const
{
    Rng rng(0xB01C);
    for (std::size_t n = 0; n < stateBytes_;) {
        switch (rng.below(3)) {
        case 0:
            w.u8(static_cast<std::uint8_t>(rng.next()));
            n += 1;
            break;
        case 1:
            w.u32(rng.next());
            n += 4;
            break;
        default:
            w.u64(std::uint64_t{rng.next()} << 32 | rng.next());
            n += 8;
        }
    }
}

} // namespace test
} // namespace stems
