/**
 * @file
 * Unit and property tests for the workload generators: determinism,
 * structural sanity and the per-class statistical signatures the
 * paper's characterization (Figures 6-8) relies on.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "analysis/coverage.hh"
#include "common/stats.hh"
#include "workloads/commercial.hh"
#include "workloads/dss.hh"
#include "workloads/registry.hh"
#include "workloads/scientific.hh"
#include "workloads/workload.hh"

namespace stems {
namespace {

TEST(PageAllocator, NeverRepeatsAndAligned)
{
    PageAllocator a(Rng(1), 1 << 20);
    std::set<Addr> seen;
    for (int i = 0; i < 20000; ++i) {
        Addr p = a.alloc();
        EXPECT_EQ(p % kRegionBytes, 0u);
        EXPECT_TRUE(seen.insert(p).second) << "page repeated";
    }
    EXPECT_EQ(a.allocated(), 20000u);
}

TEST(PageAllocator, DeterministicForSeed)
{
    PageAllocator a(Rng(7), 1 << 16);
    PageAllocator b(Rng(7), 1 << 16);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.alloc(), b.alloc());
}

TEST(SpatialPattern, StableOffsetsAlwaysPresent)
{
    Rng rng(3);
    SpatialPattern p(rng, 4, 3, 0.5);
    ASSERT_EQ(p.stableOffsets().size(), 4u);
    Rng visit(9);
    for (int i = 0; i < 50; ++i) {
        auto offs = p.materialize(visit);
        for (unsigned stable : p.stableOffsets()) {
            bool found = false;
            for (unsigned o : offs)
                if (o == stable)
                    found = true;
            EXPECT_TRUE(found);
        }
        EXPECT_GE(offs.size(), 4u);
        EXPECT_LE(offs.size(), 7u);
    }
}

TEST(SpatialPattern, SequentialLayout)
{
    Rng rng(3);
    SpatialPattern p(rng, 8, 0, 0.0, /*sequential=*/true);
    auto offs = p.materialize(rng);
    ASSERT_EQ(offs.size(), 8u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(offs[i], i);
}

TEST(SpatialPattern, OffsetsAreDistinctAndInRange)
{
    Rng rng(11);
    for (int trial = 0; trial < 20; ++trial) {
        SpatialPattern p(rng, 10, 6, 1.0);
        auto offs = p.materialize(rng);
        std::set<unsigned> set(offs.begin(), offs.end());
        EXPECT_EQ(set.size(), offs.size());
        for (unsigned o : offs)
            EXPECT_LT(o, kBlocksPerRegion);
    }
}

TEST(SequenceLibrary, ReplayWithoutGlitchesIsExact)
{
    Rng rng(5);
    SequenceLibrary lib(rng, 1000, 10, 20, 30);
    Rng run(6);
    auto a = lib.replay(3, run, {});
    auto b = lib.replay(3, run, {});
    EXPECT_EQ(a, b);
    EXPECT_GE(a.size(), 20u);
    EXPECT_LE(a.size(), 30u);
}

TEST(SequenceLibrary, GlitchesPerturbBounded)
{
    Rng rng(5);
    SequenceLibrary lib(rng, 1000, 4, 100, 100);
    Rng run(6);
    auto clean = lib.replay(0, run, {});
    SequenceLibrary::GlitchModel g{0.1, 0.05, 0.05};
    auto noisy = lib.replay(0, run, g);
    // Length stays in the right ballpark.
    EXPECT_GT(noisy.size(), 70u);
    EXPECT_LT(noisy.size(), 130u);
}

TEST(SequenceLibrary, PickIsBiasedTowardRecent)
{
    Rng rng(5);
    SequenceLibrary lib(rng, 100, 50, 10, 10);
    Rng run(8);
    int repeats = 0;
    std::size_t prev = lib.pick(run);
    for (int i = 0; i < 500; ++i) {
        std::size_t cur = lib.pick(run);
        if (cur == prev)
            ++repeats;
        prev = cur;
    }
    // Uniform picking would repeat ~2% of the time; recency bias must
    // push this far higher.
    EXPECT_GT(repeats, 40);
}

// ---- whole-suite properties ----

class WorkloadSuiteTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadSuiteTest, DeterministicGeneration)
{
    auto w = makeWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    Trace a = w->generate(42, 20000);
    Trace b = w->generate(42, 20000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].vaddr, b[i].vaddr);
        ASSERT_EQ(a[i].pc, b[i].pc);
        ASSERT_EQ(a[i].kind, b[i].kind);
        ASSERT_EQ(a[i].depDist, b[i].depDist);
    }
}

TEST_P(WorkloadSuiteTest, SeedChangesTrace)
{
    auto w = makeWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    Trace a = w->generate(1, 5000);
    Trace b = w->generate(2, 5000);
    // Some generators (ocean's regular sweeps) have seed-independent
    // address streams; the random draws (access kinds, compute gaps)
    // must still differ.
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i) {
        differs = a[i].vaddr != b[i].vaddr ||
                  a[i].kind != b[i].kind ||
                  a[i].cpuOps != b[i].cpuOps;
    }
    EXPECT_TRUE(differs);
}

TEST_P(WorkloadSuiteTest, StructuralSanity)
{
    auto w = makeWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    Trace t = w->generate(42, 50000);
    ASSERT_GE(t.size(), 50000u);
    // Generators stop at a natural boundary shortly past the target.
    EXPECT_LT(t.size(), 50000u + 2'000'000u);
    TraceSummary s = summarize(t);
    EXPECT_GT(s.reads, s.records / 2);
    EXPECT_GT(s.distinctRegions, 50u);
}

TEST_P(WorkloadSuiteTest, ReservesOnceAtBenchmarkLengths)
{
    // The benchmark's lengths (a sweep and its extension): the trace
    // fits the one reservation, so its capacity is exactly that.
    auto w = makeWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    for (std::size_t n : {std::size_t{1'000'000}, std::size_t{1'250'000}}) {
        EXPECT_EQ(w->generate(42, n).capacity(), generatorReserve(n))
            << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadSuiteTest,
    ::testing::Values("web-apache", "web-zeus", "oltp-db2",
                      "oltp-oracle", "dss-qry2", "dss-qry16",
                      "dss-qry17", "em3d", "ocean", "sparse"));

TEST(Registry, SuiteOrderMatchesPaper)
{
    auto all = makeAllWorkloads();
    ASSERT_EQ(all.size(), 10u);
    EXPECT_EQ(all[0]->name(), "web-apache");
    EXPECT_EQ(all[3]->name(), "oltp-oracle");
    EXPECT_EQ(all[4]->name(), "dss-qry2");
    EXPECT_EQ(all[7]->name(), "em3d");
    EXPECT_EQ(all[9]->name(), "sparse");
}

TEST(Registry, UnknownNameReturnsNull)
{
    EXPECT_EQ(makeWorkload("no-such-workload"), nullptr);
}

// ---- class signatures (coarse versions of Figure 6) ----

TEST(WorkloadSignature, DssIsSpatiallyNotTemporallyPredictable)
{
    auto w = makeWorkload("dss-qry17");
    Trace t = w->generate(42, 300000);
    JointCoverageAnalyzer a;
    a.run(t);
    const JointCoverage &jc = a.result();
    ASSERT_GT(jc.total(), 1000u);
    EXPECT_GT(jc.spatialFraction(), 0.5);
    EXPECT_LT(jc.temporalFraction(), 0.3);
}

TEST(WorkloadSignature, Em3dIsTemporallyNearPerfect)
{
    auto w = makeWorkload("em3d");
    Trace t = w->generate(42, 700000);
    JointCoverageAnalyzer a;
    a.run(t);
    const JointCoverage &jc = a.result();
    ASSERT_GT(jc.total(), 1000u);
    // After the first (training) iteration the traversal repeats
    // exactly.
    EXPECT_GT(jc.temporalFraction(), 0.6);
}

TEST(WorkloadSignature, OltpHasAllFourClasses)
{
    auto w = makeWorkload("oltp-db2");
    Trace t = w->generate(42, 800000);
    JointCoverageAnalyzer a;
    // Measure from warmed state, as the paper does.
    a.run(t, t.size() / 2);
    const JointCoverage &jc = a.result();
    ASSERT_GT(jc.total(), 1000u);
    // Every class is a significant fraction (paper Figure 6). The
    // thresholds are loose because this test trace is much shorter
    // than the benchmark traces (temporal training is still ramping).
    EXPECT_GT(ratio(jc.both, jc.total()), 0.03);
    EXPECT_GT(ratio(jc.tmsOnly, jc.total()), 0.025);
    EXPECT_GT(ratio(jc.smsOnly, jc.total()), 0.05);
    EXPECT_GT(ratio(jc.neither, jc.total()), 0.15);
}

} // namespace
} // namespace stems
