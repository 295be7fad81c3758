#include "workloads/dss.hh"

#include <vector>

#include "common/log.hh"

namespace stems {

DssWorkload::DssWorkload(DssParams params) : params_(std::move(params))
{
    if (params_.scanDensity == 0 ||
        params_.scanDensity + params_.scanUnstableBlocks >
            kBlocksPerRegion) {
        fatal("DssWorkload: bad scan density");
    }
    if (params_.scanPatternVariants == 0)
        fatal("DssWorkload: need at least one scan pattern");
}

Trace
DssWorkload::generate(std::uint64_t seed,
                      std::size_t target_records) const
{
    const DssParams &p = params_;
    Rng master(seed ^ 0xd55d55d55ULL);
    Rng init = master.fork(1);
    Rng run = master.fork(2);

    // Scanned table: an endless supply of fresh pages.
    PageAllocator table_alloc(master.fork(3), std::uint64_t{1} << 26);

    // Dense sequential scan patterns (database pages share a layout;
    // variants model alternating record layouts).
    std::vector<SpatialPattern> scan_patterns;
    for (unsigned v = 0; v < p.scanPatternVariants; ++v) {
        scan_patterns.emplace_back(init, p.scanDensity,
                                   p.scanUnstableBlocks,
                                   p.scanUnstableProb,
                                   /*sequential=*/true);
    }

    // Join build side: hot pages, sparse per-type patterns, and a
    // small library of directory-walk sequences that recur.
    PageAllocator build_alloc(master.fork(4), std::uint64_t{1} << 24,
                              Addr{1} << 41);
    std::vector<Addr> build_pages(p.joinHotPages);
    for (Addr &a : build_pages)
        a = build_alloc.alloc();
    SpatialPattern probe_pattern(init, 2, 2, 0.4);
    SequenceLibrary dir_library(init, p.joinHotPages,
                                p.numDirSequences, p.dirSeqLen,
                                p.dirSeqLen);

    // Fresh memory the hash probes land in.
    PageAllocator probe_alloc(master.fork(5), std::uint64_t{1} << 26,
                              Addr{1} << 42);

    TraceBuilder b;
    b.reserve(generatorReserve(target_records));
    auto cpu_ops = [&]() { return run.range(p.cpuOpsMin, p.cpuOpsMax); };

    // Recently scanned pages (page base + layout variant), the pool
    // reread runs draw from.
    std::vector<std::pair<Addr, unsigned>> scan_history;
    constexpr std::size_t kHistoryCap = 4096;

    auto emit_page = [&](Addr base, unsigned variant) {
        auto offsets = scan_patterns[variant].materialize(
            run, p.intraSwapProb);
        // One scan code site per variant; the per-field PC encodes
        // the offset as in real unrolled scan code.
        Pc pc_base = Pc{0xB0000} + variant * 0x1000;
        for (unsigned off : offsets)
            b.read(addrFromRegionOffset(base, off), pc_base + off * 4,
                   cpu_ops(), false);
    };

    auto scan_page = [&]() {
        Addr base = table_alloc.alloc();
        unsigned variant =
            p.scanPatternVariants == 1
                ? 0
                : run.below(p.scanPatternVariants);
        emit_page(base, variant);
        if (scan_history.size() < kHistoryCap)
            scan_history.push_back({base, variant});
    };

    auto reread_run = [&]() {
        // Re-scan a contiguous run of previously scanned pages in
        // their original order (spool reread).
        if (scan_history.size() < p.rereadRunPages * 2)
            return;
        std::size_t start = run.below(static_cast<std::uint32_t>(
            scan_history.size() - p.rereadRunPages));
        for (unsigned i = 0; i < p.rereadRunPages; ++i) {
            auto [base, variant] = scan_history[start + i];
            emit_page(base, variant);
        }
    };

    auto probe_burst = [&]() {
        for (unsigned i = 0; i < p.probesPerBurst; ++i) {
            if (run.chance(p.probeDirectoryFraction)) {
                // Directory walk: recurring pointer chase over the
                // build side (the small temporal component of DSS).
                std::size_t si = dir_library.pick(run);
                auto walk = dir_library.replay(si, run, {});
                b.breakChain();
                for (std::uint32_t page : walk) {
                    Addr base = build_pages[page];
                    auto offsets = probe_pattern.materialize(run);
                    bool first = true;
                    std::size_t trigger_record = 0;
                    for (unsigned off : offsets) {
                        if (first) {
                            trigger_record = b.size();
                            b.read(addrFromRegionOffset(base, off),
                                   Pc{0xCC000} + off * 4, cpu_ops(),
                                   true);
                            first = false;
                        } else {
                            b.readWithProducer(
                                addrFromRegionOffset(base, off),
                                Pc{0xCC000} + off * 4, cpu_ops(),
                                trigger_record);
                        }
                    }
                }
            } else {
                // Hash probe into fresh memory: unpredictable.
                Addr base = probe_alloc.alloc();
                unsigned off = run.below(kBlocksPerRegion);
                b.read(addrFromRegionOffset(base, off), Pc{0xC8000},
                       cpu_ops(), true);
            }
        }
    };

    while (b.size() < target_records) {
        scan_page();
        if (run.chance(p.joinProbeProb))
            probe_burst();
        if (p.rereadProb > 0 && run.chance(p.rereadProb))
            reread_run();
    }
    return b.take();
}

} // namespace stems

// ---- registry hookup (paper suite, figure order) ----

#include "workloads/registry.hh"

namespace stems {
namespace {

std::unique_ptr<Workload>
makeDssQry2()
{
    // TPC-H Q2 (join-dominated): scans plus frequent probe bursts.
    DssParams p;
    p.name = "dss-qry2";
    p.scanDensity = 12;
    p.intraSwapProb = 0.02;
    p.joinProbeProb = 0.85;
    p.probesPerBurst = 6;
    p.probeDirectoryFraction = 0.3;
    return std::make_unique<DssWorkload>(p);
}

std::unique_ptr<Workload>
makeDssQry16()
{
    // TPC-H Q16 (join-dominated, two record layouts): the alternating
    // scan patterns and higher swap rate reproduce its weak
    // intra-generation repetition (Figure 8's outlier).
    DssParams p;
    p.name = "dss-qry16";
    p.scanDensity = 10;
    p.scanUnstableBlocks = 4;
    p.scanUnstableProb = 0.4;
    p.intraSwapProb = 0.18;
    p.scanPatternVariants = 2;
    p.joinProbeProb = 0.8;
    p.probesPerBurst = 6;
    p.probeDirectoryFraction = 0.25;
    return std::make_unique<DssWorkload>(p);
}

std::unique_ptr<Workload>
makeDssQry17()
{
    // TPC-H Q17 (balanced scan-join): scan-heavy with lighter probes.
    DssParams p;
    p.name = "dss-qry17";
    p.scanDensity = 16;
    p.intraSwapProb = 0.02;
    p.joinProbeProb = 0.75;
    p.probesPerBurst = 5;
    p.probeDirectoryFraction = 0.25;
    return std::make_unique<DssWorkload>(p);
}

const WorkloadRegistrar registerQry2("dss-qry2", 4, makeDssQry2);
const WorkloadRegistrar registerQry16("dss-qry16", 5, makeDssQry16);
const WorkloadRegistrar registerQry17("dss-qry17", 6, makeDssQry17);

} // namespace
} // namespace stems
