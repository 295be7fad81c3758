#include "workloads/commercial.hh"

#include <vector>

#include "common/log.hh"

namespace stems {

CommercialWorkload::CommercialWorkload(CommercialParams params)
    : params_(std::move(params))
{
    if (params_.hotPages == 0 || params_.numPageTypes == 0)
        fatal("CommercialWorkload: bad parameters");
}

Trace
CommercialWorkload::generate(std::uint64_t seed,
                             std::size_t target_records) const
{
    const CommercialParams &p = params_;
    Rng master(seed ^ 0xc033e4c1a1ULL);
    Rng init = master.fork(1);
    Rng run = master.fork(2);

    // --- Static structure (fixed for a given seed) -----------------

    // Hot buffer pool: pages scattered through the address space.
    PageAllocator hot_alloc(master.fork(3), std::uint64_t{1} << 24);
    std::vector<Addr> hot_pages(p.hotPages);
    for (Addr &a : hot_pages)
        a = hot_alloc.alloc();

    // Page types and their visit patterns. The visiting code for a
    // type uses a distinct PC per touched field so trigger PCs are
    // stable per type.
    std::vector<std::uint16_t> page_type(p.hotPages);
    for (auto &t : page_type)
        t = static_cast<std::uint16_t>(init.below(p.numPageTypes));

    std::vector<SpatialPattern> patterns;
    patterns.reserve(p.numPageTypes);
    for (unsigned t = 0; t < p.numPageTypes; ++t) {
        unsigned stable = init.range(p.stableBlocksMin,
                                     p.stableBlocksMax);
        patterns.emplace_back(init, stable, p.unstableBlocks,
                              p.unstableProb);
    }
    auto type_pc = [](unsigned type) {
        return Pc{0x10000} + Pc{type} * 0x400;
    };

    SequenceLibrary library(init, p.hotPages, p.numSequences,
                            p.minSeqLen, p.maxSeqLen);

    // Fresh memory for uncorrelated noise and content scans.
    PageAllocator fresh_alloc(master.fork(4), std::uint64_t{1} << 24,
                              Addr{1} << 40);

    // --- Dynamic generation ----------------------------------------

    TraceBuilder b;
    b.reserve(generatorReserve(target_records));
    std::vector<Addr> recent_blocks; // invalidation candidates
    std::size_t recent_pos = 0;
    constexpr std::size_t kRecentCap = 256;

    auto remember = [&](Addr a) {
        if (recent_blocks.size() < kRecentCap) {
            recent_blocks.push_back(a);
        } else {
            recent_blocks[recent_pos] = a;
            recent_pos = (recent_pos + 1) % kRecentCap;
        }
    };

    auto cpu_ops = [&]() { return run.range(p.cpuOpsMin, p.cpuOpsMax); };

    // Index of the previous page's trigger read: page-to-page
    // chases link header to header, so the chain runs through the
    // triggers while record accesses overlap with the next chase
    // (the out-of-order parallelism that blunts SMS's OLTP gains,
    // paper Section 2.4).
    std::ptrdiff_t prev_trigger = -1;

    auto visit_page = [&](Addr base, unsigned type) {
        auto offsets =
            patterns[type].materialize(run, p.intraSwapProb);
        bool first = true;
        std::size_t trigger_record = 0;
        for (unsigned off : offsets) {
            Addr a = addrFromRegionOffset(base, off);
            Pc pc = type_pc(type) + off * 4;
            if (first) {
                trigger_record = b.size();
                if (prev_trigger >= 0 && run.chance(p.chaseProb)) {
                    b.readWithProducer(
                        a, pc, cpu_ops(),
                        static_cast<std::size_t>(prev_trigger));
                } else {
                    b.read(a, pc, cpu_ops(), false);
                }
                prev_trigger =
                    static_cast<std::ptrdiff_t>(trigger_record);
                first = false;
            } else if (run.chance(p.writeProb)) {
                b.write(a, pc, cpu_ops());
            } else {
                // Record fields are reached through the page header
                // (slot directory): they depend on the trigger load
                // but not on one another.
                b.readWithProducer(a, pc, cpu_ops(), trigger_record);
            }
            remember(a);
        }
    };

    auto noise_access = [&]() {
        // A one-off access to fresh memory: never repeats, no spatial
        // structure -- the unpredictable floor of Figure 6.
        Addr page = fresh_alloc.alloc();
        unsigned off = run.below(kBlocksPerRegion);
        Pc pc = Pc{0x9F000} + run.below(64) * 4;
        b.read(addrFromRegionOffset(page, off), pc, cpu_ops(), false);
    };

    auto scan_burst = [&]() {
        // Content scan over fresh pages: compulsory misses with a
        // dense sequential per-page pattern by a single code site.
        unsigned pages = run.range(p.scanPagesMin, p.scanPagesMax);
        for (unsigned i = 0; i < pages; ++i) {
            Addr base = fresh_alloc.alloc();
            for (unsigned off = 0; off < p.scanDensity; ++off) {
                b.read(addrFromRegionOffset(base, off),
                       Pc{0xA0000} + off * 4, cpu_ops(), false);
            }
        }
    };

    while (b.size() < target_records) {
        std::size_t si = library.pick(run);
        auto pages = library.replay(si, run, p.glitches);
        b.breakChain();
        prev_trigger = -1;
        for (std::uint32_t page_idx : pages) {
            visit_page(hot_pages[page_idx], page_type[page_idx]);
            if (run.chance(p.noiseProb))
                noise_access();
            if (p.invalidateProb > 0 && !recent_blocks.empty() &&
                run.chance(p.invalidateProb)) {
                b.invalidate(recent_blocks[run.below(
                    static_cast<std::uint32_t>(
                        recent_blocks.size()))]);
            }
        }
        if (p.scanBurstProb > 0 && run.chance(p.scanBurstProb))
            scan_burst();
    }
    return b.take();
}

} // namespace stems

// ---- registry hookup (paper suite, figure order) ----

#include "workloads/registry.hh"

namespace stems {
namespace {

std::unique_ptr<Workload>
makeWebApache()
{
    // Web serving: request-metadata pointer chases plus heavy static
    // content scanning over fresh pages -- tilted spatial relative to
    // OLTP, with plenty of off-chip read stalls (Apache benefits the
    // most from prefetching in Figure 10).
    CommercialParams p;
    p.name = "web-apache";
    p.cls = WorkloadClass::kWeb;
    p.hotPages = 98304;
    p.numSequences = 320;
    p.minSeqLen = 96;
    p.maxSeqLen = 224;
    p.numPageTypes = 20;
    p.stableBlocksMin = 3;
    p.stableBlocksMax = 6;
    p.chaseProb = 0.8;
    p.noiseProb = 0.35;
    p.scanBurstProb = 0.5;
    p.scanPagesMin = 6;
    p.scanPagesMax = 16;
    p.scanDensity = 16;
    p.invalidateProb = 0.03;
    p.cpuOpsMin = 8;
    p.cpuOpsMax = 20;
    return std::make_unique<CommercialWorkload>(p);
}

std::unique_ptr<Workload>
makeWebZeus()
{
    // Zeus: same structure as Apache but a leaner event-driven server
    // with fewer off-chip stalls and slightly denser content scans.
    CommercialParams p;
    p.name = "web-zeus";
    p.cls = WorkloadClass::kWeb;
    p.hotPages = 81920;
    p.numSequences = 288;
    p.minSeqLen = 96;
    p.maxSeqLen = 208;
    p.numPageTypes = 16;
    p.stableBlocksMin = 3;
    p.stableBlocksMax = 5;
    p.chaseProb = 0.8;
    p.noiseProb = 0.35;
    p.scanBurstProb = 0.45;
    p.scanPagesMin = 6;
    p.scanPagesMax = 14;
    p.scanDensity = 18;
    p.invalidateProb = 0.03;
    p.cpuOpsMin = 10;
    p.cpuOpsMax = 24;
    return std::make_unique<CommercialWorkload>(p);
}

std::unique_ptr<Workload>
makeOltpDb2()
{
    // TPC-C on DB2: B-tree and buffer-pool pointer chasing with
    // sparse intra-page patterns; biased temporal (Figure 6).
    CommercialParams p;
    p.name = "oltp-db2";
    p.cls = WorkloadClass::kOltp;
    p.hotPages = 131072;
    p.numSequences = 448;
    p.minSeqLen = 96;
    p.maxSeqLen = 288;
    p.numPageTypes = 24;
    p.stableBlocksMin = 2;
    p.stableBlocksMax = 5;
    p.unstableBlocks = 2;
    p.chaseProb = 0.9;
    p.noiseProb = 0.3;
    p.scanBurstProb = 0.0;
    p.invalidateProb = 0.04;
    p.cpuOpsMin = 8;
    p.cpuOpsMax = 20;
    return std::make_unique<CommercialWorkload>(p);
}

std::unique_ptr<Workload>
makeOltpOracle()
{
    // TPC-C on Oracle: larger SGA, more compute between accesses (the
    // paper's baseline spends only a quarter of its time off-chip, so
    // speedups are small).
    CommercialParams p;
    p.name = "oltp-oracle";
    p.cls = WorkloadClass::kOltp;
    p.hotPages = 163840;
    p.numSequences = 512;
    p.minSeqLen = 96;
    p.maxSeqLen = 288;
    p.numPageTypes = 28;
    p.stableBlocksMin = 2;
    p.stableBlocksMax = 5;
    p.unstableBlocks = 2;
    p.chaseProb = 0.9;
    p.noiseProb = 0.3;
    p.scanBurstProb = 0.0;
    p.invalidateProb = 0.04;
    p.cpuOpsMin = 28;
    p.cpuOpsMax = 56;
    return std::make_unique<CommercialWorkload>(p);
}

const WorkloadRegistrar registerApache("web-apache", 0, makeWebApache);
const WorkloadRegistrar registerZeus("web-zeus", 1, makeWebZeus);
const WorkloadRegistrar registerDb2("oltp-db2", 2, makeOltpDb2);
const WorkloadRegistrar registerOracle("oltp-oracle", 3,
                                       makeOltpOracle);

} // namespace
} // namespace stems
