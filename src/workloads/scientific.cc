#include "workloads/scientific.hh"

#include <algorithm>
#include <vector>

#include "common/log.hh"

namespace stems {

Trace
Em3dWorkload::generate(std::uint64_t seed,
                       std::size_t target_records) const
{
    const Em3dParams &p = params_;
    Rng master(seed ^ 0xe3dE3Dull);
    Rng init = master.fork(1);
    Rng run = master.fork(2);

    // Node regions scattered through memory (graph allocation order).
    PageAllocator alloc(master.fork(3), std::uint64_t{1} << 24);
    std::vector<Addr> region_addr(p.regions);
    for (Addr &a : region_addr)
        a = alloc.alloc();

    // Fixed per-region access pattern: every node shares a common
    // header layout (a contiguous run of blocks from the node base),
    // followed by region-specific adjacency-list blocks. The shared
    // head is what a PC-indexed spatial predictor can learn; the
    // region-dependent tail is what it cannot disambiguate (paper
    // Section 5.5: the same trigger PC leads to many patterns).
    std::vector<std::vector<std::uint8_t>> region_pattern(p.regions);
    for (auto &pat : region_pattern) {
        unsigned blocks = init.range(p.blocksMin, p.blocksMax);
        unsigned head = (blocks * 2 + 2) / 3; // ~2/3 shared layout
        unsigned start = init.below(kBlocksPerRegion);
        bool used[kBlocksPerRegion] = {};
        for (unsigned i = 0; i < head; ++i) {
            unsigned off = (start + i) % kBlocksPerRegion;
            used[off] = true;
            pat.push_back(static_cast<std::uint8_t>(off));
        }
        while (pat.size() < blocks) {
            unsigned off = init.below(kBlocksPerRegion);
            if (!used[off]) {
                used[off] = true;
                pat.push_back(static_cast<std::uint8_t>(off));
            }
        }
    }

    // Fixed traversal order (the node dependence structure).
    std::vector<std::uint32_t> order(p.regions);
    for (std::size_t i = 0; i < p.regions; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = p.regions - 1; i > 0; --i) {
        std::size_t j = init.below(static_cast<std::uint32_t>(i + 1));
        std::swap(order[i], order[j]);
    }

    TraceBuilder b;
    b.reserve(generatorReserve(target_records));
    auto cpu_ops = [&]() { return run.range(p.cpuOpsMin, p.cpuOpsMax); };

    while (b.size() < target_records) {
        b.breakChain();
        for (std::uint32_t r : order) {
            const auto &pat = region_pattern[r];
            std::size_t trigger_record = b.size();
            for (std::size_t i = 0; i < pat.size(); ++i) {
                Addr a = addrFromRegionOffset(region_addr[r], pat[i]);
                if (i == 0) {
                    // Locating the node chases a pointer loaded from
                    // the previous node.
                    b.read(a, Pc{0xD0000} + pat[i] * 4, cpu_ops(),
                           true);
                } else {
                    // The node's blocks hang off its header; they
                    // depend on the locate but not on one another.
                    b.readWithProducer(a, Pc{0xD0000} + pat[i] * 4,
                                       cpu_ops(), trigger_record);
                }
            }
            // Update this node's value.
            b.write(addrFromRegionOffset(region_addr[r], pat[0]),
                    Pc{0xD4000}, cpu_ops());
        }
    }
    return b.take();
}

Trace
OceanWorkload::generate(std::uint64_t seed,
                        std::size_t target_records) const
{
    const OceanParams &p = params_;
    Rng master(seed ^ 0x0ceaDull);
    Rng run = master.fork(2);

    // Contiguous grid arrays (row-major sweeps are sequential).
    std::vector<Addr> array_base(p.arrays);
    for (unsigned a = 0; a < p.arrays; ++a) {
        array_base[a] =
            (Addr{1} << 43) + Addr{a} * (Addr{1} << 34);
    }

    TraceBuilder b;
    b.reserve(generatorReserve(target_records));
    auto cpu_ops = [&]() { return run.range(p.cpuOpsMin, p.cpuOpsMax); };

    while (b.size() < target_records) {
        for (unsigned a = 0; a < p.arrays; ++a) {
            for (std::size_t r = 0; r < p.regionsPerArray; ++r) {
                Addr base = array_base[a] + r * kRegionBytes;
                for (unsigned off = 0; off < kBlocksPerRegion;
                     ++off) {
                    Addr addr = addrFromRegionOffset(base, off);
                    Pc pc = Pc{0xD8000} + a * 0x100;
                    if (run.chance(p.writeProb))
                        b.write(addr, pc, cpu_ops());
                    else
                        b.read(addr, pc, cpu_ops(), false);
                }
            }
        }
    }
    return b.take();
}

Trace
SparseWorkload::generate(std::uint64_t seed,
                         std::size_t target_records) const
{
    const SparseParams &p = params_;
    Rng master(seed ^ 0x5fa453ull);
    Rng init = master.fork(1);
    Rng run = master.fork(2);

    // Fixed matrix structure: the gather targets of every nonzero.
    const std::size_t nnz = p.rows * p.nnzPerRow;
    std::vector<std::uint32_t> gather_region(nnz);
    std::vector<std::uint8_t> gather_offset(nnz);
    for (std::size_t i = 0; i < nnz; ++i) {
        gather_region[i] = init.below(
            static_cast<std::uint32_t>(p.xRegions));
        gather_offset[i] = static_cast<std::uint8_t>(
            init.below(kBlocksPerRegion));
    }

    const Addr values_base = Addr{1} << 43;
    const Addr colidx_base = Addr{1} << 44;
    const Addr rowptr_base = Addr{1} << 45;
    const Addr y_base = Addr{1} << 46;
    const Addr x_base = Addr{1} << 47;

    TraceBuilder b;
    b.reserve(generatorReserve(target_records));
    auto cpu_ops = [&]() { return run.range(p.cpuOpsMin, p.cpuOpsMax); };

    while (b.size() < target_records) {
        for (std::size_t row = 0; row < p.rows; ++row) {
            // rowptr: 8-byte entries, one block per 8 rows.
            if (row % 8 == 0) {
                b.read(rowptr_base + (row / 8) * kBlockBytes,
                       Pc{0xE0000}, cpu_ops(), false);
            }
            // column indices: 4-byte entries, nnzPerRow per row.
            std::size_t colidx_record = b.size();
            b.read(colidx_base +
                       (row * p.nnzPerRow / 16) * kBlockBytes,
                   Pc{0xE0010}, cpu_ops(), false);
            // values: 8-byte entries.
            b.read(values_base +
                       (row * p.nnzPerRow / 8) * kBlockBytes,
                   Pc{0xE0020}, cpu_ops(), false);
            // gathers: the first x[col] of a row waits for the
            // column indices; subsequent gathers chain through the
            // running y accumulation (serial FP adds). A single
            // gather PC makes region patterns alias onto the same
            // pattern-table indices (Section 5.5: delta sequences
            // toggle).
            for (unsigned j = 0; j < p.nnzPerRow; ++j) {
                std::size_t i = row * p.nnzPerRow + j;
                Addr a = addrFromRegionOffset(
                    x_base + Addr{gather_region[i]} * kRegionBytes,
                    gather_offset[i]);
                if (j == 0)
                    b.readWithProducer(a, Pc{0xE0030}, cpu_ops(),
                                       colidx_record);
                else
                    b.read(a, Pc{0xE0030}, cpu_ops(), true);
            }
            // y[row] accumulation: 8-byte entries.
            if (row % 8 == 7) {
                b.write(y_base + (row / 8) * kBlockBytes,
                        Pc{0xE0040}, cpu_ops());
            }
        }
    }
    return b.take();
}

} // namespace stems

// ---- registry hookup (paper suite, figure order) ----

#include "workloads/registry.hh"

namespace stems {
namespace {

const WorkloadRegistrar registerEm3d("em3d", 7, [] {
    return std::unique_ptr<Workload>(new Em3dWorkload());
});
const WorkloadRegistrar registerOcean("ocean", 8, [] {
    return std::unique_ptr<Workload>(new OceanWorkload());
});
const WorkloadRegistrar registerSparse("sparse", 9, [] {
    return std::unique_ptr<Workload>(new SparseWorkload());
});

} // namespace
} // namespace stems
