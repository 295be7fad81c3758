/**
 * @file
 * The trace-driven prefetch simulator: drives demand traffic through
 * L1 -> L2 -> (SVB) -> memory, feeds the training hooks of an attached
 * prefetch engine, materializes its prefetch requests, and accounts
 * coverage and overprediction the way the paper's Figure 9 does:
 *
 *  - covered:        a demand read that would have gone off-chip was
 *                    satisfied by a prefetched block (SVB hit or
 *                    prefetch-tagged L2 hit);
 *  - uncovered:      an off-chip demand read miss;
 *  - overpredicted:  a prefetched block discarded without use
 *                    (evicted, invalidated, or left over at the end).
 *
 * When timing is enabled, every access also flows through the
 * TimingModel, and prefetches are stamped with fetch-completion times
 * so late prefetches pay residual latency.
 */

#ifndef STEMS_SIM_PREFETCH_SIM_HH
#define STEMS_SIM_PREFETCH_SIM_HH

#include <memory>
#include <unordered_map>

#include "mem/hierarchy.hh"
#include "mem/svb.hh"
#include "prefetch/prefetcher.hh"
#include "sim/timing.hh"
#include "trace/trace.hh"

namespace stems {

/** Simulator configuration. */
struct SimParams
{
    HierarchyParams hierarchy;
    bool enableTiming = false;
    TimingParams timing;
};

/** Aggregated simulation statistics (measured window only). */
struct SimStats
{
    std::uint64_t records = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t invalidates = 0;

    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0; ///< ordinary L2 hits
    std::uint64_t l2PrefetchHits = 0; ///< covered via prefetch tag
    std::uint64_t svbHits = 0;        ///< covered via the SVB
    std::uint64_t offChipReads = 0;   ///< uncovered read misses
    std::uint64_t offChipWrites = 0;

    std::uint64_t prefetchesIssued = 0;
    std::uint64_t overpredictions = 0;

    double cycles = 0.0;
    std::uint64_t instructions = 0;

    /** Read misses eliminated by prefetching. */
    std::uint64_t covered() const { return svbHits + l2PrefetchHits; }

    /** Off-chip read events (baseline miss order length). */
    std::uint64_t
    offChipReadEvents() const
    {
        return covered() + offChipReads;
    }

    /** Aggregate user IPC (the paper's performance metric). */
    double
    ipc() const
    {
        return cycles > 0 ? instructions / cycles : 0.0;
    }
};

/**
 * Runs one engine (or none, for the prefetch-free baseline) over a
 * trace.
 */
class PrefetchSimulator
{
  public:
    /**
     * @param params  system configuration.
     * @param engine  attached engine; may be null (baseline). Not
     *                owned.
     */
    PrefetchSimulator(const SimParams &params, Prefetcher *engine);

    /** Process one record. */
    void step(const MemRecord &r);

    /**
     * Ask the host to start loading what a later step(r) will probe:
     * the record's L1 and L2 sets and the engine's tables
     * (Prefetcher::hostPrefetch). Changes no simulator state.
     */
    void hostPrefetch(const MemRecord &r) const;

    /**
     * Process a whole trace and finalize accounting.
     *
     * @param warmup_records  leading records that train state without
     *                        being measured.
     */
    void run(const Trace &trace, std::size_t warmup_records = 0);

    /** Enable/disable measurement (training always continues). */
    void setMeasuring(bool on);

    /** Flush end-of-run state (leftover prefetches become drops). */
    void finish();

    /** Statistics for the measured window. */
    const SimStats &stats() const { return stats_; }

    /** The attached engine (may be null). */
    Prefetcher *engine() const { return engine_; }

    /**
     * Serialize the complete simulator state — hierarchy, SVB,
     * timing, accounting, and the attached engine's state — so an
     * identically-constructed simulator can resume mid-trace
     * bitwise-exactly (sim/checkpoint.hh frames this into a
     * CRC-checked blob).
     */
    void saveState(StateWriter &w) const;

    /**
     * Restore state written by saveState. The simulator must have
     * been constructed with the same SimParams and an engine of the
     * same specification (or none, matching the saved run);
     * structural mismatches fail the reader without touching the
     * trace contract.
     */
    void loadState(StateReader &r);

  private:
    void drainAndIssue();
    void handleSvbVictim(const StreamedValueBuffer::Entry &e);

    SimParams params_;
    Hierarchy hier_;
    std::unique_ptr<StreamedValueBuffer> svb_;
    TimingModel timing_;
    Prefetcher *engine_;

    /** Ready times of prefetch-tagged L2 blocks (timing only). */
    std::unordered_map<Addr, double> l2PrefetchReady_;

    std::uint64_t missSeq_ = 0;
    bool measuring_ = true;
    bool finished_ = false;
    double cyclesAtMeasureStart_ = 0.0;
    std::uint64_t instrAtMeasureStart_ = 0;
    SimStats stats_;
    std::vector<PrefetchRequest> reqScratch_;
};

} // namespace stems

#endif // STEMS_SIM_PREFETCH_SIM_HH
