/**
 * @file
 * Batched trace execution: one pass over a trace advances N
 * independent simulation lanes.
 *
 * Each lane is a full PrefetchSimulator — its own MemoryHierarchy,
 * SVB, timing model, SimStats, and (optionally) prefetch engine — so
 * lanes never share mutable state and a lane's statistics are bitwise
 * identical to what a standalone PrefetchSimulator::run over the same
 * trace would produce (tests/sim_test.cc pins this). What the batch
 * amortizes is the trace traversal itself: every record is fetched
 * exactly once and stepped through every lane, instead of once per
 * lane. Records are
 * processed in chunks, lane-major within each chunk, so a lane's
 * working set stays cache-hot across the chunk while the chunk's
 * records are re-served from cache to every subsequent lane.
 *
 * This is the single-pass, multi-consumer structure trace-driven
 * simulators use to evaluate many configurations per trace read; the
 * ExperimentDriver runs every cell it simulates through it — a
 * workload's baseline, stride and engine lanes in one traversal.
 */

#ifndef STEMS_SIM_BATCH_SIM_HH
#define STEMS_SIM_BATCH_SIM_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "sim/prefetch_sim.hh"

namespace stems {

/**
 * Advances several independent PrefetchSimulators from a single
 * decode of each trace record.
 */
class BatchSimulator
{
  public:
    /**
     * Add one simulation lane.
     *
     * @param params  system configuration for this lane.
     * @param engine  attached engine; may be null (the no-prefetch
     *                baseline). Not owned; must outlive run().
     * @param warmup_records  leading records that train this lane
     *                without being measured (lanes may differ).
     * @return the lane's index, for stats()/simulator().
     */
    std::size_t addLane(const SimParams &params, Prefetcher *engine,
                        std::size_t warmup_records = 0);

    /** Number of lanes added. */
    std::size_t lanes() const { return lanes_.size(); }

    /**
     * One pass over an in-memory trace: each record at or past a
     * lane's start is stepped through that lane, honoring per-lane
     * warmup, then every lane is finalized. Chunks before every
     * lane's start are skipped. Call at most once per
     * BatchSimulator.
     *
     * @param jobs  worker threads advancing lanes within each chunk
     *              (lanes are mutually independent, so lane-level
     *              parallelism cannot change any lane's results;
     *              clamped to the lane count, 1 = serial).
     */
    void run(const Trace &trace, unsigned jobs = 1);

    /** Statistics of one lane's measured window (valid after run). */
    const SimStats &stats(std::size_t lane) const
    {
        return lanes_.at(lane).sim->stats();
    }

    /** The lane's underlying simulator (e.g. for probe access). */
    PrefetchSimulator &simulator(std::size_t lane)
    {
        return *lanes_.at(lane).sim;
    }

    /**
     * Replace a lane's simulator with a freshly-constructed one
     * (same SimParams and warmup as addLane received). Used when a
     * checkpoint restore fails structurally after partially mutating
     * the lane: the caller recreates the engine and the lane starts
     * cold.
     */
    void rebuildLane(std::size_t lane, Prefetcher *engine);

    /**
     * Resume a lane at `start_index`: records before it are skipped
     * entirely. The lane's simulator must hold the matching
     * checkpointed state (sim/checkpoint.hh), which bakes in any
     * warmup flip at or before the start, so the skipped records'
     * flip checks are skipped with them. Lanes default to 0; every
     * lane runs to the trace end.
     */
    void setLaneStart(std::size_t lane, std::size_t start_index);

    /**
     * Checkpoint boundaries for a lane, ascending and strictly
     * greater than its start index. At each boundary index i the
     * boundary callback fires after records [0, i) were stepped and
     * before the warmup-flip check of record i (the checkpoint
     * convention of sim/checkpoint.hh). A boundary at the trace
     * length fires after the lane's last record, before finish();
     * boundaries past it never fire.
     */
    void setLaneBoundaries(std::size_t lane,
                           std::vector<std::size_t> boundaries);

    /** Boundary observer: (lane, record index, lane simulator). May
     *  be invoked concurrently from different lanes' worker threads
     *  when run() parallelizes lanes; it must only touch per-lane or
     *  thread-safe state. */
    using BoundaryFn = std::function<void(
        std::size_t, std::size_t, PrefetchSimulator &)>;

    /** Register the boundary observer (one per batch). */
    void setBoundaryCallback(BoundaryFn fn)
    {
        boundary_ = std::move(fn);
    }

  private:
    struct Lane
    {
        std::unique_ptr<PrefetchSimulator> sim;
        SimParams params;
        Prefetcher *engine = nullptr;
        std::size_t warmup = 0;
        std::size_t start = 0; ///< first record this lane steps
        std::vector<std::size_t> boundaries;
        std::size_t nextBoundary = 0; ///< cursor into boundaries
    };

    /// Records stepped per lane before switching lanes (or, with
    /// jobs > 1, the lane-parallel synchronization quantum): big
    /// enough to amortize reloading a lane's working set and the
    /// per-chunk thread handoff, small enough that the chunk (2 MiB
    /// of records) stays cache-resident for the next lane.
    static constexpr std::size_t kChunkRecords = 65536;

    /// How far ahead of its step a lane asks the host to load a
    /// record's cache sets and engine tables
    /// (PrefetchSimulator::hostPrefetch): far enough for a DRAM miss
    /// to land, near enough that the lines are still cached when the
    /// step probes them. On the fig9-cold sweep (4-vCPU x86 VM,
    /// alternating pairs) 8 beat 4 in 4 of 6; 16 and 32 were not
    /// reliably better than 8.
    static constexpr std::size_t kLookaheadRecords = 8;

    /** Step `count` records (trace positions [first, first+count))
     *  through every lane, lane-major, on up to `jobs` threads. */
    void runChunk(const MemRecord *records, std::size_t first,
                  std::size_t count, unsigned jobs);

    /** One lane's share of a chunk. */
    void runLaneChunk(std::size_t lane_index,
                      const MemRecord *records, std::size_t first,
                      std::size_t count);

    /** Fire each lane's trace-end boundary, then finish every
     *  lane. */
    void finishAll(std::size_t total_records);

    std::vector<Lane> lanes_;
    BoundaryFn boundary_;
};

} // namespace stems

#endif // STEMS_SIM_BATCH_SIM_HH
