/**
 * @file
 * Batched trace execution: N independent simulation lanes over one
 * trace, each advanced one chunk at a time.
 *
 * Each lane is a full PrefetchSimulator — its own MemoryHierarchy,
 * SVB, timing model, SimStats, and (optionally) prefetch engine — so
 * lanes never share mutable state and a lane's statistics are bitwise
 * identical to what a standalone PrefetchSimulator::run over the same
 * trace would produce (tests/sim_test.cc pins this). What the batch
 * amortizes is the trace itself: one decoded copy in memory serves
 * every lane. Each lane keeps a cursor and advances one 64Ki-record
 * chunk per advanceLane() call, so a lane's working set stays
 * cache-hot across the chunk, and a chunk another lane just stepped
 * is still cached for the next one.
 *
 * Lanes are the unit of scheduling: different lanes may be advanced
 * from different threads at the same time (one lane from one thread
 * at a time), and a lane may continue on another thread after any
 * chunk. The ExperimentDriver's lane scheduler does exactly that;
 * run() is the serial loop.
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
 * Independent PrefetchSimulator lanes over one trace, advanced
 * chunk by chunk.
 */
class BatchSimulator
{
  public:
    /**
     * Add one simulation lane.
     *
     * @param params  system configuration for this lane.
     * @param engine  attached engine; may be null (the prefetch-free
     *                baseline). Not owned; must outlive the lane.
     * @param warmup_records  leading records that train this lane
     *                without being measured (lanes may differ).
     * @return the lane's index, for stats()/simulator().
     */
    std::size_t addLane(const SimParams &params, Prefetcher *engine,
                        std::size_t warmup_records = 0);

    /** Number of lanes added. */
    std::size_t lanes() const { return lanes_.size(); }

    /**
     * Advance one lane by one chunk: step the records from its
     * cursor to the end of the 64Ki-record chunk the cursor is in
     * (or the trace end), honoring its warmup and firing its
     * boundaries. When that reaches the trace end, fire the lane's
     * trace-end boundary and finish() it. Each call steps exactly
     * the records a whole-trace pass steps in that chunk, so any
     * schedule of calls yields the same lane. Different lanes may
     * be advanced concurrently; one lane must not be.
     *
     * @return true when the lane finished (stats() is final).
     */
    bool advanceLane(std::size_t lane, const Trace &trace);

    /** The next record index the lane steps: its start until its
     *  first advance, the trace length once it finished. */
    std::size_t laneCursor(std::size_t lane) const
    {
        return lanes_.at(lane).cursor;
    }

    /**
     * Serial pass over `trace`: advance the unfinished lane with the
     * lowest cursor (ties to the lower lane index) until every lane
     * finished. From a common start that is lane-major within each
     * chunk: every lane steps chunk c before any lane steps c + 1.
     */
    void run(const Trace &trace);

    /** Statistics of one lane's measured window (final once the
     *  lane finished). */
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

    /** Free a finished lane's simulator (its stats go with it); the
     *  caller may then free the lane's engine. */
    void releaseLane(std::size_t lane) { lanes_.at(lane).sim.reset(); }

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

    /** Boundary observer: (lane, record index, lane simulator). It
     *  runs on the thread advancing the lane, so lanes advanced
     *  concurrently invoke it concurrently; it must only touch
     *  per-lane or thread-safe state. */
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
        std::size_t cursor = 0; ///< next record this lane steps
        bool done = false;      ///< finish() has run
        std::vector<std::size_t> boundaries;
        std::size_t nextBoundary = 0; ///< cursor into boundaries
    };

    /// Records one advanceLane() steps: big enough to amortize
    /// reloading a lane's working set and the scheduler's handoff,
    /// small enough that the chunk (2 MiB of records) stays
    /// cache-resident for the next lane that steps it.
    static constexpr std::size_t kChunkRecords = 65536;

    /// How far ahead of its step a lane asks the host to load a
    /// record's cache sets and engine tables
    /// (PrefetchSimulator::hostPrefetch): far enough for a DRAM miss
    /// to land, near enough that the lines are still cached when the
    /// step probes them. On the fig9-cold sweep (4-vCPU x86 VM,
    /// alternating pairs) 8 beat 4 in 4 of 6; 16 and 32 were not
    /// reliably better than 8.
    static constexpr std::size_t kLookaheadRecords = 8;

    std::vector<Lane> lanes_;
    BoundaryFn boundary_;
};

} // namespace stems

#endif // STEMS_SIM_BATCH_SIM_HH
