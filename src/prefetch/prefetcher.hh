/**
 * @file
 * The prefetch-engine interface.
 *
 * Engines observe the memory system through training hooks invoked by
 * the prefetch simulator (src/sim/prefetch_sim) and emit prefetch
 * requests, which the simulator materializes into either the streamed
 * value buffer (stream-based engines: stride, TMS, STeMS) or the L2
 * with a prefetch tag (SMS).
 *
 * The "off-chip read" event stream deserves a note: it contains every
 * demand read that missed both cache levels, *including* those
 * satisfied by a prefetched block. This is the baseline-system miss
 * order — the sequence temporal engines record and reconstruct — so
 * sequence numbering must not change when coverage improves.
 */

#ifndef STEMS_PREFETCH_PREFETCHER_HH
#define STEMS_PREFETCH_PREFETCHER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/state_codec.hh"
#include "common/types.hh"

namespace stems {

/** Where a prefetched block should be placed. */
enum class PrefetchSink : std::uint8_t
{
    kBuffer = 0, ///< the engine's streamed value buffer
    kL2 = 1,     ///< the L2, tagged as a prefetch (SMS-style)
};

/** One block an engine wants fetched. */
struct PrefetchRequest
{
    Addr addr = 0;
    int streamId = -1; ///< owning stream queue (buffer sink only)
    PrefetchSink sink = PrefetchSink::kBuffer;
};

/** An off-chip demand read, as seen by the engines. */
struct OffChipRead
{
    Addr addr = 0;
    Pc pc = 0;
    /** Position in the off-chip read sequence (baseline miss order). */
    std::uint64_t seq = 0;
    /** True when a prefetched block satisfied the read. */
    bool covered = false;
    /** Owning stream of the covering block (-1 when not covered). */
    int streamId = -1;
};

/**
 * Base class for all prefetch engines.
 */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /** Engine name for reports ("stride", "tms", "sms", "stems"). */
    virtual std::string name() const = 0;

    /** Capacity of the prefetch buffer this engine wants. */
    virtual std::size_t bufferCapacity() const { return 64; }

    /** Every demand L1 access (read or write), with its hit status. */
    virtual void
    onL1Access(Addr a, Pc pc, bool l1_hit)
    {
        (void)a;
        (void)pc;
        (void)l1_hit;
    }

    /** A block left the L1 (eviction or invalidation). */
    virtual void onL1BlockRemoved(Addr a) { (void)a; }

    /** An off-chip demand read (see file comment). */
    virtual void onOffChipRead(const OffChipRead &ev) { (void)ev; }

    /** A prefetched block was consumed by a demand access. */
    virtual void
    onPrefetchHit(Addr a, int stream_id)
    {
        (void)a;
        (void)stream_id;
    }

    /** A prefetched block was discarded without ever being used. */
    virtual void
    onPrefetchDrop(Addr a, int stream_id)
    {
        (void)a;
        (void)stream_id;
    }

    /**
     * A prefetch request was filtered as redundant (the block was
     * already cached or buffered). Unlike a drop, this is a benign
     * completion: streams should keep issuing past it.
     */
    virtual void
    onPrefetchFiltered(Addr a, int stream_id)
    {
        (void)a;
        (void)stream_id;
    }

    /** A coherence invalidation arrived for a block. */
    virtual void onInvalidate(Addr a) { (void)a; }

    /**
     * A record for `block` (block-aligned), issued by `pc`, reaches
     * the hooks a few records from now: ask the host to start loading
     * the table lines those hooks will probe for it. A hint only — it
     * changes no engine state — so the default does nothing.
     */
    virtual void
    hostPrefetch(Addr block, Pc pc) const
    {
        (void)block;
        (void)pc;
    }

    /**
     * Move this engine's pending prefetch requests into out.
     * Called by the simulator after each record's notifications.
     */
    virtual void drainRequests(std::vector<PrefetchRequest> &out) = 0;

    /**
     * Serialize the engine's complete mutable state (checkpointing).
     * The contract — pinned per registered engine by
     * tests/checkpoint_test.cc — is that constructing a fresh engine
     * with the same parameters, loadState()ing this data into it and
     * continuing the simulation is bitwise identical to never having
     * stopped. The default saves nothing, which is only correct for
     * stateless engines; any engine with training state must
     * override both hooks (the snapshot-equivalence property test
     * fails otherwise).
     */
    virtual void saveState(StateWriter &w) const { (void)w; }

    /** Restore state written by saveState on an identically
     *  configured instance; structural mismatches fail the reader. */
    virtual void loadState(StateReader &r) { (void)r; }
};

/** Serialize a pending-request queue (engine saveState helpers). */
inline void
savePrefetchRequests(StateWriter &w,
                     const std::vector<PrefetchRequest> &reqs)
{
    w.u64(reqs.size());
    for (const PrefetchRequest &req : reqs) {
        w.u64(req.addr);
        w.i64(req.streamId);
        w.u8(static_cast<std::uint8_t>(req.sink));
    }
}

/** Restore a queue written by savePrefetchRequests. */
inline void
loadPrefetchRequests(StateReader &r,
                     std::vector<PrefetchRequest> &reqs)
{
    std::uint64_t n = r.u64();
    reqs.clear();
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        PrefetchRequest req;
        req.addr = r.u64();
        req.streamId = static_cast<int>(r.i64());
        std::uint8_t sink = r.u8();
        if (sink > 1) {
            r.fail();
            return;
        }
        req.sink = static_cast<PrefetchSink>(sink);
        reqs.push_back(req);
    }
}

} // namespace stems

#endif // STEMS_PREFETCH_PREFETCHER_HH
