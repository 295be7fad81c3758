/**
 * @file
 * Temporal Memory Streaming (TMS) — Wenisch et al., ISCA 2005, as
 * summarized in Section 2.2 of the STeMS paper.
 *
 * TMS appends every off-chip read miss to a large circular buffer
 * (held in main memory; ~2 MB = 384K entries per processor) and keeps
 * an address index mapping each block to its most recent position.
 * An unpredicted miss locates its previous occurrence and streams the
 * blocks that followed it into a streamed value buffer, throttled to
 * application demand: one block on stream start (confidence ramp),
 * up to `lookahead` blocks once the stream proves useful.
 */

#ifndef STEMS_PREFETCH_TMS_HH
#define STEMS_PREFETCH_TMS_HH

#include "common/circular_buffer.hh"
#include "common/flat_index.hh"
#include "prefetch/prefetcher.hh"

namespace stems {

/** TMS configuration (paper defaults, Section 4.3). */
struct TmsParams
{
    /// Circular miss-order buffer entries (2 MB at ~5 B/entry).
    std::size_t bufferEntries = 384 * 1024;
    /// Stream queues.
    std::size_t numStreams = 8;
    /// Blocks kept in flight per confirmed stream.
    unsigned lookahead = 8;
    /// Streamed value buffer entries.
    std::size_t svbEntries = 64;
    /// Total outstanding prefetches across all streams. Throttling to
    /// below the SVB capacity keeps competing streams from evicting
    /// the productive stream's not-yet-consumed blocks.
    unsigned maxGlobalInFlight = 48;
    /// Refill the pending queue below this many entries.
    std::size_t refillLowWater = 4;
    /// Entries read from the buffer per refill.
    std::size_t refillChunk = 16;
    /// A miss matching one of the first N pending addresses of a
    /// stream re-synchronizes that stream instead of starting a new
    /// one.
    std::size_t resyncWindow = 4;
};

struct SystemConfig; // sim/config.hh
struct EngineOptions; // prefetch/engine_registry.hh

/**
 * The Table 1 TMS parameters with EngineOptions overrides applied
 * (shared by the "tms" and "tms+sms" registry factories).
 */
TmsParams tmsParamsFor(const SystemConfig &sys,
                       const EngineOptions &opt);

/**
 * The TMS engine.
 */
class TmsPrefetcher : public Prefetcher
{
  public:
    explicit TmsPrefetcher(TmsParams params = {});

    std::string name() const override { return "tms"; }

    std::size_t
    bufferCapacity() const override
    {
        return params_.svbEntries;
    }

    void onOffChipRead(const OffChipRead &ev) override;
    void onPrefetchHit(Addr a, int stream_id) override;
    void onPrefetchDrop(Addr a, int stream_id) override;
    void onPrefetchFiltered(Addr a, int stream_id) override;
    void hostPrefetch(Addr block, Pc pc) const override;

    void drainRequests(std::vector<PrefetchRequest> &out) override;

    void saveState(StateWriter &w) const override;
    void loadState(StateReader &r) override;

    /** Streams started so far (diagnostics). */
    std::uint64_t streamsStarted() const { return streamsStarted_; }

  private:
    using Position = CircularBuffer<Addr>::Position;

    struct Stream
    {
        bool active = false;
        bool confirmed = false; ///< first prefetched block consumed
        /// Flat ring (storage retained across stream restarts; see
        /// StreamQueueSet::Stream::pending).
        RingQueue<Addr> pending;
        Position nextPos = 0; ///< next buffer position for refill
        std::uint64_t lru = 0;
        int inFlight = 0;
        /** Reallocation tag (see StreamQueueSet::Stream). */
        std::uint32_t generation = 0;

        /** In-place idle reset retaining ring storage and the
         *  generation tag. */
        void
        reset()
        {
            active = false;
            confirmed = false;
            pending.clear();
            nextPos = 0;
            lru = 0;
            inFlight = 0;
        }
    };

    static int
    encodeId(std::size_t index, std::uint32_t generation)
    {
        return static_cast<int>((generation << 4) |
                                static_cast<std::uint32_t>(index));
    }

    /** @return the stream, or null when the id is stale/invalid. */
    Stream *decodeId(int stream_id);

    void refill(Stream &s);
    void issueFrom(Stream &s, int id);
    bool tryResync(Addr a);
    void startStream(Addr a, Position prev_pos);

    TmsParams params_;
    int globalInFlight_ = 0;
    CircularBuffer<Addr> buffer_;
    /**
     * Block address -> most recent buffer position. Modelled after
     * the paper's main-memory hash table [25]; entries referring to
     * overwritten positions are detected and ignored on lookup.
     */
    FlatIndex index_;
    std::vector<Stream> streams_;
    std::uint64_t clock_ = 0;
    std::uint64_t streamsStarted_ = 0;
    std::vector<PrefetchRequest> pending_;
};

} // namespace stems

#endif // STEMS_PREFETCH_TMS_HH
