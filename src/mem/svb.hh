/**
 * @file
 * Streamed Value Buffer (SVB).
 *
 * Prefetched blocks are placed in a small fully-associative buffer
 * rather than the caches (paper Section 4.2): a demand hit consumes the
 * entry (the block then moves into the caches and the owning stream
 * advances); an entry evicted or invalidated without being consumed is
 * an overprediction. The paper uses 64 entries for TMS/STeMS and a
 * 32-entry buffer for the baseline stride prefetcher.
 *
 * Layout: three parallel slot lanes. The key lane holds each slot's
 * block address, or the all-ones sentinel (never block-aligned) when
 * the slot is free, so a lookup is one branch-free pass over a
 * contiguous array — 512 B for 64 slots. The stamp lane holds LRU
 * stamps, 0 for a free slot, so the victim scan is one strict-<
 * running minimum that picks the first free slot, else the
 * first-index LRU slot. Entries are read only on a hit. Behaviour and
 * serialized state are those of the historical array-of-structs
 * buffer (tests/reference_svb.hh).
 */

#ifndef STEMS_MEM_SVB_HH
#define STEMS_MEM_SVB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace stems {

class StateWriter;
class StateReader;

/**
 * Fully-associative prefetch buffer with LRU replacement.
 */
class StreamedValueBuffer
{
  public:
    /** One buffered prefetched block. */
    struct Entry
    {
        Addr addr = 0;       ///< block-aligned address
        int streamId = -1;   ///< owning stream queue (engine-defined)
        Cycles readyTime = 0; ///< when the fetch completes (timing)
    };

    /** Construct with a fixed entry count. */
    explicit StreamedValueBuffer(std::size_t capacity);

    /**
     * Insert a prefetched block.
     *
     * A re-insert of a resident address refreshes its recency. When the
     * buffer is full, the LRU entry is evicted.
     *
     * @return the evicted (never-consumed) entry, if any.
     */
    std::optional<Entry> insert(const Entry &e);

    /**
     * insert() of a block the caller has just found absent (contains()
     * returned false and nothing changed since): skips the key scan.
     *
     * @return the evicted (never-consumed) entry, if any.
     */
    std::optional<Entry> insertAbsent(const Entry &e);

    /**
     * Demand lookup; the entry is removed (consumed) on hit.
     *
     * @return the consumed entry, if present.
     */
    std::optional<Entry> consume(Addr a);

    /** Presence check without consuming. */
    bool contains(Addr a) const;

    /**
     * Coherence invalidation; the entry is dropped.
     *
     * @return the dropped entry, if present.
     */
    std::optional<Entry> invalidate(Addr a);

    /**
     * Remove and return an arbitrary resident entry (end-of-run
     * drain). @return std::nullopt when the buffer is empty.
     */
    std::optional<Entry> consumeAny();

    /** Current number of buffered blocks. */
    std::size_t occupancy() const;

    /** Number of buffered blocks belonging to one stream. */
    std::size_t occupancyForStream(int stream_id) const;

    /** Fixed capacity. */
    std::size_t capacity() const { return keys_.size(); }

    /** Serialize the full buffer state (checkpointing). */
    void saveState(StateWriter &w) const;

    /** Restore state saved from an equal-capacity buffer; fails the
     *  reader on a capacity mismatch and on a live slot the lanes
     *  cannot hold (stamp 0 or the sentinel address). */
    void loadState(StateReader &r);

  private:
    static constexpr Addr kEmptyKey = ~Addr{0};

    /** Slot holding the block of `a`; capacity() when absent. */
    std::size_t find(Addr a) const;

    /** First free slot, else the first-index LRU slot. */
    std::size_t victim() const;

    /** Free a slot. @return its entry. */
    Entry take(std::size_t slot);

    std::uint64_t clock_ = 0;
    std::vector<Addr> keys_;
    std::vector<std::uint64_t> stamps_;
    std::vector<Entry> entries_;
};

} // namespace stems

#endif // STEMS_MEM_SVB_HH
