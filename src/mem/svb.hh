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
 * Layout: three parallel slot lanes, the state that is serialized.
 * The key lane holds each live slot's block address, the stamp lane
 * its LRU stamp (0 for a free slot), the entry lane its entry. Three
 * derived structures make every operation constant-time; they are
 * never serialized, and loadState rebuilds them from the lanes:
 *  - a SlotIndex (common/slot_index.hh, shared with LruTable) from
 *    block address to live slot, for lookups;
 *  - a free-slot bitmask, whose lowest set bit is the first free
 *    slot (the victim while one exists) and whose lowest clear bit is
 *    the first live slot (consumeAny()'s choice);
 *  - a recency list over the live slots in stamp order, whose head is
 *    the LRU slot (the victim in a full buffer).
 * Behaviour and serialized state are those of the historical
 * array-of-structs buffer (tests/reference_svb.hh): first free slot,
 * else the lowest stamp; the lowest live slot drains first.
 */

#ifndef STEMS_MEM_SVB_HH
#define STEMS_MEM_SVB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/slot_index.hh"
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
     * returned false and nothing changed since): skips the lookup.
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

    /** Restore state saved from an equal-capacity buffer. Fails the
     *  reader, leaving the buffer empty, on a capacity mismatch and on
     *  state no run saves: a live slot with stamp 0, a stamp above the
     *  clock or an address not block-aligned, and two live slots with
     *  one block or one stamp. */
    void loadState(StateReader &r);

  private:
    /** Recency-list links of a slot; slot capacity() is the list's
     *  sentinel (next: the LRU slot, prev: the MRU slot). */
    struct Link
    {
        std::uint32_t prev = 0;
        std::uint32_t next = 0;
    };

    /** Slot holding the block of `a`; SlotIndex::kNone when absent. */
    std::size_t
    find(Addr a) const
    {
        return index_.find(blockAlign(a), keys_.data());
    }

    /** First free slot, else the LRU slot. */
    std::size_t victim() const;

    /** Free a live slot. @return its entry. */
    Entry take(std::size_t slot);

    /** Append a live slot to the recency list as the MRU slot. */
    void link(std::size_t slot);

    /** Remove a live slot from the recency list. */
    void unlink(std::size_t slot);

    /** Free every slot and reset the clock: the state as
     *  constructed. */
    void clear();

    std::uint64_t clock_ = 0;
    std::vector<Addr> keys_;
    std::vector<std::uint64_t> stamps_;
    std::vector<Entry> entries_;
    // Derived from the lanes; see the file comment.
    SlotIndex index_;
    /// Bit s % 64 of word s / 64 is set when slot s is free; the bits
    /// past capacity() stay clear.
    std::vector<std::uint64_t> freeMask_;
    std::vector<Link> links_;
};

} // namespace stems

#endif // STEMS_MEM_SVB_HH
