/**
 * @file
 * Pattern Sequence Table (PST) — paper Sections 4.1 and 4.3.
 *
 * Where SMS's history table stores a bit vector per pattern, the PST
 * stores the *sequence* of accesses within a spatial region: for each
 * of the 32 blocks, a 2-bit saturating counter (hysteresis over
 * stable vs unstable offsets), the block's position in the access
 * order, and its reconstruction delta — the number of global misses
 * interleaved between the previous access to this region and this
 * one. A spatial sequence costs 32 x 10 bits = 40 bytes, so a 16K
 * entry PST (640 KB) lives in main memory (paper Section 4.3).
 */

#ifndef STEMS_CORE_PST_HH
#define STEMS_CORE_PST_HH

#include <cstdint>
#include <vector>

#include "common/lru_table.hh"
#include "common/types.hh"

namespace stems {

class StateWriter;
class StateReader;

/**
 * STeMS pattern index: the 16-bit PC stored in RMOB/AGT entries
 * combined with the block offset (the SMS "PC+offset" index).
 */
constexpr std::uint64_t
stemsPatternIndex(std::uint16_t pc16, unsigned offset)
{
    return (std::uint64_t{pc16} << 5) ^ offset;
}

/** Truncate a full PC to the 16 bits STeMS stores (Section 4.3). */
constexpr std::uint16_t pc16Of(Pc pc)
{
    return static_cast<std::uint16_t>(pc & 0xffff);
}

/** One element of a spatial sequence (offset in access order). */
struct SpatialElement
{
    std::uint8_t offset = 0; ///< block offset within the region
    /** Global misses strictly between the previous access to this
     *  region (in this generation) and this access. */
    std::uint8_t delta = 0;
};

/**
 * The part of a PST entry that lookups read: every offset's delta,
 * and what the entry predicts — the offsets whose counters meet the
 * threshold, ordered by stored access order (ties by offset), and
 * their mask. Element i of the prediction is (offsets[i],
 * delta[offsets[i]]); keeping offsets rather than (offset, delta)
 * pairs keeps each delta stored once.
 */
struct SpatialPrediction
{
    std::uint32_t mask = 0; ///< the predicted offsets
    std::uint8_t size = 0;  ///< predicted elements
    std::uint8_t offsets[kBlocksPerRegion] = {}; ///< predicted, in order
    std::uint8_t delta[kBlocksPerRegion] = {};   ///< per offset

    /** Predicted element i (i < size). */
    SpatialElement
    operator[](std::size_t i) const
    {
        return {offsets[i], delta[offsets[i]]};
    }

    bool empty() const { return size == 0; }
};

/** PST configuration (paper defaults). */
struct PstParams
{
    std::size_t entries = 16384;
    std::size_t ways = 8;
    /// Counter value required to predict an offset.
    unsigned predictThreshold = 2;
};

/**
 * The pattern sequence table.
 */
class PatternSequenceTable
{
  public:
    explicit PatternSequenceTable(PstParams params = {});

    /**
     * Train with a finished generation.
     *
     * @param index        stemsPatternIndex of the generation's
     *                     trigger.
     * @param sequence     non-trigger misses in first-access order
     *                     (defines order and deltas).
     * @param access_mask  every offset touched during the generation
     *                     (defines the counter updates; includes the
     *                     sequence offsets and cache-resident blocks).
     */
    void train(std::uint64_t index, const SpatialElement *sequence,
               std::size_t sequence_len, std::uint32_t access_mask);

    /** Convenience overload for vector-backed sequences. */
    void
    train(std::uint64_t index,
          const std::vector<SpatialElement> &sequence,
          std::uint32_t access_mask)
    {
        train(index, sequence.data(), sequence.size(), access_mask);
    }

    /**
     * The prediction kept for an index, read in place (no recency
     * update). Valid until the next train() or loadState().
     *
     * @return nullptr when the index has no entry; an entry whose
     *         elements all fall below the threshold predicts empty.
     */
    const SpatialPrediction *
    prediction(std::uint64_t index) const
    {
        const Entry *e = table_.peek(index);
        return e == nullptr ? nullptr : &e->predicted;
    }

    /**
     * Predicted sequence for an index, copied out: elements whose
     * counters meet the threshold, in stored access order.
     *
     * @return true when the index had an entry (even if no element
     *         currently predicts).
     */
    bool lookup(std::uint64_t index,
                std::vector<SpatialElement> &out) const;

    /**
     * Bitmask of offsets currently predicted for an index (used to
     * filter spatially-predictable misses out of the RMOB).
     */
    std::uint32_t
    predictedMask(std::uint64_t index) const
    {
        const SpatialPrediction *p = prediction(index);
        return p == nullptr ? 0 : p->mask;
    }

    /** Ask the host to start loading the set an index maps to, ahead
     *  of a batch of lookups; no table state changes. */
    void prefetch(std::uint64_t index) const { table_.prefetch(index); }

    /** Number of trained patterns (diagnostics). */
    std::size_t trainedPatterns() const { return table_.occupancy(); }

    /** Serialize the full table (checkpointing). */
    void saveState(StateWriter &w) const;

    /** Restore state saved from an identical geometry. */
    void loadState(StateReader &r);

  private:
    /** Per-index storage: 2-bit counter, delta and order per block
     *  (the delta inside `predicted`), and the prediction they make. */
    struct Entry
    {
        /// Its offsets, size and mask derive from counter, order and
        /// delta: train() and loadState() rebuild them, and they are
        /// never serialized. Lookups outnumber training about 12 to
        /// 1, so each reads these instead of scanning the counters
        /// and sorting.
        SpatialPrediction predicted;
        std::uint8_t counter[kBlocksPerRegion] = {};
        std::uint8_t order[kBlocksPerRegion] = {};
    };

    /** Rebuild an entry's predicted offsets, size and mask from its
     *  counters, orders and deltas. */
    void repredict(Entry &e) const;

    PstParams params_;
    LruTable<Entry> table_;
};

} // namespace stems

#endif // STEMS_CORE_PST_HH
