/**
 * @file
 * Region Miss-Order Buffer (RMOB) — paper Sections 4.1 and 4.3.
 *
 * The temporal backbone of STeMS: a circular buffer recording, in
 * miss order, the off-chip read misses that the spatial predictor did
 * NOT predict (spatial triggers and spatial misses). Each entry holds
 * the block address, a 16-bit PC and the reconstruction delta — the
 * number of (spatially predicted, hence filtered) global misses
 * between the previous RMOB entry and this one. Filtering shrinks the
 * buffer from TMS's 384K entries (2 MB) to 128K entries (1 MB).
 *
 * An address index maps each block to its most recent RMOB position,
 * modelled after the main-memory hash table of the TMS follow-on
 * work; stale entries (overwritten positions) are detected on lookup.
 */

#ifndef STEMS_CORE_RMOB_HH
#define STEMS_CORE_RMOB_HH

#include <cstdint>
#include <optional>

#include "common/circular_buffer.hh"
#include "common/flat_index.hh"
#include "common/types.hh"

namespace stems {

class StateWriter;
class StateReader;

/** One RMOB record (paper: 5 B address + 16 b PC + 8 b delta). */
struct RmobEntry
{
    Addr addr = 0;          ///< block-aligned miss address
    std::uint16_t pc16 = 0; ///< truncated PC of the miss instruction
    std::uint8_t delta = 0; ///< skipped global misses since previous
};

/**
 * The region miss-order buffer plus its address index.
 */
class RegionMissOrderBuffer
{
  public:
    using Position = CircularBuffer<RmobEntry>::Position;

    /** Construct with a fixed entry count (paper default 128K). */
    explicit RegionMissOrderBuffer(std::size_t entries = 128 * 1024);

    /**
     * Append a filtered miss.
     *
     * @return the logical position assigned.
     */
    Position append(Addr block_addr, std::uint16_t pc16,
                    unsigned delta);

    /** Entry at a position; nullopt when overwritten/unwritten. */
    std::optional<RmobEntry> at(Position pos) const;

    /**
     * Most recent position holding this block address, if it is
     * still resident.
     */
    std::optional<Position> lookup(Addr block_addr) const;

    /** Ask the host to start loading the index slot lookup() of
     *  this block probes first; no state changes. */
    void
    prefetch(Addr block_addr) const
    {
        index_.prefetch(blockAlign(block_addr));
    }

    /** Next position that will be assigned. */
    Position frontier() const { return buffer_.size(); }

    /** Fixed capacity. */
    std::size_t capacity() const { return buffer_.capacity(); }

    /** Entries currently resident. */
    std::size_t live() const { return buffer_.live(); }

    /** Serialize buffer + address index (checkpointing). */
    void saveState(StateWriter &w) const;

    /** Restore state saved from an equal-capacity buffer. */
    void loadState(StateReader &r);

  private:
    CircularBuffer<RmobEntry> buffer_;
    FlatIndex index_; ///< block address -> newest position
};

} // namespace stems

#endif // STEMS_CORE_RMOB_HH
