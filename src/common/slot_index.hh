/**
 * @file
 * Key -> slot index for a fully associative table.
 *
 * A fully associative table keeps its keys in a lane indexed by slot.
 * This index maps a key to the live slot that holds it, so a lookup
 * probes a cell or two instead of scanning every key: open addressing
 * with linear probing over a power-of-two number of cells, at least
 * twice the slot count, each holding a slot number or kFreeCell. A
 * delete shifts the later cells of its probe run back into the hole,
 * so there are no tombstones and a probe stops at the first free cell.
 *
 * The index stores slot numbers only: every call takes the owner's key
 * lane, so the index is derived state, never serialized, and the
 * owner rebuilds it after a load. Users: LruTable (one-set tables) and
 * StreamedValueBuffer.
 */

#ifndef STEMS_COMMON_SLOT_INDEX_HH
#define STEMS_COMMON_SLOT_INDEX_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace stems {

class SlotIndex
{
  public:
    static constexpr std::size_t kNone = ~std::size_t{0};

    /** An index of no cells (a set-associative LruTable's). */
    SlotIndex() = default;

    /** An empty index for slots 0 .. slots-1. */
    explicit SlotIndex(std::size_t slots)
    {
        assert(slots > 0 && slots < kFreeCell);
        std::size_t cells = 2;
        while (cells < 2 * slots)
            cells *= 2;
        cells_.assign(cells, kFreeCell);
        shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(cells));
    }

    /** True for the default-constructed index of no cells. */
    bool empty() const { return cells_.empty(); }

    /** The indexed slot s with keys[s] == key, else kNone. */
    std::size_t
    find(std::uint64_t key, const std::uint64_t *keys) const
    {
        const std::size_t mask = cells_.size() - 1;
        for (std::size_t c = home(key);; c = (c + 1) & mask) {
            const std::uint32_t slot = cells_[c];
            if (slot == kFreeCell)
                return kNone;
            if (keys[slot] == key)
                return slot;
        }
    }

    /** Index slot s, whose key keys[s] is not indexed yet. */
    void
    insert(std::size_t s, const std::uint64_t *keys)
    {
        const std::size_t mask = cells_.size() - 1;
        std::size_t c = home(keys[s]);
        while (cells_[c] != kFreeCell)
            c = (c + 1) & mask;
        cells_[c] = static_cast<std::uint32_t>(s);
    }

    /** Remove indexed slot s; keys[s] still holds its key. */
    void
    erase(std::size_t s, const std::uint64_t *keys)
    {
        const std::size_t mask = cells_.size() - 1;
        std::size_t hole = home(keys[s]);
        while (cells_[hole] != s)
            hole = (hole + 1) & mask;
        // Backward-shift deletion: a later cell of the probe run moves
        // into the hole when its probe passes the hole (its home is no
        // nearer to it than the hole is).
        for (std::size_t c = (hole + 1) & mask; cells_[c] != kFreeCell;
             c = (c + 1) & mask) {
            const std::size_t from = home(keys[cells_[c]]);
            if (((c - from) & mask) >= ((c - hole) & mask)) {
                cells_[hole] = cells_[c];
                hole = c;
            }
        }
        cells_[hole] = kFreeCell;
    }

    /** Remove every slot. */
    void clear() { std::fill(cells_.begin(), cells_.end(), kFreeCell); }

  private:
    static constexpr std::uint32_t kFreeCell = ~std::uint32_t{0};

    /** The cell a probe for `key` starts at (multiplicative hash). */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

    std::vector<std::uint32_t> cells_;
    unsigned shift_ = 0;
};

} // namespace stems

#endif // STEMS_COMMON_SLOT_INDEX_HH
