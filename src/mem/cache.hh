/**
 * @file
 * Set-associative cache model with LRU replacement, prefetch tagging
 * and eviction/invalidation callbacks.
 *
 * This is a functional (hit/miss) model: it tracks tags and metadata,
 * not data. Timing is layered on separately by src/sim/timing.
 *
 * Layout: set-blocked. Set s owns 2 x ways consecutive words of one
 * 128 B-aligned array: its tags, then its metadata words. For the
 * 8-way L2 that is one 64 B line of tags beside one line of metadata,
 * so a probe or a fill touches one aligned 128 B block (separate
 * global tag/stamp/flag arrays measured worse: a fill then touches
 * three distant lines). A metadata word packs the LRU stamp above the
 * prefetched and referenced bits. Stamp 0 marks an empty way, whose
 * tag holds the all-ones sentinel: no block number reaches it, so the
 * tag compare needs no validity test, and the victim scan is one
 * strict-< running minimum over the stamps that picks the first empty
 * way, else the first-index LRU way — the historical semantics
 * (tests/reference_cache.hh).
 */

#ifndef STEMS_MEM_CACHE_HH
#define STEMS_MEM_CACHE_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.hh"
#include "common/types.hh"

namespace stems {

class StateWriter;
class StateReader;

/**
 * A single-level, set-associative, LRU-replaced cache of 64 B blocks.
 */
class Cache
{
  public:
    /** Information about a block displaced by an insertion. */
    struct Victim
    {
        Addr addr = 0;        ///< block-aligned address evicted
        bool prefetched = false; ///< block was filled by a prefetch
        bool referenced = false; ///< block was demand-referenced
    };

    /** Outcome of a demand lookup. */
    struct Lookup
    {
        bool hit = false;
        /** Hit on a block a prefetcher filled that was never demand
         *  referenced before — i.e. the prefetch covered this miss. */
        bool coveredByPrefetch = false;
    };

    /**
     * Construct a cache.
     *
     * @param name        label used in statistics output.
     * @param size_bytes  total capacity; must be a multiple of the
     *                    block size times the associativity.
     * @param ways        associativity.
     */
    Cache(std::string name, std::size_t size_bytes, std::size_t ways);

    /**
     * Demand lookup in one set probe: reports the hit and whether it
     * is the first demand use of a prefetched block, then promotes
     * the block to MRU and marks it referenced. Does not allocate.
     */
    Lookup demand(Addr a);

    /** Demand lookup without the prefetch report. @return true on hit. */
    bool access(Addr a) { return demand(a).hit; }

    /** Non-destructive presence check (no LRU update). */
    bool contains(Addr a) const;

    /**
     * Insert a block (fill). Evicts the set's LRU block when needed.
     *
     * @param a           address of the block to fill.
     * @param prefetched  mark the block as a prefetch fill.
     * @return the displaced victim, if any.
     */
    std::optional<Victim> insert(Addr a, bool prefetched = false);

    /**
     * Invalidate a block if present.
     *
     * @return metadata of the invalidated block, if it was present.
     */
    std::optional<Victim> invalidate(Addr a);

    /**
     * True when the block is present, was filled by a prefetch, and
     * has not yet been demand-referenced.
     */
    bool isPrefetchedUnreferenced(Addr a) const;

    /**
     * Number of resident blocks filled by prefetches and never
     * demand-referenced (end-of-run overprediction sweep).
     */
    std::size_t unreferencedPrefetches() const;

    /** Ask the host to start loading the set block a lookup of `a`
     *  probes; no model state changes. */
    void prefetchSet(Addr a) const;

    /** Number of sets. */
    std::size_t numSets() const { return sets_; }

    /** Associativity. */
    std::size_t numWays() const { return ways_; }

    /** Name given at construction. */
    const std::string &name() const { return name_; }

    /** Demand accesses observed. */
    std::uint64_t accesses() const { return accesses_; }

    /** Demand misses observed. */
    std::uint64_t misses() const { return misses_; }

    /** Serialize the full cache state (checkpointing). */
    void saveState(StateWriter &w) const;

    /** Restore state saved from an identically-shaped cache; fails
     *  the reader on a geometry mismatch and on a way the set block
     *  cannot hold (valid with stamp 0, the sentinel tag, or a stamp
     *  or clock past 62 bits). */
    void loadState(StateReader &r);

  private:
    static constexpr Addr kEmptyTag = ~Addr{0};
    static constexpr std::uint64_t kReferenced = 1;
    static constexpr std::uint64_t kPrefetched = 2;
    static constexpr std::uint64_t kFlags = kReferenced | kPrefetched;
    static constexpr unsigned kStampShift = 2;
    /// Largest stamp a metadata word holds; at one tick per access no
    /// run reaches it.
    static constexpr std::uint64_t kMaxStamp =
        ~std::uint64_t{0} >> kStampShift;

    std::size_t
    setIndex(Addr a) const
    {
        Addr block = blockNumber(a);
        return static_cast<std::size_t>(
            setsPow2_ ? block & (sets_ - 1) : block % sets_);
    }

    /** A set's block: `ways_` tags, then `ways_` metadata words. */
    Addr *setBlock(Addr a) { return blocks_.data() + setIndex(a) * 2 * ways_; }
    const Addr *
    setBlock(Addr a) const
    {
        return blocks_.data() + setIndex(a) * 2 * ways_;
    }

    /** Way holding `tag` in a set's tag lane; ways_ when absent. */
    std::size_t findWay(const Addr *tags, Addr tag) const;

    /** First empty way, else the first-index LRU way. */
    std::size_t victimWay(const std::uint64_t *meta) const;

    std::string name_;
    std::size_t ways_;
    std::size_t sets_;
    bool setsPow2_ = false;
    std::uint64_t clock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    /// Set blocks back to back (see the file comment).
    std::vector<Addr, AlignedAllocator<Addr, 128>> blocks_;
};

} // namespace stems

#endif // STEMS_MEM_CACHE_HH
