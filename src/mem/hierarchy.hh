/**
 * @file
 * Two-level cache hierarchy (split-L1 modelled as L1D only, unified
 * L2) matching the paper's Table 1 node configuration: 64 KB 2-way L1D
 * and 8 MB 8-way unified L2, 64 B blocks.
 *
 * The hierarchy exposes the fine-grained steps (L1 lookup, L2 lookup,
 * fills) separately so the prefetch simulator can interpose the
 * streamed value buffer between the L2 and memory.
 */

#ifndef STEMS_MEM_HIERARCHY_HH
#define STEMS_MEM_HIERARCHY_HH

#include <functional>

#include "mem/cache.hh"

namespace stems {

/** Where a demand access was satisfied. */
enum class HitLevel : std::uint8_t
{
    kL1 = 0,
    kL2 = 1,
    kSvb = 2,    ///< satisfied by the streamed value buffer
    kMemory = 3, ///< off-chip
};

/** Default hierarchy geometry (paper Table 1). */
struct HierarchyParams
{
    std::size_t l1Bytes = 64 * 1024;
    std::size_t l1Ways = 2;
    std::size_t l2Bytes = 8 * 1024 * 1024;
    std::size_t l2Ways = 8;
};

/**
 * L1D + unified L2, with the callbacks the prefetchers need:
 * L1 evictions/invalidations terminate SMS/STeMS spatial generations,
 * and L2 evictions of unreferenced prefetches count as overpredictions
 * for cache-sink prefetchers.
 */
class Hierarchy
{
  public:
    /** Callback invoked with the block address leaving the L1. */
    using EvictCallback = std::function<void(Addr)>;

    explicit Hierarchy(const HierarchyParams &params = {});

    /** Register the L1 eviction/invalidation observer (may be null). */
    void setL1EvictCallback(EvictCallback cb) { l1Evict_ = std::move(cb); }

    /** Register the observer for unused L2 prefetch evictions. */
    void
    setL2PrefetchDropCallback(EvictCallback cb)
    {
        l2PrefetchDrop_ = std::move(cb);
    }

    /** L1 demand lookup (promote/reference on hit). @return hit? */
    bool accessL1(Addr a);

    /** Result of an L2 demand lookup: hit, and whether a prefetch
     *  covered it. */
    using L2Result = Cache::Lookup;

    /** L2 demand lookup (promote/reference on hit); one set probe. */
    L2Result accessL2(Addr a) { return l2_.demand(a); }

    /** Start loading the L1 set a lookup of `a` probes (a host
     *  prefetch; no model state changes). */
    void prefetchL1(Addr a) const { l1_.prefetchSet(a); }

    /** Start loading the L2 set a lookup of `a` probes (a host
     *  prefetch; no model state changes). */
    void prefetchL2(Addr a) const { l2_.prefetchSet(a); }

    /** Fill the L1 only (used after an L2 hit). */
    void fillL1(Addr a);

    /** Demand fill from memory/SVB into both L2 and L1. */
    void fill(Addr a);

    /** Prefetch fill into the L2 (cache-sink prefetchers, e.g. SMS). */
    void fillPrefetchL2(Addr a);

    /** Coherence invalidation: drop the block from both levels. */
    void invalidate(Addr a);

    /** Underlying caches (for statistics). */
    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }

    /** Serialize both cache levels (checkpointing). Callbacks are
     *  wiring, not state: the owner re-registers them. */
    void saveState(StateWriter &w) const;

    /** Restore state saved from an identical geometry. */
    void loadState(StateReader &r);

  private:
    void handleL1Victim(const std::optional<Cache::Victim> &v);
    void handleL2Victim(const std::optional<Cache::Victim> &v);

    Cache l1_;
    Cache l2_;
    EvictCallback l1Evict_;
    EvictCallback l2PrefetchDrop_;
};

} // namespace stems

#endif // STEMS_MEM_HIERARCHY_HH
