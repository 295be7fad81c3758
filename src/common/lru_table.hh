/**
 * @file
 * Set-associative, LRU-replaced lookup table.
 *
 * The finite predictor structures in this repository (SMS PHT, STeMS
 * PST, AGT, stride table) are all bounded set-associative tables with
 * LRU replacement; this template captures that discipline once.
 *
 * Layout: structure-of-arrays. Keys, LRU stamps and values live in
 * three parallel arrays indexed by slot (set * ways + way). A lookup
 * probes the set's key lane — one contiguous cache line of keys for
 * typical associativities — and touches the value lane just on a
 * hit; the hot miss path never drags value bytes (136-byte PST
 * entries, AGT generations) through the cache. There is no validity
 * lane: a slot is invalid exactly when its stamp is 0, because
 * touch() stamps from 1 and erase() zeroes the stamp. That makes the
 * victim scan a branchless running-min over the set's contiguous
 * stamp lane (conditional moves, no data-dependent branches to
 * mispredict on random recency order) which picks the first free way
 * or the first-index LRU way in one pass.
 *
 * A fully associative table (one set, such as the 64-entry SMS and
 * STeMS AGTs) also keeps a SlotIndex (common/slot_index.hh, shared
 * with the streamed value buffer) holding exactly the valid slots.
 * Lookups probe it instead of scanning every key; insertion, eviction
 * and erase keep it current, loadState rebuilds it, and it is never
 * serialized. Set-associative tables scan their set's key lane, one
 * line for typical associativities.
 *
 * Replacement semantics are identical to the historical
 * array-of-structs implementation (kept as the property-test oracle
 * in tests/reference_lru_table.hh): first invalid way, else the
 * lowest-stamp way, first-index tie-break; the serialized state is
 * byte-identical as well.
 */

#ifndef STEMS_COMMON_LRU_TABLE_HH
#define STEMS_COMMON_LRU_TABLE_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/slot_index.hh"

namespace stems {

/**
 * A set-associative table mapping a 64-bit key to a value, with
 * per-set LRU replacement.
 *
 * @tparam V  value type; must be default-constructible.
 */
template <typename V>
class LruTable
{
  public:
    /**
     * Construct a table.
     *
     * @param entries  total entry count (rounded up to a multiple of
     *                 the associativity).
     * @param ways     associativity (> 0).
     */
    LruTable(std::size_t entries, std::size_t ways)
        : ways_(ways)
    {
        assert(ways > 0 && entries > 0);
        sets_ = (entries + ways - 1) / ways;
        std::size_t slots = sets_ * ways_;
        keys_.assign(slots, 0);
        lru_.assign(slots, 0);
        values_.resize(slots);
        if (sets_ == 1)
            slotIndex_ = SlotIndex(slots);
    }

    /**
     * Find a value, promoting it to MRU on hit.
     *
     * @return pointer to the value, or nullptr on miss.
     */
    V *
    find(std::uint64_t key)
    {
        std::size_t i = findIndex(key);
        if (i == kNone)
            return nullptr;
        touch(i);
        return &values_[i];
    }

    /** Find without updating recency. @return nullptr on miss. */
    const V *
    peek(std::uint64_t key) const
    {
        std::size_t i = findIndex(key);
        return i == kNone ? nullptr : &values_[i];
    }

    /**
     * Find or insert (default-constructed) a value; promotes to MRU.
     *
     * When insertion evicts a valid victim, the callback is invoked
     * with the victim's key and value before it is destroyed. The
     * callback is a template parameter (not std::function) so the
     * common empty/lambda cases inline.
     *
     * @return reference to the (possibly new) value.
     */
    template <typename OnEvict>
    V &
    findOrInsert(std::uint64_t key, OnEvict &&on_evict)
    {
        if (V *v = find(key))
            return *v;
        std::size_t i = victimIndex(key);
        if (lru_[i]) {
            on_evict(keys_[i], values_[i]);
            unindex(i);
        }
        keys_[i] = key;
        values_[i] = V();
        touch(i);
        index(i);
        return values_[i];
    }

    /** findOrInsert without an eviction observer. */
    V &
    findOrInsert(std::uint64_t key)
    {
        return findOrInsert(key, [](std::uint64_t, V &) {});
    }

    /** Ask the host to start loading the set `key` maps to (its key
     *  and stamp lanes); no table state changes. */
    void
    prefetch(std::uint64_t key) const
    {
        std::size_t base = setIndex(key) * ways_;
        __builtin_prefetch(&keys_[base]);
        __builtin_prefetch(&lru_[base]);
    }

    /** Remove an entry if present. @return true when removed. */
    bool
    erase(std::uint64_t key)
    {
        std::size_t i = findIndex(key);
        if (i == kNone)
            return false;
        unindex(i);
        lru_[i] = 0;
        return true;
    }

    /** Number of valid entries across all sets. */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (std::uint64_t s : lru_)
            n += s != 0;
        return n;
    }

    /** Total capacity. */
    std::size_t capacity() const { return sets_ * ways_; }

    /**
     * Visit every valid entry (key, value). The visitor is a template
     * parameter so it inlines.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < lru_.size(); ++i)
            if (lru_[i])
                fn(keys_[i], values_[i]);
    }

    /**
     * Serialize the full table state (checkpointing). Slot positions
     * are preserved exactly: which way of a set holds an entry decides
     * future victim scans, so positional identity is part of the
     * behavioural state.
     *
     * @param save_value  (Writer &, const V &) serializer for values.
     */
    template <typename Writer, typename SaveFn>
    void
    saveState(Writer &w, SaveFn &&save_value) const
    {
        w.u64(ways_);
        w.u64(sets_);
        w.u64(clock_);
        for (std::size_t i = 0; i < lru_.size(); ++i) {
            w.boolean(lru_[i] != 0);
            if (lru_[i]) {
                w.u64(keys_[i]);
                w.u64(lru_[i]);
                save_value(w, values_[i]);
            }
        }
    }

    /**
     * Restore state written by saveState into a table of identical
     * geometry (fails the reader otherwise, and on a slot no run can
     * produce). A failed load leaves a consistent table holding the
     * slots decoded before the failure.
     *
     * @param load_value  (Reader &, V &) deserializer for values.
     */
    template <typename Reader, typename LoadFn>
    void
    loadState(Reader &r, LoadFn &&load_value)
    {
        if (r.u64() != ways_ || r.u64() != sets_) {
            r.fail();
            return;
        }
        clock_ = r.u64();
        std::fill(keys_.begin(), keys_.end(), 0);
        std::fill(lru_.begin(), lru_.end(), 0);
        std::fill(values_.begin(), values_.end(), V());
        slotIndex_.clear();
        for (std::size_t i = 0; i < lru_.size(); ++i) {
            if (r.boolean()) {
                const std::uint64_t key = r.u64();
                const std::uint64_t stamp = r.u64();
                load_value(r, values_[i]);
                // Stamp 0 marks a free slot: a slot flagged valid
                // with stamp 0 would decode as free and re-encode
                // differently. A key already valid in another slot
                // would be found in only one of the two. Reject both.
                if (stamp == 0 || findIndex(key) != kNone) {
                    r.fail();
                    return;
                }
                keys_[i] = key;
                lru_[i] = stamp;
                index(i);
            }
            if (!r.ok())
                return;
        }
    }

  private:
    static constexpr std::size_t kNone = SlotIndex::kNone;

    std::size_t setIndex(std::uint64_t key) const
    {
        // Multiplicative hash spreads structured keys (PC+offset
        // concatenations) across sets.
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> 32) % sets_;
    }

    std::size_t
    findIndex(std::uint64_t key) const
    {
        if (!slotIndex_.empty())
            return slotIndex_.find(key, keys_.data());
        std::size_t base = setIndex(key) * ways_;
        for (std::size_t w = 0; w < ways_; ++w) {
            std::size_t i = base + w;
            if (keys_[i] == key && lru_[i])
                return i;
        }
        return kNone;
    }

    std::size_t
    victimIndex(std::uint64_t key) const
    {
        // An invalid way holds stamp 0, strictly older than any valid
        // entry (touch() stamps from 1), so one strict-< min scan
        // selects the first invalid way when one exists and the
        // first-index LRU way otherwise — the oracle's semantics. The
        // ternaries compile to conditional moves; a branching
        // running-min mispredicts on random recency order, which
        // measured 3-4x slower on full sets.
        std::size_t base = setIndex(key) * ways_;
        std::size_t victim = base;
        std::uint64_t victim_stamp = lru_[base];
        for (std::size_t w = 1; w < ways_; ++w) {
            std::uint64_t stamp = lru_[base + w];
            bool older = stamp < victim_stamp;
            victim = older ? base + w : victim;
            victim_stamp = older ? stamp : victim_stamp;
        }
        return victim;
    }

    void touch(std::size_t i) { lru_[i] = ++clock_; }

    /** Enter valid slot i, whose key is absent, in the slot index. */
    void
    index(std::size_t i)
    {
        if (!slotIndex_.empty())
            slotIndex_.insert(i, keys_.data());
    }

    /** Remove valid slot i (key still in keys_[i]) from the slot
     *  index. */
    void
    unindex(std::size_t i)
    {
        if (!slotIndex_.empty())
            slotIndex_.erase(i, keys_.data());
    }

    std::size_t ways_;
    std::size_t sets_ = 0;
    std::uint64_t clock_ = 0;
    /// Parallel slot lanes (structure-of-arrays); index = set * ways
    /// + way. Stamp 0 in lru_ marks the slot invalid (keys_/values_
    /// are then stale and ignored).
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> lru_;
    std::vector<V> values_;
    /// Fully associative tables only (empty otherwise): the valid
    /// slots, by key (see the file comment).
    SlotIndex slotIndex_;
};

} // namespace stems

#endif // STEMS_COMMON_LRU_TABLE_HH
