/**
 * @file
 * Reference oracle for Cache property tests.
 *
 * The historical array-of-structs Cache (before the set-blocked
 * rewrite in mem/cache.hh), renamed and made header-only; only the
 * constructor's argument checks were dropped.
 * hotpath_test.cc drives both with identical seeded operation streams
 * and requires the same hits, victims and coverage flags plus
 * byte-identical serialized state. Do not "improve" this file — its
 * value is that it is the old behaviour, frozen.
 */

#ifndef STEMS_TESTS_REFERENCE_CACHE_HH
#define STEMS_TESTS_REFERENCE_CACHE_HH

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/state_codec.hh"
#include "common/types.hh"

namespace stems {

class ReferenceCache
{
  public:
    struct Victim
    {
        Addr addr = 0;
        bool prefetched = false;
        bool referenced = false;
    };

    ReferenceCache(std::string name, std::size_t size_bytes,
                   std::size_t ways)
        : name_(std::move(name)), ways_(ways)
    {
        std::size_t blocks = size_bytes / kBlockBytes;
        sets_ = blocks / ways;
        lines_.resize(blocks);
    }

    bool
    access(Addr a)
    {
        ++accesses_;
        Line *l = findLine(a);
        if (!l) {
            ++misses_;
            return false;
        }
        l->lru = ++clock_;
        l->referenced = true;
        return true;
    }

    bool contains(Addr a) const { return findLine(a) != nullptr; }

    std::optional<Victim>
    insert(Addr a, bool prefetched = false)
    {
        Line *l = findLine(a);
        if (l) {
            // Refill of a resident block: refresh recency only.
            l->lru = ++clock_;
            return std::nullopt;
        }

        std::size_t base = setIndex(a) * ways_;
        Line *victim = &lines_[base];
        for (std::size_t w = 0; w < ways_; ++w) {
            Line &cand = lines_[base + w];
            if (!cand.valid) {
                victim = &cand;
                break;
            }
            if (cand.lru < victim->lru)
                victim = &cand;
        }

        std::optional<Victim> displaced;
        if (victim->valid) {
            displaced = Victim{victim->tag << kBlockShift,
                               victim->prefetched, victim->referenced};
        }
        victim->valid = true;
        victim->tag = blockNumber(a);
        victim->lru = ++clock_;
        victim->prefetched = prefetched;
        victim->referenced = false;
        return displaced;
    }

    std::optional<Victim>
    invalidate(Addr a)
    {
        Line *l = findLine(a);
        if (!l)
            return std::nullopt;
        Victim v{l->tag << kBlockShift, l->prefetched, l->referenced};
        l->valid = false;
        return v;
    }

    bool
    isPrefetchedUnreferenced(Addr a) const
    {
        const Line *l = findLine(a);
        return l && l->prefetched && !l->referenced;
    }

    std::size_t
    unreferencedPrefetches() const
    {
        std::size_t n = 0;
        for (const Line &l : lines_)
            if (l.valid && l.prefetched && !l.referenced)
                ++n;
        return n;
    }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

    void
    saveState(StateWriter &w) const
    {
        w.tag(stateTag('C', 'A', 'C', 'H'));
        w.u64(sets_);
        w.u64(ways_);
        w.u64(clock_);
        w.u64(accesses_);
        w.u64(misses_);
        for (const Line &l : lines_) {
            w.boolean(l.valid);
            if (!l.valid)
                continue;
            w.u64(l.tag);
            w.u64(l.lru);
            w.boolean(l.prefetched);
            w.boolean(l.referenced);
        }
    }

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
        bool prefetched = false;
        bool referenced = false;
    };

    std::size_t setIndex(Addr a) const
    {
        return static_cast<std::size_t>(blockNumber(a)) % sets_;
    }

    const Line *
    findLine(Addr a) const
    {
        Addr tag = blockNumber(a);
        std::size_t base = setIndex(a) * ways_;
        for (std::size_t w = 0; w < ways_; ++w) {
            const Line &l = lines_[base + w];
            if (l.valid && l.tag == tag)
                return &l;
        }
        return nullptr;
    }

    Line *
    findLine(Addr a)
    {
        return const_cast<Line *>(
            static_cast<const ReferenceCache *>(this)->findLine(a));
    }

    std::string name_;
    std::size_t ways_;
    std::size_t sets_;
    std::uint64_t clock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::vector<Line> lines_;
};

} // namespace stems

#endif // STEMS_TESTS_REFERENCE_CACHE_HH
