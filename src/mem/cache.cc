#include "mem/cache.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/state_codec.hh"

namespace stems {

Cache::Cache(std::string name, std::size_t size_bytes, std::size_t ways)
    : name_(std::move(name)), ways_(ways)
{
    std::size_t blocks = size_bytes / kBlockBytes;
    if (ways == 0 || blocks == 0)
        fatal("cache " + name_ + ": zero size or associativity");
    if (blocks % ways != 0)
        fatal("cache " + name_ + ": size not divisible by ways");
    sets_ = blocks / ways;
    setsPow2_ = (sets_ & (sets_ - 1)) == 0;
    blocks_.assign(2 * blocks, 0);
    for (std::size_t s = 0; s < sets_; ++s)
        std::fill_n(blocks_.data() + s * 2 * ways_, ways_, kEmptyTag);
}

std::size_t
Cache::findWay(const Addr *tags, Addr tag) const
{
    // Branch-free; backwards, so the lowest matching way wins (the
    // historical first-match scan).
    std::size_t way = ways_;
    for (std::size_t w = ways_; w-- > 0;)
        way = tags[w] == tag ? w : way;
    return way;
}

std::size_t
Cache::victimWay(const std::uint64_t *meta) const
{
    // Empty ways carry stamp 0 and valid ways stamp >= 1, so one
    // strict-< scan finds the first empty way, else the first LRU way.
    std::size_t victim = 0;
    std::uint64_t oldest = meta[0] >> kStampShift;
    for (std::size_t w = 1; w < ways_; ++w) {
        std::uint64_t stamp = meta[w] >> kStampShift;
        bool older = stamp < oldest;
        victim = older ? w : victim;
        oldest = older ? stamp : oldest;
    }
    return victim;
}

Cache::Lookup
Cache::demand(Addr a)
{
    ++accesses_;
    Addr *tags = setBlock(a);
    std::size_t way = findWay(tags, blockNumber(a));
    if (way == ways_) {
        ++misses_;
        return {};
    }
    std::uint64_t &meta = tags[ways_ + way];
    Lookup r;
    r.hit = true;
    r.coveredByPrefetch = (meta & kFlags) == kPrefetched;
    meta = (++clock_ << kStampShift) | (meta & kPrefetched) | kReferenced;
    return r;
}

bool
Cache::contains(Addr a) const
{
    return findWay(setBlock(a), blockNumber(a)) != ways_;
}

std::optional<Cache::Victim>
Cache::insert(Addr a, bool prefetched)
{
    Addr *tags = setBlock(a);
    std::uint64_t *meta = tags + ways_;
    Addr tag = blockNumber(a);
    std::size_t way = findWay(tags, tag);
    if (way != ways_) {
        // Refill of a resident block: refresh recency only.
        meta[way] = (++clock_ << kStampShift) | (meta[way] & kFlags);
        return std::nullopt;
    }

    way = victimWay(meta);
    std::optional<Victim> displaced;
    if (meta[way] != 0) {
        displaced = Victim{tags[way] << kBlockShift,
                           (meta[way] & kPrefetched) != 0,
                           (meta[way] & kReferenced) != 0};
    }
    tags[way] = tag;
    meta[way] = (++clock_ << kStampShift) | (prefetched ? kPrefetched : 0);
    return displaced;
}

std::optional<Cache::Victim>
Cache::invalidate(Addr a)
{
    Addr *tags = setBlock(a);
    std::size_t way = findWay(tags, blockNumber(a));
    if (way == ways_)
        return std::nullopt;
    std::uint64_t &meta = tags[ways_ + way];
    Victim v{tags[way] << kBlockShift, (meta & kPrefetched) != 0,
             (meta & kReferenced) != 0};
    tags[way] = kEmptyTag;
    meta = 0;
    return v;
}

bool
Cache::isPrefetchedUnreferenced(Addr a) const
{
    const Addr *tags = setBlock(a);
    std::size_t way = findWay(tags, blockNumber(a));
    return way != ways_ && (tags[ways_ + way] & kFlags) == kPrefetched;
}

std::size_t
Cache::unreferencedPrefetches() const
{
    std::size_t n = 0;
    for (std::size_t s = 0; s < sets_; ++s) {
        const std::uint64_t *meta = blocks_.data() + (2 * s + 1) * ways_;
        for (std::size_t w = 0; w < ways_; ++w)
            n += (meta[w] & kFlags) == kPrefetched;
    }
    return n;
}

void
Cache::prefetchSet(Addr a) const
{
    const Addr *block = setBlock(a);
    __builtin_prefetch(block);
    __builtin_prefetch(block + 2 * ways_ - 1);
}

namespace {
constexpr std::uint32_t kCacheTag = stateTag('C', 'A', 'C', 'H');
} // namespace

void
Cache::saveState(StateWriter &w) const
{
    w.tag(kCacheTag);
    w.u64(sets_);
    w.u64(ways_);
    w.u64(clock_);
    w.u64(accesses_);
    w.u64(misses_);
    // Way positions within a set decide future victim scans, so every
    // way is written positionally, empty ones included.
    for (std::size_t s = 0; s < sets_; ++s) {
        const Addr *tags = blocks_.data() + 2 * s * ways_;
        const std::uint64_t *meta = tags + ways_;
        for (std::size_t way = 0; way < ways_; ++way) {
            w.boolean(meta[way] != 0);
            if (meta[way] == 0)
                continue;
            w.u64(tags[way]);
            w.u64(meta[way] >> kStampShift);
            w.boolean((meta[way] & kPrefetched) != 0);
            w.boolean((meta[way] & kReferenced) != 0);
        }
    }
}

void
Cache::loadState(StateReader &r)
{
    r.tag(kCacheTag);
    if (r.u64() != sets_ || r.u64() != ways_) {
        r.fail();
        return;
    }
    clock_ = r.u64();
    accesses_ = r.u64();
    misses_ = r.u64();
    if (clock_ > kMaxStamp) {
        r.fail();
        return;
    }
    for (std::size_t s = 0; s < sets_; ++s) {
        Addr *tags = blocks_.data() + 2 * s * ways_;
        std::uint64_t *meta = tags + ways_;
        for (std::size_t way = 0; way < ways_; ++way) {
            tags[way] = kEmptyTag;
            meta[way] = 0;
            if (!r.boolean())
                continue;
            Addr tag = r.u64();
            std::uint64_t stamp = r.u64();
            bool prefetched = r.boolean();
            bool referenced = r.boolean();
            // A valid way with stamp 0 or the sentinel tag would
            // decode as empty, and a stamp past kMaxStamp would lose
            // its top bits: reject rather than re-encode differently.
            if (!r.ok() || stamp == 0 || stamp > kMaxStamp ||
                tag == kEmptyTag) {
                r.fail();
                return;
            }
            tags[way] = tag;
            meta[way] = (stamp << kStampShift) |
                        (prefetched ? kPrefetched : 0) |
                        (referenced ? kReferenced : 0);
        }
    }
}

} // namespace stems
