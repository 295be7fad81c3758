#include "mem/svb.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"
#include "common/state_codec.hh"

namespace stems {

namespace {

void
setBit(std::vector<std::uint64_t> &mask, std::size_t i)
{
    mask[i / 64] |= std::uint64_t{1} << (i % 64);
}

void
clearBit(std::vector<std::uint64_t> &mask, std::size_t i)
{
    mask[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

} // namespace

StreamedValueBuffer::StreamedValueBuffer(std::size_t capacity)
{
    // Slot numbers and the recency-list sentinel (slot `capacity`)
    // are 32-bit.
    if (capacity == 0 ||
        capacity >= std::numeric_limits<std::uint32_t>::max())
        fatal("SVB capacity must be in [1, 2^32 - 2]");
    keys_.resize(capacity);
    stamps_.resize(capacity);
    entries_.resize(capacity);
    index_ = SlotIndex(capacity);
    freeMask_.resize((capacity + 63) / 64);
    links_.resize(capacity + 1);
    clear();
}

void
StreamedValueBuffer::clear()
{
    clock_ = 0;
    std::fill(stamps_.begin(), stamps_.end(), 0);
    index_.clear();
    std::fill(freeMask_.begin(), freeMask_.end(), ~std::uint64_t{0});
    if (capacity() % 64 != 0)
        freeMask_.back() = (std::uint64_t{1} << (capacity() % 64)) - 1;
    const auto sentinel = static_cast<std::uint32_t>(capacity());
    links_[sentinel] = {sentinel, sentinel};
}

std::size_t
StreamedValueBuffer::victim() const
{
    for (std::size_t w = 0; w < freeMask_.size(); ++w) {
        if (freeMask_[w] != 0)
            return w * 64 + static_cast<std::size_t>(
                                __builtin_ctzll(freeMask_[w]));
    }
    // Full: live stamps are distinct, so the list head is the
    // lowest-stamp slot.
    return links_[capacity()].next;
}

void
StreamedValueBuffer::link(std::size_t slot)
{
    const auto sentinel = static_cast<std::uint32_t>(capacity());
    const std::uint32_t mru = links_[sentinel].prev;
    links_[slot] = {mru, sentinel};
    links_[mru].next = static_cast<std::uint32_t>(slot);
    links_[sentinel].prev = static_cast<std::uint32_t>(slot);
}

void
StreamedValueBuffer::unlink(std::size_t slot)
{
    const Link l = links_[slot];
    links_[l.prev].next = l.next;
    links_[l.next].prev = l.prev;
}

StreamedValueBuffer::Entry
StreamedValueBuffer::take(std::size_t slot)
{
    index_.erase(slot, keys_.data());
    unlink(slot);
    stamps_[slot] = 0;
    setBit(freeMask_, slot);
    return entries_[slot];
}

std::optional<StreamedValueBuffer::Entry>
StreamedValueBuffer::insert(const Entry &e)
{
    std::size_t slot = find(e.addr);
    if (slot == SlotIndex::kNone)
        return insertAbsent(e);
    entries_[slot] = e;
    entries_[slot].addr = keys_[slot];
    stamps_[slot] = ++clock_;
    unlink(slot);
    link(slot);
    return std::nullopt;
}

std::optional<StreamedValueBuffer::Entry>
StreamedValueBuffer::insertAbsent(const Entry &e)
{
    std::size_t slot = victim();
    std::optional<Entry> displaced;
    if (stamps_[slot] != 0) {
        displaced = entries_[slot];
        index_.erase(slot, keys_.data());
        unlink(slot);
    } else {
        clearBit(freeMask_, slot);
    }
    keys_[slot] = blockAlign(e.addr);
    entries_[slot] = e;
    entries_[slot].addr = keys_[slot];
    stamps_[slot] = ++clock_;
    index_.insert(slot, keys_.data());
    link(slot);
    return displaced;
}

std::optional<StreamedValueBuffer::Entry>
StreamedValueBuffer::consume(Addr a)
{
    std::size_t slot = find(a);
    if (slot == SlotIndex::kNone)
        return std::nullopt;
    return take(slot);
}

bool
StreamedValueBuffer::contains(Addr a) const
{
    return find(a) != SlotIndex::kNone;
}

std::optional<StreamedValueBuffer::Entry>
StreamedValueBuffer::invalidate(Addr a)
{
    return consume(a);
}

std::optional<StreamedValueBuffer::Entry>
StreamedValueBuffer::consumeAny()
{
    // The lowest clear bit is the lowest live slot; the clear bits
    // past capacity() come after every slot of the last word.
    for (std::size_t w = 0; w < freeMask_.size(); ++w) {
        if (~freeMask_[w] == 0)
            continue;
        std::size_t slot = w * 64 + static_cast<std::size_t>(
                                        __builtin_ctzll(~freeMask_[w]));
        if (slot >= capacity())
            break;
        return take(slot);
    }
    return std::nullopt;
}

std::size_t
StreamedValueBuffer::occupancy() const
{
    std::size_t free = 0;
    for (std::uint64_t word : freeMask_)
        free += static_cast<std::size_t>(__builtin_popcountll(word));
    return capacity() - free;
}

std::size_t
StreamedValueBuffer::occupancyForStream(int stream_id) const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < stamps_.size(); ++i)
        n += stamps_[i] != 0 && entries_[i].streamId == stream_id;
    return n;
}

namespace {
constexpr std::uint32_t kSvbTag = stateTag('S', 'V', 'B', '1');
} // namespace

void
StreamedValueBuffer::saveState(StateWriter &w) const
{
    w.tag(kSvbTag);
    w.u64(keys_.size());
    w.u64(clock_);
    // Slot order decides consumeAny()'s drain order: positional.
    for (std::size_t i = 0; i < keys_.size(); ++i) {
        w.boolean(stamps_[i] != 0);
        if (stamps_[i] == 0)
            continue;
        w.u64(stamps_[i]);
        w.u64(entries_[i].addr);
        w.i64(entries_[i].streamId);
        w.u64(entries_[i].readyTime);
    }
}

void
StreamedValueBuffer::loadState(StateReader &r)
{
    r.tag(kSvbTag);
    const std::uint64_t saved_capacity = r.u64();
    const std::uint64_t clock = r.u64();
    clear();
    if (saved_capacity != capacity()) {
        r.fail();
        return;
    }
    clock_ = clock;
    for (std::size_t i = 0; i < capacity() && r.ok(); ++i) {
        if (!r.boolean())
            continue;
        const std::uint64_t stamp = r.u64();
        Entry e;
        e.addr = r.u64();
        e.streamId = static_cast<int>(r.i64());
        e.readyTime = r.u64();
        // Stamp 0 marks a free slot, and a stamp above the clock
        // would be handed out again. A block live in two slots would
        // be found in only one of them. A run stores block-aligned
        // addresses only. Reject all of these rather than load state
        // that re-encodes or behaves differently.
        if (stamp == 0 || stamp > clock_ || e.addr != blockAlign(e.addr) ||
            find(e.addr) != SlotIndex::kNone) {
            r.fail();
            break;
        }
        keys_[i] = e.addr;
        stamps_[i] = stamp;
        entries_[i] = e;
        index_.insert(i, keys_.data());
        clearBit(freeMask_, i);
    }
    // The recency list is the live slots in stamp order. Saved stamps
    // are distinct; two equal ones would leave the LRU slot undefined.
    std::vector<std::uint32_t> live;
    for (std::size_t i = 0; i < capacity(); ++i)
        if (stamps_[i] != 0)
            live.push_back(static_cast<std::uint32_t>(i));
    std::sort(live.begin(), live.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return stamps_[a] < stamps_[b];
              });
    for (std::size_t k = 1; k < live.size() && r.ok(); ++k)
        if (stamps_[live[k - 1]] == stamps_[live[k]])
            r.fail();
    if (!r.ok()) {
        clear();
        return;
    }
    for (std::uint32_t slot : live)
        link(slot);
}

} // namespace stems
