#include "mem/svb.hh"

#include "common/log.hh"
#include "common/state_codec.hh"

namespace stems {

StreamedValueBuffer::StreamedValueBuffer(std::size_t capacity)
    : keys_(capacity, kEmptyKey), stamps_(capacity, 0), entries_(capacity)
{
    if (capacity == 0)
        fatal("SVB capacity must be > 0");
}

std::size_t
StreamedValueBuffer::find(Addr a) const
{
    // One branch-free pass; backwards, so the lowest matching slot
    // wins (the historical first-match scan).
    const Addr key = blockAlign(a);
    std::size_t slot = keys_.size();
    for (std::size_t i = keys_.size(); i-- > 0;)
        slot = keys_[i] == key ? i : slot;
    return slot;
}

std::size_t
StreamedValueBuffer::victim() const
{
    // Free slots carry stamp 0 and live ones stamp >= 1, so one
    // strict-< scan finds the first free slot, else the first LRU one.
    std::size_t slot = 0;
    std::uint64_t oldest = stamps_[0];
    for (std::size_t i = 1; i < stamps_.size(); ++i) {
        bool older = stamps_[i] < oldest;
        slot = older ? i : slot;
        oldest = older ? stamps_[i] : oldest;
    }
    return slot;
}

StreamedValueBuffer::Entry
StreamedValueBuffer::take(std::size_t slot)
{
    keys_[slot] = kEmptyKey;
    stamps_[slot] = 0;
    return entries_[slot];
}

std::optional<StreamedValueBuffer::Entry>
StreamedValueBuffer::insert(const Entry &e)
{
    std::size_t slot = find(e.addr);
    if (slot == keys_.size())
        return insertAbsent(e);
    entries_[slot] = e;
    entries_[slot].addr = keys_[slot];
    stamps_[slot] = ++clock_;
    return std::nullopt;
}

std::optional<StreamedValueBuffer::Entry>
StreamedValueBuffer::insertAbsent(const Entry &e)
{
    std::size_t slot = victim();
    std::optional<Entry> displaced;
    if (stamps_[slot] != 0)
        displaced = entries_[slot];
    keys_[slot] = blockAlign(e.addr);
    entries_[slot] = e;
    entries_[slot].addr = keys_[slot];
    stamps_[slot] = ++clock_;
    return displaced;
}

std::optional<StreamedValueBuffer::Entry>
StreamedValueBuffer::consume(Addr a)
{
    std::size_t slot = find(a);
    if (slot == keys_.size())
        return std::nullopt;
    return take(slot);
}

bool
StreamedValueBuffer::contains(Addr a) const
{
    return find(a) != keys_.size();
}

std::optional<StreamedValueBuffer::Entry>
StreamedValueBuffer::invalidate(Addr a)
{
    return consume(a);
}

std::optional<StreamedValueBuffer::Entry>
StreamedValueBuffer::consumeAny()
{
    for (std::size_t i = 0; i < stamps_.size(); ++i)
        if (stamps_[i] != 0)
            return take(i);
    return std::nullopt;
}

std::size_t
StreamedValueBuffer::occupancy() const
{
    std::size_t n = 0;
    for (std::uint64_t s : stamps_)
        n += s != 0;
    return n;
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
    if (r.u64() != keys_.size()) {
        r.fail();
        return;
    }
    clock_ = r.u64();
    for (std::size_t i = 0; i < keys_.size(); ++i) {
        keys_[i] = kEmptyKey;
        stamps_[i] = 0;
        entries_[i] = Entry{};
        if (!r.boolean())
            continue;
        std::uint64_t stamp = r.u64();
        Entry e;
        e.addr = r.u64();
        e.streamId = static_cast<int>(r.i64());
        e.readyTime = r.u64();
        // A live slot with stamp 0 or the sentinel address would
        // decode as free: reject rather than re-encode differently.
        if (!r.ok() || stamp == 0 || e.addr == kEmptyKey) {
            r.fail();
            return;
        }
        keys_[i] = e.addr;
        stamps_[i] = stamp;
        entries_[i] = e;
    }
}

} // namespace stems
