#include "core/rmob.hh"

#include "common/state_codec.hh"

namespace stems {

RegionMissOrderBuffer::RegionMissOrderBuffer(std::size_t entries)
    : buffer_(entries),
      // Sized for one key per buffer slot: no growth while the
      // buffer first fills (128K appends with paper defaults).
      index_(entries)
{
}

RegionMissOrderBuffer::Position
RegionMissOrderBuffer::append(Addr block_addr, std::uint16_t pc16,
                              unsigned delta)
{
    RmobEntry e;
    e.addr = blockAlign(block_addr);
    e.pc16 = pc16;
    e.delta = static_cast<std::uint8_t>(delta > 255 ? 255 : delta);
    Position pos = buffer_.append(e);
    index_.findOrInsert(e.addr) = pos;
    return pos;
}

std::optional<RmobEntry>
RegionMissOrderBuffer::at(Position pos) const
{
    return buffer_.at(pos);
}

std::optional<RegionMissOrderBuffer::Position>
RegionMissOrderBuffer::lookup(Addr block_addr) const
{
    // append() writes a block's slot and its index entry together,
    // and the index keeps each block's newest position, so a position
    // the buffer still holds is that block's entry (loadState rejects
    // an index that breaks this): no load of the entry to re-check
    // its address.
    const Position *pos = index_.find(blockAlign(block_addr));
    if (pos == nullptr || !buffer_.contains(*pos))
        return std::nullopt; // never recorded, or overwritten
    return *pos;
}

namespace {
constexpr std::uint32_t kRmobTag = stateTag('R', 'M', 'O', 'B');
} // namespace

void
RegionMissOrderBuffer::saveState(StateWriter &w) const
{
    w.tag(kRmobTag);
    buffer_.saveState(w, [](StateWriter &sw, const RmobEntry &e) {
        sw.u64(e.addr);
        sw.u32(e.pc16);
        sw.u8(e.delta);
    });
    // Key-sorted: blob bytes must depend only on logical state.
    index_.saveState(w);
}

void
RegionMissOrderBuffer::loadState(StateReader &r)
{
    r.tag(kRmobTag);
    buffer_.loadState(r, [](StateReader &sr, RmobEntry &e) {
        e.addr = sr.u64();
        e.pc16 = static_cast<std::uint16_t>(sr.u32());
        e.delta = sr.u8();
    });
    // lookup() trusts every index position the buffer holds, so each
    // must be one already written and, while live, hold its block.
    index_.loadState(r, [this](std::uint64_t block, Position pos) {
        if (pos >= buffer_.size())
            return false;
        auto entry = buffer_.at(pos);
        return !entry.has_value() || entry->addr == block;
    });
}

} // namespace stems
