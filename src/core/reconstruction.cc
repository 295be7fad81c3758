#include "core/reconstruction.hh"

#include <algorithm>

#include "common/state_codec.hh"

namespace stems {

namespace {

constexpr std::uint32_t kReconTag = stateTag('R', 'C', 'O', 'N');

/** PST index of an RMOB entry's spatial sequence. */
std::uint64_t
patternIndexOf(const RmobEntry &e)
{
    return stemsPatternIndex(e.pc16, regionOffset(e.addr));
}

} // namespace

Reconstructor::Reconstructor(const RegionMissOrderBuffer &rmob,
                             const PatternSequenceTable &pst,
                             ReconstructionParams params)
    : rmob_(rmob), pst_(pst), params_(params),
      reach_(std::min<std::size_t>(params.displacementWindow,
                                   params.bufferSlots)),
      displacementCounts_(2 * reach_ + 1, 0)
{
}

std::int64_t
Reconstructor::bucketOf(std::size_t i) const
{
    return static_cast<std::int64_t>(i) -
           static_cast<std::int64_t>(reach_);
}

bool
Reconstructor::place(std::vector<Addr> &slots, std::size_t slot,
                     Addr a)
{
    if (slot >= slots.size())
        return false;
    if (slots[slot] == 0) {
        slots[slot] = a;
        ++displacementCounts_[reach_];
        return true;
    }
    // Occupied: search adjacent slots, nearest first, forward before
    // backward (paper Section 4.3). A placement stays inside the
    // buffer, so |d| never exceeds reach_.
    for (unsigned d = 1; d <= params_.displacementWindow; ++d) {
        if (slot + d < slots.size() && slots[slot + d] == 0) {
            slots[slot + d] = a;
            ++displacementCounts_[reach_ + d];
            return true;
        }
        if (slot >= d && slots[slot - d] == 0) {
            slots[slot - d] = a;
            ++displacementCounts_[reach_ - d];
            return true;
        }
    }
    ++dropped_;
    return false;
}

void
Reconstructor::expandSpatial(std::vector<Addr> &slots, const Placed &p)
{
    const SpatialPrediction *predicted = pst_.prediction(p.index);
    if (predicted == nullptr)
        return;
    Addr region = regionBase(p.entry.addr);
    expanded_.push_back({region, p.index});

    std::size_t cursor = p.slot;
    for (std::size_t i = 0; i < predicted->size; ++i) {
        const SpatialElement el = (*predicted)[i];
        cursor += el.delta + 1;
        if (cursor >= slots.size() + params_.displacementWindow)
            break;
        place(slots, cursor,
              addrFromRegionOffset(region, el.offset));
    }
}

Reconstructor::Window
Reconstructor::reconstruct(RegionMissOrderBuffer::Position start_pos)
{
    expanded_.clear();
    Window w;
    auto head = rmob_.at(start_pos);
    if (!head.has_value()) {
        w.nextPos = start_pos;
        return w;
    }
    ++windows_;
    w.valid = true;

    std::vector<Addr> &slots = slotScratch_;
    slots.assign(params_.bufferSlots, 0);
    slots[0] = head->addr;

    // Phase one (paper Figure 5, step two): lay down the temporal
    // backbone — every RMOB entry at its delta-directed slot. Doing
    // this before any spatial expansion guarantees mispredicted
    // spatial sequences can displace predictions, never the recorded
    // miss order itself.
    std::vector<Placed> &backbone = backboneScratch_;
    backbone.clear();
    backbone.push_back({*head, 0, patternIndexOf(*head)});

    std::size_t cursor = 0;
    RegionMissOrderBuffer::Position pos = start_pos + 1;
    while (true) {
        auto e = rmob_.at(pos);
        if (!e.has_value())
            break; // overwritten or caught up with the frontier
        std::size_t next_cursor = cursor + e->delta + 1;
        if (next_cursor >= slots.size())
            break; // window full; resume here next time
        cursor = next_cursor;
        place(slots, cursor, e->addr);
        backbone.push_back({*e, cursor, patternIndexOf(*e)});
        ++pos;
    }
    w.nextPos = pos;

    // Every expansion starts with a PST lookup, and the PST is far
    // larger than the host caches. Lookups are const, so loading all
    // the sets first is order-safe and overlaps their misses.
    for (const Placed &p : backbone)
        pst_.prefetch(p.index);

    // Phase two (Figure 5, step three): expand each backbone entry's
    // spatial sequence around its trigger slot.
    for (const Placed &p : backbone)
        expandSpatial(slots, p);

    w.sequence.reserve(params_.bufferSlots / 4);
    for (Addr a : slots)
        if (a != 0)
            w.sequence.push_back(a);
    return w;
}

Histogram
Reconstructor::displacements() const
{
    Histogram h;
    for (std::size_t i = 0; i < displacementCounts_.size(); ++i)
        if (displacementCounts_[i] != 0)
            h.add(bucketOf(i), displacementCounts_[i]);
    return h;
}

void
Reconstructor::saveState(StateWriter &w) const
{
    w.tag(kReconTag);
    // The historical std::map encoding: the nonzero buckets, in
    // ascending order.
    std::uint64_t buckets = 0;
    for (std::uint64_t count : displacementCounts_)
        buckets += count != 0;
    w.u64(buckets);
    for (std::size_t i = 0; i < displacementCounts_.size(); ++i) {
        if (displacementCounts_[i] == 0)
            continue;
        w.i64(bucketOf(i));
        w.u64(displacementCounts_[i]);
    }
    w.u64(dropped_);
    w.u64(windows_);
}

void
Reconstructor::loadState(StateReader &r)
{
    r.tag(kReconTag);
    std::fill(displacementCounts_.begin(), displacementCounts_.end(), 0);
    const auto reach = static_cast<std::int64_t>(reach_);
    std::uint64_t buckets = r.u64();
    for (std::uint64_t i = 0; i < buckets && r.ok(); ++i) {
        std::int64_t bucket = r.i64();
        std::uint64_t count = r.u64();
        // Placement never displaces past the reach and never records
        // an empty bucket; the dense counts can hold neither.
        if (bucket < -reach || bucket > reach || count == 0) {
            r.fail();
            return;
        }
        displacementCounts_[static_cast<std::size_t>(bucket + reach)] +=
            count;
    }
    dropped_ = r.u64();
    windows_ = r.u64();
}

} // namespace stems
