/**
 * @file
 * Reference oracle for StreamedValueBuffer property tests.
 *
 * The historical array-of-structs SVB (before the key-lane rewrite in
 * mem/svb.hh), renamed and made header-only; only the constructor's
 * capacity check was dropped.
 * hotpath_test.cc drives both with identical seeded operation streams
 * and requires the same hits, victims and consumeAny() order plus
 * byte-identical serialized state. Do not "improve" this file — its
 * value is that it is the old behaviour, frozen.
 */

#ifndef STEMS_TESTS_REFERENCE_SVB_HH
#define STEMS_TESTS_REFERENCE_SVB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/state_codec.hh"
#include "common/types.hh"

namespace stems {

class ReferenceStreamedValueBuffer
{
  public:
    struct Entry
    {
        Addr addr = 0;
        int streamId = -1;
        Cycles readyTime = 0;
    };

    explicit ReferenceStreamedValueBuffer(std::size_t capacity)
        : slots_(capacity)
    {
    }

    std::optional<Entry>
    insert(const Entry &e)
    {
        Entry norm = e;
        norm.addr = blockAlign(e.addr);

        if (Slot *resident = findSlot(norm.addr)) {
            resident->entry = norm;
            resident->lru = ++clock_;
            return std::nullopt;
        }

        Slot *victim = nullptr;
        for (Slot &s : slots_) {
            if (!s.valid) {
                victim = &s;
                break;
            }
            if (!victim || s.lru < victim->lru)
                victim = &s;
        }

        std::optional<Entry> displaced;
        if (victim->valid)
            displaced = victim->entry;
        victim->valid = true;
        victim->entry = norm;
        victim->lru = ++clock_;
        return displaced;
    }

    std::optional<Entry>
    consume(Addr a)
    {
        Slot *s = findSlot(a);
        if (!s)
            return std::nullopt;
        s->valid = false;
        return s->entry;
    }

    bool contains(Addr a) const { return findSlot(a) != nullptr; }

    std::optional<Entry> invalidate(Addr a) { return consume(a); }

    std::optional<Entry>
    consumeAny()
    {
        for (Slot &s : slots_) {
            if (s.valid) {
                s.valid = false;
                return s.entry;
            }
        }
        return std::nullopt;
    }

    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (const Slot &s : slots_)
            if (s.valid)
                ++n;
        return n;
    }

    std::size_t
    occupancyForStream(int stream_id) const
    {
        std::size_t n = 0;
        for (const Slot &s : slots_)
            if (s.valid && s.entry.streamId == stream_id)
                ++n;
        return n;
    }

    void
    saveState(StateWriter &w) const
    {
        w.tag(stateTag('S', 'V', 'B', '1'));
        w.u64(slots_.size());
        w.u64(clock_);
        for (const Slot &s : slots_) {
            w.boolean(s.valid);
            if (!s.valid)
                continue;
            w.u64(s.lru);
            w.u64(s.entry.addr);
            w.i64(s.entry.streamId);
            w.u64(s.entry.readyTime);
        }
    }

  private:
    struct Slot
    {
        bool valid = false;
        std::uint64_t lru = 0;
        Entry entry;
    };

    const Slot *
    findSlot(Addr a) const
    {
        Addr key = blockAlign(a);
        for (const Slot &s : slots_)
            if (s.valid && s.entry.addr == key)
                return &s;
        return nullptr;
    }

    Slot *
    findSlot(Addr a)
    {
        return const_cast<Slot *>(
            static_cast<const ReferenceStreamedValueBuffer *>(this)
                ->findSlot(a));
    }

    std::uint64_t clock_ = 0;
    std::vector<Slot> slots_;
};

} // namespace stems

#endif // STEMS_TESTS_REFERENCE_SVB_HH
