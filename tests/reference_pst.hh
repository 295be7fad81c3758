/**
 * @file
 * Reference oracle for PatternSequenceTable property tests.
 *
 * Copy of the PST as it was before it kept each entry's ordered
 * prediction: every lookup re-scans the 32 counters and sorts the
 * predicting elements by (order, offset), and predictedMask re-scans
 * the counters. It stores entries in the frozen ReferenceLruTable.
 * The property tests in hotpath_test.cc train both tables with the
 * same seeded generations and require the same predictions, masks
 * and serialized bytes. Do not "improve" this file — its value is
 * that it is the old behaviour, frozen.
 */

#ifndef STEMS_TESTS_REFERENCE_PST_HH
#define STEMS_TESTS_REFERENCE_PST_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/state_codec.hh"
#include "core/pst.hh"
#include "reference_lru_table.hh"

namespace stems {

/**
 * The pattern sequence table, scan-and-sort on every lookup.
 */
class ReferencePatternSequenceTable
{
  public:
    explicit ReferencePatternSequenceTable(PstParams params = {})
        : params_(params), table_(params.entries, params.ways)
    {
    }

    void
    train(std::uint64_t index, const SpatialElement *sequence,
          std::size_t sequence_len, std::uint32_t access_mask)
    {
        Entry &e = table_.findOrInsert(index);

        std::uint8_t position = 0;
        for (std::size_t i = 0; i < sequence_len; ++i) {
            const SpatialElement &el = sequence[i];
            unsigned off = el.offset % kBlocksPerRegion;
            access_mask |= 1u << off;
            e.delta[off] = el.delta;
            e.order[off] = position++;
        }
        for (unsigned off = 0; off < kBlocksPerRegion; ++off) {
            if ((access_mask >> off) & 1u) {
                if (e.counter[off] < 3)
                    ++e.counter[off];
            } else if (e.counter[off] > 0) {
                --e.counter[off];
            }
        }
    }

    bool
    lookup(std::uint64_t index, std::vector<SpatialElement> &out) const
    {
        const Entry *e = table_.peek(index);
        if (e == nullptr)
            return false;

        struct Item
        {
            std::uint8_t order;
            SpatialElement element;
        };
        Item items[kBlocksPerRegion];
        unsigned n = 0;
        for (unsigned off = 0; off < kBlocksPerRegion; ++off) {
            if (e->counter[off] >= params_.predictThreshold) {
                items[n].order = e->order[off];
                items[n].element.offset = static_cast<std::uint8_t>(off);
                items[n].element.delta = e->delta[off];
                ++n;
            }
        }
        std::sort(items, items + n, [](const Item &a, const Item &b) {
            if (a.order != b.order)
                return a.order < b.order;
            return a.element.offset < b.element.offset;
        });
        out.clear();
        for (unsigned i = 0; i < n; ++i)
            out.push_back(items[i].element);
        return true;
    }

    std::uint32_t
    predictedMask(std::uint64_t index) const
    {
        const Entry *e = table_.peek(index);
        if (e == nullptr)
            return 0;
        std::uint32_t mask = 0;
        for (unsigned off = 0; off < kBlocksPerRegion; ++off)
            if (e->counter[off] >= params_.predictThreshold)
                mask |= 1u << off;
        return mask;
    }

    void
    saveState(StateWriter &w) const
    {
        w.tag(stateTag('P', 'S', 'T', '1'));
        table_.saveState(w, [](StateWriter &sw, const Entry &e) {
            for (unsigned off = 0; off < kBlocksPerRegion; ++off) {
                sw.u8(e.counter[off]);
                sw.u8(e.delta[off]);
                sw.u8(e.order[off]);
            }
        });
    }

  private:
    struct Entry
    {
        std::uint8_t counter[kBlocksPerRegion] = {};
        std::uint8_t delta[kBlocksPerRegion] = {};
        std::uint8_t order[kBlocksPerRegion] = {};
    };

    PstParams params_;
    ReferenceLruTable<Entry> table_;
};

} // namespace stems

#endif // STEMS_TESTS_REFERENCE_PST_HH
