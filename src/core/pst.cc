#include "core/pst.hh"

#include <algorithm>

#include "common/state_codec.hh"

namespace stems {

PatternSequenceTable::PatternSequenceTable(PstParams params)
    : params_(params), table_(params.entries, params.ways)
{
}

void
PatternSequenceTable::train(
    std::uint64_t index, const SpatialElement *sequence,
    std::size_t sequence_len, std::uint32_t access_mask)
{
    Entry &e = table_.findOrInsert(index);

    std::uint8_t position = 0;
    for (std::size_t i = 0; i < sequence_len; ++i) {
        const SpatialElement &el = sequence[i];
        unsigned off = el.offset % kBlocksPerRegion;
        access_mask |= 1u << off;
        // The most recent occurrence defines order and delta (recent
        // history predicts best, Section 2.1).
        e.predicted.delta[off] = el.delta;
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
    repredict(e);
}

void
PatternSequenceTable::repredict(Entry &e) const
{
    SpatialPrediction &p = e.predicted;
    unsigned n = 0;
    p.mask = 0;
    for (unsigned off = 0; off < kBlocksPerRegion; ++off) {
        if (e.counter[off] >= params_.predictThreshold) {
            p.offsets[n++] = static_cast<std::uint8_t>(off);
            p.mask |= 1u << off;
        }
    }
    p.size = static_cast<std::uint8_t>(n);
    std::sort(p.offsets, p.offsets + n,
              [&e](std::uint8_t a, std::uint8_t b) {
                  if (e.order[a] != e.order[b])
                      return e.order[a] < e.order[b];
                  return a < b;
              });
}

bool
PatternSequenceTable::lookup(std::uint64_t index,
                             std::vector<SpatialElement> &out) const
{
    const SpatialPrediction *p = prediction(index);
    if (p == nullptr)
        return false;
    out.clear();
    for (std::size_t i = 0; i < p->size; ++i)
        out.push_back((*p)[i]);
    return true;
}

namespace {
constexpr std::uint32_t kPstTag = stateTag('P', 'S', 'T', '1');
} // namespace

void
PatternSequenceTable::saveState(StateWriter &w) const
{
    w.tag(kPstTag);
    table_.saveState(w, [](StateWriter &sw, const Entry &e) {
        for (unsigned off = 0; off < kBlocksPerRegion; ++off) {
            sw.u8(e.counter[off]);
            sw.u8(e.predicted.delta[off]);
            sw.u8(e.order[off]);
        }
    });
}

void
PatternSequenceTable::loadState(StateReader &r)
{
    r.tag(kPstTag);
    table_.loadState(r, [this](StateReader &sr, Entry &e) {
        for (unsigned off = 0; off < kBlocksPerRegion; ++off) {
            e.counter[off] = sr.u8();
            e.predicted.delta[off] = sr.u8();
            e.order[off] = sr.u8();
        }
        repredict(e);
    });
}

} // namespace stems
