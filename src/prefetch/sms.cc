#include "prefetch/sms.hh"

#include "analysis/generations.hh" // spatialPatternIndex

namespace stems {

SmsPrefetcher::SmsPrefetcher(SmsParams params)
    : params_(params),
      agt_(params.agtEntries, params.agtEntries),
      pht_(params.phtEntries, params.phtWays)
{
}

void
SmsPrefetcher::trainPattern(std::uint64_t index, std::uint32_t mask)
{
    PhtEntry &e = pht_.findOrInsert(index);
    if (params_.useCounters) {
        for (unsigned off = 0; off < kBlocksPerRegion; ++off) {
            bool accessed = (mask >> off) & 1u;
            std::uint8_t &c = e.counters[off];
            if (accessed) {
                if (c < 3)
                    ++c;
            } else if (c > 0) {
                --c;
            }
        }
    } else {
        // Bit-vector mode: replace the pattern outright (counter
        // value 3 encodes a set bit, 0 a clear bit).
        for (unsigned off = 0; off < kBlocksPerRegion; ++off)
            e.counters[off] = ((mask >> off) & 1u) ? 3 : 0;
    }
}

void
SmsPrefetcher::endGeneration(Addr region_base, AgtEntry &gen)
{
    trainPattern(gen.index, gen.mask);
    agt_.erase(regionNumber(region_base));
}

void
SmsPrefetcher::predict(Addr region_base, unsigned trigger_offset,
                       std::uint64_t index)
{
    const PhtEntry *e = pht_.peek(index);
    if (e == nullptr)
        return;
    for (unsigned off = 0; off < kBlocksPerRegion; ++off) {
        if (off == trigger_offset)
            continue;
        if (e->counters[off] >= params_.predictThreshold) {
            PrefetchRequest req;
            req.addr = addrFromRegionOffset(region_base, off);
            req.sink = PrefetchSink::kL2;
            pending_.push_back(req);
        }
    }
}

void
SmsPrefetcher::onL1Access(Addr a, Pc pc, bool l1_hit)
{
    (void)l1_hit; // generations track all L1 accesses

    Addr region = regionBase(a);
    unsigned offset = regionOffset(a);

    if (AgtEntry *gen = agt_.find(regionNumber(region))) {
        gen->mask |= 1u << offset;
        return;
    }

    // Trigger access: predict from history, then open a generation.
    std::uint64_t index = spatialPatternIndex(pc, offset);
    predict(region, offset, index);

    AgtEntry &gen = agt_.findOrInsert(
        regionNumber(region),
        [this](std::uint64_t region_number, AgtEntry &victim) {
            // AGT capacity eviction ends the victim's generation.
            (void)region_number;
            trainPattern(victim.index, victim.mask);
        });
    gen.index = index;
    gen.mask = 1u << offset;
}

void
SmsPrefetcher::onL1BlockRemoved(Addr a)
{
    Addr region = regionBase(a);
    AgtEntry *gen = agt_.find(regionNumber(region));
    if (gen == nullptr)
        return;
    if ((gen->mask >> regionOffset(a)) & 1u)
        endGeneration(region, *gen);
}

void
SmsPrefetcher::onInvalidate(Addr a)
{
    // Invalidations reaching the engine directly (block not in L1)
    // still terminate a generation that touched the block.
    onL1BlockRemoved(a);
}

void
SmsPrefetcher::hostPrefetch(Addr block, Pc pc) const
{
    // The PHT set a trigger access of this block predicts from.
    pht_.prefetch(spatialPatternIndex(pc, regionOffset(block)));
}

void
SmsPrefetcher::drainRequests(std::vector<PrefetchRequest> &out)
{
    out.insert(out.end(), pending_.begin(), pending_.end());
    pending_.clear();
}

namespace {
constexpr std::uint32_t kSmsTag = stateTag('S', 'M', 'S', '1');
} // namespace

void
SmsPrefetcher::saveState(StateWriter &w) const
{
    w.tag(kSmsTag);
    agt_.saveState(w, [](StateWriter &sw, const AgtEntry &e) {
        sw.u64(e.index);
        sw.u32(e.mask);
    });
    pht_.saveState(w, [](StateWriter &sw, const PhtEntry &e) {
        for (unsigned off = 0; off < kBlocksPerRegion; ++off)
            sw.u8(e.counters[off]);
    });
    savePrefetchRequests(w, pending_);
}

void
SmsPrefetcher::loadState(StateReader &r)
{
    r.tag(kSmsTag);
    agt_.loadState(r, [](StateReader &sr, AgtEntry &e) {
        e.index = sr.u64();
        e.mask = sr.u32();
    });
    pht_.loadState(r, [](StateReader &sr, PhtEntry &e) {
        for (unsigned off = 0; off < kBlocksPerRegion; ++off)
            e.counters[off] = sr.u8();
    });
    loadPrefetchRequests(r, pending_);
}

} // namespace stems

// ---- registry hookup ----

#include "prefetch/engine_registry.hh"
#include "sim/config.hh"

namespace stems {
namespace {

// Bump when SMS's serialized state or behaviour changes; folded
// into spec digests so old stored results/checkpoints are orphaned.
constexpr std::uint32_t kEngineStateVersion = 1;

const EngineRegistrar registerSms(
    "sms", 20, kEngineStateVersion,
    [](const SystemConfig &sys, const EngineOptions &opt) {
        SmsParams p = sys.sms;
        if (opt.smsUseCounters)
            p.useCounters = *opt.smsUseCounters;
        return std::make_unique<SmsPrefetcher>(p);
    });

} // namespace
} // namespace stems
