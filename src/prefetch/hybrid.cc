#include "prefetch/hybrid.hh"

namespace stems {

NaiveHybridPrefetcher::NaiveHybridPrefetcher(TmsParams tms_params,
                                             SmsParams sms_params)
    : tms_(tms_params), sms_(sms_params)
{
}

std::size_t
NaiveHybridPrefetcher::bufferCapacity() const
{
    return tms_.bufferCapacity();
}

void
NaiveHybridPrefetcher::onL1Access(Addr a, Pc pc, bool l1_hit)
{
    tms_.onL1Access(a, pc, l1_hit);
    sms_.onL1Access(a, pc, l1_hit);
}

void
NaiveHybridPrefetcher::onL1BlockRemoved(Addr a)
{
    tms_.onL1BlockRemoved(a);
    sms_.onL1BlockRemoved(a);
}

void
NaiveHybridPrefetcher::onOffChipRead(const OffChipRead &ev)
{
    tms_.onOffChipRead(ev);
    sms_.onOffChipRead(ev);
}

void
NaiveHybridPrefetcher::onPrefetchHit(Addr a, int stream_id)
{
    // Buffer-sink prefetches belong to TMS streams; SMS sinks into
    // the L2 and receives no stream feedback.
    tms_.onPrefetchHit(a, stream_id);
}

void
NaiveHybridPrefetcher::onPrefetchDrop(Addr a, int stream_id)
{
    tms_.onPrefetchDrop(a, stream_id);
}

void
NaiveHybridPrefetcher::onPrefetchFiltered(Addr a, int stream_id)
{
    tms_.onPrefetchFiltered(a, stream_id);
}

void
NaiveHybridPrefetcher::onInvalidate(Addr a)
{
    tms_.onInvalidate(a);
    sms_.onInvalidate(a);
}

void
NaiveHybridPrefetcher::hostPrefetch(Addr block, Pc pc) const
{
    tms_.hostPrefetch(block, pc);
    sms_.hostPrefetch(block, pc);
}

void
NaiveHybridPrefetcher::drainRequests(std::vector<PrefetchRequest> &out)
{
    tms_.drainRequests(out);
    sms_.drainRequests(out);
}

void
NaiveHybridPrefetcher::saveState(StateWriter &w) const
{
    tms_.saveState(w);
    sms_.saveState(w);
}

void
NaiveHybridPrefetcher::loadState(StateReader &r)
{
    tms_.loadState(r);
    sms_.loadState(r);
}

} // namespace stems

// ---- registry hookup ----

#include "prefetch/engine_registry.hh"
#include "sim/config.hh"

namespace stems {
namespace {

// Bump when the hybrid's serialized state or behaviour changes;
// folded into spec digests so old stored entries are orphaned.
constexpr std::uint32_t kEngineStateVersion = 1;

const EngineRegistrar registerNaiveHybrid(
    "tms+sms", 40, kEngineStateVersion,
    [](const SystemConfig &sys, const EngineOptions &opt) {
        SmsParams sp = sys.sms;
        if (opt.smsUseCounters)
            sp.useCounters = *opt.smsUseCounters;
        return std::make_unique<NaiveHybridPrefetcher>(
            tmsParamsFor(sys, opt), sp);
    });

} // namespace
} // namespace stems
