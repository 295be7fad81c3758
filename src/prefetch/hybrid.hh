/**
 * @file
 * Naive TMS+SMS hybrid — the strawman of paper Section 5.5: both
 * engines run concurrently and independently. Coverage approaches the
 * joint opportunity, but the engines interfere, generating roughly
 * 2-3x the overpredictions of STeMS.
 */

#ifndef STEMS_PREFETCH_HYBRID_HH
#define STEMS_PREFETCH_HYBRID_HH

#include "prefetch/sms.hh"
#include "prefetch/tms.hh"

namespace stems {

/**
 * TMS and SMS operating side by side with no coordination.
 */
class NaiveHybridPrefetcher : public Prefetcher
{
  public:
    NaiveHybridPrefetcher(TmsParams tms_params = {},
                          SmsParams sms_params = {});

    std::string name() const override { return "tms+sms"; }

    std::size_t bufferCapacity() const override;

    void onL1Access(Addr a, Pc pc, bool l1_hit) override;
    void onL1BlockRemoved(Addr a) override;
    void onOffChipRead(const OffChipRead &ev) override;
    void onPrefetchHit(Addr a, int stream_id) override;
    void onPrefetchDrop(Addr a, int stream_id) override;
    void onPrefetchFiltered(Addr a, int stream_id) override;
    void onInvalidate(Addr a) override;
    void hostPrefetch(Addr block, Pc pc) const override;

    void drainRequests(std::vector<PrefetchRequest> &out) override;

    void saveState(StateWriter &w) const override;
    void loadState(StateReader &r) override;

  private:
    TmsPrefetcher tms_;
    SmsPrefetcher sms_;
};

} // namespace stems

#endif // STEMS_PREFETCH_HYBRID_HH
