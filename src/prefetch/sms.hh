/**
 * @file
 * Spatial Memory Streaming (SMS) — Somogyi et al., ISCA 2006, as
 * summarized in Section 2.4 of the STeMS paper.
 *
 * SMS observes L1 accesses over spatial generations (trigger access
 * until a touched block leaves the L1 or the AGT evicts the region),
 * stores the per-generation footprint in a pattern history table
 * indexed by trigger PC+offset, and on the next trigger with a
 * matching index fetches the predicted blocks into the cache.
 *
 * The history can hold either the original bit vectors or the 2-bit
 * saturating counters the STeMS paper substitutes (Section 4.3:
 * "2-bit counters attain the same coverage while roughly halving
 * overpredictions") — the ablation bench compares the two.
 */

#ifndef STEMS_PREFETCH_SMS_HH
#define STEMS_PREFETCH_SMS_HH

#include "common/lru_table.hh"
#include "prefetch/prefetcher.hh"

namespace stems {

/** SMS configuration (paper defaults). */
struct SmsParams
{
    /// Active generation table entries.
    std::size_t agtEntries = 64;
    /// Pattern history table entries.
    std::size_t phtEntries = 16384;
    std::size_t phtWays = 8;
    /// Use 2-bit saturating counters instead of bit vectors.
    bool useCounters = true;
    /// Counter value required to predict an offset (counters mode).
    unsigned predictThreshold = 2;
};

/**
 * The SMS engine. Prefetches sink into the L2 with a prefetch tag.
 */
class SmsPrefetcher : public Prefetcher
{
  public:
    explicit SmsPrefetcher(SmsParams params = {});

    std::string name() const override { return "sms"; }

    void onL1Access(Addr a, Pc pc, bool l1_hit) override;
    void onL1BlockRemoved(Addr a) override;
    void onInvalidate(Addr a) override;
    void hostPrefetch(Addr block, Pc pc) const override;

    void drainRequests(std::vector<PrefetchRequest> &out) override;

    void saveState(StateWriter &w) const override;
    void loadState(StateReader &r) override;

    /** Patterns learned so far (diagnostics). */
    std::size_t trainedPatterns() const { return pht_.occupancy(); }

  private:
    /** One active generation. */
    struct AgtEntry
    {
        std::uint64_t index = 0;   ///< PHT index of the trigger
        std::uint32_t mask = 0;    ///< blocks touched this generation
    };

    /** One pattern: 2-bit counter per block offset. */
    struct PhtEntry
    {
        std::uint8_t counters[kBlocksPerRegion] = {};
    };

    void trainPattern(std::uint64_t index, std::uint32_t mask);
    void endGeneration(Addr region_base, AgtEntry &gen);
    void predict(Addr region_base, unsigned trigger_offset,
                 std::uint64_t index);

    SmsParams params_;
    LruTable<AgtEntry> agt_; ///< keyed by region base address
    LruTable<PhtEntry> pht_; ///< keyed by pattern index
    std::vector<PrefetchRequest> pending_;
};

} // namespace stems

#endif // STEMS_PREFETCH_SMS_HH
