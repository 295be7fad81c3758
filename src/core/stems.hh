/**
 * @file
 * Spatio-Temporal Memory Streaming (STeMS) — the paper's primary
 * contribution (Section 4).
 *
 * Training: the AGT accumulates per-region miss sequences (offset +
 * interleave delta); finished generations train the PST. Misses the
 * PST already predicts are filtered out of the RMOB; spatial triggers
 * and spatial misses are appended with the count of filtered misses
 * as their delta.
 *
 * Streaming: an unpredicted off-chip miss looks up its most recent
 * RMOB occurrence and reconstructs the total predicted miss order
 * (temporal backbone interleaved with PST sequences), which feeds a
 * stream queue; the queue keeps `lookahead` blocks in the SVB and
 * resumes reconstruction when it runs low. Regions whose generation
 * begins with a different pattern index than reconstruction assumed
 * (or that reconstruction never predicted) start spatial-only
 * streams, giving coverage on compulsory regions.
 */

#ifndef STEMS_CORE_STEMS_HH
#define STEMS_CORE_STEMS_HH

#include <memory>

#include "common/arena.hh"
#include "common/lru_table.hh"
#include "core/agt.hh"
#include "core/pst.hh"
#include "core/reconstruction.hh"
#include "core/rmob.hh"
#include "core/stream.hh"
#include "prefetch/prefetcher.hh"

namespace stems {

/** STeMS configuration (paper defaults, Section 4.3). */
struct StemsParams
{
    StemsAgtParams agt;
    PstParams pst;
    std::size_t rmobEntries = 128 * 1024;
    ReconstructionParams reconstruction;
    StreamParams streams;
    /// Streamed value buffer entries.
    std::size_t svbEntries = 64;
    /// Track regions predicted during reconstruction (for the
    /// spatial-only stream check) in a bounded table.
    std::size_t reconIndexEntries = 16384;
};

/**
 * The STeMS prefetch engine.
 */
class StemsPrefetcher : public Prefetcher
{
  public:
    explicit StemsPrefetcher(StemsParams params = {});

    std::string name() const override { return "stems"; }

    std::size_t
    bufferCapacity() const override
    {
        return params_.svbEntries;
    }

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

    /** Component access for diagnostics and the ablation benches. */
    const PatternSequenceTable &pst() const { return pst_; }
    const RegionMissOrderBuffer &rmob() const { return rmob_; }
    const Reconstructor &reconstructor() const { return recon_; }
    const StreamQueueSet &streams() const { return streams_; }

    /** RMOB appends filtered out as spatially predicted. */
    std::uint64_t filteredMisses() const { return filtered_; }

    /** Spatial-only streams started (compulsory-region coverage). */
    std::uint64_t
    spatialOnlyStreams() const
    {
        return spatialOnlyStreams_;
    }

  private:
    void onGenerationEnd(const StemsGeneration &gen);
    /** The shared refill closure of temporal streams (state-free;
     *  the resume position lives in the stream queue's cursor). */
    StreamQueueSet::RefillFn temporalRefill();
    void startTemporalStream(RegionMissOrderBuffer::Position pos);
    void maybeStartSpatialOnlyStream(const StemsGeneration &gen,
                                     bool trigger_covered);
    /** Record the last reconstruction's expanded regions. */
    void noteExpandedRegions();

    StemsParams params_;
    StemsAgt agt_;
    PatternSequenceTable pst_;
    RegionMissOrderBuffer rmob_;
    Reconstructor recon_;
    StreamQueueSet streams_;

    /** Regions predicted during reconstruction -> assumed PST index. */
    LruTable<std::uint64_t> reconIndex_;

    bool haveLastAppend_ = false;
    std::uint64_t lastAppendSeq_ = 0;
    std::uint64_t filtered_ = 0;
    std::uint64_t spatialOnlyStreams_ = 0;
    /** Recycled scratch for stream-start address lists (a temporal
     *  or spatial-only stream start builds one, hands it to
     *  StreamQueueSet::allocate by const reference, and returns the
     *  buffer). Steady state: no stream start allocates. */
    ScratchPool<Addr> addrPool_;
};

} // namespace stems

#endif // STEMS_CORE_STEMS_HH
