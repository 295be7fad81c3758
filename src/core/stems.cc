#include "core/stems.hh"

namespace stems {

namespace {

/** Misses strictly between two sequence numbers, clamped to 8 bits. */
std::uint8_t
gapDelta(std::uint64_t cur_seq, std::uint64_t prev_seq)
{
    if (cur_seq <= prev_seq + 1)
        return 0;
    std::uint64_t gap = cur_seq - prev_seq - 1;
    return static_cast<std::uint8_t>(gap > 255 ? 255 : gap);
}

} // namespace

StemsPrefetcher::StemsPrefetcher(StemsParams params)
    : params_(params),
      agt_(params.agt),
      pst_(params.pst),
      rmob_(params.rmobEntries),
      recon_(rmob_, pst_, params.reconstruction),
      streams_(params.streams),
      reconIndex_(params.reconIndexEntries, 8)
{
    agt_.setEndCallback(
        [this](const StemsGeneration &gen) { onGenerationEnd(gen); });
}

void
StemsPrefetcher::onGenerationEnd(const StemsGeneration &gen)
{
    pst_.train(gen.index, gen.sequence.data(), gen.sequence.size(),
               gen.accessMask);
}

void
StemsPrefetcher::onL1Access(Addr a, Pc pc, bool l1_hit)
{
    (void)pc;
    (void)l1_hit;
    // L1 accesses to an active generation's region keep its access
    // footprint complete: a block satisfied by the caches must not
    // erode the pattern counters (Section 4.3's hysteresis).
    if (StemsGeneration *gen = agt_.find(regionBase(a)))
        gen->accessMask |= 1u << regionOffset(a);
}

void
StemsPrefetcher::noteExpandedRegions()
{
    // The same table updates in the same order as noting each region
    // during reconstruction, which never reads reconIndex_; a prefetch
    // pass first overlaps their host misses.
    const auto &regions = recon_.expandedRegions();
    for (const Reconstructor::ExpandedRegion &r : regions)
        reconIndex_.prefetch(regionNumber(r.region));
    for (const Reconstructor::ExpandedRegion &r : regions)
        reconIndex_.findOrInsert(regionNumber(r.region)) = r.index;
}

StreamQueueSet::RefillFn
StemsPrefetcher::temporalRefill()
{
    // The stream's resume position travels in the queue's refill
    // cursor, not in the closure, so a checkpointed queue set can
    // serialize it and reattach this (stateless) closure on restore.
    return [this](RingQueue<Addr> &pending,
                  std::uint64_t &resume_pos) {
        Reconstructor::Window more = recon_.reconstruct(resume_pos);
        noteExpandedRegions();
        if (!more.valid)
            return;
        resume_pos = more.nextPos;
        for (Addr a : more.sequence)
            pending.push_back(a);
    };
}

void
StemsPrefetcher::startTemporalStream(
    RegionMissOrderBuffer::Position pos)
{
    Reconstructor::Window w = recon_.reconstruct(pos);
    noteExpandedRegions();
    if (!w.valid || w.sequence.size() <= 1)
        return; // nothing predicted beyond the initiating miss

    // Slot 0 is the current demand miss itself; stream what follows.
    auto initial = addrPool_.acquire();
    initial->assign(w.sequence.begin() + 1, w.sequence.end());

    streams_.allocate(*initial, temporalRefill(),
                      /*confirmed=*/false,
                      /*refill_state=*/w.nextPos);
}

void
StemsPrefetcher::maybeStartSpatialOnlyStream(
    const StemsGeneration &gen, bool trigger_covered)
{
    // Reconstruction already placed this region with the right
    // index: the temporal stream will cover it.
    const std::uint64_t *assumed =
        reconIndex_.find(regionNumber(gen.regionBase));
    if (assumed != nullptr && *assumed == gen.index)
        return;

    // A covered trigger whose region reconstruction expanded under a
    // *different* index falls through to the spatial-only correction
    // below; an unexpanded region (no PST entry at the recorded
    // index) needs the spatial stream regardless of coverage.
    (void)trigger_covered;

    const SpatialPrediction *predicted = pst_.prediction(gen.index);
    if (predicted == nullptr || predicted->empty())
        return;

    auto addrs = addrPool_.acquire();
    addrs->reserve(predicted->size);
    for (std::size_t i = 0; i < predicted->size; ++i) {
        const unsigned offset = predicted->offsets[i];
        if (offset == gen.triggerOffset)
            continue;
        addrs->push_back(addrFromRegionOffset(gen.regionBase, offset));
    }
    if (addrs->empty())
        return;

    ++spatialOnlyStreams_;
    // Spatial-only streams trust the pattern immediately (the delta
    // information is ignored, Section 4.2).
    streams_.allocate(*addrs, nullptr,
                      /*confirmed=*/true);
}

void
StemsPrefetcher::onOffChipRead(const OffChipRead &ev)
{
    Addr block = blockAlign(ev.addr);
    Addr region = regionBase(block);
    unsigned offset = regionOffset(block);
    std::uint16_t pc16 = pc16Of(ev.pc);

    // Locate the previous occurrence before this miss is recorded.
    auto prev = rmob_.lookup(block);

    // --- Training and RMOB filtering (Section 4.1) ---------------

    auto append_rmob = [&]() {
        unsigned delta =
            haveLastAppend_ ? gapDelta(ev.seq, lastAppendSeq_) : 0;
        rmob_.append(block, pc16, delta);
        lastAppendSeq_ = ev.seq;
        haveLastAppend_ = true;
    };

    StemsGeneration *gen = agt_.find(region);
    bool was_trigger = (gen == nullptr);
    if (was_trigger) {
        StemsGeneration &g = agt_.open(region);
        g.triggerPc16 = pc16;
        g.triggerOffset = static_cast<std::uint8_t>(offset);
        g.index = stemsPatternIndex(pc16, offset);
        g.mask = 1u << offset;
        g.accessMask = 1u << offset;
        g.lastSeq = ev.seq;
        g.predictedMask = pst_.predictedMask(g.index);
        append_rmob(); // triggers are always recorded
    } else {
        if (!gen->accessed(offset)) {
            gen->sequence.push_back(
                {static_cast<std::uint8_t>(offset),
                 gapDelta(ev.seq, gen->lastSeq)});
            gen->mask |= 1u << offset;
        }
        gen->lastSeq = ev.seq;
        if ((gen->predictedMask >> offset) & 1u) {
            // Spatially predicted: filtered out of the RMOB; it
            // contributes to the next entry's delta instead.
            ++filtered_;
        } else {
            append_rmob(); // spatial miss
        }
    }

    // --- Streaming (Section 4.2) ----------------------------------

    if (!ev.covered && !streams_.resync(block) && prev.has_value())
        startTemporalStream(*prev);

    if (was_trigger) {
        // Spatial-only stream check, after any reconstruction this
        // very miss performed has noted its regions.
        if (StemsGeneration *g = agt_.find(region))
            maybeStartSpatialOnlyStream(*g, ev.covered);
    }
}

void
StemsPrefetcher::onL1BlockRemoved(Addr a)
{
    agt_.blockRemoved(a);
}

void
StemsPrefetcher::onInvalidate(Addr a)
{
    agt_.blockRemoved(a);
}

void
StemsPrefetcher::onPrefetchHit(Addr a, int stream_id)
{
    (void)a;
    streams_.onHit(stream_id);
}

void
StemsPrefetcher::onPrefetchDrop(Addr a, int stream_id)
{
    (void)a;
    streams_.onDrop(stream_id);
}

void
StemsPrefetcher::onPrefetchFiltered(Addr a, int stream_id)
{
    (void)a;
    streams_.onFiltered(stream_id);
}

void
StemsPrefetcher::hostPrefetch(Addr block, Pc pc) const
{
    // What onOffChipRead probes for this block: its RMOB index slot,
    // the PST set a trigger's predictedMask reads, and the reconIndex_
    // set of the spatial-only stream check.
    rmob_.prefetch(block);
    pst_.prefetch(stemsPatternIndex(pc16Of(pc), regionOffset(block)));
    reconIndex_.prefetch(regionNumber(regionBase(block)));
}

void
StemsPrefetcher::drainRequests(std::vector<PrefetchRequest> &out)
{
    streams_.drainRequests(out);
}

namespace {
constexpr std::uint32_t kStemsTag = stateTag('S', 'T', 'M', 'S');
} // namespace

void
StemsPrefetcher::saveState(StateWriter &w) const
{
    w.tag(kStemsTag);
    agt_.saveState(w);
    pst_.saveState(w);
    rmob_.saveState(w);
    recon_.saveState(w);
    streams_.saveState(w);
    reconIndex_.saveState(
        w, [](StateWriter &sw, const std::uint64_t &v) {
            sw.u64(v);
        });
    w.boolean(haveLastAppend_);
    w.u64(lastAppendSeq_);
    w.u64(filtered_);
    w.u64(spatialOnlyStreams_);
}

void
StemsPrefetcher::loadState(StateReader &r)
{
    r.tag(kStemsTag);
    agt_.loadState(r);
    pst_.loadState(r);
    rmob_.loadState(r);
    recon_.loadState(r);
    streams_.loadState(r, temporalRefill());
    reconIndex_.loadState(r,
                          [](StateReader &sr, std::uint64_t &v) {
                              v = sr.u64();
                          });
    haveLastAppend_ = r.boolean();
    lastAppendSeq_ = r.u64();
    filtered_ = r.u64();
    spatialOnlyStreams_ = r.u64();
}

} // namespace stems

// ---- registry hookup ----

#include "prefetch/engine_registry.hh"
#include "sim/config.hh"

namespace stems {
namespace {

// Bump when STeMS's serialized state or behaviour changes; folded
// into spec digests so old stored results/checkpoints are orphaned.
constexpr std::uint32_t kEngineStateVersion = 1;

const EngineRegistrar registerStems(
    "stems", 30, kEngineStateVersion,
    [](const SystemConfig &sys, const EngineOptions &opt) {
        StemsParams p = sys.stems;
        if (opt.scientific)
            p.streams.lookahead = 12;
        if (opt.lookahead)
            p.streams.lookahead = *opt.lookahead;
        if (opt.bufferEntries)
            p.rmobEntries = *opt.bufferEntries;
        if (opt.streamQueues)
            p.streams.numStreams = *opt.streamQueues;
        if (opt.displacementWindow) {
            p.reconstruction.displacementWindow =
                *opt.displacementWindow;
        }
        return std::make_unique<StemsPrefetcher>(p);
    });

} // namespace
} // namespace stems
