#include "sim/prefetch_sim.hh"

#include <algorithm>
#include <utility>
#include <vector>

namespace stems {

PrefetchSimulator::PrefetchSimulator(const SimParams &params,
                                     Prefetcher *engine)
    : params_(params),
      hier_(params.hierarchy),
      timing_(params.timing),
      engine_(engine)
{
    if (engine_ != nullptr && engine_->bufferCapacity() > 0) {
        svb_ = std::make_unique<StreamedValueBuffer>(
            engine_->bufferCapacity());
    }

    hier_.setL1EvictCallback([this](Addr a) {
        if (engine_)
            engine_->onL1BlockRemoved(a);
    });
    hier_.setL2PrefetchDropCallback([this](Addr a) {
        if (measuring_)
            ++stats_.overpredictions;
        l2PrefetchReady_.erase(blockAlign(a));
        if (engine_)
            engine_->onPrefetchDrop(a, -1);
    });
}

void
PrefetchSimulator::setMeasuring(bool on)
{
    if (on && !measuring_) {
        cyclesAtMeasureStart_ = timing_.totalCycles();
        instrAtMeasureStart_ = timing_.instructions();
    }
    measuring_ = on;
}

void
PrefetchSimulator::handleSvbVictim(const StreamedValueBuffer::Entry &e)
{
    if (measuring_)
        ++stats_.overpredictions;
    if (engine_)
        engine_->onPrefetchDrop(e.addr, e.streamId);
}

void
PrefetchSimulator::step(const MemRecord &r)
{
    if (measuring_)
        ++stats_.records;

    if (r.isInvalidate()) {
        if (measuring_)
            ++stats_.invalidates;
        hier_.invalidate(r.vaddr);
        if (svb_) {
            if (auto e = svb_->invalidate(r.vaddr))
                handleSvbVictim(*e);
        }
        if (engine_)
            engine_->onInvalidate(r.vaddr);
        drainAndIssue();
        return;
    }

    if (measuring_) {
        if (r.isRead())
            ++stats_.reads;
        else
            ++stats_.writes;
    }

    bool l1_hit = hier_.accessL1(r.vaddr);
    if (engine_)
        engine_->onL1Access(r.vaddr, r.pc, l1_hit);

    AccessLevel level = AccessLevel::kL1;
    double ready = 0.0;

    if (l1_hit) {
        if (measuring_)
            ++stats_.l1Hits;
    } else {
        auto l2 = hier_.accessL2(r.vaddr);
        if (l2.hit) {
            hier_.fillL1(r.vaddr);
            if (l2.coveredByPrefetch) {
                level = AccessLevel::kL2Prefetch;
                auto it =
                    l2PrefetchReady_.find(blockAlign(r.vaddr));
                if (it != l2PrefetchReady_.end()) {
                    ready = it->second;
                    l2PrefetchReady_.erase(it);
                }
                if (r.isRead()) {
                    if (measuring_)
                        ++stats_.l2PrefetchHits;
                    if (engine_) {
                        engine_->onPrefetchHit(r.vaddr, -1);
                        engine_->onOffChipRead({blockAlign(r.vaddr),
                                                r.pc, missSeq_++,
                                                true, -1});
                    }
                } else {
                    // A write consuming a prefetched block is still
                    // a successful prefetch (it clears the prefetch
                    // tag, so the block can never be swept as an
                    // overprediction): advance the owning stream,
                    // mirroring the SVB write path below. Like that
                    // path it does not count toward covered() --
                    // coverage measures eliminated *read* misses.
                    if (measuring_)
                        ++stats_.l2Hits;
                    if (engine_)
                        engine_->onPrefetchHit(r.vaddr, -1);
                }
            } else {
                level = AccessLevel::kL2;
                if (measuring_)
                    ++stats_.l2Hits;
            }
        } else {
            auto svb_entry =
                svb_ ? svb_->consume(r.vaddr) : std::nullopt;
            if (svb_entry.has_value()) {
                level = AccessLevel::kSvb;
                ready = static_cast<double>(svb_entry->readyTime);
                hier_.fill(r.vaddr);
                if (r.isRead()) {
                    if (measuring_)
                        ++stats_.svbHits;
                    if (engine_) {
                        engine_->onPrefetchHit(r.vaddr,
                                               svb_entry->streamId);
                        engine_->onOffChipRead(
                            {blockAlign(r.vaddr), r.pc, missSeq_++,
                             true, svb_entry->streamId});
                    }
                } else if (engine_) {
                    // A write consuming a prefetched block still
                    // advances the owning stream.
                    engine_->onPrefetchHit(r.vaddr,
                                           svb_entry->streamId);
                }
            } else {
                level = AccessLevel::kMemory;
                hier_.fill(r.vaddr);
                if (r.isRead()) {
                    if (measuring_)
                        ++stats_.offChipReads;
                    if (engine_)
                        engine_->onOffChipRead({blockAlign(r.vaddr),
                                                r.pc, missSeq_++,
                                                false, -1});
                } else if (measuring_) {
                    ++stats_.offChipWrites;
                }
            }
        }
    }

    if (params_.enableTiming)
        timing_.demandAccess(r, level, ready);

    drainAndIssue();
}

void
PrefetchSimulator::hostPrefetch(const MemRecord &r) const
{
    hier_.prefetchL1(r.vaddr);
    hier_.prefetchL2(r.vaddr);
    if (engine_)
        engine_->hostPrefetch(blockAlign(r.vaddr), r.pc);
}

void
PrefetchSimulator::drainAndIssue()
{
    if (!engine_)
        return;
    reqScratch_.clear();
    engine_->drainRequests(reqScratch_);
    // Start loading every request's L2 set before the first filter
    // probe, so the probes' host misses overlap.
    for (const PrefetchRequest &req : reqScratch_)
        hier_.prefetchL2(req.addr);
    for (const PrefetchRequest &req : reqScratch_) {
        Addr addr = blockAlign(req.addr);
        if (req.sink == PrefetchSink::kBuffer) {
            if (!svb_ || svb_->contains(addr) ||
                hier_.l2().contains(addr)) {
                // Redundant prefetch: filtered. The owning stream
                // must still learn its request completed, or its
                // in-flight accounting leaks and the stream stalls.
                engine_->onPrefetchFiltered(addr, req.streamId);
                continue;
            }
            double ready = params_.enableTiming
                               ? timing_.prefetchIssued()
                               : 0.0;
            StreamedValueBuffer::Entry e;
            e.addr = addr;
            e.streamId = req.streamId;
            e.readyTime = static_cast<Cycles>(ready);
            if (measuring_)
                ++stats_.prefetchesIssued;
            if (auto victim = svb_->insertAbsent(e))
                handleSvbVictim(*victim);
        } else {
            if (hier_.l2().contains(addr))
                continue;
            double ready = params_.enableTiming
                               ? timing_.prefetchIssued()
                               : 0.0;
            if (params_.enableTiming)
                l2PrefetchReady_[addr] = ready;
            if (measuring_)
                ++stats_.prefetchesIssued;
            hier_.fillPrefetchL2(addr);
        }
    }
}

void
PrefetchSimulator::finish()
{
    if (finished_)
        return;
    finished_ = true;

    // Anything still unconsumed was fetched in vain.
    if (svb_) {
        while (auto e = svb_->consumeAny())
            handleSvbVictim(*e);
    }
    if (measuring_) {
        stats_.overpredictions +=
            hier_.l2().unreferencedPrefetches();
    }

    stats_.cycles = timing_.totalCycles() - cyclesAtMeasureStart_;
    stats_.instructions =
        timing_.instructions() - instrAtMeasureStart_;
}

void
PrefetchSimulator::run(const Trace &trace, std::size_t warmup_records)
{
    if (warmup_records > 0)
        setMeasuring(false);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (i == warmup_records)
            setMeasuring(true);
        step(trace[i]);
    }
    finish();
}

namespace {
constexpr std::uint32_t kSimTag = stateTag('P', 'S', 'I', 'M');
} // namespace

void
PrefetchSimulator::saveState(StateWriter &w) const
{
    w.tag(kSimTag);
    w.boolean(params_.enableTiming);
    w.boolean(svb_ != nullptr);
    w.boolean(engine_ != nullptr);
    hier_.saveState(w);
    if (svb_)
        svb_->saveState(w);
    timing_.saveState(w);
    // Serialized state must be a pure function of logical state
    // (sim/checkpoint.hh kCheckpointVersion), and unordered_map
    // iteration order is history-dependent.
    std::vector<std::pair<Addr, double>> ready(l2PrefetchReady_.begin(),
                                               l2PrefetchReady_.end());
    std::sort(ready.begin(), ready.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    w.u64(ready.size());
    for (const auto &kv : ready) {
        w.u64(kv.first);
        w.f64(kv.second);
    }
    w.u64(missSeq_);
    w.boolean(measuring_);
    w.boolean(finished_);
    w.f64(cyclesAtMeasureStart_);
    w.u64(instrAtMeasureStart_);
    w.u64(stats_.records);
    w.u64(stats_.reads);
    w.u64(stats_.writes);
    w.u64(stats_.invalidates);
    w.u64(stats_.l1Hits);
    w.u64(stats_.l2Hits);
    w.u64(stats_.l2PrefetchHits);
    w.u64(stats_.svbHits);
    w.u64(stats_.offChipReads);
    w.u64(stats_.offChipWrites);
    w.u64(stats_.prefetchesIssued);
    w.u64(stats_.overpredictions);
    w.f64(stats_.cycles);
    w.u64(stats_.instructions);
    if (engine_)
        engine_->saveState(w);
}

void
PrefetchSimulator::loadState(StateReader &r)
{
    r.tag(kSimTag);
    // Construction-time structure must match the saved run exactly:
    // a timing/SVB/engine mismatch means the caller keyed the
    // checkpoint wrong.
    if (r.boolean() != params_.enableTiming ||
        r.boolean() != (svb_ != nullptr) ||
        r.boolean() != (engine_ != nullptr)) {
        r.fail();
        return;
    }
    hier_.loadState(r);
    if (svb_)
        svb_->loadState(r);
    timing_.loadState(r);
    // saveState writes the ready list by strictly ascending address;
    // a duplicate or reordered address is a corrupt payload.
    std::uint64_t ready = r.u64();
    l2PrefetchReady_.clear();
    Addr prev = 0;
    for (std::uint64_t i = 0; i < ready && r.ok(); ++i) {
        Addr a = r.u64();
        double t = r.f64();
        if (i > 0 && a <= prev) {
            r.fail();
            return;
        }
        prev = a;
        l2PrefetchReady_[a] = t;
    }
    missSeq_ = r.u64();
    measuring_ = r.boolean();
    finished_ = r.boolean();
    cyclesAtMeasureStart_ = r.f64();
    instrAtMeasureStart_ = r.u64();
    stats_.records = r.u64();
    stats_.reads = r.u64();
    stats_.writes = r.u64();
    stats_.invalidates = r.u64();
    stats_.l1Hits = r.u64();
    stats_.l2Hits = r.u64();
    stats_.l2PrefetchHits = r.u64();
    stats_.svbHits = r.u64();
    stats_.offChipReads = r.u64();
    stats_.offChipWrites = r.u64();
    stats_.prefetchesIssued = r.u64();
    stats_.overpredictions = r.u64();
    stats_.cycles = r.f64();
    stats_.instructions = r.u64();
    if (engine_)
        engine_->loadState(r);
}

} // namespace stems
