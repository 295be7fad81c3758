#include "prefetch/tms.hh"

#include <algorithm>
#include <utility>
#include <vector>

namespace stems {

TmsPrefetcher::TmsPrefetcher(TmsParams params)
    : params_(params),
      buffer_(params.bufferEntries),
      // Sized for one key per buffer slot: no growth while the
      // buffer first fills (384K appends with paper defaults).
      index_(params.bufferEntries),
      streams_(params.numStreams)
{
}

void
TmsPrefetcher::refill(Stream &s)
{
    while (s.pending.size() < params_.refillChunk) {
        auto entry = buffer_.at(s.nextPos);
        if (!entry.has_value())
            break; // overwritten or caught up with the append frontier
        s.pending.push_back(*entry);
        ++s.nextPos;
    }
}

void
TmsPrefetcher::issueFrom(Stream &s, int id)
{
    unsigned target = s.confirmed ? params_.lookahead : 1;
    while (s.inFlight < static_cast<int>(target) &&
           globalInFlight_ <
               static_cast<int>(params_.maxGlobalInFlight) &&
           !s.pending.empty()) {
        PrefetchRequest req;
        req.addr = blockAlign(s.pending.front());
        req.streamId = id;
        req.sink = PrefetchSink::kBuffer;
        pending_.push_back(req);
        s.pending.pop_front();
        ++s.inFlight;
        ++globalInFlight_;
    }
    if (s.pending.size() < params_.refillLowWater)
        refill(s);
}

bool
TmsPrefetcher::tryResync(Addr a)
{
    Addr block = blockAlign(a);
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        Stream &s = streams_[i];
        if (!s.active)
            continue;
        std::size_t window =
            std::min(params_.resyncWindow, s.pending.size());
        for (std::size_t k = 0; k < window; ++k) {
            if (blockAlign(s.pending[k]) == block) {
                // The stream was right but had not issued this block
                // yet: skip past it and stream on with confidence.
                s.pending.dropFront(k + 1);
                s.confirmed = true;
                s.lru = ++clock_;
                issueFrom(s, encodeId(i, s.generation));
                return true;
            }
        }
    }
    return false;
}

TmsPrefetcher::Stream *
TmsPrefetcher::decodeId(int stream_id)
{
    if (stream_id < 0)
        return nullptr;
    std::size_t index = static_cast<std::uint32_t>(stream_id) & 0xF;
    std::uint32_t generation =
        static_cast<std::uint32_t>(stream_id) >> 4;
    if (index >= streams_.size())
        return nullptr;
    Stream &s = streams_[index];
    if (!s.active || s.generation != generation)
        return nullptr;
    return &s;
}

void
TmsPrefetcher::startStream(Addr a, Position prev_pos)
{
    (void)a;
    // Victimize an inactive stream if possible, else the LRU one.
    std::size_t victim = 0;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        if (!streams_[i].active) {
            victim = i;
            break;
        }
        if (streams_[i].lru < streams_[victim].lru)
            victim = i;
    }
    Stream &s = streams_[victim];
    // Reclaim the victim's outstanding budget: its buffered blocks
    // are no longer protected and will age out of the SVB.
    globalInFlight_ -= s.inFlight;
    if (globalInFlight_ < 0)
        globalInFlight_ = 0;
    s.reset();
    ++s.generation;
    s.active = true;
    s.nextPos = prev_pos + 1;
    s.lru = ++clock_;
    ++streamsStarted_;
    refill(s);
    issueFrom(s, encodeId(victim, s.generation));
}

void
TmsPrefetcher::onOffChipRead(const OffChipRead &ev)
{
    Addr block = blockAlign(ev.addr);

    // Locate the previous occurrence and record this one in a single
    // index probe. The index entry and the buffer slot are written
    // together, so a position the buffer still holds is this block's
    // (loadState rejects an index that breaks this).
    bool fresh = false;
    std::uint64_t &last = index_.findOrInsert(block, &fresh);
    const bool have_prev = !fresh && buffer_.contains(last);
    const Position prev_pos = have_prev ? last : 0;
    last = buffer_.append(block);

    if (ev.covered)
        return; // the owning stream advances via onPrefetchHit

    // Unpredicted miss: re-synchronize an existing stream or start a
    // new one from the previous occurrence.
    if (tryResync(block))
        return;
    if (have_prev)
        startStream(block, prev_pos);
}

void
TmsPrefetcher::onPrefetchHit(Addr a, int stream_id)
{
    (void)a;
    Stream *s = decodeId(stream_id);
    if (!s)
        return; // stale stream: its budget was reclaimed at realloc
    if (s->inFlight > 0) {
        --s->inFlight;
        if (globalInFlight_ > 0)
            --globalInFlight_;
    }
    s->confirmed = true;
    s->lru = ++clock_;
    issueFrom(*s, stream_id);
}

void
TmsPrefetcher::onPrefetchDrop(Addr a, int stream_id)
{
    (void)a;
    // A dropped (evicted-unused) block means the stream ran ahead of
    // demand or is wrong: release the in-flight slot but do not push
    // further (pushing on eviction feedback livelocks the SVB).
    Stream *s = decodeId(stream_id);
    if (s && s->inFlight > 0) {
        --s->inFlight;
        if (globalInFlight_ > 0)
            --globalInFlight_;
    }
}

void
TmsPrefetcher::onPrefetchFiltered(Addr a, int stream_id)
{
    (void)a;
    Stream *s = decodeId(stream_id);
    if (!s)
        return;
    if (s->inFlight > 0) {
        --s->inFlight;
        if (globalInFlight_ > 0)
            --globalInFlight_;
        // The block was already resident: stream past it.
        issueFrom(*s, stream_id);
    }
}

void
TmsPrefetcher::hostPrefetch(Addr block, Pc pc) const
{
    (void)pc;
    // The index slot onOffChipRead probes for this block.
    index_.prefetch(block);
}

void
TmsPrefetcher::drainRequests(std::vector<PrefetchRequest> &out)
{
    out.insert(out.end(), pending_.begin(), pending_.end());
    pending_.clear();
}

namespace {
constexpr std::uint32_t kTmsTag = stateTag('T', 'M', 'S', '1');
} // namespace

void
TmsPrefetcher::saveState(StateWriter &w) const
{
    w.tag(kTmsTag);
    w.i64(globalInFlight_);
    w.u64(clock_);
    w.u64(streamsStarted_);
    buffer_.saveState(
        w, [](StateWriter &sw, const Addr &a) { sw.u64(a); });
    // Key-sorted: blob bytes must depend only on logical state.
    index_.saveState(w);
    w.u64(streams_.size());
    for (const Stream &s : streams_) {
        w.boolean(s.active);
        w.boolean(s.confirmed);
        w.u64(s.pending.size());
        for (std::size_t k = 0; k < s.pending.size(); ++k)
            w.u64(s.pending[k]);
        w.u64(s.nextPos);
        w.u64(s.lru);
        w.i64(s.inFlight);
        w.u32(s.generation);
    }
    savePrefetchRequests(w, pending_);
}

void
TmsPrefetcher::loadState(StateReader &r)
{
    r.tag(kTmsTag);
    globalInFlight_ = static_cast<int>(r.i64());
    clock_ = r.u64();
    streamsStarted_ = r.u64();
    buffer_.loadState(
        r, [](StateReader &sr, Addr &a) { a = sr.u64(); });
    // onOffChipRead trusts every index position the buffer holds, so
    // each must be one already written and, while live, hold its
    // block.
    index_.loadState(r, [this](std::uint64_t block, Position pos) {
        if (pos >= buffer_.size())
            return false;
        auto entry = buffer_.at(pos);
        return !entry.has_value() || blockAlign(*entry) == block;
    });
    if (r.u64() != streams_.size()) {
        r.fail();
        return;
    }
    for (Stream &s : streams_) {
        s.reset();
        s.generation = 0;
        s.active = r.boolean();
        s.confirmed = r.boolean();
        std::uint64_t pending = r.u64();
        if (pending > buffer_.capacity()) {
            r.fail();
            return;
        }
        for (std::uint64_t i = 0; i < pending && r.ok(); ++i)
            s.pending.push_back(r.u64());
        s.nextPos = r.u64();
        s.lru = r.u64();
        s.inFlight = static_cast<int>(r.i64());
        s.generation = r.u32();
        if (!r.ok())
            return;
    }
    loadPrefetchRequests(r, pending_);
}

} // namespace stems

// ---- registry hookup ----

#include "prefetch/engine_registry.hh"
#include "sim/config.hh"

namespace stems {

TmsParams
tmsParamsFor(const SystemConfig &sys, const EngineOptions &opt)
{
    TmsParams p = sys.tms;
    if (opt.scientific)
        p.lookahead = 12;
    if (opt.lookahead)
        p.lookahead = *opt.lookahead;
    if (opt.bufferEntries)
        p.bufferEntries = *opt.bufferEntries;
    if (opt.streamQueues)
        p.numStreams = *opt.streamQueues;
    return p;
}

namespace {

// Bump when TMS's serialized state or behaviour changes; folded
// into spec digests so old stored results/checkpoints are orphaned.
constexpr std::uint32_t kEngineStateVersion = 1;

const EngineRegistrar registerTms(
    "tms", 10, kEngineStateVersion,
    [](const SystemConfig &sys, const EngineOptions &opt) {
        return std::make_unique<TmsPrefetcher>(tmsParamsFor(sys, opt));
    });

} // namespace
} // namespace stems
