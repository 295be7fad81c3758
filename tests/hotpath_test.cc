/**
 * @file
 * Property tests for the hot-path data structures rewritten in the
 * engine performance program: the structure-of-arrays LruTable is
 * pinned against the frozen array-of-structs reference
 * (tests/reference_lru_table.hh) under seeded random workloads, the
 * RingQueue against std::deque, and every refactored structure's
 * state codec round-trips. Behavioural equivalence to the historical
 * layouts is the contract that keeps sweep output bitwise identical.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <unordered_map>
#include <vector>

#include "common/arena.hh"
#include "common/circular_buffer.hh"
#include "common/flat_index.hh"
#include "common/lru_table.hh"
#include "common/state_codec.hh"
#include "core/reconstruction.hh"
#include "core/stream.hh"
#include "mem/cache.hh"
#include "mem/svb.hh"
#include "prefetch/tms.hh"
#include "sim/prefetch_sim.hh"
#include "reference_cache.hh"
#include "reference_lru_table.hh"
#include "reference_pst.hh"
#include "reference_svb.hh"

using namespace stems;

namespace {

/**
 * Drive the SoA table and the reference with an identical op mix
 * (findOrInsert / find / peek / erase / occupancy) and require the
 * same observable result at every step, plus byte-identical
 * serialized state at the end. Halfway through, the table is saved
 * and continued as a freshly loaded copy, so whatever loadState
 * rebuilds (a fully associative table's slot index) is checked
 * against the reference too.
 */
void
lruEquivalenceRun(std::uint64_t seed, std::size_t entries,
                  std::size_t ways, std::uint64_t key_span,
                  std::size_t ops)
{
    std::mt19937_64 rng(seed);
    LruTable<std::uint64_t> table(entries, ways);
    ReferenceLruTable<std::uint64_t> oracle(entries, ways);
    auto save = [](StateWriter &w, const std::uint64_t &v) {
        w.u64(v);
    };

    std::vector<std::pair<std::uint64_t, std::uint64_t>> evTable;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> evOracle;
    for (std::size_t i = 0; i < ops; ++i) {
        if (i == ops / 2) {
            StateWriter w;
            table.saveState(w, save);
            LruTable<std::uint64_t> loaded(entries, ways);
            StateReader r(w.bytes().data(), w.bytes().size());
            loaded.loadState(r, [](StateReader &rd, std::uint64_t &v) {
                v = rd.u64();
            });
            ASSERT_TRUE(r.atEnd());
            table = std::move(loaded);
        }
        std::uint64_t key = rng() % key_span;
        switch (rng() % 8) {
        case 0: { // find
            std::uint64_t *a = table.find(key);
            std::uint64_t *b = oracle.find(key);
            ASSERT_EQ(a != nullptr, b != nullptr) << "op " << i;
            if (a) {
                ASSERT_EQ(*a, *b) << "op " << i;
            }
            break;
        }
        case 1: { // peek
            const std::uint64_t *a = table.peek(key);
            const std::uint64_t *b = oracle.peek(key);
            ASSERT_EQ(a != nullptr, b != nullptr) << "op " << i;
            if (a) {
                ASSERT_EQ(*a, *b) << "op " << i;
            }
            break;
        }
        case 2: // erase
            ASSERT_EQ(table.erase(key), oracle.erase(key))
                << "op " << i;
            break;
        case 3: // occupancy
            ASSERT_EQ(table.occupancy(), oracle.occupancy())
                << "op " << i;
            break;
        default: { // findOrInsert with eviction observers
            evTable.clear();
            evOracle.clear();
            std::uint64_t &a = table.findOrInsert(
                key, [&](std::uint64_t k, std::uint64_t &v) {
                    evTable.emplace_back(k, v);
                });
            std::uint64_t &b = oracle.findOrInsert(
                key, [&](std::uint64_t k, std::uint64_t &v) {
                    evOracle.emplace_back(k, v);
                });
            ASSERT_EQ(evTable, evOracle) << "op " << i;
            ASSERT_EQ(a, b) << "op " << i;
            a += key + 1;
            b += key + 1;
            break;
        }
        }
    }

    // Same victims, same slots: the serialized state (which encodes
    // slot positions, keys, stamps and values) must match byte for
    // byte.
    StateWriter wa, wb;
    table.saveState(wa, save);
    oracle.saveState(wb, save);
    ASSERT_EQ(wa.bytes(), wb.bytes());
}

TEST(HotpathLruTable, MatchesReferenceHitHeavy)
{
    // Key span well inside capacity: mostly hits, no evictions.
    lruEquivalenceRun(1, 256, 4, 100, 20000);
}

TEST(HotpathLruTable, MatchesReferenceEvictHeavy)
{
    // Key span far beyond capacity: the victim scan dominates.
    lruEquivalenceRun(2, 64, 4, 5000, 20000);
}

TEST(HotpathLruTable, MatchesReferenceFullyAssociative)
{
    lruEquivalenceRun(3, 16, 16, 300, 20000);
}

TEST(HotpathLruTable, MatchesReferenceAgtGeometry)
{
    // The 64-entry, 64-way SMS and STeMS AGTs: lookups go through the
    // slot index, which every insert, eviction and erase updates.
    lruEquivalenceRun(5, 64, 64, 100, 20000);
    lruEquivalenceRun(6, 64, 64, 2000, 20000);
}

TEST(HotpathLruTable, MatchesReferenceDirectMapped)
{
    lruEquivalenceRun(4, 128, 1, 1000, 20000);
}

TEST(HotpathLruTable, MatchesReferenceManySeeds)
{
    for (std::uint64_t seed = 10; seed < 20; ++seed)
        lruEquivalenceRun(seed, 96, 3, 700, 5000);
}

TEST(HotpathLruTable, StateRoundTripRestoresBehaviour)
{
    LruTable<std::uint64_t> a(64, 4);
    std::mt19937_64 rng(99);
    for (int i = 0; i < 5000; ++i)
        a.findOrInsert(rng() % 400) += 1;
    a.erase(rng() % 400);

    StateWriter w;
    auto save = [](StateWriter &wr, const std::uint64_t &v) {
        wr.u64(v);
    };
    a.saveState(w, save);

    LruTable<std::uint64_t> b(64, 4);
    StateReader r(w.bytes().data(), w.bytes().size());
    b.loadState(r, [](StateReader &rd, std::uint64_t &v) {
        v = rd.u64();
    });
    ASSERT_TRUE(r.atEnd());
    ASSERT_EQ(a.occupancy(), b.occupancy());

    // Identical continuations: drive both further and compare the
    // serialized end states (victim choices depend on the restored
    // stamps, so divergence would show up here).
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t key = rng() % 400;
        a.findOrInsert(key) += 2;
        b.findOrInsert(key) += 2;
    }
    StateWriter wa, wb;
    a.saveState(wa, save);
    b.saveState(wb, save);
    ASSERT_EQ(wa.bytes(), wb.bytes());
}

TEST(HotpathLruTable, LoadRejectsGeometryMismatch)
{
    LruTable<std::uint64_t> a(64, 4);
    StateWriter w;
    a.saveState(w,
                [](StateWriter &wr, const std::uint64_t &v) {
                    wr.u64(v);
                });
    LruTable<std::uint64_t> b(64, 8);
    StateReader r(w.bytes().data(), w.bytes().size());
    b.loadState(r, [](StateReader &rd, std::uint64_t &v) {
        v = rd.u64();
    });
    ASSERT_FALSE(r.ok());
}

TEST(HotpathLruTable, ForEachVisitsExactlyValidEntries)
{
    LruTable<std::uint64_t> t(32, 4);
    ReferenceLruTable<std::uint64_t> o(32, 4);
    std::mt19937_64 rng(7);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t key = rng() % 100;
        if (rng() % 4 == 0) {
            t.erase(key);
            o.erase(key);
        } else {
            t.findOrInsert(key) = key * 3;
            o.findOrInsert(key) = key * 3;
        }
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> got, want;
    t.forEach([&](std::uint64_t k, std::uint64_t &v) {
        got.emplace_back(k, v);
    });
    o.forEach([&](std::uint64_t k, std::uint64_t &v) {
        want.emplace_back(k, v);
    });
    ASSERT_EQ(got, want);
}

// ---- RingQueue vs std::deque ----------------------------------

TEST(HotpathRingQueue, MatchesDequeUnderRandomOps)
{
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        std::mt19937_64 rng(seed);
        RingQueue<std::uint64_t> ring;
        std::deque<std::uint64_t> oracle;
        for (int i = 0; i < 30000; ++i) {
            switch (rng() % 5) {
            case 0:
            case 1:
            case 2: { // push (biased: queues grow in bursts)
                std::uint64_t v = rng();
                ring.push_back(v);
                oracle.push_back(v);
                break;
            }
            case 3:
                if (!oracle.empty()) {
                    ASSERT_EQ(ring.front(), oracle.front());
                    ring.pop_front();
                    oracle.pop_front();
                }
                break;
            case 4: { // dropFront of a random prefix
                std::size_t k = oracle.empty()
                                    ? 0
                                    : rng() % oracle.size();
                ring.dropFront(k);
                oracle.erase(oracle.begin(), oracle.begin() + k);
                break;
            }
            }
            ASSERT_EQ(ring.size(), oracle.size());
            ASSERT_EQ(ring.empty(), oracle.empty());
            if (!oracle.empty()) {
                std::size_t probe = rng() % oracle.size();
                ASSERT_EQ(ring[probe], oracle[probe]);
            }
        }
    }
}

TEST(HotpathRingQueue, ClearRetainsCapacity)
{
    RingQueue<std::uint64_t> ring;
    for (int i = 0; i < 1000; ++i)
        ring.push_back(i);
    std::size_t cap = ring.capacity();
    ASSERT_GE(cap, 1000u);
    ring.clear();
    ASSERT_TRUE(ring.empty());
    ASSERT_EQ(ring.capacity(), cap);
    for (int i = 0; i < 1000; ++i)
        ring.push_back(i * 2);
    ASSERT_EQ(ring.capacity(), cap);
    ASSERT_EQ(ring[999], 1998u);
}

TEST(HotpathRingQueue, AssignReplacesContents)
{
    RingQueue<std::uint64_t> ring;
    ring.push_back(1);
    ring.push_back(2);
    std::vector<std::uint64_t> src{7, 8, 9};
    ring.assign(src.begin(), src.end());
    ASSERT_EQ(ring.size(), 3u);
    ASSERT_EQ(ring[0], 7u);
    ASSERT_EQ(ring[2], 9u);
}

TEST(HotpathRingQueue, WrapAroundGrowthRelinearizes)
{
    // Force head_ far from zero, then grow: the re-linearization
    // must preserve order across the old wrap point.
    RingQueue<std::uint64_t> ring;
    for (std::uint64_t i = 0; i < 12; ++i)
        ring.push_back(i);
    for (std::uint64_t i = 0; i < 10; ++i)
        ring.pop_front();
    for (std::uint64_t i = 12; i < 40; ++i)
        ring.push_back(i); // wraps, then grows
    ASSERT_EQ(ring.size(), 30u);
    for (std::size_t k = 0; k < ring.size(); ++k)
        ASSERT_EQ(ring[k], k + 10);
}

// ---- InlineVec / ScratchPool ----------------------------------

TEST(HotpathInlineVec, BasicInvariants)
{
    InlineVec<int, 4> v;
    ASSERT_TRUE(v.empty());
    ASSERT_EQ(v.capacity(), 4u);
    v.push_back(1);
    v.emplace_back(2);
    ASSERT_EQ(v.size(), 2u);
    ASSERT_FALSE(v.full());
    ASSERT_EQ(v[0], 1);
    ASSERT_EQ(v.back(), 2);
    int sum = 0;
    for (int x : v)
        sum += x;
    ASSERT_EQ(sum, 3);
    v.push_back(3);
    v.push_back(4);
    ASSERT_TRUE(v.full());
    v.clear();
    ASSERT_TRUE(v.empty());
}

TEST(HotpathScratchPool, RecyclesCapacity)
{
    ScratchPool<std::uint64_t> pool;
    const std::uint64_t *data = nullptr;
    {
        auto h = pool.acquire();
        ASSERT_TRUE(h->empty());
        for (int i = 0; i < 500; ++i)
            h->push_back(i);
        data = h->data();
    }
    ASSERT_EQ(pool.idle(), 1u);
    {
        // The recycled vector keeps its allocation: same backing
        // pointer, cleared contents.
        auto h = pool.acquire();
        ASSERT_TRUE(h->empty());
        ASSERT_GE(h->capacity(), 500u);
        ASSERT_EQ(h->data(), data);
    }
    {
        auto a = pool.acquire();
        auto b = pool.acquire(); // pool empty: fresh vector
        a->push_back(1);
        b->push_back(2);
        ASSERT_NE(a->data(), b->data());
    }
    ASSERT_EQ(pool.idle(), 2u);
}

// ---- StreamQueueSet round-trip with ring-backed pending -------

TEST(HotpathStreamQueues, StateRoundTripPreservesPending)
{
    StreamQueueSet a;
    std::uint64_t refills = 0;
    auto refill = [&](RingQueue<Addr> &pending, std::uint64_t &pos) {
        for (int i = 0; i < 4; ++i)
            pending.push_back(0x1000 * (++pos));
        ++refills;
    };
    std::vector<Addr> initial{0x40, 0x80, 0xC0, 0x100, 0x140};
    int id = a.allocate(initial, refill, false, 1);
    for (int i = 0; i < 3; ++i)
        a.onHit(id);
    std::vector<PrefetchRequest> reqs;
    a.drainRequests(reqs);

    StateWriter w;
    a.saveState(w);

    StreamQueueSet b;
    StateReader r(w.bytes().data(), w.bytes().size());
    b.loadState(r, refill);
    ASSERT_TRUE(r.ok());

    // Identical continuations must emit identical request streams.
    std::vector<PrefetchRequest> ra, rb;
    for (int i = 0; i < 20; ++i) {
        a.onHit(id);
        b.onHit(id);
    }
    a.drainRequests(ra);
    b.drainRequests(rb);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i)
        ASSERT_EQ(ra[i].addr, rb[i].addr);

    StateWriter wa, wb;
    a.saveState(wa);
    b.saveState(wb);
    ASSERT_EQ(wa.bytes(), wb.bytes());
}

// ---- Cache, SVB and FlatIndex vs the frozen layouts ------------

template <typename C>
std::vector<std::uint8_t>
stateBytes(const C &c)
{
    StateWriter w;
    c.saveState(w);
    return w.take();
}

template <typename A, typename B>
bool
sameVictim(const std::optional<A> &a, const std::optional<B> &b)
{
    if (a.has_value() != b.has_value())
        return false;
    return !a || (a->addr == b->addr && a->prefetched == b->prefetched &&
                  a->referenced == b->referenced);
}

/**
 * One seeded stream of demand lookups, demand and prefetch fills,
 * invalidations and probes over three times the capacity in blocks,
 * applied to the set-blocked Cache and the frozen reference: every
 * result and the serialized state must agree.
 */
void
cacheEquivalenceRun(std::uint64_t seed, std::size_t bytes,
                    std::size_t ways, std::size_t ops)
{
    std::mt19937_64 rng(seed);
    Cache cache("dut", bytes, ways);
    ReferenceCache oracle("ref", bytes, ways);
    const std::uint64_t span = 3 * bytes / kBlockBytes;
    for (std::size_t i = 0; i < ops; ++i) {
        const Addr a = (rng() % span) * kBlockBytes + rng() % kBlockBytes;
        switch (rng() % 8) {
        case 0:
        case 1:
        case 2: {
            const bool covered = oracle.isPrefetchedUnreferenced(a);
            const bool hit = oracle.access(a);
            const Cache::Lookup got = cache.demand(a);
            ASSERT_EQ(got.hit, hit) << "op " << i;
            ASSERT_EQ(got.coveredByPrefetch, hit && covered) << "op " << i;
            break;
        }
        case 3:
        case 4:
            ASSERT_TRUE(sameVictim(cache.insert(a), oracle.insert(a)))
                << "op " << i;
            break;
        case 5:
            ASSERT_TRUE(sameVictim(cache.insert(a, true),
                                   oracle.insert(a, true)))
                << "op " << i;
            break;
        case 6:
            ASSERT_TRUE(sameVictim(cache.invalidate(a),
                                   oracle.invalidate(a)))
                << "op " << i;
            break;
        default:
            ASSERT_EQ(cache.contains(a), oracle.contains(a)) << "op " << i;
            ASSERT_EQ(cache.isPrefetchedUnreferenced(a),
                      oracle.isPrefetchedUnreferenced(a))
                << "op " << i;
            break;
        }
        if ((i + 1) % (ops / 4) == 0) {
            ASSERT_EQ(cache.unreferencedPrefetches(),
                      oracle.unreferencedPrefetches());
            ASSERT_EQ(stateBytes(cache), stateBytes(oracle)) << "op " << i;
        }
    }
    ASSERT_EQ(cache.accesses(), oracle.accesses());
    ASSERT_EQ(cache.misses(), oracle.misses());
}

TEST(HotpathCache, MatchesReferenceTwoWayL1)
{
    cacheEquivalenceRun(1, 64 * 1024, 2, 200000);
}

TEST(HotpathCache, MatchesReferenceEightWayL2)
{
    cacheEquivalenceRun(2, 8 * 1024 * 1024, 8, 1000000);
}

TEST(HotpathCache, MatchesReferenceOddSetCount)
{
    // Three sets: the modulo set index, not the power-of-two mask.
    cacheEquivalenceRun(3, 12 * kBlockBytes, 4, 20000);
}

template <typename A, typename B>
bool
sameEntry(const std::optional<A> &a, const std::optional<B> &b)
{
    if (a.has_value() != b.has_value())
        return false;
    return !a || (a->addr == b->addr && a->streamId == b->streamId &&
                  a->readyTime == b->readyTime);
}

/**
 * Drive the SVB and the frozen reference with one seeded op mix and
 * require the same results at every step. Every 4096 ops the buffer
 * is saved and the run continues on a freshly loaded copy, so the
 * index, free mask and recency list that loadState rebuilds are
 * checked against the reference too.
 */
void
svbEquivalenceRun(std::uint64_t seed, std::size_t capacity,
                  std::size_t ops)
{
    std::mt19937_64 rng(seed);
    StreamedValueBuffer svb(capacity);
    ReferenceStreamedValueBuffer oracle(capacity);
    const std::uint64_t span = 3 * capacity;
    for (std::size_t i = 0; i < ops; ++i) {
        if (i % 4096 == 4095) {
            const std::vector<std::uint8_t> saved = stateBytes(svb);
            ASSERT_EQ(saved, stateBytes(oracle)) << "op " << i;
            StreamedValueBuffer loaded(capacity);
            StateReader r(saved.data(), saved.size());
            loaded.loadState(r);
            ASSERT_TRUE(r.atEnd()) << "op " << i;
            svb = std::move(loaded);
        }
        const Addr a =
            0x100000 + (rng() % span) * kBlockBytes + rng() % kBlockBytes;
        const int stream = static_cast<int>(rng() % 6) - 1;
        const Cycles ready = rng() % 1000;
        switch (rng() % 10) {
        case 0:
        case 1:
        case 2:
            ASSERT_TRUE(sameEntry(svb.insert({a, stream, ready}),
                                  oracle.insert({a, stream, ready})))
                << "op " << i;
            break;
        case 3:
        case 4: { // the simulator's issue path: filter, then insert
            const bool present = oracle.contains(a);
            ASSERT_EQ(svb.contains(a), present) << "op " << i;
            if (!present) {
                ASSERT_TRUE(
                    sameEntry(svb.insertAbsent({a, stream, ready}),
                              oracle.insert({a, stream, ready})))
                    << "op " << i;
            }
            break;
        }
        case 5:
        case 6:
            ASSERT_TRUE(sameEntry(svb.consume(a), oracle.consume(a)))
                << "op " << i;
            break;
        case 7:
            ASSERT_TRUE(sameEntry(svb.invalidate(a), oracle.invalidate(a)))
                << "op " << i;
            break;
        case 8:
            ASSERT_EQ(svb.occupancy(), oracle.occupancy()) << "op " << i;
            ASSERT_EQ(svb.occupancyForStream(stream),
                      oracle.occupancyForStream(stream))
                << "op " << i;
            break;
        default:
            if (rng() % 8 == 0) {
                ASSERT_TRUE(sameEntry(svb.consumeAny(),
                                      oracle.consumeAny()))
                    << "op " << i;
            }
            break;
        }
    }
    ASSERT_EQ(stateBytes(svb), stateBytes(oracle));
    // The end-of-run drain order must match too.
    for (;;) {
        auto got = svb.consumeAny();
        ASSERT_TRUE(sameEntry(got, oracle.consumeAny()));
        if (!got)
            break;
    }
}

TEST(HotpathSvb, MatchesReference64Slots)
{
    svbEquivalenceRun(1, 64, 200000);
}

TEST(HotpathSvb, MatchesReference32Slots)
{
    svbEquivalenceRun(2, 32, 200000);
}

TEST(HotpathSvb, MatchesReference1Slot)
{
    svbEquivalenceRun(3, 1, 50000);
}

TEST(HotpathSvb, MatchesReference33Slots)
{
    // Not a power of two; the free mask's one word is partly used.
    svbEquivalenceRun(4, 33, 200000);
}

TEST(HotpathSvb, MatchesReference100Slots)
{
    // A free mask of two words, the second partly used.
    svbEquivalenceRun(5, 100, 200000);
}

/**
 * The historical encoding of an index holding `oracle`: the count,
 * then the pairs by key, ordered by std::sort. saveState's radix
 * sort must produce these bytes, and loadState must restore them.
 */
void
expectSortedBytes(const FlatIndex &index,
                  const std::unordered_map<std::uint64_t, std::uint64_t> &oracle)
{
    ASSERT_EQ(index.size(), oracle.size());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(
        oracle.begin(), oracle.end());
    std::sort(sorted.begin(), sorted.end());
    StateWriter want;
    want.u64(sorted.size());
    for (const auto &kv : sorted) {
        want.u64(kv.first);
        want.u64(kv.second);
    }
    ASSERT_EQ(stateBytes(index), want.bytes());

    FlatIndex restored(8);
    StateReader r(want.bytes().data(), want.bytes().size());
    restored.loadState(r);
    ASSERT_TRUE(r.atEnd());
    ASSERT_EQ(stateBytes(restored), want.bytes());
}

TEST(HotpathFlatIndex, MatchesUnorderedMapAndItsSortedBytes)
{
    constexpr std::uint64_t kTopBit = std::uint64_t{1} << 63;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        std::mt19937_64 rng(seed);
        FlatIndex index(8); // tiny: the run crosses many growths
        std::unordered_map<std::uint64_t, std::uint64_t> oracle;
        for (std::uint64_t i = 0; i < 100000; ++i) {
            // Mostly block addresses (the RMOB/TMS keys), some words,
            // some with bit 63 set, and the smallest keys.
            const std::uint64_t pick = rng() % 8;
            std::uint64_t key = pick < 5    ? (rng() % 30000) << kBlockShift
                                : pick == 5 ? rng() >> 1
                                : pick == 6 ? rng() | kTopBit
                                            : rng() % 4;
            if (key == FlatIndex::kEmptyKey)
                key ^= 1;
            if (rng() % 3 == 0) {
                const std::uint64_t *got = index.find(key);
                auto want = oracle.find(key);
                ASSERT_EQ(got != nullptr, want != oracle.end());
                if (got) {
                    ASSERT_EQ(*got, want->second);
                }
            } else {
                bool fresh = false;
                index.findOrInsert(key, &fresh) = i;
                ASSERT_EQ(fresh, oracle.count(key) == 0);
                oracle[key] = i;
            }
        }
        expectSortedBytes(index, oracle);
    }

    // Key sets at the edges of the radix sort: none, one, key 0, only
    // bit 63 varying, only bit 0 varying, and both at once.
    const std::uint64_t block = std::uint64_t{0x1234} << kBlockShift;
    const std::vector<std::vector<std::uint64_t>> edges = {
        {},
        {block},
        {0},
        {0, block},
        {block, block | kTopBit},
        {kTopBit, 0},
        {block, block | 1},
        {0, 1},
        {block | kTopBit, block | kTopBit | 1, block, block | 1},
        {FlatIndex::kEmptyKey - 1, 0, kTopBit},
    };
    for (const std::vector<std::uint64_t> &keys : edges) {
        FlatIndex index(4);
        std::unordered_map<std::uint64_t, std::uint64_t> oracle;
        std::uint64_t value = 7;
        for (std::uint64_t key : keys) {
            index.findOrInsert(key) = value;
            oracle[key] = value++;
        }
        SCOPED_TRACE(::testing::Message() << keys.size() << " keys");
        expectSortedBytes(index, oracle);
    }
}

// ---- PST kept predictions vs the frozen scan-and-sort ----------

/** Offsets and deltas of a spatial sequence, for ASSERT_EQ. */
std::vector<std::pair<unsigned, unsigned>>
elementsOf(const std::vector<SpatialElement> &seq)
{
    std::vector<std::pair<unsigned, unsigned>> out;
    for (const SpatialElement &el : seq)
        out.emplace_back(el.offset, el.delta);
    return out;
}

/** The same for a kept prediction, read element by element. */
std::vector<std::pair<unsigned, unsigned>>
elementsOf(const SpatialPrediction &p)
{
    std::vector<std::pair<unsigned, unsigned>> out;
    for (std::size_t i = 0; i < p.size; ++i)
        out.emplace_back(p[i].offset, p[i].delta);
    return out;
}

/**
 * Train the PST and the reference with the same seeded generations
 * (random sequences, repeated offsets, sparse and dense access masks,
 * LRU evictions) and require the same prediction, mask and copied
 * lookup after every step, and the same bytes. Halfway through, the
 * PST continues as a copy loaded from its own saved state, so the
 * predictions loadState rebuilds are checked too.
 */
void
pstEquivalenceRun(std::uint64_t seed, unsigned threshold)
{
    PstParams params;
    params.entries = 64;
    params.ways = 4;
    params.predictThreshold = threshold;
    auto pst = std::make_unique<PatternSequenceTable>(params);
    ReferencePatternSequenceTable oracle(params);
    std::mt19937_64 rng(seed);
    std::vector<SpatialElement> got, want;
    for (int i = 0; i < 20000; ++i) {
        if (i == 10000) {
            ASSERT_EQ(stateBytes(*pst), stateBytes(oracle));
            const std::vector<std::uint8_t> bytes = stateBytes(*pst);
            auto loaded = std::make_unique<PatternSequenceTable>(params);
            StateReader r(bytes.data(), bytes.size());
            loaded->loadState(r);
            ASSERT_TRUE(r.atEnd());
            pst = std::move(loaded);
        }
        const std::uint64_t index = rng() % 150;
        if (rng() % 2 == 0) {
            SpatialElement seq[kBlocksPerRegion];
            const std::size_t len = rng() % (kBlocksPerRegion + 1);
            for (std::size_t k = 0; k < len; ++k) {
                seq[k].offset =
                    static_cast<std::uint8_t>(rng() % kBlocksPerRegion);
                seq[k].delta = static_cast<std::uint8_t>(rng());
            }
            const auto mask = static_cast<std::uint32_t>(
                rng() % 2 ? rng() : rng() & rng() & rng());
            pst->train(index, seq, len, mask);
            oracle.train(index, seq, len, mask);
        }
        const bool present = oracle.lookup(index, want);
        const SpatialPrediction *kept = pst->prediction(index);
        ASSERT_EQ(kept != nullptr, present) << "step " << i;
        if (kept != nullptr) {
            ASSERT_EQ(elementsOf(*kept), elementsOf(want)) << "step " << i;
        }
        ASSERT_EQ(pst->predictedMask(index), oracle.predictedMask(index))
            << "step " << i;
        ASSERT_EQ(pst->lookup(index, got), present) << "step " << i;
        ASSERT_EQ(elementsOf(got), elementsOf(want)) << "step " << i;
    }
    ASSERT_EQ(stateBytes(*pst), stateBytes(oracle));
}

TEST(HotpathPst, KeptPredictionMatchesScanAndSort)
{
    for (unsigned threshold = 1; threshold <= 3; ++threshold)
        pstEquivalenceRun(40 + threshold, threshold);
}

// ---- RMOB and TMS lookups by position window -------------------

TEST(HotpathRmob, WindowLookupMatchesEntryRecheckAcrossWraps)
{
    // The lookup it replaced: the block's newest index position,
    // accepted only while the buffer holds it and its entry's
    // address is the block. 200 blocks through 64 slots wrap the
    // buffer about 80 times; halfway, the RMOB continues as a copy
    // loaded from its saved state.
    using Position = RegionMissOrderBuffer::Position;
    auto rmob = std::make_unique<RegionMissOrderBuffer>(64);
    std::unordered_map<Addr, Position> newest;
    auto recheck = [&](Addr block) -> std::optional<Position> {
        auto it = newest.find(block);
        if (it == newest.end())
            return std::nullopt;
        auto entry = rmob->at(it->second);
        if (!entry.has_value() || entry->addr != block)
            return std::nullopt;
        return it->second;
    };
    std::mt19937_64 rng(17);
    for (int i = 0; i < 5000; ++i) {
        if (i == 2500) {
            const std::vector<std::uint8_t> bytes = stateBytes(*rmob);
            auto loaded = std::make_unique<RegionMissOrderBuffer>(64);
            StateReader r(bytes.data(), bytes.size());
            loaded->loadState(r);
            ASSERT_TRUE(r.atEnd());
            rmob = std::move(loaded);
        }
        for (int probe = 0; probe < 4; ++probe) {
            const Addr block = (rng() % 200) << kBlockShift;
            ASSERT_EQ(rmob->lookup(block), recheck(block)) << "append " << i;
        }
        const Addr block = (rng() % 200) << kBlockShift;
        newest[block] = rmob->append(block, static_cast<std::uint16_t>(i),
                                     static_cast<unsigned>(rng() % 300));
    }
}

TEST(HotpathTms, StreamStartsMatchPositionWindowAcrossWraps)
{
    // With resync off, an uncovered miss starts a stream exactly when
    // the block's previous occurrence is still among the last
    // bufferEntries misses, and the stream's first request is the
    // miss recorded right after that occurrence. Halfway, the engine
    // continues as a copy loaded from its saved state.
    TmsParams params;
    params.bufferEntries = 64;
    params.numStreams = 4;
    params.resyncWindow = 0;
    auto tms = std::make_unique<TmsPrefetcher>(params);
    std::vector<Addr> history; // every recorded miss, by position
    std::vector<PrefetchRequest> issued;
    std::mt19937_64 rng(23);
    for (std::uint64_t i = 0; i < 5000; ++i) {
        if (i == 2500) {
            const std::vector<std::uint8_t> bytes = stateBytes(*tms);
            auto loaded = std::make_unique<TmsPrefetcher>(params);
            StateReader r(bytes.data(), bytes.size());
            loaded->loadState(r);
            ASSERT_TRUE(r.atEnd());
            tms = std::move(loaded);
        }
        const Addr block = (rng() % 200) << kBlockShift;
        std::optional<std::size_t> prev;
        for (std::size_t j = history.size();
             j-- > 0 && history.size() - j <= params.bufferEntries;) {
            if (history[j] == block) {
                prev = j;
                break;
            }
        }
        const std::uint64_t started = tms->streamsStarted();
        tms->onOffChipRead({block, 0x400, i, false, -1});
        history.push_back(block);
        issued.clear();
        tms->drainRequests(issued);
        ASSERT_EQ(tms->streamsStarted() - started, prev ? 1u : 0u)
            << "miss " << i;
        if (prev) {
            ASSERT_EQ(issued.size(), 1u) << "miss " << i;
            EXPECT_EQ(issued[0].addr, history[*prev + 1]) << "miss " << i;
        } else {
            ASSERT_TRUE(issued.empty()) << "miss " << i;
        }
    }
}

// ---- reject, never misdecode -----------------------------------

/** Load a hand-built payload. @return the re-encoded state when the
 *  reader accepted all of it, nullopt when it failed. */
template <typename T>
std::optional<std::vector<std::uint8_t>>
reload(T &target, const StateWriter &payload)
{
    StateReader r(payload.bytes().data(), payload.bytes().size());
    target.loadState(r);
    if (!r.atEnd())
        return std::nullopt;
    return stateBytes(target);
}

TEST(HotpathReject, LruTableValidSlotWithStampZero)
{
    auto payload = [](std::uint64_t stamp) {
        StateWriter w;
        w.u64(2); // ways
        w.u64(1); // sets
        w.u64(9); // clock
        w.boolean(true);
        w.u64(42); // key
        w.u64(stamp);
        w.u64(7); // value
        w.boolean(false);
        return w;
    };
    auto loads = [](const StateWriter &w) {
        LruTable<std::uint64_t> t(2, 2);
        StateReader r(w.bytes().data(), w.bytes().size());
        t.loadState(r, [](StateReader &rd, std::uint64_t &v) {
            v = rd.u64();
        });
        return r.atEnd();
    };
    EXPECT_TRUE(loads(payload(3)));
    EXPECT_FALSE(loads(payload(0)));
}

TEST(HotpathReject, LruTableKeyLiveInTwoSlots)
{
    // `valid` flags which of the table's slots hold key 42; a saved
    // table never holds one key twice.
    auto payload = [](std::size_t ways, std::size_t sets,
                      const std::vector<bool> &valid) {
        StateWriter w;
        w.u64(ways);
        w.u64(sets);
        w.u64(99); // clock
        for (std::size_t i = 0; i < valid.size(); ++i) {
            w.boolean(valid[i]);
            if (valid[i]) {
                w.u64(42);    // key
                w.u64(i + 1); // stamp
                w.u64(7);     // value
            }
        }
        return w;
    };
    auto loads = [](std::size_t ways, std::size_t sets,
                    const StateWriter &w) {
        LruTable<std::uint64_t> t(ways * sets, ways);
        StateReader r(w.bytes().data(), w.bytes().size());
        t.loadState(r, [](StateReader &rd, std::uint64_t &v) {
            v = rd.u64();
        });
        return r.atEnd();
    };
    // Fully associative (the slot-index geometry).
    EXPECT_TRUE(loads(4, 1, payload(4, 1, {false, true, false, false})));
    EXPECT_FALSE(loads(4, 1, payload(4, 1, {true, false, false, true})));
    // Set-associative: every slot of both sets holds it, so the set
    // the key maps to holds it four times.
    EXPECT_FALSE(loads(4, 2, payload(4, 2, std::vector<bool>(8, true))));
}

TEST(HotpathReject, RmobIndexPositionItsBufferCannotHold)
{
    // Two slots, three appends: position 0 (block 0x1000) was
    // overwritten, positions 1 and 2 hold 0x2000 and 0x3000. The
    // varied field is the index position of 0x3000.
    auto payload = [](std::uint64_t pos_of_3000) {
        StateWriter w;
        w.tag(stateTag('R', 'M', 'O', 'B'));
        w.u64(2); // capacity
        w.u64(3); // frontier
        for (Addr a : {Addr{0x2000}, Addr{0x3000}}) {
            w.u64(a);
            w.u32(5); // pc16
            w.u8(0);  // delta
        }
        w.u64(3);
        w.u64(0x1000); // stale: its position left the window
        w.u64(0);
        w.u64(0x2000);
        w.u64(1);
        w.u64(0x3000);
        w.u64(pos_of_3000);
        return w;
    };
    RegionMissOrderBuffer rmob(2);
    const StateWriter good = payload(2);
    auto again = reload(rmob, good);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, good.bytes());
    EXPECT_EQ(rmob.lookup(0x3000), std::optional<std::uint64_t>(2));
    EXPECT_FALSE(rmob.lookup(0x1000).has_value());
    // A live slot that holds another block.
    EXPECT_FALSE(reload(rmob, payload(1)).has_value());
    // At and past the frontier: positions not written yet.
    EXPECT_FALSE(reload(rmob, payload(3)).has_value());
    EXPECT_FALSE(reload(rmob, payload(9)).has_value());
}

TEST(HotpathReject, TmsIndexPositionItsBufferCannotHold)
{
    // The RMOB case for the TMS buffer: two slots, three misses.
    auto payload = [](std::uint64_t pos_of_3000) {
        StateWriter w;
        w.tag(stateTag('T', 'M', 'S', '1'));
        w.i64(0); // global in flight
        w.u64(0); // clock
        w.u64(0); // streams started
        w.u64(2); // capacity
        w.u64(3); // frontier
        w.u64(0x2000);
        w.u64(0x3000);
        w.u64(3);
        w.u64(0x1000);
        w.u64(0);
        w.u64(0x2000);
        w.u64(1);
        w.u64(0x3000);
        w.u64(pos_of_3000);
        w.u64(1); // one idle stream
        w.boolean(false);
        w.boolean(false);
        w.u64(0); // pending
        w.u64(0); // next position
        w.u64(0); // lru
        w.i64(0); // in flight
        w.u32(0); // generation
        w.u64(0); // queued requests
        return w;
    };
    TmsParams params;
    params.bufferEntries = 2;
    params.numStreams = 1;
    TmsPrefetcher tms(params);
    const StateWriter good = payload(2);
    auto again = reload(tms, good);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, good.bytes());
    EXPECT_FALSE(reload(tms, payload(1)).has_value());
    EXPECT_FALSE(reload(tms, payload(3)).has_value());
    EXPECT_FALSE(reload(tms, payload(9)).has_value());
}

TEST(HotpathReject, CacheWayTheSetBlockCannotHold)
{
    // 2 sets x 2 ways; way 0 of set 0 carries the varied fields.
    auto payload = [](Addr tag, std::uint64_t stamp, std::uint64_t clock) {
        StateWriter w;
        w.tag(stateTag('C', 'A', 'C', 'H'));
        w.u64(2);
        w.u64(2);
        w.u64(clock);
        w.u64(0);
        w.u64(0);
        w.boolean(true);
        w.u64(tag);
        w.u64(stamp);
        w.boolean(true);
        w.boolean(false);
        for (int i = 0; i < 3; ++i)
            w.boolean(false);
        return w;
    };
    Cache cache("t", 4 * kBlockBytes, 2);
    const StateWriter good = payload(2, 3, 9);
    auto again = reload(cache, good);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, good.bytes());
    EXPECT_FALSE(reload(cache, payload(2, 0, 9)).has_value());
    EXPECT_FALSE(reload(cache, payload(~Addr{0}, 3, 9)).has_value());
    EXPECT_FALSE(reload(cache, payload(2, Addr{1} << 62, 9)).has_value());
    EXPECT_FALSE(reload(cache, payload(2, 3, Addr{1} << 62)).has_value());
}

TEST(HotpathReject, SvbSlotTheLanesCannotHold)
{
    auto payload = [](Addr addr, std::uint64_t stamp) {
        StateWriter w;
        w.tag(stateTag('S', 'V', 'B', '1'));
        w.u64(2);
        w.u64(5);
        w.boolean(true);
        w.u64(stamp);
        w.u64(addr);
        w.i64(1);
        w.u64(0);
        w.boolean(false);
        return w;
    };
    StreamedValueBuffer svb(2);
    const StateWriter good = payload(0x40, 3);
    auto again = reload(svb, good);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, good.bytes());
    EXPECT_FALSE(reload(svb, payload(0x40, 0)).has_value());
    EXPECT_FALSE(reload(svb, payload(~Addr{0}, 3)).has_value());
}

/** A two-slot SVB state with both slots live. */
StateWriter
svbTwoLiveSlots(std::uint64_t clock, std::uint64_t stamp0, Addr addr0,
                std::uint64_t stamp1, Addr addr1)
{
    StateWriter w;
    w.tag(stateTag('S', 'V', 'B', '1'));
    w.u64(2);
    w.u64(clock);
    for (auto [stamp, addr] : {std::pair{stamp0, addr0},
                               std::pair{stamp1, addr1}}) {
        w.boolean(true);
        w.u64(stamp);
        w.u64(addr);
        w.i64(1);
        w.u64(0);
    }
    return w;
}

/** After a failed load the buffer is as constructed, and its lookups,
 *  victims and drain order are the reference's. */
void
expectEmptyAndConsistent(StreamedValueBuffer &svb)
{
    StreamedValueBuffer fresh(2);
    EXPECT_EQ(stateBytes(svb), stateBytes(fresh));
    ReferenceStreamedValueBuffer oracle(2);
    for (Addr a : {Addr{0x40}, Addr{0x80}, Addr{0x40}, Addr{0xc0}}) {
        EXPECT_TRUE(
            sameEntry(svb.insert({a, 1, 0}), oracle.insert({a, 1, 0})));
        for (Addr b : {Addr{0x40}, Addr{0x80}, Addr{0xc0}})
            EXPECT_EQ(svb.contains(b), oracle.contains(b));
    }
    EXPECT_EQ(svb.occupancy(), 2u);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(sameEntry(svb.consumeAny(), oracle.consumeAny()));
}

TEST(HotpathReject, SvbBlockLiveInTwoSlots)
{
    StreamedValueBuffer svb(2);
    const StateWriter good = svbTwoLiveSlots(5, 3, 0x40, 4, 0x80);
    auto again = reload(svb, good);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, good.bytes());
    // The index holds a block once; the scan found the lower slot.
    EXPECT_FALSE(
        reload(svb, svbTwoLiveSlots(5, 3, 0x40, 4, 0x40)).has_value());
    expectEmptyAndConsistent(svb);
}

TEST(HotpathReject, SvbTwoLiveSlotsShareAStamp)
{
    StreamedValueBuffer svb(2);
    const StateWriter good = svbTwoLiveSlots(5, 4, 0x40, 3, 0x80);
    auto again = reload(svb, good);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, good.bytes());
    // The recency list needs one order; the scan broke the tie by
    // slot.
    EXPECT_FALSE(
        reload(svb, svbTwoLiveSlots(5, 3, 0x40, 3, 0x80)).has_value());
    expectEmptyAndConsistent(svb);
}

TEST(HotpathReject, SvbLiveStampAboveTheClock)
{
    StreamedValueBuffer svb(2);
    const StateWriter good = svbTwoLiveSlots(4, 3, 0x40, 4, 0x80);
    auto again = reload(svb, good);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, good.bytes());
    // The next insert would stamp 5 a second time.
    EXPECT_FALSE(
        reload(svb, svbTwoLiveSlots(4, 3, 0x40, 5, 0x80)).has_value());
    expectEmptyAndConsistent(svb);
}

TEST(HotpathReject, ReconstructorBucketOutsideWindow)
{
    auto payload = [](std::int64_t bucket, std::uint64_t count) {
        StateWriter w;
        w.tag(stateTag('R', 'C', 'O', 'N'));
        w.u64(1);
        w.i64(bucket);
        w.u64(count);
        w.u64(0); // dropped
        w.u64(0); // windows
        return w;
    };
    RegionMissOrderBuffer rmob(4);
    PatternSequenceTable pst;
    Reconstructor recon(rmob, pst); // displacement window 2
    const StateWriter good = payload(-2, 5);
    auto again = reload(recon, good);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, good.bytes());
    EXPECT_EQ(recon.displacements().count(-2), 5u);
    EXPECT_FALSE(reload(recon, payload(3, 5)).has_value());
    EXPECT_FALSE(reload(recon, payload(-3, 5)).has_value());
    EXPECT_FALSE(reload(recon, payload(0, 0)).has_value());
}

TEST(HotpathReject, PrefetchSimulatorReadyListDuplicateOrUnsorted)
{
    // A timed simulator keeps the ready time of each prefetch-filled L2
    // block, and saveState writes them by strictly ascending address.
    // Splice a two-entry list into a fresh timed simulator's state in
    // place of its empty one: the splice point is the offset, nearest
    // the end, where the sorted list round-trips byte for byte.
    SimParams params;
    params.enableTiming = true;
    const std::vector<std::uint8_t> empty =
        stateBytes(PrefetchSimulator(params, nullptr));
    auto splice = [&](std::size_t at, const std::vector<Addr> &addrs) {
        StateWriter w;
        for (std::size_t i = 0; i < at; ++i)
            w.u8(empty[i]);
        w.u64(addrs.size());
        double ready = 100.0;
        for (Addr a : addrs) {
            w.u64(a);
            w.f64(ready++);
        }
        for (std::size_t i = at + 8; i < empty.size(); ++i)
            w.u8(empty[i]);
        return w;
    };
    std::optional<std::size_t> at;
    for (std::size_t back = 8; !at && back <= std::min<std::size_t>(
                                          512, empty.size());
         ++back) {
        const std::size_t i = empty.size() - back;
        std::uint64_t count = 0;
        std::memcpy(&count, empty.data() + i, sizeof(count));
        if (count != 0)
            continue;
        PrefetchSimulator sim(params, nullptr);
        const StateWriter sorted = splice(i, {0x40, 0x80});
        auto again = reload(sim, sorted);
        if (again && *again == sorted.bytes())
            at = i;
    }
    ASSERT_TRUE(at.has_value());
    PrefetchSimulator sim(params, nullptr);
    EXPECT_FALSE(reload(sim, splice(*at, {0x40, 0x40})).has_value());
    EXPECT_FALSE(reload(sim, splice(*at, {0x80, 0x40})).has_value());
}

TEST(HotpathReject, FlatIndexEmptyDuplicateOrUnsortedKey)
{
    auto payload = [](std::vector<std::uint64_t> keys) {
        StateWriter w;
        w.u64(keys.size());
        for (std::uint64_t key : keys) {
            w.u64(key);
            w.u64(7);
        }
        return w;
    };
    FlatIndex index(4);
    const StateWriter good = payload({0x40, 0x80});
    auto again = reload(index, good);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, good.bytes());
    EXPECT_FALSE(reload(index, payload({FlatIndex::kEmptyKey})).has_value());
    // saveState writes strictly ascending keys: a duplicate would load
    // as one entry and a reordered pair would re-encode sorted, both
    // different bytes.
    EXPECT_FALSE(reload(index, payload({0x40, 0x40})).has_value());
    EXPECT_FALSE(reload(index, payload({0x80, 0x40})).has_value());
}

} // namespace
