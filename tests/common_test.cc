/**
 * @file
 * Unit tests for the common infrastructure: address geometry, RNG,
 * saturating counters, circular buffer, LRU table, histogram, table,
 * the mini-JSON parser's nesting cap, CRC-32 (against the frozen
 * bytewise implementation in reference_crc32.hh) and strict numeric
 * argument parsing.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "common/circular_buffer.hh"
#include "common/crc32.hh"
#include "common/lru_table.hh"
#include "common/mini_json.hh"
#include "common/parse_number.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "reference_crc32.hh"

namespace stems {
namespace {

TEST(Types, BlockGeometry)
{
    EXPECT_EQ(kBlockBytes, 64u);
    EXPECT_EQ(kRegionBytes, 2048u);
    EXPECT_EQ(kBlocksPerRegion, 32u);

    Addr a = 0x12345;
    EXPECT_EQ(blockAlign(a), 0x12340u);
    EXPECT_EQ(blockNumber(a), 0x12345u >> 6);
    EXPECT_EQ(regionBase(a), 0x12000u);
}

TEST(Types, RegionOffsetRoundTrip)
{
    for (unsigned off = 0; off < kBlocksPerRegion; ++off) {
        Addr base = 0xabc000;
        Addr a = addrFromRegionOffset(base, off);
        EXPECT_EQ(regionBase(a), base);
        EXPECT_EQ(regionOffset(a), off);
    }
}

TEST(Types, RegionOffsetIgnoresByteOffset)
{
    Addr a = addrFromRegionOffset(0x4000, 7) + 13;
    EXPECT_EQ(regionOffset(a), 7u);
    EXPECT_EQ(blockAlign(a), addrFromRegionOffset(0x4000, 7));
}

TEST(Rng, Deterministic)
{
    Rng a(42, 7);
    Rng b(42, 7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer)
{
    Rng a(42, 1);
    Rng b(42, 2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowBounds)
{
    Rng r(1);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.below(17);
        EXPECT_LT(v, 17u);
    }
    EXPECT_EQ(r.below(0), 0u);
    EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(2);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(3);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng r(4);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (r.chance(0.25))
            ++hits;
    EXPECT_NEAR(hits / double(n), 0.25, 0.02);
}

TEST(Rng, ForkIndependent)
{
    Rng parent(99);
    Rng c1 = parent.fork(1);
    Rng c2 = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (c1.next() == c2.next())
            ++same;
    EXPECT_LT(same, 4);
}

TEST(SatCounter, SaturatesBothEnds)
{
    SatCounter c(2, 0);
    EXPECT_EQ(c.value(), 0u);
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_EQ(c.max(), 3u);
}

TEST(SatCounter, PredictsUpperHalf)
{
    SatCounter c(2, 0);
    EXPECT_FALSE(c.predicts());
    c.increment();
    EXPECT_FALSE(c.predicts());
    c.increment();
    EXPECT_TRUE(c.predicts());
    c.increment();
    EXPECT_TRUE(c.predicts());
}

TEST(SatCounter, ClampsInitial)
{
    SatCounter c(2, 9);
    EXPECT_EQ(c.value(), 3u);
}

TEST(CircularBuffer, AppendAndRead)
{
    CircularBuffer<int> buf(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(buf.append(i * 10), static_cast<std::uint64_t>(i));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(buf.at(i).value(), i * 10);
}

TEST(CircularBuffer, OverwriteDetection)
{
    CircularBuffer<int> buf(4);
    for (int i = 0; i < 10; ++i)
        buf.append(i);
    EXPECT_EQ(buf.size(), 10u);
    EXPECT_EQ(buf.oldest(), 6u);
    EXPECT_FALSE(buf.at(5).has_value());
    EXPECT_TRUE(buf.at(6).has_value());
    EXPECT_EQ(buf.at(9).value(), 9);
    EXPECT_FALSE(buf.at(10).has_value());
    EXPECT_EQ(buf.live(), 4u);
}

TEST(CircularBuffer, LiveBeforeWrap)
{
    CircularBuffer<int> buf(8);
    buf.append(1);
    buf.append(2);
    EXPECT_EQ(buf.live(), 2u);
    EXPECT_EQ(buf.oldest(), 0u);
}

TEST(LruTable, InsertFindPeek)
{
    LruTable<int> t(8, 2);
    t.findOrInsert(100) = 7;
    EXPECT_NE(t.find(100), nullptr);
    EXPECT_EQ(*t.find(100), 7);
    EXPECT_EQ(t.find(200), nullptr);
    EXPECT_NE(t.peek(100), nullptr);
}

TEST(LruTable, EvictsLruWithinSet)
{
    // Single-set table: capacity 2, ways 2.
    LruTable<int> t(2, 2);
    t.findOrInsert(1) = 10;
    t.findOrInsert(2) = 20;
    // Touch 1 so 2 becomes LRU.
    EXPECT_NE(t.find(1), nullptr);
    std::uint64_t evicted_key = 0;
    t.findOrInsert(3, [&](std::uint64_t k, int &) {
        evicted_key = k;
    }) = 30;
    EXPECT_EQ(evicted_key, 2u);
    EXPECT_NE(t.find(1), nullptr);
    EXPECT_EQ(t.find(2), nullptr);
    EXPECT_NE(t.find(3), nullptr);
}

TEST(LruTable, EraseAndOccupancy)
{
    LruTable<int> t(16, 4);
    for (std::uint64_t k = 0; k < 10; ++k)
        t.findOrInsert(k * 977) = static_cast<int>(k);
    EXPECT_EQ(t.occupancy(), 10u);
    EXPECT_TRUE(t.erase(0));
    EXPECT_FALSE(t.erase(0));
    EXPECT_EQ(t.occupancy(), 9u);
}

TEST(LruTable, ForEachVisitsAllValid)
{
    LruTable<int> t(64, 4);
    for (std::uint64_t k = 1; k <= 20; ++k)
        t.findOrInsert(k) = 1;
    int n = 0;
    t.forEach([&](std::uint64_t, int &v) { n += v; });
    EXPECT_EQ(n, 20);
}

TEST(Histogram, BasicCountsAndFractions)
{
    Histogram h;
    h.add(1, 80);
    h.add(2, 10);
    h.add(-3, 10);
    EXPECT_EQ(h.total(), 100u);
    EXPECT_EQ(h.count(1), 80u);
    EXPECT_DOUBLE_EQ(h.fractionWithin(2), 0.9);
    EXPECT_DOUBLE_EQ(h.fractionWithin(3), 1.0);
    EXPECT_DOUBLE_EQ(h.fractionBetween(1, 2), 0.9);
    EXPECT_EQ(h.minBucket(), -3);
    EXPECT_EQ(h.maxBucket(), 2);
}

TEST(Histogram, Mean)
{
    Histogram h;
    h.add(2, 2);
    h.add(-2, 2);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    h.add(4, 4);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, EmptyIsSafe)
{
    Histogram h;
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.fractionWithin(5), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Stats, RatioAndFormat)
{
    EXPECT_DOUBLE_EQ(ratio(1, 4), 0.25);
    EXPECT_DOUBLE_EQ(ratio(1, 0), 0.0);
    EXPECT_EQ(fmtPct(0.621), "62.1%");
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtX(1.308), "1.31x");
}

TEST(Table, RendersAllCells)
{
    Table t({"workload", "coverage"});
    t.addRow({"oltp-db2", "55.0%"});
    t.addSeparator();
    t.addRow({"mean", "62.0%"});
    std::string s = t.str();
    EXPECT_NE(s.find("workload"), std::string::npos);
    EXPECT_NE(s.find("oltp-db2"), std::string::npos);
    EXPECT_NE(s.find("62.0%"), std::string::npos);
}

TEST(MiniJson, CapsNestingDepth)
{
    auto parses = [](int levels) {
        const std::string text =
            std::string(levels, '[') + std::string(levels, ']');
        JsonParser parser(text);
        JsonValue value;
        return parser.parseValue(value);
    };
    EXPECT_TRUE(parses(JsonParser::kMaxDepth));
    EXPECT_FALSE(parses(JsonParser::kMaxDepth + 1));
    // Deep enough to exhaust the stack if the recursion were
    // unbounded.
    EXPECT_FALSE(parses(1 << 20));
}

/** Seeded bytes for the CRC-32 properties. */
std::vector<std::uint8_t>
crcInput(std::size_t len)
{
    Rng rng(0xC4C32);
    std::vector<std::uint8_t> bytes(len);
    for (std::uint8_t &b : bytes)
        b = static_cast<std::uint8_t>(rng.below(256));
    return bytes;
}

TEST(Crc32, StandardCheckValue)
{
    // The catalogued check value of CRC-32/ISO-HDLC (zlib, gzip).
    const char digits[] = "123456789";
    EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
    EXPECT_EQ(crc32(digits, 0), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    // Slicing-by-8 folds eight bytes per step and the tail bytewise;
    // every length 0-1024 at every start offset 0-7 covers each
    // split between the two and every alignment of the 8-byte loads.
    const std::vector<std::uint8_t> bytes = crcInput(1024 + 8);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 1024; ++len) {
            const std::uint8_t *p = bytes.data() + offset;
            ASSERT_EQ(crc32(p, len), referenceCrc32Update(0, p, len))
                << "offset " << offset << " len " << len;
        }
    }
}

TEST(Crc32, ChainedUpdateMatchesOneShotAtEverySplit)
{
    // The streamed checkpoint writer folds its payload in chunk by
    // chunk; any split must give the one-shot value.
    const std::vector<std::uint8_t> bytes = crcInput(777);
    const std::uint32_t whole = crc32(bytes.data(), bytes.size());
    for (std::size_t split = 0; split <= bytes.size(); ++split) {
        const std::uint32_t head = crc32Update(0, bytes.data(), split);
        ASSERT_EQ(crc32Update(head, bytes.data() + split,
                              bytes.size() - split),
                  whole)
            << "split " << split;
    }
}

TEST(ParseNumber, UnsignedAcceptsOnlyWholeNumbersInRange)
{
    std::uint64_t v = 7;
    EXPECT_TRUE(parseUnsigned("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUnsigned("150000", v));
    EXPECT_EQ(v, 150000u);
    EXPECT_TRUE(parseUnsigned("18446744073709551615", v));
    EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(parseUnsigned("65535", v, 65535));
    EXPECT_EQ(v, 65535u);

    // Each of these reads as some other number under strtoull; a
    // rejected input leaves `out` alone.
    v = 7;
    for (const char *bad :
         {"", " 5", "5 ", "+5", "-1", " -1", "5G", "1e6", "0x10", "1.5",
          "18446744073709551616", "99999999999999999999"})
        EXPECT_FALSE(parseUnsigned(bad, v)) << "'" << bad << "'";
    EXPECT_FALSE(parseUnsigned(nullptr, v));
    EXPECT_FALSE(parseUnsigned("70000", v, 65535));
    EXPECT_FALSE(parseUnsigned("4294967296", v,
                               std::numeric_limits<unsigned>::max()));
    EXPECT_EQ(v, 7u);
}

TEST(ParseNumber, NonNegativeAcceptsOnlyFiniteNumbers)
{
    double v = -1.0;
    EXPECT_TRUE(parseNonNegative("0", v));
    EXPECT_EQ(v, 0.0);
    EXPECT_TRUE(parseNonNegative("2.5", v));
    EXPECT_EQ(v, 2.5);
    EXPECT_TRUE(parseNonNegative(".5", v));
    EXPECT_EQ(v, 0.5);
    EXPECT_TRUE(parseNonNegative("600", v));
    EXPECT_EQ(v, 600.0);
    EXPECT_TRUE(parseNonNegative("1e3", v));
    EXPECT_EQ(v, 1000.0);

    v = -1.0;
    for (const char *bad : {"", " 1", "1 ", "-1", "-0", "+1", "1s", "inf",
                            "nan", "INF", "0x10", ".", "1e999"})
        EXPECT_FALSE(parseNonNegative(bad, v)) << "'" << bad << "'";
    EXPECT_FALSE(parseNonNegative(nullptr, v));
    EXPECT_EQ(v, -1.0);
}

TEST(TableDeathTest, ArityMismatchPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

} // namespace
} // namespace stems
