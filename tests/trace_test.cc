/**
 * @file
 * Unit tests for trace records, the builder, binary trace I/O (the
 * pinned v2 bytes, corruption/truncation rejection, refusal of the
 * retired v1 layout), text-trace import/export, and the randomized
 * v2-codec property tests: arbitrary record streams round-trip
 * bitwise, and random single-byte corruption is always rejected,
 * never mis-decoded.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/crc32.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "sim/checkpoint.hh"
#include "test_util.hh"
#include "trace/text_trace.hh"
#include "trace/trace.hh"
#include "trace/trace_codec.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"

namespace stems {
namespace {

using test::expectSameTrace;
using test::uniqueTestTag;

TEST(TraceBuilder, ReadWriteInvalidate)
{
    TraceBuilder b;
    b.read(0x1000, 0x400, 3);
    b.write(0x2000, 0x404, 1);
    b.invalidate(0x3000);
    Trace t = b.take();
    ASSERT_EQ(t.size(), 3u);
    EXPECT_TRUE(t[0].isRead());
    EXPECT_TRUE(t[1].isWrite());
    EXPECT_TRUE(t[2].isInvalidate());
    EXPECT_EQ(t[0].cpuOps, 3u);
    EXPECT_EQ(t[1].pc, 0x404u);
}

TEST(TraceBuilder, DependenceChaining)
{
    TraceBuilder b;
    b.read(0x1000, 1);
    b.read(0x2000, 2, 0, /*dep_on_prev_read=*/true);
    b.write(0x2040, 3);
    b.read(0x3000, 4, 0, true); // depends on read at index 1
    Trace t = b.take();
    EXPECT_EQ(t[0].depDist, 0u);
    EXPECT_EQ(t[1].depDist, 1u);
    EXPECT_EQ(t[3].depDist, 2u); // two records back (skips the write)
}

TEST(TraceBuilder, BreakChainClearsDependence)
{
    TraceBuilder b;
    b.read(0x1000, 1);
    b.breakChain();
    b.read(0x2000, 2, 0, true); // no prior read to depend on
    Trace t = b.take();
    EXPECT_EQ(t[1].depDist, 0u);
}

TEST(TraceSummary, Counts)
{
    TraceBuilder b;
    b.read(0x1000, 1, 5);
    b.read(0x1040, 1, 5, true);
    b.write(0x80000, 2, 2);
    b.invalidate(0x1000);
    TraceSummary s = summarize(b.take());
    EXPECT_EQ(s.records, 4u);
    EXPECT_EQ(s.reads, 2u);
    EXPECT_EQ(s.writes, 1u);
    EXPECT_EQ(s.invalidates, 1u);
    EXPECT_EQ(s.dependentReads, 1u);
    EXPECT_EQ(s.cpuOps, 12u);
    // 0x1000 and 0x1040 are separate blocks in the same region;
    // 0x80000 is its own block and region.
    EXPECT_EQ(s.distinctBlocks, 3u);
    EXPECT_EQ(s.distinctRegions, 2u);
}

/**
 * A trace exercising every MemRecord field: all three kinds,
 * non-zero PCs, dependence links, compute gaps, huge and backward
 * address jumps, and repeated-PC runs.
 */
Trace
fullFieldTrace()
{
    TraceBuilder b;
    b.read(0x1000, 0x400, 3);
    b.read(0x2000, 0x404, 0, /*dep_on_prev_read=*/true);
    b.write(0x2040, 0x404, 1);            // repeated PC
    b.read((Addr{1} << 47) + 0x40, 0x9);  // forward jump
    b.read(0x80, 0x9, 7, true);           // backward jump, dep
    b.invalidate(0x2000);                 // pc 0
    b.readWithProducer(0x3000, 0x500, 2, 0); // long dep link
    b.write(0x3040, 0x500, 0);
    b.invalidate((Addr{1} << 47) + 0x40);
    b.read(0x3080, 0x500, UINT32_MAX); // cpuOps at the type limit
    return b.take();
}

class TraceIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = testing::TempDir() + "stems_trace_io_test_" +
                uniqueTestTag() + ".bin";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(TraceIoTest, RoundTrip)
{
    TraceBuilder b;
    for (int i = 0; i < 100; ++i) {
        b.read(0x1000 + i * 64, 0x400 + i, i % 7,
               /*dep_on_prev_read=*/(i % 3) == 0 && i > 0);
        if (i % 10 == 0)
            b.write(0x90000 + i * 64, 0x500);
        if (i % 25 == 0)
            b.invalidate(0x1000 + i * 64);
    }
    Trace original = b.take();

    ASSERT_TRUE(writeTraceFileV2(path_, original));
    Trace loaded;
    ASSERT_TRUE(readTraceFile(path_, loaded));

    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded[i].vaddr, original[i].vaddr);
        EXPECT_EQ(loaded[i].pc, original[i].pc);
        EXPECT_EQ(loaded[i].cpuOps, original[i].cpuOps);
        EXPECT_EQ(loaded[i].depDist, original[i].depDist);
        EXPECT_EQ(loaded[i].kind, original[i].kind);
    }
}

TEST_F(TraceIoTest, RejectsGarbage)
{
    std::FILE *f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "this is not a trace file at all";
    std::fwrite(junk, sizeof(junk), 1, f);
    std::fclose(f);

    Trace t;
    EXPECT_FALSE(readTraceFile(path_, t));
}

TEST_F(TraceIoTest, MissingFileFails)
{
    Trace t;
    EXPECT_FALSE(readTraceFile(path_ + ".does-not-exist", t));
}

TEST_F(TraceIoTest, EmptyTraceRoundTripsV2)
{
    Trace empty;
    ASSERT_TRUE(writeTraceFileV2(path_, empty));
    Trace loaded;
    ASSERT_TRUE(readTraceFile(path_, loaded));
    EXPECT_TRUE(loaded.empty());
}

TEST_F(TraceIoTest, EveryFieldRoundTripsV2)
{
    Trace original = fullFieldTrace();
    ASSERT_TRUE(writeTraceFileV2(path_, original));
    Trace loaded;
    ASSERT_TRUE(readTraceFile(path_, loaded));
    expectSameTrace(original, loaded);
}

TEST_F(TraceIoTest, DigestIsOrderAndFieldSensitive)
{
    Trace t = fullFieldTrace();
    std::uint64_t d = traceDigest(t);
    Trace swapped = t;
    std::swap(swapped[0], swapped[1]);
    EXPECT_NE(traceDigest(swapped), d);
    Trace tweaked = t;
    tweaked[3].cpuOps += 1;
    EXPECT_NE(traceDigest(tweaked), d);
    EXPECT_EQ(traceDigest(t), d); // stable
}

TEST_F(TraceIoTest, V2BytesArePinned)
{
    // Every stored trace and every `stems_trace generate` file holds
    // these bytes, so a store filled by one build serves the next.
    // An encoder change that moves them must bump the store format
    // version and re-pin here on purpose.
    const std::vector<std::uint8_t> full = encodeTraceV2(fullFieldTrace());
    EXPECT_EQ(full.size(), 106u);
    EXPECT_EQ(crc32(full.data(), full.size()), 0x39697baeu);

    const Trace oltp = makeWorkload("oltp-db2")->generate(42, 20000);
    ASSERT_EQ(oltp.size(), 20119u);
    const std::vector<std::uint8_t> bytes = encodeTraceV2(oltp);
    EXPECT_EQ(bytes.size(), 152864u);
    EXPECT_EQ(crc32(bytes.data(), bytes.size()), 0xc9760621u);
}

TEST_F(TraceIoTest, V1FileIsRefused)
{
    // The retired v1 layout: magic, u32 version 1, u64 count, 25-byte
    // packed records (vaddr, pc, cpuOps, depDist, kind), and a CRC-32
    // footer over the records. It is refused like any other version
    // but 2, and so is v2's own layout under another version number.
    const Trace t = fullFieldTrace();
    std::vector<std::uint8_t> v1(std::begin(codec::kTraceMagic),
                                 std::end(codec::kTraceMagic));
    auto append = [&v1](const auto &value) {
        const auto *p = reinterpret_cast<const std::uint8_t *>(&value);
        v1.insert(v1.end(), p, p + sizeof(value));
    };
    append(std::uint32_t{1});
    append(static_cast<std::uint64_t>(t.size()));
    const std::size_t records_at = v1.size();
    for (const MemRecord &r : t) {
        append(r.vaddr);
        append(r.pc);
        append(r.cpuOps);
        append(r.depDist);
        append(static_cast<std::uint8_t>(r.kind));
    }
    ASSERT_EQ(v1.size() - records_at, t.size() * 25);
    append(crc32(v1.data() + records_at, v1.size() - records_at));

    std::vector<std::vector<std::uint8_t>> refused = {v1};
    for (std::uint8_t version : {1, 3}) {
        refused.push_back(encodeTraceV2(t));
        refused.back()[8] = version; // the u32 after the magic
    }
    for (const std::vector<std::uint8_t> &bytes : refused) {
        {
            std::ofstream out(path_, std::ios::binary);
            out.write(reinterpret_cast<const char *>(bytes.data()),
                      static_cast<std::streamsize>(bytes.size()));
        }
        Trace loaded;
        EXPECT_FALSE(readTraceFile(path_, loaded));
    }
}

class TraceCorruptionTest : public TraceIoTest
{
  protected:
    long
    fileSize()
    {
        std::FILE *f = std::fopen(path_.c_str(), "rb");
        std::fseek(f, 0, SEEK_END);
        long n = std::ftell(f);
        std::fclose(f);
        return n;
    }

    void
    truncateTo(long bytes)
    {
        std::FILE *f = std::fopen(path_.c_str(), "rb");
        std::vector<char> data(static_cast<std::size_t>(bytes));
        ASSERT_EQ(std::fread(data.data(), 1, data.size(), f),
                  data.size());
        std::fclose(f);
        f = std::fopen(path_.c_str(), "wb");
        ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f),
                  data.size());
        std::fclose(f);
    }

    void
    flipByteAt(long offset)
    {
        std::FILE *f = std::fopen(path_.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, offset, SEEK_SET);
        int c = std::fgetc(f);
        std::fseek(f, offset, SEEK_SET);
        std::fputc(c ^ 0x5A, f);
        std::fclose(f);
    }
};

TEST_F(TraceCorruptionTest, TruncatedFileRejected)
{
    Trace t = fullFieldTrace();
    ASSERT_TRUE(writeTraceFileV2(path_, t));
    long full = fileSize();
    // Every strictly-shorter prefix must be rejected, a cut inside
    // the header included.
    for (long cut : {full - 1, full - 4, full - 5, full / 2, 21L}) {
        ASSERT_TRUE(writeTraceFileV2(path_, t));
        truncateTo(cut);
        Trace loaded;
        EXPECT_FALSE(readTraceFile(path_, loaded))
            << "accepted a file truncated to " << cut << " of "
            << full << " bytes";
    }
}

TEST_F(TraceCorruptionTest, CorruptPayloadByteRejected)
{
    Trace t = fullFieldTrace();
    ASSERT_TRUE(writeTraceFileV2(path_, t));
    long full = fileSize();
    // Flip single bytes across the record payload (past the 32-byte
    // header): the CRC must catch each one.
    for (long off = 33; off < full - 4; off += 7) {
        ASSERT_TRUE(writeTraceFileV2(path_, t));
        flipByteAt(off);
        Trace loaded;
        EXPECT_FALSE(readTraceFile(path_, loaded))
            << "accepted a corrupt byte at offset " << off;
    }
}

TEST_F(TraceCorruptionTest, CorruptHeaderByteRejected)
{
    // The count/payload-length header fields are not covered by the
    // record CRC; a corrupt value there must fail cleanly (no giant
    // allocation, no crash), whatever byte it lands on.
    Trace t = fullFieldTrace();
    for (long off = 8; off < 32; ++off) {
        ASSERT_TRUE(writeTraceFileV2(path_, t));
        if (off >= fileSize())
            break;
        flipByteAt(off);
        Trace loaded;
        EXPECT_FALSE(readTraceFile(path_, loaded))
            << "accepted a corrupt header byte at offset " << off;
    }
}

TEST_F(TraceCorruptionTest, TrailingGarbageRejected)
{
    Trace t = fullFieldTrace();
    ASSERT_TRUE(writeTraceFileV2(path_, t));
    std::FILE *f = std::fopen(path_.c_str(), "ab");
    std::fputc('x', f);
    std::fclose(f);
    Trace loaded;
    EXPECT_FALSE(readTraceFile(path_, loaded));
}

class TextTraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = testing::TempDir() + "stems_text_trace_test_" +
                uniqueTestTag() + ".csv";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    void
    writeText(const std::string &content)
    {
        std::ofstream out(path_);
        out << content;
    }

    std::string path_;
};

TEST_F(TextTraceTest, ParsesChampSimStyleLines)
{
    writeText("# comment line\n"
              "\n"
              "0x400,0x10000,R\n"
              "0x404 0x10040 W   # trailing comment\n"
              "1028,65664,0\n" // decimal fields, is_write=0
              "0x408,0x10080,1\n"
              "0,0x10000,I\n"
              "0x40c,0x100c0,r,3,2\n");
    Trace t;
    std::string error;
    ASSERT_TRUE(importTextTrace(path_, t, &error)) << error;
    ASSERT_EQ(t.size(), 6u);
    EXPECT_EQ(t[0].pc, 0x400u);
    EXPECT_EQ(t[0].vaddr, 0x10000u);
    EXPECT_TRUE(t[0].isRead());
    EXPECT_TRUE(t[1].isWrite());
    EXPECT_EQ(t[2].pc, 1028u);
    EXPECT_EQ(t[2].vaddr, 65664u);
    EXPECT_TRUE(t[2].isRead());
    EXPECT_TRUE(t[3].isWrite());
    EXPECT_TRUE(t[4].isInvalidate());
    EXPECT_EQ(t[5].cpuOps, 3u);
    EXPECT_EQ(t[5].depDist, 2u);
}

TEST_F(TextTraceTest, RejectsMalformedLinesWithLineNumbers)
{
    struct Case
    {
        const char *text;
        const char *needle;
    };
    const Case cases[] = {
        {"0x400,0x1000\n", "line 1"},          // too few fields
        {"0x400,0x1000,R\nzz,0x1,R\n", "line 2"},
        {"0x400,0x1000,X\n", "bad op"},
        {"0x400,0x1000,R,notanum\n", "bad cpuOps"},
        {"0x400,0x1000,R,1,2,3\n", "fields"},  // too many fields
    };
    for (const Case &c : cases) {
        writeText(c.text);
        Trace t;
        std::string error;
        EXPECT_FALSE(importTextTrace(path_, t, &error)) << c.text;
        EXPECT_NE(error.find(c.needle), std::string::npos)
            << "error was: " << error;
    }
}

TEST_F(TextTraceTest, ImportExportRoundTripIsExact)
{
    writeText("0x400,0x10000,R\n"
              "0x404,0x10040,W,5\n"
              "0,0x10000,I\n"
              "0x408,0x10080,R,0,3\n");
    Trace first;
    ASSERT_TRUE(importTextTrace(path_, first, nullptr));

    std::string exported = testing::TempDir() +
                           "stems_text_trace_export_" +
                           uniqueTestTag() + ".csv";
    ASSERT_TRUE(exportTextTrace(exported, first));
    Trace second;
    std::string error;
    ASSERT_TRUE(importTextTrace(exported, second, &error)) << error;
    std::remove(exported.c_str());
    expectSameTrace(first, second);
}

TEST_F(TextTraceTest, GeneratedWorkloadSurvivesTextRoundTrip)
{
    // Full-field records (dep links, cpuOps, invalidates) from the
    // builder survive export -> import exactly.
    Trace t = fullFieldTrace();
    ASSERT_TRUE(exportTextTrace(path_, t));
    Trace back;
    std::string error;
    ASSERT_TRUE(importTextTrace(path_, back, &error)) << error;
    expectSameTrace(t, back);
}

// ---- randomized codec properties ----

/**
 * Arbitrary record stream generator for the codec property tests.
 * Deliberately adversarial for the delta/varint v2 encoding: runs of
 * identical PCs (samePc tag paths), zero-stride address runs, huge
 * forward/backward jumps (maximum-width zigzag varints), optional
 * fields absent/small/at the 32-bit limit, and all three kinds.
 */
Trace
randomTrace(Rng &rng, std::size_t records)
{
    Trace t;
    t.reserve(records);
    Addr addr = 0x10000;
    Pc pc = 0x400;
    while (t.size() < records) {
        // Shape runs, not independent records: codec paths like
        // same-PC and zero-delta only trigger across neighbors.
        unsigned run = 1 + rng.below(8);
        unsigned shape = rng.below(6);
        for (unsigned i = 0; i < run && t.size() < records; ++i) {
            MemRecord r;
            switch (shape) {
            case 0: // sequential blocks, same PC
                addr += kBlockBytes;
                break;
            case 1: // zero-stride: same address repeated
                break;
            case 2: // huge random jump, random PC
                addr = rng.next64();
                pc = rng.next64();
                break;
            case 3: // backward jump
                addr -= rng.below(1 << 20);
                break;
            case 4: // new page, fresh small PC
                addr = (Addr{rng.next()} << 12);
                pc = rng.below(1 << 16);
                break;
            default: // small strided walk
                addr += (rng.below(9) - 4) * kBlockBytes;
                break;
            }
            r.vaddr = addr;
            r.pc = pc;
            unsigned kind = rng.below(10);
            r.kind = kind < 7 ? AccessKind::kRead
                     : kind < 9 ? AccessKind::kWrite
                                : AccessKind::kInvalidate;
            switch (rng.below(4)) {
            case 0:
                r.cpuOps = 0;
                break;
            case 1:
                r.cpuOps = rng.below(100);
                break;
            case 2:
                r.cpuOps = UINT32_MAX;
                break;
            default:
                r.cpuOps = rng.next();
                break;
            }
            r.depDist =
                rng.chance(0.3) ? rng.below(300) : 0;
            if (rng.chance(0.1))
                r.depDist = UINT32_MAX;
            t.push_back(r);
        }
    }
    return t;
}

TEST_F(TraceIoTest, PropertyRandomTracesRoundTripBitwise)
{
    // Seeded, so a failure reproduces; 24 shapes through the one
    // encoder and the one decoder.
    Rng rng(0x7e57);
    for (int trial = 0; trial < 24; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        Trace original =
            randomTrace(rng, 1 + rng.below(1500));

        ASSERT_TRUE(writeTraceFileV2(path_, original));
        Trace via_reader;
        ASSERT_TRUE(readTraceFile(path_, via_reader));
        expectSameTrace(original, via_reader);
    }
}

TEST_F(TraceIoTest, PropertyRandomCorruptionAlwaysRejected)
{
    // Any single corrupted byte — header, payload or CRC — must make
    // the decoder reject the file; a mis-decode (success with
    // different records) is the one unacceptable outcome.
    Rng rng(0xBADF00D);
    Trace original = randomTrace(rng, 400);
    ASSERT_TRUE(writeTraceFileV2(path_, original));
    std::ifstream in(path_, std::ios::binary);
    std::vector<char> pristine(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    in.close();

    for (int trial = 0; trial < 80; ++trial) {
        std::vector<char> corrupt = pristine;
        std::size_t offset = rng.below(
            static_cast<std::uint32_t>(corrupt.size()));
        char flip = static_cast<char>(1 + rng.below(255));
        corrupt[offset] ^= flip;
        {
            std::ofstream out(path_, std::ios::binary);
            out.write(corrupt.data(),
                      static_cast<std::streamsize>(corrupt.size()));
        }
        SCOPED_TRACE("byte " + std::to_string(offset) + " xor " +
                     std::to_string(static_cast<int>(flip)));
        Trace loaded;
        EXPECT_FALSE(readTraceFile(path_, loaded));
    }
}

TEST_F(TraceIoTest, PrefixDigestsMatchStandaloneHashes)
{
    Rng rng(0x5eed);
    Trace t = randomTrace(rng, 600);
    std::vector<std::size_t> indices = {0, 1, 299, 600};
    auto digests = tracePrefixDigests(t, indices);
    ASSERT_EQ(digests.size(), indices.size());
    // Each prefix digest equals hashing that prefix alone.
    for (std::size_t i = 0; i < indices.size(); ++i) {
        Trace prefix(t.begin(),
                     t.begin() + static_cast<std::ptrdiff_t>(
                                     indices[i]));
        auto alone = tracePrefixDigests(prefix, {indices[i]});
        EXPECT_EQ(digests[i], alone.at(0)) << indices[i];
    }
    // And a different prefix content changes the digest.
    Trace tweaked = t;
    tweaked[100].vaddr ^= 1;
    EXPECT_NE(tracePrefixDigests(tweaked, {299}).at(0),
              digests[2]);
    EXPECT_EQ(tracePrefixDigests(tweaked, {1}).at(0), digests[1]);
}

TEST_F(TraceIoTest, PrefixMemoResumesToTheOneShotDigest)
{
    // The driver's memo keeps the running hash state at every index
    // it hashed and resumes each new index from the nearest lower
    // one. Whatever it hashed before, and in whatever order it is
    // asked, each digest must equal hashing that prefix in one pass.
    Rng rng(0x3e30);
    const Trace t = randomTrace(rng, 3000);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t every = 1 + rng.below(700);
        std::vector<std::size_t> indices = {0, t.size()};
        for (std::size_t b : checkpointBounds(t.size(), every))
            indices.push_back(b);
        for (int k = 0; k < 6; ++k) {
            std::size_t off =
                rng.below(static_cast<std::uint32_t>(t.size()));
            if (off % every == 0)
                ++off; // off the schedule
            indices.push_back(off);
        }
        for (std::size_t i = indices.size(); i > 1; --i)
            std::swap(indices[i - 1],
                      indices[rng.below(static_cast<std::uint32_t>(i))]);

        TracePrefixMemo memo(t);
        // Ask in a few random batches, then everything once more
        // (all served from the memo).
        std::size_t asked = 0;
        while (asked < indices.size()) {
            const std::size_t n = std::min<std::size_t>(
                indices.size() - asked, 1 + rng.below(4));
            const std::vector<std::size_t> batch(
                indices.begin() + static_cast<std::ptrdiff_t>(asked),
                indices.begin() +
                    static_cast<std::ptrdiff_t>(asked + n));
            const std::vector<std::uint64_t> got = memo.digests(batch);
            ASSERT_EQ(got.size(), batch.size());
            for (std::size_t i = 0; i < batch.size(); ++i)
                ASSERT_EQ(got[i], tracePrefixDigests(t, {batch[i]})[0])
                    << "trial " << trial << " index " << batch[i];
            asked += n;
        }
        const std::vector<std::uint64_t> again = memo.digests(indices);
        for (std::size_t i = 0; i < indices.size(); ++i)
            ASSERT_EQ(again[i], tracePrefixDigests(t, {indices[i]})[0])
                << "trial " << trial << " index " << indices[i];
    }
}

TEST_F(TraceIoTest, OnePassHashYieldsContentAndPrefixDigests)
{
    // hashTrace feeds each record to the content state and the prefix
    // state in one loop. Its content digest must be traceDigest's, its
    // boundary digests tracePrefixDigests', and the states it kept
    // must serve indices asked afterwards, each record hashed once.
    Counter &hashed =
        MetricsRegistry::instance().counter("trace.hashed_records");
    Rng rng(0x0b5e);
    for (std::size_t size : {0, 1, 600}) {
        SCOPED_TRACE("records " + std::to_string(size));
        const Trace t = randomTrace(rng, size);
        std::vector<std::size_t> bounds = {0};
        for (std::size_t b : checkpointBounds(t.size(), 128))
            bounds.push_back(b); // ends at the trace end

        TracePrefixMemo memo(t);
        const std::uint64_t before = hashed.value();
        const std::uint64_t content = memo.hashTrace(bounds);
        const std::vector<std::uint64_t> got = memo.digests(bounds);
        // One pass, and the boundaries are served from kept states.
        EXPECT_EQ(hashed.value() - before, t.size());
        EXPECT_EQ(content, traceDigest(t));
        ASSERT_EQ(got.size(), bounds.size());
        for (std::size_t i = 0; i < bounds.size(); ++i)
            EXPECT_EQ(got[i], tracePrefixDigests(t, {bounds[i]})[0])
                << "bound " << bounds[i];

        for (int k = 0; k < 8; ++k) {
            const std::size_t index =
                rng.below(static_cast<std::uint32_t>(t.size() + 1));
            EXPECT_EQ(memo.digests({index})[0],
                      tracePrefixDigests(t, {index})[0])
                << "index " << index;
        }
    }
}

} // namespace
} // namespace stems
