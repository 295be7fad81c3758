#include "trace/trace_io.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>

#include "common/crc32.hh"
#include "obs/metrics.hh"
#include "trace/trace_codec.hh"

namespace stems {

namespace {

constexpr std::uint32_t kVersion1 = 1;
constexpr std::uint32_t kVersion2 = 2;

/** Packed v1 on-disk record layout (29 bytes, no padding). */
struct PackedRecord
{
    std::uint64_t vaddr;
    std::uint64_t pc;
    std::uint32_t cpuOps;
    std::uint32_t depDist;
    std::uint8_t kind;
} __attribute__((packed));

struct FileCloser
{
    void operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/** True when the stream is exactly at end of file. */
bool
atEof(std::FILE *f)
{
    return std::fgetc(f) == EOF && !std::ferror(f);
}

/** Bytes remaining from the current position to end of file. */
std::uint64_t
remainingBytes(std::FILE *f)
{
    long here = std::ftell(f);
    std::fseek(f, 0, SEEK_END);
    long end = std::ftell(f);
    std::fseek(f, here, SEEK_SET);
    return here >= 0 && end >= here
               ? static_cast<std::uint64_t>(end - here)
               : 0;
}

bool
readV1Body(std::FILE *f, std::uint64_t count, Trace &out)
{
    // Validate the (unchecksummed) count field against the actual
    // file length before reserving anything: a corrupt count must
    // fail cleanly, not abort on allocation.
    std::uint64_t remaining = remainingBytes(f);
    if (remaining < sizeof(std::uint32_t) ||
        count != (remaining - sizeof(std::uint32_t)) /
                     sizeof(PackedRecord) ||
        count * sizeof(PackedRecord) + sizeof(std::uint32_t) !=
            remaining) {
        return false;
    }
    out.clear();
    out.reserve(static_cast<std::size_t>(count));
    std::uint32_t crc = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        PackedRecord p;
        if (std::fread(&p, sizeof(p), 1, f) != 1)
            return false; // truncated
        crc = crc32Update(crc, &p, sizeof(p));
        if (p.kind > 2)
            return false;
        MemRecord r;
        r.vaddr = p.vaddr;
        r.pc = p.pc;
        r.cpuOps = p.cpuOps;
        r.depDist = p.depDist;
        r.kind = static_cast<AccessKind>(p.kind);
        out.push_back(r);
    }
    std::uint32_t stored = 0;
    if (std::fread(&stored, sizeof(stored), 1, f) != 1)
        return false; // missing footer: truncated at a record boundary
    return stored == crc && atEof(f);
}

bool
readV2Body(std::FILE *f, std::uint64_t count, Trace &out)
{
    std::uint64_t payload_len = 0;
    std::uint32_t crc = 0;
    if (std::fread(&payload_len, sizeof(payload_len), 1, f) != 1 ||
        std::fread(&crc, sizeof(crc), 1, f) != 1) {
        return false;
    }
    // Validate both unchecksummed header fields against the file
    // length before allocating (each record encodes to >= 2 bytes).
    if (payload_len != remainingBytes(f) || count > payload_len ||
        (count > 0 && count > payload_len / 2)) {
        return false;
    }
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(payload_len));
    if (payload_len > 0 &&
        std::fread(payload.data(), 1, payload.size(), f) !=
            payload.size()) {
        return false; // truncated
    }
    if (!atEof(f) || crc32(payload.data(), payload.size()) != crc)
        return false;

    out.clear();
    out.reserve(static_cast<std::size_t>(count));
    const std::uint8_t *cursor = payload.data();
    const std::uint8_t *end = cursor + payload.size();
    codec::DeltaState state;
    for (std::uint64_t i = 0; i < count; ++i) {
        MemRecord r;
        if (!codec::decodeRecord(cursor, end, r, state))
            return false;
        out.push_back(r);
    }
    return cursor == end; // payload must hold exactly `count` records
}

} // namespace

bool
writeTraceFile(const std::string &path, const Trace &trace)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return false;
    std::uint64_t count = trace.size();
    if (std::fwrite(codec::kTraceMagic, sizeof(codec::kTraceMagic), 1,
                    f.get()) != 1 ||
        std::fwrite(&kVersion1, sizeof(kVersion1), 1, f.get()) != 1 ||
        std::fwrite(&count, sizeof(count), 1, f.get()) != 1) {
        return false;
    }
    std::uint32_t crc = 0;
    for (const MemRecord &r : trace) {
        PackedRecord p;
        p.vaddr = r.vaddr;
        p.pc = r.pc;
        p.cpuOps = r.cpuOps;
        p.depDist = r.depDist;
        p.kind = static_cast<std::uint8_t>(r.kind);
        crc = crc32Update(crc, &p, sizeof(p));
        if (std::fwrite(&p, sizeof(p), 1, f.get()) != 1)
            return false;
    }
    return std::fwrite(&crc, sizeof(crc), 1, f.get()) == 1;
}

std::vector<std::uint8_t>
encodeTraceV2(const Trace &trace)
{
    std::vector<std::uint8_t> payload;
    // ~3 bytes/record is typical; reserve to avoid regrowth churn.
    payload.reserve(trace.size() * 4);
    codec::DeltaState state;
    for (const MemRecord &r : trace)
        codec::encodeRecord(payload, r, state);

    std::vector<std::uint8_t> file(codec::kV2HeaderBytes +
                                   payload.size());
    std::memcpy(file.data(), codec::kTraceMagic,
                sizeof(codec::kTraceMagic));
    std::memcpy(file.data() + sizeof(codec::kTraceMagic), &kVersion2,
                sizeof(kVersion2));
    std::uint64_t count = trace.size();
    std::uint64_t payload_len = payload.size();
    std::uint32_t crc = crc32(payload.data(), payload.size());
    std::memcpy(file.data() + codec::kV2CountOffset, &count,
                sizeof(count));
    std::memcpy(file.data() + codec::kV2PayloadLenOffset,
                &payload_len, sizeof(payload_len));
    std::memcpy(file.data() + codec::kV2CrcOffset, &crc, sizeof(crc));
    // std::copy, not memcpy: an empty trace's payload may have a null
    // data(), which memcpy may not be passed even for zero bytes.
    std::copy(payload.begin(), payload.end(),
              file.begin() + codec::kV2HeaderBytes);
    return file;
}

bool
writeTraceFileV2(const std::string &path, const Trace &trace)
{
    std::vector<std::uint8_t> bytes = encodeTraceV2(trace);
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return false;
    return std::fwrite(bytes.data(), 1, bytes.size(), f.get()) ==
           bytes.size();
}

bool
readTraceFile(const std::string &path, Trace &out)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return false;
    char magic[8];
    std::uint32_t version = 0;
    std::uint64_t count = 0;
    if (std::fread(magic, sizeof(magic), 1, f.get()) != 1 ||
        std::memcmp(magic, codec::kTraceMagic, sizeof(magic)) != 0 ||
        std::fread(&version, sizeof(version), 1, f.get()) != 1 ||
        std::fread(&count, sizeof(count), 1, f.get()) != 1) {
        return false;
    }
    if (version == kVersion1)
        return readV1Body(f.get(), count, out);
    if (version == kVersion2)
        return readV2Body(f.get(), count, out);
    return false;
}

namespace {

/// FNV-1a offset basis: the hash state before any byte.
constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;

std::uint64_t
fnvMix(std::uint64_t state, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        state ^= p[i];
        state *= 1099511628211ull;
    }
    return state;
}

/** Fold one record into a hash state: the canonical field
 *  serialization every trace digest shares. */
std::uint64_t
foldRecord(std::uint64_t state, const MemRecord &r)
{
    state = fnvMix(state, &r.vaddr, sizeof(r.vaddr));
    state = fnvMix(state, &r.pc, sizeof(r.pc));
    state = fnvMix(state, &r.cpuOps, sizeof(r.cpuOps));
    state = fnvMix(state, &r.depDist, sizeof(r.depDist));
    const auto kind = static_cast<std::uint8_t>(r.kind);
    return fnvMix(state, &kind, sizeof(kind));
}

/** `trace.hashed_records`: records folded into any trace digest; a
 *  pass that feeds each record to two states counts it once. */
Counter &
hashedRecords()
{
    static Counter &counter =
        MetricsRegistry::instance().counter("trace.hashed_records");
    return counter;
}

/** Fold records [from, to) into a running hash state. */
std::uint64_t
advancePrefixState(const Trace &trace, std::uint64_t state,
                   std::size_t from, std::size_t to)
{
    to = std::min(to, trace.size());
    for (std::size_t i = from; i < to; ++i)
        state = foldRecord(state, trace[i]);
    hashedRecords().add(to > from ? to - from : 0);
    return state;
}

/** A prefix's digest: its running state with the length folded in. */
std::uint64_t
finishPrefixDigest(std::uint64_t state, std::size_t index)
{
    const std::uint64_t count = index;
    return fnvMix(state, &count, sizeof(count));
}

/** The content digest's state before any record: the record count
 *  folded in first. */
std::uint64_t
contentDigestStart(const Trace &trace)
{
    const std::uint64_t count = trace.size();
    return fnvMix(kFnvOffsetBasis, &count, sizeof(count));
}

} // namespace

std::uint64_t
traceDigest(const Trace &trace)
{
    // 64-bit FNV-1a over a canonical little-endian field serialization,
    // the record count first.
    return advancePrefixState(trace, contentDigestStart(trace), 0,
                              trace.size());
}

std::vector<std::uint64_t>
tracePrefixDigests(const Trace &trace,
                   const std::vector<std::size_t> &indices)
{
    // The running state is shared by all prefixes and each prefix's
    // length is folded in at its snapshot point (see the header).
    std::uint64_t h = kFnvOffsetBasis;
    std::vector<std::uint64_t> digests;
    digests.reserve(indices.size());
    std::size_t record = 0;
    for (std::size_t index : indices) {
        if (index > record) {
            h = advancePrefixState(trace, h, record, index);
            record = index;
        }
        digests.push_back(finishPrefixDigest(h, index));
    }
    return digests;
}

TracePrefixMemo::TracePrefixMemo(const Trace &trace)
    : trace_(trace), states_{{0, kFnvOffsetBasis}}
{
}

std::uint64_t
TracePrefixMemo::hashTrace(const std::vector<std::size_t> &bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // FNV-1a is a byte-serial multiply chain, so one pass cannot be
    // split; but the content and prefix chains are independent, and
    // fed in one loop they overlap in the core, so the content
    // digest costs almost nothing beside the prefix states.
    std::uint64_t content = contentDigestStart(trace_);
    std::uint64_t prefix = kFnvOffsetBasis;
    std::size_t record = 0;
    auto advance = [&](std::size_t to) {
        for (; record < to; ++record) {
            content = foldRecord(content, trace_[record]);
            prefix = foldRecord(prefix, trace_[record]);
        }
        states_.emplace(record, prefix);
    };
    for (std::size_t bound : bounds)
        advance(std::min(bound, trace_.size()));
    advance(trace_.size());
    hashedRecords().add(trace_.size());
    return content;
}

std::vector<std::uint64_t>
TracePrefixMemo::digests(const std::vector<std::size_t> &indices)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint64_t> out;
    out.reserve(indices.size());
    for (std::size_t index : indices) {
        auto it = states_.upper_bound(index);
        --it; // index 0 is always present
        std::uint64_t state = it->second;
        if (it->first != index) {
            state = advancePrefixState(trace_, state, it->first, index);
            states_.emplace_hint(std::next(it), index, state);
        }
        out.push_back(finishPrefixDigest(state, index));
    }
    return out;
}

} // namespace stems
