#include "trace/trace_io.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "common/crc32.hh"
#include "common/file_io.hh"
#include "obs/metrics.hh"
#include "trace/trace_codec.hh"

namespace stems {

namespace {

constexpr std::uint32_t kVersion2 = 2;

template <typename T>
T
loadField(const std::vector<std::uint8_t> &bytes, std::size_t offset)
{
    T v{};
    std::memcpy(&v, bytes.data() + offset, sizeof(v));
    return v;
}

/**
 * The one v2 decoder. The count and payload-length header fields are
 * not under the CRC, so both are checked against the file size before
 * anything is allocated, and the payload must hold exactly `count`
 * records: a corrupt count can neither shorten the trace nor leave
 * bytes undecoded.
 */
bool
decodeTraceV2(const std::vector<std::uint8_t> &file, Trace &out)
{
    if (file.size() < codec::kV2HeaderBytes ||
        std::memcmp(file.data(), codec::kTraceMagic,
                    sizeof(codec::kTraceMagic)) != 0 ||
        loadField<std::uint32_t>(file, sizeof(codec::kTraceMagic)) !=
            kVersion2) {
        return false;
    }
    const auto count =
        loadField<std::uint64_t>(file, codec::kV2CountOffset);
    const std::size_t payload_len = file.size() - codec::kV2HeaderBytes;
    // Each record encodes to at least 2 bytes.
    if (loadField<std::uint64_t>(file, codec::kV2PayloadLenOffset) !=
            payload_len ||
        count > payload_len / 2) {
        return false;
    }
    const std::uint8_t *cursor = file.data() + codec::kV2HeaderBytes;
    const std::uint8_t *end = cursor + payload_len;
    if (crc32(cursor, payload_len) !=
        loadField<std::uint32_t>(file, codec::kV2CrcOffset)) {
        return false;
    }
    out.clear();
    out.reserve(static_cast<std::size_t>(count));
    codec::DeltaState state;
    for (std::uint64_t i = 0; i < count; ++i) {
        MemRecord r;
        if (!codec::decodeRecord(cursor, end, r, state))
            return false;
        out.push_back(r);
    }
    return cursor == end;
}

} // namespace

std::vector<std::uint8_t>
encodeTraceV2(const Trace &trace)
{
    // One buffer: a header placeholder, the payload appended behind
    // it, then the header written in place. Measured v2 sizes run
    // from 4.0 to 7.8 bytes/record, so 8 covers the payload without
    // regrowth.
    std::vector<std::uint8_t> file(codec::kV2HeaderBytes);
    file.reserve(codec::kV2HeaderBytes + trace.size() * 8);
    codec::DeltaState state;
    for (const MemRecord &r : trace)
        codec::encodeRecord(file, r, state);

    const std::uint64_t count = trace.size();
    const std::uint64_t payload_len =
        file.size() - codec::kV2HeaderBytes;
    const std::uint32_t crc =
        crc32(file.data() + codec::kV2HeaderBytes, payload_len);
    std::memcpy(file.data(), codec::kTraceMagic,
                sizeof(codec::kTraceMagic));
    std::memcpy(file.data() + sizeof(codec::kTraceMagic), &kVersion2,
                sizeof(kVersion2));
    std::memcpy(file.data() + codec::kV2CountOffset, &count,
                sizeof(count));
    std::memcpy(file.data() + codec::kV2PayloadLenOffset,
                &payload_len, sizeof(payload_len));
    std::memcpy(file.data() + codec::kV2CrcOffset, &crc, sizeof(crc));
    return file;
}

bool
writeTraceFileV2(const std::string &path, const Trace &trace)
{
    const std::vector<std::uint8_t> bytes = encodeTraceV2(trace);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool written =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    return std::fclose(f) == 0 && written;
}

bool
readTraceFile(const std::string &path, Trace &out)
{
    const auto bytes = readFile(path);
    return bytes && decodeTraceV2(*bytes, out);
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
