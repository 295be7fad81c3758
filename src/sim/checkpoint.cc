#include "sim/checkpoint.hh"

#include <cstring>

#include "common/crc32.hh"

namespace stems {

namespace {

constexpr char kCheckpointMagic[8] = {'S', 'T', 'e', 'M',
                                      'S', 'c', 'k', 'p'};
constexpr std::size_t kHeaderBytes = kCheckpointHeaderBytes;
constexpr std::size_t kIndexOffset = 12;
constexpr std::size_t kPayloadLenOffset = 20;
constexpr std::size_t kCrcOffset = 28;

template <typename T>
void
putScalar(std::uint8_t *header, std::size_t offset, T v)
{
    std::memcpy(header + offset, &v, sizeof(v));
}

template <typename T>
T
getScalar(const std::vector<std::uint8_t> &buf, std::size_t offset)
{
    T v{};
    std::memcpy(&v, buf.data() + offset, sizeof(v));
    return v;
}

/** Restore a framed blob's payload into `sim`; the framing was
 *  verified. @return false on a payload-structure mismatch. */
bool
loadPayload(const std::vector<std::uint8_t> &blob, PrefetchSimulator &sim)
{
    StateReader r(blob.data() + kHeaderBytes, blob.size() - kHeaderBytes);
    sim.loadState(r);
    return r.atEnd();
}

/** The one header writer both encoders share. */
void
writeHeader(std::uint8_t *header, std::uint64_t record_index,
            std::uint64_t payload_len, std::uint32_t crc)
{
    std::memcpy(header, kCheckpointMagic, sizeof(kCheckpointMagic));
    putScalar<std::uint32_t>(header, 8, kCheckpointVersion);
    putScalar<std::uint64_t>(header, kIndexOffset, record_index);
    putScalar<std::uint64_t>(header, kPayloadLenOffset, payload_len);
    putScalar<std::uint32_t>(header, kCrcOffset, crc);
}

} // namespace

std::vector<std::size_t>
checkpointBounds(std::size_t trace_size, std::size_t checkpoint_every)
{
    std::vector<std::size_t> bounds;
    if (trace_size == 0)
        return bounds;
    if (checkpoint_every > 0) {
        for (std::size_t b = checkpoint_every; b < trace_size;
             b += checkpoint_every)
            bounds.push_back(b);
    }
    bounds.push_back(trace_size);
    return bounds;
}

std::vector<std::uint8_t>
encodeCheckpoint(const PrefetchSimulator &sim,
                 std::uint64_t record_index)
{
    StateWriter w(kHeaderBytes);
    sim.saveState(w);
    std::vector<std::uint8_t> blob = w.take();
    const std::size_t payload_len = blob.size() - kHeaderBytes;
    writeHeader(blob.data(), record_index, payload_len,
                crc32(blob.data() + kHeaderBytes, payload_len));
    return blob;
}

CheckpointHeader
streamCheckpoint(const PrefetchSimulator &sim,
                 std::uint64_t record_index,
                 const StateWriter::Sink &sink)
{
    CheckpointHeader header{};
    sink(header.data(), header.size());
    std::uint64_t payload_len = 0;
    std::uint32_t crc = 0;
    StateWriter w([&](const std::uint8_t *data, std::size_t len) {
        crc = crc32Update(crc, data, len);
        payload_len += len;
        sink(data, len);
    });
    sim.saveState(w);
    w.flush();
    writeHeader(header.data(), record_index, payload_len, crc);
    return header;
}

bool
checkpointValid(const std::vector<std::uint8_t> &blob)
{
    if (blob.size() < kHeaderBytes)
        return false;
    if (std::memcmp(blob.data(), kCheckpointMagic,
                    sizeof(kCheckpointMagic)) != 0)
        return false;
    if (getScalar<std::uint32_t>(blob, 8) != kCheckpointVersion)
        return false;
    std::uint64_t payload_len =
        getScalar<std::uint64_t>(blob, kPayloadLenOffset);
    if (payload_len != blob.size() - kHeaderBytes)
        return false;
    std::uint32_t crc = getScalar<std::uint32_t>(blob, kCrcOffset);
    return crc32(blob.data() + kHeaderBytes,
                 static_cast<std::size_t>(payload_len)) == crc;
}

std::uint64_t
VerifiedCheckpoint::recordIndex() const
{
    return getScalar<std::uint64_t>(blob_, kIndexOffset);
}

std::optional<VerifiedCheckpoint>
verifyCheckpoint(std::vector<std::uint8_t> blob)
{
    if (!checkpointValid(blob))
        return std::nullopt;
    return VerifiedCheckpoint(std::move(blob));
}

bool
decodeCheckpoint(const std::vector<std::uint8_t> &blob,
                 PrefetchSimulator &sim, std::uint64_t *index_out)
{
    if (!checkpointValid(blob) || !loadPayload(blob, sim))
        return false;
    if (index_out)
        *index_out = getScalar<std::uint64_t>(blob, kIndexOffset);
    return true;
}

bool
decodeCheckpoint(const VerifiedCheckpoint &checkpoint,
                 PrefetchSimulator &sim)
{
    return loadPayload(checkpoint.bytes(), sim);
}

} // namespace stems
