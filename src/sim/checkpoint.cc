#include "sim/checkpoint.hh"

#include <cstring>

#include "common/crc32.hh"
#include "common/state_codec.hh"

namespace stems {

namespace {

constexpr char kCheckpointMagic[8] = {'S', 'T', 'e', 'M',
                                      'S', 'c', 'k', 'p'};
constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kIndexOffset = 12;
constexpr std::size_t kPayloadLenOffset = 20;
constexpr std::size_t kCrcOffset = 28;

template <typename T>
void
putScalar(std::vector<std::uint8_t> &buf, std::size_t offset, T v)
{
    std::memcpy(buf.data() + offset, &v, sizeof(v));
}

template <typename T>
T
getScalar(const std::vector<std::uint8_t> &buf, std::size_t offset)
{
    T v{};
    std::memcpy(&v, buf.data() + offset, sizeof(v));
    return v;
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
    StateWriter w;
    sim.saveState(w);
    const std::vector<std::uint8_t> &payload = w.bytes();

    std::vector<std::uint8_t> blob(kHeaderBytes + payload.size());
    std::memcpy(blob.data(), kCheckpointMagic,
                sizeof(kCheckpointMagic));
    putScalar<std::uint32_t>(blob, 8, kCheckpointVersion);
    putScalar<std::uint64_t>(blob, kIndexOffset, record_index);
    putScalar<std::uint64_t>(blob, kPayloadLenOffset,
                             payload.size());
    putScalar<std::uint32_t>(blob, kCrcOffset,
                             crc32(payload.data(), payload.size()));
    std::memcpy(blob.data() + kHeaderBytes, payload.data(),
                payload.size());
    return blob;
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

bool
checkpointRecordIndex(const std::vector<std::uint8_t> &blob,
                      std::uint64_t &index_out)
{
    if (!checkpointValid(blob))
        return false;
    index_out = getScalar<std::uint64_t>(blob, kIndexOffset);
    return true;
}

bool
decodeCheckpoint(const std::vector<std::uint8_t> &blob,
                 PrefetchSimulator &sim, std::uint64_t *index_out)
{
    if (!checkpointValid(blob))
        return false;
    StateReader r(blob.data() + kHeaderBytes,
                  blob.size() - kHeaderBytes);
    sim.loadState(r);
    if (!r.atEnd())
        return false;
    if (index_out)
        *index_out = getScalar<std::uint64_t>(blob, kIndexOffset);
    return true;
}

} // namespace stems
