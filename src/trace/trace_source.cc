#include "trace/trace_source.hh"

#include <cstdio>
#include <cstring>
#include <new>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/crc32.hh"

namespace stems {

void
TraceSource::readAll(Trace &out)
{
    out.clear();
    out.reserve(size());
    MemRecord r;
    while (next(r))
        out.push_back(r);
}

namespace {

std::uint32_t
loadU32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint64_t
loadU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

} // namespace

std::unique_ptr<MmapTraceSource>
MmapTraceSource::open(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return nullptr;
    struct stat st;
    if (::fstat(fd, &st) != 0 ||
        st.st_size < static_cast<off_t>(codec::kV2HeaderBytes)) {
        ::close(fd);
        return nullptr;
    }
    std::size_t file_bytes = static_cast<std::size_t>(st.st_size);

    std::unique_ptr<MmapTraceSource> src(new MmapTraceSource());
    void *map =
        ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
        src->base_ = static_cast<const std::uint8_t *>(map);
        src->mapBytes_ = file_bytes;
        src->mapped_ = true;
    } else {
        // Fallback: read the file into a private buffer; the replay
        // interface is identical, only the paging behaviour differs.
        auto *buf = new (std::nothrow) std::uint8_t[file_bytes];
        if (buf == nullptr) {
            ::close(fd);
            return nullptr;
        }
        std::size_t got = 0;
        while (got < file_bytes) {
            ssize_t n = ::read(fd, buf + got, file_bytes - got);
            if (n <= 0)
                break;
            got += static_cast<std::size_t>(n);
        }
        if (got != file_bytes) {
            delete[] buf;
            ::close(fd);
            return nullptr;
        }
        src->base_ = buf;
        src->mapBytes_ = file_bytes;
        src->mapped_ = false;
    }
    ::close(fd);

    // Header: magic, version 2, count, payload length, payload CRC.
    const std::uint8_t *h = src->base_;
    if (std::memcmp(h, codec::kTraceMagic,
                    sizeof(codec::kTraceMagic)) != 0 ||
        loadU32(h + sizeof(codec::kTraceMagic)) != 2) {
        return nullptr;
    }
    std::uint64_t count = loadU64(h + codec::kV2CountOffset);
    std::uint64_t payload_len =
        loadU64(h + codec::kV2PayloadLenOffset);
    std::uint32_t crc = loadU32(h + codec::kV2CrcOffset);
    if (codec::kV2HeaderBytes + payload_len != file_bytes)
        return nullptr; // truncated or trailing garbage
    if (count > payload_len || (count > 0 && count > payload_len / 2))
        return nullptr; // corrupt count (records are >= 2 bytes)
    const std::uint8_t *payload = h + codec::kV2HeaderBytes;
    if (crc32(payload, static_cast<std::size_t>(payload_len)) != crc)
        return nullptr;

    src->payload_ = payload;
    src->payloadEnd_ = payload + payload_len;
    src->count_ = static_cast<std::size_t>(count);
    src->reset();
    return src;
}

MmapTraceSource::~MmapTraceSource()
{
    if (base_ == nullptr)
        return;
    if (mapped_)
        ::munmap(const_cast<std::uint8_t *>(base_), mapBytes_);
    else
        delete[] base_;
}

void
MmapTraceSource::reset()
{
    cursor_ = payload_;
    produced_ = 0;
    state_ = codec::DeltaState{};
}

bool
MmapTraceSource::next(MemRecord &out)
{
    if (produced_ >= count_)
        return false;
    MemRecord r;
    if (!codec::decodeRecord(cursor_, payloadEnd_, r, state_))
        return false; // corrupt payload despite CRC: stop the stream
    out = r;
    ++produced_;
    return true;
}

} // namespace stems
