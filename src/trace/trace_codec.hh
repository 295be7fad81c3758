/**
 * @file
 * The compact v2 trace record codec. Its one encoder is
 * encodeTraceV2 and its one decoder readTraceFile's
 * (trace/trace_io.cc); every stored trace is read through them.
 *
 * v2 file layout (little-endian):
 *
 *   offset  0  8-byte magic "STeMStrc"
 *   offset  8  u32 version = 2
 *   offset 12  u64 record count
 *   offset 20  u64 payload byte length
 *   offset 28  u32 CRC-32 of the payload bytes
 *   offset 32  payload: one variable-length encoded record after
 *              another, no padding
 *
 * Each record starts with a tag byte
 *
 *   bits 0-1  AccessKind
 *   bit  2    PC identical to the previous record's PC (no PC field)
 *   bit  3    cpuOps field present (omitted when 0)
 *   bit  4    depDist field present (omitted when 0)
 *   bits 5-7  reserved, must be 0
 *
 * followed by LEB128 varints: zigzag(vaddr - prev vaddr) always, then
 * zigzag(pc - prev pc) unless bit 2, then cpuOps if bit 3, then
 * depDist if bit 4. Deltas start from vaddr = pc = 0. Addresses in a
 * trace are strongly local, so deltas shrink the dominant field from
 * 8 bytes to 1-3; repeated-PC runs drop the PC entirely. At 1M
 * records the paper workloads take 4.0 (ocean) to 7.8 (sparse)
 * bytes/record. The encoding is exact for every field — round trips
 * are bitwise lossless.
 */

#ifndef STEMS_TRACE_TRACE_CODEC_HH
#define STEMS_TRACE_TRACE_CODEC_HH

#include <cstdint>
#include <vector>

#include "trace/record.hh"

namespace stems {
namespace codec {

/** Shared 8-byte magic of the binary trace formats. */
inline constexpr char kTraceMagic[8] = {'S', 'T', 'e', 'M',
                                        'S', 't', 'r', 'c'};

/** v2 header layout constants. */
inline constexpr std::size_t kV2HeaderBytes = 32;
inline constexpr std::size_t kV2CountOffset = 12;
inline constexpr std::size_t kV2PayloadLenOffset = 20;
inline constexpr std::size_t kV2CrcOffset = 28;

/** Tag-byte layout. */
inline constexpr std::uint8_t kTagKindMask = 0x3;
inline constexpr std::uint8_t kTagSamePc = 0x4;
inline constexpr std::uint8_t kTagHasCpuOps = 0x8;
inline constexpr std::uint8_t kTagHasDep = 0x10;
inline constexpr std::uint8_t kTagReservedMask = 0xE0;

inline std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

inline void
appendVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

/**
 * Decode one varint from [*cursor, end).
 *
 * @return false on truncation or a varint longer than 64 bits; the
 *         cursor position is unspecified on failure.
 */
inline bool
readVarint(const std::uint8_t *&cursor, const std::uint8_t *end,
           std::uint64_t &out)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (cursor < end) {
        std::uint8_t byte = *cursor++;
        if (shift == 63 && (byte & ~1u) != 0)
            return false; // would overflow 64 bits
        v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0) {
            out = v;
            return true;
        }
        shift += 7;
        if (shift > 63)
            return false;
    }
    return false;
}

/** Running previous-record state threaded through encode/decode. */
struct DeltaState
{
    std::uint64_t prevVaddr = 0;
    std::uint64_t prevPc = 0;
};

/** Append one record's encoding to `out`. */
inline void
encodeRecord(std::vector<std::uint8_t> &out, const MemRecord &r,
             DeltaState &state)
{
    std::uint8_t tag =
        static_cast<std::uint8_t>(r.kind) & kTagKindMask;
    if (r.pc == state.prevPc)
        tag |= kTagSamePc;
    if (r.cpuOps != 0)
        tag |= kTagHasCpuOps;
    if (r.depDist != 0)
        tag |= kTagHasDep;
    out.push_back(tag);
    appendVarint(out, zigzagEncode(static_cast<std::int64_t>(
                          r.vaddr - state.prevVaddr)));
    if ((tag & kTagSamePc) == 0)
        appendVarint(out, zigzagEncode(static_cast<std::int64_t>(
                              r.pc - state.prevPc)));
    if (tag & kTagHasCpuOps)
        appendVarint(out, r.cpuOps);
    if (tag & kTagHasDep)
        appendVarint(out, r.depDist);
    state.prevVaddr = r.vaddr;
    state.prevPc = r.pc;
}

/**
 * Decode one record from [*cursor, end).
 *
 * @return false on truncation, a reserved tag bit, or an invalid
 *         kind.
 */
inline bool
decodeRecord(const std::uint8_t *&cursor, const std::uint8_t *end,
             MemRecord &r, DeltaState &state)
{
    if (cursor >= end)
        return false;
    std::uint8_t tag = *cursor++;
    if ((tag & kTagReservedMask) != 0)
        return false;
    std::uint8_t kind = tag & kTagKindMask;
    if (kind > 2)
        return false;
    std::uint64_t v = 0;
    if (!readVarint(cursor, end, v))
        return false;
    r.vaddr = state.prevVaddr +
              static_cast<std::uint64_t>(zigzagDecode(v));
    if (tag & kTagSamePc) {
        r.pc = state.prevPc;
    } else {
        if (!readVarint(cursor, end, v))
            return false;
        r.pc = state.prevPc +
               static_cast<std::uint64_t>(zigzagDecode(v));
    }
    if (tag & kTagHasCpuOps) {
        if (!readVarint(cursor, end, v) || v > UINT32_MAX)
            return false;
        r.cpuOps = static_cast<std::uint32_t>(v);
    } else {
        r.cpuOps = 0;
    }
    if (tag & kTagHasDep) {
        if (!readVarint(cursor, end, v) || v > UINT32_MAX)
            return false;
        r.depDist = static_cast<std::uint32_t>(v);
    } else {
        r.depDist = 0;
    }
    r.kind = static_cast<AccessKind>(kind);
    state.prevVaddr = r.vaddr;
    state.prevPc = r.pc;
    return true;
}

} // namespace codec
} // namespace stems

#endif // STEMS_TRACE_TRACE_CODEC_HH
