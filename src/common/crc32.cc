#include "common/crc32.hh"

#include <array>

namespace stems {

namespace {

/**
 * Slicing-by-8 lookup tables for the reflected 0xEDB88320
 * polynomial. Table 0 is the classic byte-indexed table; table k
 * advances a byte's contribution past k further zero bytes, so one
 * step folds in eight input bytes with eight independent lookups.
 */
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables
makeTables()
{
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
        for (std::size_t s = 1; s < t.size(); ++s)
            t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    return t;
}

constexpr Crc32Tables kTables = makeTables();

/** Little-endian 32-bit load; compiles to one move on x86. */
inline std::uint32_t
load32le(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

} // namespace

std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    for (; len >= 8; p += 8, len -= 8) {
        const std::uint32_t lo = load32le(p) ^ c;
        const std::uint32_t hi = load32le(p + 4);
        c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace stems
