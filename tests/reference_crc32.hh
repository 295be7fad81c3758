/**
 * @file
 * Reference oracle for CRC-32 property tests.
 *
 * Verbatim copy of the historical bytewise crc32Update (one 256-entry
 * table, one byte per step) from before the slicing-by-8 rewrite in
 * common/crc32.cc. The tests in common_test.cc require the current
 * implementation to return the same value for every length and
 * alignment they probe, so checkpoints, trace files, result entries
 * and net frames written by either version verify under the other.
 * Do not "improve" this file — its value is that it is the old
 * behaviour, frozen.
 */

#ifndef STEMS_TESTS_REFERENCE_CRC32_HH
#define STEMS_TESTS_REFERENCE_CRC32_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace stems {

/** Byte-indexed lookup table for the reflected 0xEDB88320 polynomial. */
inline std::array<std::uint32_t, 256>
referenceCrc32Table()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

inline std::uint32_t
referenceCrc32Update(std::uint32_t crc, const void *data,
                     std::size_t len)
{
    static const std::array<std::uint32_t, 256> table =
        referenceCrc32Table();
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace stems

#endif // STEMS_TESTS_REFERENCE_CRC32_HH
