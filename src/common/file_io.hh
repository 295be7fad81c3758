/**
 * @file
 * Whole-file reads: every on-disk format the simulator loads (traces,
 * cell results, checkpoints) is read with one sized read and then
 * checked by its own decoder.
 */

#ifndef STEMS_COMMON_FILE_IO_HH
#define STEMS_COMMON_FILE_IO_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace stems {

/**
 * Read a whole file with one sized read. @return nullopt when the
 * file cannot be opened; a read error returns the bytes read so far,
 * which the caller's integrity check rejects.
 */
std::optional<std::vector<std::uint8_t>> readFile(const std::string &path);

} // namespace stems

#endif // STEMS_COMMON_FILE_IO_HH
