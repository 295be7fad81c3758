/**
 * @file
 * Strict parsing of numeric command-line arguments.
 *
 * strtoul and friends accept leading blanks and signs, stop at the
 * first junk character, wrap "-1" to the type's maximum and saturate
 * on overflow, so "5G" reads as 5 and "--jobs -1" as 4294967295. A
 * tool that runs a different number than the one it was given is
 * worse than one that refuses, so these accept only a whole number
 * that fits the field.
 */

#ifndef STEMS_COMMON_PARSE_NUMBER_HH
#define STEMS_COMMON_PARSE_NUMBER_HH

#include <cstdint>
#include <limits>

namespace stems {

/**
 * Parse `text` as a decimal integer in [0, max]: digits only, so
 * empty input, blanks, a sign, trailing junk ("5G", "1e6") and
 * values past `max` are all rejected.
 *
 * @return whether `text` was valid; `out` is set only then.
 */
bool parseUnsigned(
    const char *text, std::uint64_t &out,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/**
 * Parse `text` as a finite, non-negative decimal number (a duration
 * in seconds, a threshold): it must start with a digit or '.', be
 * consumed whole, and not overflow, so signs, "inf", "nan", hex and
 * trailing junk are rejected.
 *
 * @return whether `text` was valid; `out` is set only then.
 */
bool parseNonNegative(const char *text, double &out);

} // namespace stems

#endif // STEMS_COMMON_PARSE_NUMBER_HH
