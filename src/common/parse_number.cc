#include "common/parse_number.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace stems {

namespace {

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

} // namespace

bool
parseUnsigned(const char *text, std::uint64_t &out, std::uint64_t max)
{
    // Digits only: strtoull itself would skip blanks and take a sign.
    if (!text || !isDigit(text[0]))
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || v > max)
        return false;
    out = v;
    return true;
}

bool
parseNonNegative(const char *text, double &out)
{
    if (!text || !(isDigit(text[0]) || text[0] == '.'))
        return false;
    // "0x..." would parse as hex.
    if (text[0] == '0' && (text[1] == 'x' || text[1] == 'X'))
        return false;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v))
        return false;
    out = v;
    return true;
}

} // namespace stems
