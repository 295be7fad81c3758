/**
 * @file
 * Minimal JSON reader/writer helpers shared by every machine-readable
 * artifact this repo emits: bench `--json` results (analysis/report),
 * metrics snapshots and run manifests (obs/), the canonical SweepPlan
 * (sim/sweep_plan, also the distributed service's plan payload), and
 * the tests that parse those files back.
 *
 * One parser and one set of emit conventions (stable key order
 * decided by the callers, `%.17g` doubles that round-trip exactly,
 * exact u64 integer tokens) keep the writers and readers from ever
 * drifting apart. The parser handles just the JSON subset those
 * writers produce — objects, arrays, strings with the common escapes,
 * numbers, booleans, null — and reports the first error instead of
 * guessing. Because plan JSON arrives over the wire, it is strict
 * where a lenient reading would decode a different value: number
 * tokens must follow the JSON grammar, an integer token must fit a
 * u64 and a fractional one a finite double, an object may not repeat
 * a key, and nesting is capped at kMaxDepth levels.
 */

#ifndef STEMS_COMMON_MINI_JSON_HH
#define STEMS_COMMON_MINI_JSON_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace stems {

/** JSON string contents -> source text (quotes not included). */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/** Full-precision double that round-trips through a JSON parser. */
inline std::string
jsonDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Minimal JSON value: just what this repo's artifact files use. */
struct JsonValue
{
    enum class Kind
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };
    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::uint64_t integer = 0; ///< exact value of integer tokens
    bool isInteger = false;
    std::string text;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    const JsonValue *
    get(const char *key) const
    {
        for (const auto &kv : members)
            if (kv.first == key)
                return &kv.second;
        return nullptr;
    }

    double
    num(const char *key, double fallback = 0.0) const
    {
        const JsonValue *v = get(key);
        return v && v->kind == Kind::kNumber ? v->number : fallback;
    }

    std::uint64_t
    uint(const char *key) const
    {
        const JsonValue *v = get(key);
        if (!v || v->kind != Kind::kNumber)
            return 0;
        return v->isInteger
                   ? v->integer
                   : static_cast<std::uint64_t>(v->number);
    }

    std::string
    str(const char *key) const
    {
        const JsonValue *v = get(key);
        return v && v->kind == Kind::kString ? v->text
                                             : std::string();
    }
};

struct JsonParser
{
    /// Deepest nesting of objects and arrays accepted; every writer
    /// here stays far below it, and it bounds the recursion.
    static constexpr int kMaxDepth = 64;

    const char *p;
    const char *end;
    std::string error;
    int depth = 0;

    explicit JsonParser(const std::string &text)
        : p(text.data()), end(text.data() + text.size())
    {
    }

    void
    skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool
    fail(const std::string &what)
    {
        if (error.empty())
            error = what;
        return false;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::strlen(word);
        if (static_cast<std::size_t>(end - p) < n ||
            std::strncmp(p, word, n) != 0)
            return fail(std::string("expected '") + word + "'");
        p += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (p >= end || *p != '"')
            return fail("expected string");
        ++p;
        out.clear();
        while (p < end && *p != '"') {
            char c = *p++;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (p >= end)
                return fail("bad escape");
            char e = *p++;
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (end - p < 4)
                    return fail("bad \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = *p++;
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= h - '0';
                    else if (h >= 'a' && h <= 'f')
                        code |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        code |= h - 'A' + 10;
                    else
                        return fail("bad \\u escape");
                }
                // The writers only escape ASCII control characters;
                // encode anything else as UTF-8 for completeness.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default: return fail("bad escape");
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // closing quote
        return true;
    }

    /** Skip a run of decimal digits; returns how many there were. */
    std::size_t
    skipDigits()
    {
        const char *start = p;
        while (p < end && *p >= '0' && *p <= '9')
            ++p;
        return static_cast<std::size_t>(p - start);
    }

    /**
     * One number token, by the JSON grammar
     * `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. A token
     * without fraction or exponent that is not negative is an
     * integer and keeps its exact u64 value; one that overflows u64
     * is rejected rather than saturated.
     */
    bool
    parseNumber(JsonValue &out)
    {
        const char *start = p;
        if (p < end && *p == '-')
            ++p;
        const char *int_start = p;
        const std::size_t int_digits = skipDigits();
        if (int_digits == 0)
            return fail("unexpected character");
        if (*int_start == '0' && int_digits > 1)
            return fail("number with a leading zero");
        bool integral = true;
        if (p < end && *p == '.') {
            ++p;
            integral = false;
            if (skipDigits() == 0)
                return fail("number without fraction digits");
        }
        if (p < end && (*p == 'e' || *p == 'E')) {
            ++p;
            integral = false;
            if (p < end && (*p == '+' || *p == '-'))
                ++p;
            if (skipDigits() == 0)
                return fail("number without exponent digits");
        }
        const std::string token(start, p);
        out.kind = JsonValue::Kind::kNumber;
        out.number = std::strtod(token.c_str(), nullptr);
        if (!std::isfinite(out.number))
            return fail("number out of range");
        if (integral && *start != '-') {
            // Keep integer tokens exact: counts can exceed a
            // double's 53-bit mantissa.
            errno = 0;
            out.integer = std::strtoull(token.c_str(), nullptr, 10);
            if (errno == ERANGE)
                return fail("integer does not fit 64 bits");
            out.isInteger = true;
        }
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        if ((*p == '{' || *p == '[') && depth >= kMaxDepth)
            return fail("nesting too deep");
        switch (*p) {
        case '{': {
            out.kind = JsonValue::Kind::kObject;
            ++p;
            skipWs();
            if (p < end && *p == '}') {
                ++p;
                return true;
            }
            ++depth;
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                for (const auto &kv : out.members)
                    if (kv.first == key)
                        return fail("duplicate key '" + key + "'");
                skipWs();
                if (p >= end || *p != ':')
                    return fail("expected ':'");
                ++p;
                JsonValue value;
                if (!parseValue(value))
                    return false;
                out.members.emplace_back(std::move(key),
                                         std::move(value));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == '}') {
                    ++p;
                    --depth;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        case '[': {
            out.kind = JsonValue::Kind::kArray;
            ++p;
            skipWs();
            if (p < end && *p == ']') {
                ++p;
                return true;
            }
            ++depth;
            while (true) {
                JsonValue item;
                if (!parseValue(item))
                    return false;
                out.items.push_back(std::move(item));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == ']') {
                    ++p;
                    --depth;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        case '"':
            out.kind = JsonValue::Kind::kString;
            return parseString(out.text);
        case 't':
            out.kind = JsonValue::Kind::kBool;
            out.boolean = true;
            return literal("true");
        case 'f':
            out.kind = JsonValue::Kind::kBool;
            out.boolean = false;
            return literal("false");
        case 'n':
            out.kind = JsonValue::Kind::kNull;
            return literal("null");
        default:
            return parseNumber(out);
        }
    }
};

} // namespace stems

#endif // STEMS_COMMON_MINI_JSON_HH
