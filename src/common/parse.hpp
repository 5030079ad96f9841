/**
 * @file
 * Strict token parsers shared by the spec grammars (traffic
 * scenarios, fault scenarios, churn processes) and the CLI's
 * numeric arguments.  Each accepts the whole string or nothing: no
 * leading space or sign on integers, no trailing bytes, and a value
 * that does not fit the target type is rejected instead of wrapped.
 */

#ifndef IADM_COMMON_PARSE_HPP
#define IADM_COMMON_PARSE_HPP

#include <charconv>
#include <cmath>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

namespace iadm {

/** Unsigned decimal into @p out; the bound is T's range, so a Label
 *  field rejects 4294967296 rather than reading 0. */
template <typename T>
bool
parseUnsigned(const std::string &s, T &out)
{
    static_assert(std::is_unsigned_v<T>);
    const char *end = s.data() + s.size();
    const auto [p, ec] = std::from_chars(s.data(), end, out);
    return ec == std::errc{} && p == end;
}

/** Finite decimal double; nan and inf are rejected. */
inline bool
parseDouble(const std::string &s, double &out)
{
    const char *end = s.data() + s.size();
    const auto [p, ec] = std::from_chars(s.data(), end, out);
    return ec == std::errc{} && p == end && std::isfinite(out);
}

/** Split on every @p sep, keeping empty pieces ("a:" is {"a", ""}),
 *  so a stray separator fails the piece parse instead of vanishing. */
inline std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (;;) {
        const std::size_t at = s.find(sep, start);
        parts.push_back(s.substr(start, at - start));
        if (at == std::string::npos)
            return parts;
        start = at + 1;
    }
}

} // namespace iadm

#endif // IADM_COMMON_PARSE_HPP
