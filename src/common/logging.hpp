/**
 * @file
 * Minimal logging / error facility in the gem5 spirit.
 *
 * panic()  - a library bug: a condition that should never happen
 *            regardless of what the user does.  Aborts.
 * fatal()  - a user error (bad configuration, invalid arguments).
 *            Exits with status 1.
 * warn()   - something works but is suspicious.
 * inform() - plain status output.
 */

#ifndef IADM_COMMON_LOGGING_HPP
#define IADM_COMMON_LOGGING_HPP

#include <sstream>
#include <string>
#include <string_view>

namespace iadm {

namespace detail {

/** Stream a pack of arguments into a string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
/** Takes a view, so a caller that must not allocate can format
 *  into a stack buffer (Metrics' latency-cap warning). */
void warnImpl(std::string_view msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort with a message: internal invariant violated. */
#define IADM_PANIC(...) \
    ::iadm::detail::panicImpl(__FILE__, __LINE__, \
                              ::iadm::detail::concat(__VA_ARGS__))

/** Exit with a message: user/configuration error. */
#define IADM_FATAL(...) \
    ::iadm::detail::fatalImpl(__FILE__, __LINE__, \
                              ::iadm::detail::concat(__VA_ARGS__))

/** Warn on stderr; execution continues. */
#define IADM_WARN(...) \
    ::iadm::detail::warnImpl(::iadm::detail::concat(__VA_ARGS__))

/** Informational message on stderr; execution continues. */
#define IADM_INFORM(...) \
    ::iadm::detail::informImpl(::iadm::detail::concat(__VA_ARGS__))

/** Assert an internal invariant; panics when violated. */
#define IADM_ASSERT(cond, ...) \
    do { \
        if (!(cond)) \
            IADM_PANIC("assertion failed: ", #cond, " ", ##__VA_ARGS__); \
    } while (0)

} // namespace iadm

#endif // IADM_COMMON_LOGGING_HPP
