#include "common/logging.hpp"

#include <cstdlib>
#include <iostream>

namespace iadm {
namespace detail {

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << " [" << file << ":" << line << "]"
              << std::endl;
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg << " [" << file << ":" << line << "]"
              << std::endl;
    std::exit(1);
}

void
warnImpl(std::string_view msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    std::cerr << "info: " << msg << std::endl;
}

} // namespace detail
} // namespace iadm
