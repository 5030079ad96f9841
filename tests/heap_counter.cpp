/**
 * @file
 * Global operator new instrumented with a call counter, so
 * sim_test's Sim.SteadyStateStepPerformsNoHeapAllocation can prove
 * the flat hot path's no-allocation claim (docs/PERF.md) instead of
 * asserting it by inspection.  A plain counter: the simulator
 * steps on the test's one thread.
 *
 * The replacements live in a translation unit of their own.  Where
 * the compiler can see that operator delete calls std::free, it
 * inlines it into every new/delete pair of the including file
 * (gtest's included) and GCC's -Wmismatched-new-delete then flags
 * each pair, although the replaced operator new allocates with
 * std::malloc and the pairing is correct.
 */

#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

std::uint64_t g_heapAllocs = 0;

} // namespace

/** Calls to the global operator new (scalar or array) so far. */
std::uint64_t
heapAllocCount()
{
    return g_heapAllocs;
}

void *
operator new(std::size_t size)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
