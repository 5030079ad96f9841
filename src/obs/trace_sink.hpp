/**
 * @file
 * TraceSink: a per-owner, lock-free ring buffer of TraceEvents.
 *
 * Each simulator (or sweep replicate) owns exactly one sink — the
 * share-nothing design the sweep runner already uses for Metrics —
 * so recording is a plain store with no synchronization.  The ring
 * has power-of-two slots indexed by a free-running counter; when it
 * fills, the oldest events are overwritten (droppedOldest() says how
 * many), never the newest: the most recent window is what a
 * regression post-mortem needs.
 *
 * Two gates keep the simulator hot loop honest (docs/PERF.md):
 *
 *  - compile-time: the IADM_TRACE_EVENT macro below compiles to
 *    nothing unless the build defines IADM_TRACE (CMake option
 *    IADM_TRACE, ON by default; the trace-off preset turns it off);
 *  - runtime: instrumented code holds a TraceSink* that is null
 *    until a sink is attached.  The simulator's service loop is
 *    additionally specialized on traced-vs-not (one test per stage
 *    call selects an instantiation whose hooks folded away), so the
 *    compiled-in-but-disabled path costs <= 2% on the paired
 *    bench_hotpath ladder (--pair trace=off,on).
 *
 * routeTraceContext() is the bridge into REROUTE's kernel — the
 * algorithmic layer cannot depend on the simulator, so the simulator
 * parks (sink, packet, cycle) in a thread-local slot around each
 * injection-time REROUTE call and reroute.cpp emits Reroute events
 * through it.
 *
 * The single-owner contract also interacts with intra-simulation
 * sharding (SimConfig::shards): a sink's event order is defined to
 * be the serial order, and recording is an unsynchronized store, so
 * a simulator with an attached sink runs its injection fill + build
 * phase (the only phase shards split) as one block on the caller —
 * sharded fills resume when the sink is detached.  See
 * docs/SIMULATOR.md "Intra-simulation sharding".
 */

#ifndef IADM_OBS_TRACE_SINK_HPP
#define IADM_OBS_TRACE_SINK_HPP

#include <cstdint>
#include <vector>

#include "obs/trace_event.hpp"

namespace iadm::obs {

/** True when this build compiled the trace hooks in. */
constexpr bool
traceCompiledIn()
{
#if IADM_TRACE
    return true;
#else
    return false;
#endif
}

/** Fixed-capacity ring buffer of TraceEvents (one owner, no locks). */
class TraceSink
{
  public:
    static constexpr std::size_t kDefaultCapacity = std::size_t{1}
                                                    << 20;

    explicit TraceSink(std::size_t capacity = kDefaultCapacity);

    /**
     * Record one event (overwrites the oldest slot when full).
     *
     * Deliberately out of line and cold: the hook macro inlines only
     * a null test at each instrumented site, so a
     * compiled-in-but-disabled build pays one branch, not the
     * I-cache and register-pressure cost of an inlined slot write at
     * every hook (measured in docs/PERF.md).  When tracing is on,
     * one call per recorded event is noise next to the slot write.
     */
    __attribute__((noinline, cold)) void
    record(EventKind kind, std::uint64_t packet, std::uint64_t cycle,
           unsigned stage, Label sw, std::uint8_t link,
           std::uint32_t aux, std::uint32_t tag_dest,
           std::uint32_t tag_state, std::uint8_t flags = 0);

    void push(const TraceEvent &e) { ring_[count_++ & mask_] = e; }

    /** Events currently retained (<= capacity()). */
    std::size_t
    size() const
    {
        return count_ < ring_.size() ? static_cast<std::size_t>(count_)
                                     : ring_.size();
    }

    /** Ring slots (power of two >= the requested capacity). */
    std::size_t capacity() const { return ring_.size(); }

    /** Total events ever recorded, including overwritten ones. */
    std::uint64_t recorded() const { return count_; }

    /** Events lost to ring wrap (oldest-first eviction). */
    std::uint64_t
    droppedOldest() const
    {
        return count_ - size();
    }

    /** Retained events in chronological order (oldest first). */
    std::vector<TraceEvent> snapshot() const;

    /** Forget every event (capacity unchanged). */
    void clear() { count_ = 0; }

  private:
    std::vector<TraceEvent> ring_;
    std::uint64_t count_ = 0; //!< free-running write index
    std::uint64_t mask_ = 0;
};

/**
 * Thread-local bridge for instrumenting REROUTE's kernel (which
 * must stay simulator-agnostic): the caller that is about to run
 * REROUTE on behalf of a packet fills this in, reroute.cpp emits
 * through it, and the caller clears it afterwards.  Null sink means
 * no tracing.
 */
struct RouteTraceContext
{
    TraceSink *sink = nullptr;
    std::uint64_t packet = 0;
    std::uint64_t cycle = 0;
};

RouteTraceContext &routeTraceContext();

} // namespace iadm::obs

/**
 * Hot-path event hook: compiles to nothing without IADM_TRACE; with
 * it, a null-pointer test guards the record call (arguments are not
 * evaluated when the sink is detached).
 */
#if IADM_TRACE
// The -Wnonnull suppression covers sites where the sink expression
// is a compile-time nullptr (the simulator's untraced service-loop
// instantiation): the guard makes the call unreachable, but the
// warning pass runs before dead-code elimination sees that.
#define IADM_TRACE_EVENT(sink, ...) \
    do { \
        _Pragma("GCC diagnostic push") \
        _Pragma("GCC diagnostic ignored \"-Wnonnull\"") \
        if (__builtin_expect((sink) != nullptr, 0)) \
            (sink)->record(__VA_ARGS__); \
        _Pragma("GCC diagnostic pop") \
    } while (0)
#else
#define IADM_TRACE_EVENT(sink, ...) ((void)0)
#endif

#endif // IADM_OBS_TRACE_SINK_HPP
