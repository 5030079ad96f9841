/**
 * @file
 * The I/O-free serving engine: topology + refcounted FaultSet +
 * fault-epoch RouteCache behind the epoch-guard discipline
 * (snapshot.hpp), resolving batches of parsed requests into
 * deterministic response bytes.
 *
 * Splitting the engine from the socket front end (server.hpp) keeps
 * every interesting property testable in-process: the perf smoke
 * test replays a canned request log straight through resolveBatch()
 * and byte-compares the answers against direct
 * universalRouteCompact() calls, and the bench drives the same code
 * over a real Unix socket.
 *
 * Batching is the perf core (docs/SERVING.md): a batch pins one
 * fault epoch, claims the serving mutex once, resolves each tsdt
 * request through the route cache (a clear initial path after n
 * bit tests, a stored repair otherwise), and appends every
 * response to one output buffer the caller flushes with one write()
 * per connection.  One-at-a-time resolution (cfg.batching = false at
 * the server layer — the engine itself just sees batches of 1)
 * re-pins, re-locks and re-flushes per request; bench_serve
 * measures the gap.
 */

#ifndef IADM_SERVE_SERVER_CORE_HPP
#define IADM_SERVE_SERVER_CORE_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/ssdt.hpp"
#include "fault/fault_process.hpp"
#include "fault/fault_set.hpp"
#include "fault/fault_view.hpp"
#include "serve/wire.hpp"
#include "sim/network_sim.hpp"
#include "sim/route_cache.hpp"
#include "sim/sweep.hpp"
#include "topology/iadm.hpp"

namespace iadm::serve {

/** Daemon configuration (the `iadm_tool serve` flags). */
struct ServeConfig
{
    Label netSize = 16;
    sim::RoutingScheme scheme = sim::RoutingScheme::TsdtSender;

    /**
     * Route-cache entries, at most RouteCache::kMaxCapacity; 0 =
     * RouteCache::autoCapacity().
     */
    std::size_t cacheCapacity = 0;

    /**
     * Drain-everything batching in the socket server; the engine
     * honors whatever batch sizes it is handed either way.
     */
    bool batching = true;

    /** Background churn; Kind::None runs a churn-free daemon. */
    sim::ChurnSpec churn;

    /** Seed for churn processes and fault-scenario materialization. */
    std::uint64_t seed = 1;

    /**
     * Churn ticker cadence in microseconds: every tick advances the
     * churn clock one cycle (docs/SERVING.md, "Time").
     */
    unsigned tickUs = 1000;
};

/** The serving engine. */
class ServerCore
{
  public:
    /** Offset/length of one response line within a batch buffer. */
    struct Extent
    {
        std::size_t off;
        std::size_t len;
    };

    struct BatchOutcome
    {
        std::size_t served = 0;  //!< responses appended
        bool shutdown = false;   //!< a shutdown request was seen
    };

    /** Log-bucket count for the service-time histogram: bucket b
     *  holds requests that took [2^(b-1), 2^b) ns (b = 0: < 1 ns),
     *  the last one everything from 2^30 ns (about 1.07 s) up. */
    static constexpr unsigned kServiceBuckets = 32;

    /** Cumulative serving counters (all mutex-guarded). */
    struct Stats
    {
        std::uint64_t requests = 0;
        std::uint64_t batches = 0;
        std::uint64_t maxBatch = 0;
        /** Faulted tsdt resolutions with no REROUTE fill: clear
         *  initial paths and replayed repairs. */
        std::uint64_t routeHits = 0;
        std::uint64_t routeMisses = 0; //!< REROUTE fills
        std::uint64_t unroutable = 0;  //!< FAIL verdicts served
        std::uint64_t errors = 0;      //!< error responses
        std::uint64_t epochTorn = 0;   //!< torn snapshots (must be 0)
        std::uint64_t churnTicks = 0;
        std::uint64_t faultDowns = 0;
        std::uint64_t faultUps = 0;

        /** Epoch pinned by the last completed batch — a wedged
         *  daemon's value stops advancing while churn keeps the
         *  clock moving, which is what the watchdog reports. */
        std::uint64_t lastProgressEpoch = 0;

        /**
         * Daemon-side per-request service time, log-bucketed (ns,
         * amortized: a batch's wall time divided by its size; a
         * request takes well under a microsecond).  The
         * daemon-side complement of bench_serve's client-side
         * latency: client numbers include socket + queueing delay,
         * these isolate resolution + serialization.
         */
        std::uint64_t serviceSamples = 0;
        std::array<std::uint64_t, kServiceBuckets> serviceHist{};

        /** Histogram quantile as the bucket upper bound, in
         *  fractional µs (bucket bounds are powers of two ns). */
        double servicePercentileUs(double q) const;
    };

    ServerCore(const ServeConfig &cfg,
               fault::FaultSet static_faults = {});

    /**
     * Resolve @p n requests under one epoch guard, appending one
     * response line per request to @p out (in request order).  When
     * @p extents is non-null it receives the (offset, length) of
     * each response within @p out, so a multi-connection caller can
     * scatter the shared batch buffer back to the right sockets.
     *
     * Thread-safe: the engine's own mutex serializes batches and
     * churn ticks.
     */
    BatchOutcome resolveBatch(const Request *reqs, std::size_t n,
                              std::string &out,
                              std::vector<Extent> *extents = nullptr);

    /**
     * Advance the churn clock one cycle and apply due transitions
     * (called by the ticker thread between batches).  No-op without
     * churn processes.
     */
    void tickChurn();

    /** Current fault epoch (locks). */
    std::uint64_t epoch() const;

    /** Snapshot of the serving counters (locks). */
    Stats statsSnapshot() const;

    /**
     * One watchdog beat (called by the HealthWatchdog thread every
     * tick).  Tries the serving mutex without blocking: a held-up
     * mutex is a *missed* beat, and a run of misses past
     * kWatchdogStallRun flips the `health` query status to
     * "stalled" — a wedged daemon becomes observable instead of a
     * client timeout.  On a successful beat the uptime-window ring
     * rotates: each window records the requests served during
     * kTicksPerWindow beats, so a stall shows up as zeroed windows
     * even after the daemon recovers.
     */
    void heartbeat();

    /** Consecutive missed beats that flip status to "stalled". */
    static constexpr std::uint64_t kWatchdogStallRun = 8;
    /** Heartbeats per uptime window. */
    static constexpr std::uint64_t kTicksPerWindow = 64;
    /** Uptime-window ring length. */
    static constexpr unsigned kUptimeWindows = 8;

    const topo::IadmTopology &topology() const { return topo_; }
    const ServeConfig &config() const { return cfg_; }

    /**
     * Build the static FaultSet for `--faults SPEC`: either a
     * seed-derived sweep scenario ("links:4", "switches:2", ...) or
     * a comma-separated list of explicit "stage:from:kind" specs.
     * Returns false (with a diagnostic in @p err) on a bad spec,
     * including a scenario whose count exceeds what N offers.
     */
    static bool parseFaultArg(const topo::IadmTopology &net,
                              const std::string &spec,
                              std::uint64_t seed,
                              fault::FaultSet &out, std::string &err);

  private:
    ServeConfig cfg_;
    topo::IadmTopology topo_;

    mutable std::mutex mu_;
    fault::FaultSet faults_;
    /**
     * Bitset view of faults_ that tsdt route-cache fills run REROUTE
     * over; faultView() refreshes it when faults_.version() has
     * moved since viewVersion_.
     */
    fault::FaultView fview_;
    std::uint64_t viewVersion_ = ~std::uint64_t{0};
    sim::RouteCache rcache_;
    core::SsdtRouter ssdt_; //!< ssdt/ssdt-balanced serving state
    std::vector<std::unique_ptr<fault::FaultProcess>> churn_;
    std::uint64_t churnCycle_ = 0;
    Stats stats_;

    // --- watchdog state (docs/SERVING.md, "Health") ---------------
    // Counters are written only by the watchdog thread but read by
    // answerHealth without it holding still — hence atomics with
    // relaxed ordering (monotonic counters, no ordering needed).
    std::atomic<std::uint64_t> wdTicks_{0};
    std::atomic<std::uint64_t> wdMissed_{0};
    std::atomic<std::uint64_t> wdMissedRun_{0};
    std::atomic<std::uint64_t> wdMaxMissedRun_{0};
    // Ring state below is touched only with mu_ held (successful
    // beats and answerHealth both hold it).
    std::uint64_t wdWindowTicks_ = 0;
    std::uint64_t wdLastRequests_ = 0;
    unsigned wdWindowPos_ = 0;
    std::uint64_t wdWindowFilled_ = 0;
    std::array<std::uint64_t, kUptimeWindows> wdWindowReq_{};

    /** fview_, first refreshed if faults_ moved (mu_ held). */
    const fault::FaultView &faultView();

    /** Resolve one request under the batch's pinned epoch. */
    void resolveOne(const Request &r, std::uint64_t epoch,
                    BatchOutcome &bo, std::string &out);

    void answerRoute(const Request &r, std::uint64_t epoch,
                     bool want_path, std::string &out);
    void answerStats(const Request &r, std::uint64_t epoch,
                     std::string &out);
    void answerHealth(const Request &r, std::uint64_t epoch,
                      std::string &out);
};

} // namespace iadm::serve

#endif // IADM_SERVE_SERVER_CORE_HPP
