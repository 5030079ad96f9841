/**
 * @file
 * Shared plumbing of the repository benchmark (benchmark/README.md):
 * run options, the result record every workload fills, in-memory
 * spans, and the small statistics the metrics are built from.
 *
 * Every layer is measured from outside: the workloads time calls
 * into the library's public functions and record spans around them
 * here.  Nothing in src/ is instrumented for the benchmark.
 */

#ifndef IADM_BENCHMARK_BENCH_HPP
#define IADM_BENCHMARK_BENCH_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "fault/fault_set.hpp"
#include "sim/network_sim.hpp"
#include "sim/sweep.hpp"

namespace ibench {

using Clock = std::chrono::steady_clock;
using iadm::Label;

/** Set-ups timed per run; setup_s is their median. */
constexpr int kSetups = 11;

/** Command-line options of one benchmark process (one workload). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 12; //!< measured time of the run
    bool trace = false;  //!< per-layer (traced) run
    bool smoke = false;  //!< tiny sizes, same gates
    std::string outDir = ".";
    unsigned threads = 1; //!< min(4, nproc): the load thread budget
};

/** Nanoseconds between two time points. */
inline double
ns(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** Seconds since @p a. */
inline double
secondsSince(Clock::time_point a)
{
    return std::chrono::duration<double>(Clock::now() - a).count();
}

/** Nearest-rank quantile of @p v (copied, so callers keep order). */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Peak resident set size of this process, MiB. */
double peakRssMib();

/** A seed for stream @p salt of run seed @p seed (splitmix-mixed). */
inline std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t salt)
{
    return iadm::sim::deriveSeed(seed, salt, 0);
}

/** Sink that keeps a computed value alive past the optimizer. */
void consume(std::uint64_t v);

/**
 * The speed of the host's cores, read with a reference kernel of the
 * benchmark's own that calls no library code and touches no memory:
 * four independent chains of integer hashes.  A shared host changes
 * the speed of its cores for minutes at a time (other tenants on the
 * same physical cores, frequency), by 20% and more, and every
 * workload slows with it.  The end-to-end timings are therefore
 * reported at the reference host's speed: scaled by slowdown(), the
 * kernel's time now over its time on the reference host.  A change to
 * the library leaves the kernel alone, so it moves a scaled metric by
 * the share it moves the raw time.
 */
class HostSpeed
{
  public:
    /** Samples run the kernel on @p threads threads at once. */
    explicit HostSpeed(unsigned threads) : threads_(std::max(1u, threads)) {}

    /** Time the kernel once (mean over the threads). */
    void sample();

    /** Median sample over the reference time: > 1 on a slower host. */
    double slowdown() const;

  private:
    unsigned threads_;
    std::vector<double> samples_;
};

/**
 * In-memory span store.  Spans are written once, when the process
 * ends (writeJson); recording takes a lock so the serve workload's
 * client threads can share one tracer.  Beyond kMaxSpans new spans
 * are counted, not kept.
 */
class Tracer
{
  public:
    static constexpr std::size_t kMaxSpans = std::size_t{1} << 20;

    struct Span
    {
        std::uint64_t id;
        std::uint64_t parent; //!< 0 = root
        const char *name;     //!< string literal
        std::int64_t startNs; //!< since the tracer's origin
        std::int64_t endNs;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** A fresh span id (also for spans that share one id). */
    std::uint64_t
    newId()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return nextId_++;
    }

    /** Record [a, b] as @p name under @p parent; returns its id. */
    std::uint64_t span(const char *name, std::uint64_t parent,
                       Clock::time_point a, Clock::time_point b,
                       std::uint64_t id = 0);

    void writeJson(const std::string &path,
                   const std::string &workload) const;

  private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::mutex mu_;
    std::vector<Span> spans_;
    std::uint64_t nextId_ = 1;
    std::size_t dropped_ = 0;
};

/**
 * What one workload run reports.  Metrics are keyed by name; the
 * result line carries the end-to-end set (untraced runs) or
 * the common per-layer set (traced runs), and the full summary file
 * carries everything a traced run measured.
 */
struct Result
{
    struct Metric
    {
        double value;
        std::string unit;
    };

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> gateFailures;
    std::map<std::string, Metric> metrics;

    bool correct() const { return failed == 0 && gateFailures.empty(); }

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = {value, unit};
    }

    /** Record a failed correctness gate. */
    void gate(bool ok, const std::string &what);
};

/**
 * The network a workload runs on, as the layer probes see it: size,
 * scheme, injection rate and the static faults actually placed.
 */
struct Network
{
    iadm::sim::SimConfig cfg;
    iadm::fault::FaultSet faults;
    std::string churn = "none"; //!< sim::ChurnSpec spelling
};

/** Packet-count fingerprint of a simulation (exact-match gates). */
struct Fingerprint
{
    std::uint64_t injected = 0, delivered = 0, dropped = 0,
                  throttled = 0, unroutable = 0, hops = 0, stalls = 0,
                  reroutes = 0, backtrackHops = 0, cacheHits = 0,
                  cacheMisses = 0;

    static Fingerprint of(const iadm::sim::Metrics &m);
    bool operator==(const Fingerprint &) const = default;
};

/**
 * Set-up as a user pays it, kSetups times: place @p scenario's faults
 * (left in @p net) and construct @p net's simulator.  Records setup_s
 * and network_sim.construct_ms (medians).
 */
void timeSimSetup(const Options &opt,
                  const iadm::sim::FaultScenario &scenario, Network &net,
                  Result &r);

/**
 * Record the network_sim.* counts, fail_frac and route-cache counts
 * of @p m (@p in_flight_mean sampled by the caller).
 */
void setSimCounts(Result &r, const iadm::sim::Metrics &m,
                  double in_flight_mean);

/**
 * Host time of one step() per simulated cycle, over steps timed
 * individually (@p step_ns) that moved @p hops packets in total.
 */
void setStepMetrics(Result &r, const std::vector<double> &step_ns,
                    std::uint64_t hops);

/**
 * Layer probes: replay each layer's public functions on the
 * workload's own network and pair distribution (probes.cpp).  Sets
 * every per-layer timing the workload itself does not exercise.
 */
struct ProbeOptions
{
    bool simSteps = false; //!< also run a probe simulation
    bool churnReplay = true; //!< time FaultProcess::runUntil here
};
void runLayerProbes(const Options &opt, const Network &net,
                    const ProbeOptions &popt, Result &r,
                    Tracer &tracer);

/**
 * network_sim.unattributed_frac: the share of @p step_total_ns that
 * the replayed layer costs in @p r do not account for, given the
 * simulation's own counts @p m and churn time @p run_until_total_ns.
 * Call after runLayerProbes.
 */
void setUnattributed(Result &r, const iadm::sim::Metrics &m,
                     double step_total_ns, double run_until_total_ns);

// --- workloads ----------------------------------------------------

// Each samples @p host between its windows, grids or phases.
Result runSweepGrid(const Options &opt, Tracer &tracer, HostSpeed &host);
Result runSimWorkload(const Options &opt, Tracer &tracer, HostSpeed &host);
Result runServe(const Options &opt, Tracer &tracer, HostSpeed &host);

} // namespace ibench

#endif // IADM_BENCHMARK_BENCH_HPP
