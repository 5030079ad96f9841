/**
 * @file
 * Hot-path microbenchmark for the cycle-level simulator.
 *
 * Drives NetworkSim::step() for every routing scheme at
 * N in {64, 256, 1024} and reports cycles/sec, hops/sec and the
 * p50/p99 per-step wall time.  The numbers land in an
 * iadm-bench-hotpath-v1 JSON document (default BENCH_hotpath.json)
 * tagged with the build type, so unoptimized runs cannot silently
 * enter the perf trajectory; docs/PERF.md describes the schema and
 * how to compare runs.
 *
 * Usage:
 *   bench_hotpath [--cycles N] [--net-size N] [--rate R]
 *                 [--faults K] [--no-cache] [--out FILE]
 *                 [--traffic SPEC]
 *                 [--trace-overhead] [--health-overhead]
 *                 [--churn-overhead] [--shards S] [--cache-pairs]
 *
 * --trace-overhead runs every configuration twice in a paired
 * A/B — trace sink detached (the normal production setting) and
 * attached — and reports the relative cycles/sec cost of each.
 * Configs gain a "trace_mode" field ("off"/"on"); without the flag
 * the field is absent and the document is unchanged.  The paired
 * run is how the <=2% disabled-hook budget in docs/PERF.md is
 * measured: compare a --trace-overhead "off" rung of an IADM_TRACE
 * build against a plain run of a trace-off build.
 *
 * --health-overhead is the same paired A/B for the IADM_HEALTH
 * monitor hooks: every configuration runs with no monitor attached
 * and again with a HealthMonitor watching ("health_mode"
 * "off"/"on").  The "on" rung is the acceptance gate for the <=2%
 * monitor-on budget (docs/OBSERVABILITY.md); the "off" rung checks
 * the detached hook costs a plain run nothing.
 *
 * --churn-overhead is the same paired A/B for fault churn: every
 * configuration runs without churn and with a geometric MTBF/MTTR
 * process attached ("churn_mode" "off"/"on").  The "off" rung is
 * the acceptance gate that the churn machinery costs a churn-free
 * run nothing — its cycles/sec must stay within the run-to-run
 * noise band (±2%) of a plain BENCH_hotpath.json rung.
 *
 * --cache-pairs is the paired A/B for the fault-epoch route cache:
 * every configuration runs cache-on and again with the cache
 * force-disabled (the rungs are told apart by the existing
 * "route_cache" field, so the document schema is unchanged).  The
 * cache is routing-neutral by construction, so the paired rungs
 * must agree on delivered/hops exactly — the binary fails if they
 * diverge — and the cycles/sec ratio is what the cache buys over
 * running REROUTE for every attempt (docs/PERF.md quotes these
 * numbers).  Only faulted tsdt rungs have a cache to toggle.
 *
 * --shards S is the paired A/B for intra-simulation sharding:
 * every configuration runs serial (SimConfig::shards = 1) and again
 * with its injection fill + build split across S worker threads,
 * and each rung reports its *effective* shard count in a "shards"
 * field (clamped to N).  Sharding is byte-deterministic, so the
 * paired rungs must agree on delivered / hops exactly — the A/B
 * isolates pure scheduling overhead or speedup.  Meaningful
 * speedups need >= S free cores; docs/PERF.md has the measured
 * ladders.
 *
 * --net-size 0 (default) runs the full {64, 256, 1024} ladder; a
 * specific size runs only that one (the perf-smoke ctest uses
 * --cycles 2000 --net-size 64).  By default every (size, scheme)
 * pair runs twice — fault-free and with 6 * (N / 64) random static
 * link blockages — so the faulted injection path (where the
 * fault-epoch route cache earns its keep) is always on the perf
 * trajectory; --faults K pins a single blockage count instead, and
 * --no-cache disables the route cache for an uncached baseline of
 * the same binary.  --traffic takes any scenario spec
 * (sim/scenario.hpp, e.g. "transpose" or
 * "shape:bursty:16:64/dst:hotspot:0:0.2"), validated at every N
 * before anything runs; given more than once, the ladder runs once
 * per spec.  Each config's "traffic" field is its spec's canonical
 * name, and the report's top-level "traffic" field lists them all,
 * comma-separated.  The binary re-reads and schema-checks its own
 * report before exiting, so a malformed document fails the run.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/json_writer.hpp"
#include "obs/health.hpp"
#include "obs/trace_sink.hpp"
#include "sim/network_sim.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace iadm;
using namespace iadm::sim;
using Clock = std::chrono::steady_clock;

struct Options
{
    Cycle cycles = 8000;
    Label netSize = 0; //!< 0 = the full {64, 256, 1024} ladder
    double rate = 0.35;
    long faults = -1;  //!< -1 = ladder default {0, 6 * N / 64}
    bool noCache = false;
    bool cachePairs = false;
    bool traceOverhead = false;
    bool healthOverhead = false;
    bool churnOverhead = false;
    unsigned shards = 0; //!< 0 = no paired sharding rungs
    std::vector<ScenarioSpec> traffics; //!< one per --traffic
    ScenarioSpec traffic; //!< the ladder running now (uniform default)
    std::string out = "BENCH_hotpath.json";
};

struct ConfigResult
{
    std::string traffic; //!< canonical scenario name
    Label netSize;
    RoutingScheme scheme;
    Cycle cycles;
    std::size_t faultLinks;
    bool routeCache;
    double elapsedSec;
    double cyclesPerSec;
    double hopsPerSec;
    std::uint64_t stepP50Ns;
    std::uint64_t stepP99Ns;
    std::uint64_t delivered;
    std::uint64_t hops;
    std::uint64_t cacheHits;
    std::uint64_t cacheMisses;
    const char *traceMode = nullptr; //!< "off"/"on" in paired mode
    const char *healthMode = nullptr; //!< "off"/"on" in paired mode
    const char *churnMode = nullptr; //!< "off"/"on" in paired mode
    unsigned shards = 0; //!< effective shard count; 0 = field absent
};

std::uint64_t
percentileNs(std::vector<std::uint64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

ConfigResult
runConfig(Label n_size, RoutingScheme scheme, std::size_t fault_links,
          const Options &opt, obs::TraceSink *sink = nullptr,
          bool churn = false, unsigned shards = 1,
          bool force_no_cache = false, bool health = false)
{
    SimConfig cfg;
    cfg.netSize = n_size;
    cfg.scheme = scheme;
    cfg.injectionRate = opt.rate;
    cfg.seed = 97;
    cfg.routeCache = !opt.noCache && !force_no_cache;
    cfg.shards = shards;

    // Static random-link blockages, deterministically derived from
    // (N, count) so reruns and cached/uncached pairs see identical
    // fault sets.
    fault::FaultSet faults;
    if (fault_links != 0) {
        const topo::IadmTopology topo(n_size);
        Rng frng(0x8088 + n_size);
        faults = FaultScenario{FaultScenario::Kind::RandomLinks,
                               fault_links}
                     .make(topo, frng);
    }
    NetworkSim s(cfg, opt.traffic.make(n_size), std::move(faults));
    if (sink != nullptr) {
        sink->clear();
        s.setTraceSink(sink);
    }
    if (churn)
        // Mild, size-independent churn: enough transitions to keep
        // the epoch machinery hot without drowning the routing work.
        s.addFaultProcess(std::make_unique<fault::GeometricChurn>(
            s.topology(), 2000.0, 200.0, 0xbe11));

    s.run(opt.cycles / 10); // warm the queues into steady state
    s.resetMetrics();
    obs::HealthMonitor monitor; // must outlive the stepped loop
    if (health)
        s.setHealthMonitor(&monitor); // after warmup: watch the
                                      // measured cycles only
    const std::uint64_t hops0 = s.metrics().totalHops();

    std::vector<std::uint64_t> stepNs;
    stepNs.reserve(opt.cycles);
    std::uint64_t totalNs = 0;
    for (Cycle c = 0; c < opt.cycles; ++c) {
        const auto t0 = Clock::now();
        s.step();
        const auto t1 = Clock::now();
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t1 - t0)
                .count());
        stepNs.push_back(ns);
        totalNs += ns;
    }
    std::sort(stepNs.begin(), stepNs.end());

    ConfigResult r;
    r.traffic = opt.traffic.name();
    r.netSize = n_size;
    r.scheme = scheme;
    r.cycles = opt.cycles;
    r.faultLinks = fault_links;
    r.routeCache = s.routeCacheEnabled();
    r.cacheHits = s.metrics().routeCacheHits();
    r.cacheMisses = s.metrics().routeCacheMisses();
    r.elapsedSec = static_cast<double>(totalNs) * 1e-9;
    r.cyclesPerSec = r.elapsedSec > 0
                         ? static_cast<double>(opt.cycles) /
                               r.elapsedSec
                         : 0.0;
    r.hops = s.metrics().totalHops() - hops0;
    r.hopsPerSec = r.elapsedSec > 0
                       ? static_cast<double>(r.hops) / r.elapsedSec
                       : 0.0;
    r.stepP50Ns = percentileNs(stepNs, 0.50);
    r.stepP99Ns = percentileNs(stepNs, 0.99);
    r.delivered = s.metrics().delivered();
    if (shards != 1)
        r.shards = s.shards(); // effective count, after clamping
    return r;
}

void
writeReport(std::ostream &os, const Options &opt,
            const std::vector<ConfigResult> &results)
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema");
    w.value("iadm-bench-hotpath-v1");
    w.key("build_type");
    w.value(iadm::bench::buildType());
    w.key("injection_rate");
    w.value(opt.rate);
    std::string traffics;
    for (const ScenarioSpec &t : opt.traffics) {
        if (!traffics.empty())
            traffics += ',';
        traffics += t.name();
    }
    w.key("traffic");
    w.value(traffics);
    w.key("configs");
    w.beginArray();
    for (const auto &r : results) {
        w.beginObject();
        w.key("traffic");
        w.value(r.traffic);
        w.key("net_size");
        w.value(static_cast<std::uint64_t>(r.netSize));
        w.key("scheme");
        w.value(routingSchemeName(r.scheme));
        w.key("cycles");
        w.value(r.cycles);
        w.key("fault_links");
        w.value(static_cast<std::uint64_t>(r.faultLinks));
        w.key("route_cache");
        w.value(r.routeCache);
        w.key("route_cache_hits");
        w.value(r.cacheHits);
        w.key("route_cache_misses");
        w.value(r.cacheMisses);
        w.key("elapsed_sec");
        w.value(r.elapsedSec);
        w.key("cycles_per_sec");
        w.value(r.cyclesPerSec);
        w.key("hops_per_sec");
        w.value(r.hopsPerSec);
        w.key("step_p50_ns");
        w.value(r.stepP50Ns);
        w.key("step_p99_ns");
        w.value(r.stepP99Ns);
        w.key("delivered");
        w.value(r.delivered);
        w.key("hops");
        w.value(r.hops);
        if (r.traceMode != nullptr) {
            w.key("trace_mode");
            w.value(r.traceMode);
        }
        if (r.healthMode != nullptr) {
            w.key("health_mode");
            w.value(r.healthMode);
        }
        if (r.churnMode != nullptr) {
            w.key("churn_mode");
            w.value(r.churnMode);
        }
        if (r.shards != 0) {
            w.key("shards");
            w.value(static_cast<std::uint64_t>(r.shards));
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

/** Minimal schema check of the emitted report (perf-smoke gate). */
bool
reportIsSchemaValid(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string doc = buf.str();
    for (const char *needle :
         {"\"schema\": \"iadm-bench-hotpath-v1\"", "\"build_type\"",
          "\"configs\"", "\"cycles_per_sec\"", "\"hops_per_sec\"",
          "\"step_p50_ns\"", "\"step_p99_ns\"", "\"fault_links\"",
          "\"route_cache\"", "\"route_cache_hits\"",
          "\"route_cache_misses\""}) {
        if (doc.find(needle) == std::string::npos) {
            std::cerr << "schema check failed: missing " << needle
                      << " in " << path << "\n";
            return false;
        }
    }
    return true;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        try {
            if (flag == "--cycles") {
                const char *v = next();
                if (!v)
                    return false;
                opt.cycles = std::stoull(v);
            } else if (flag == "--net-size") {
                const char *v = next();
                if (!v)
                    return false;
                opt.netSize = static_cast<Label>(std::stoul(v));
            } else if (flag == "--rate") {
                const char *v = next();
                if (!v)
                    return false;
                opt.rate = std::stod(v);
            } else if (flag == "--faults") {
                const char *v = next();
                if (!v)
                    return false;
                opt.faults = std::stol(v);
                if (opt.faults < 0)
                    return false;
            } else if (flag == "--no-cache") {
                opt.noCache = true;
            } else if (flag == "--cache-pairs") {
                opt.cachePairs = true;
            } else if (flag == "--trace-overhead") {
                opt.traceOverhead = true;
            } else if (flag == "--health-overhead") {
                opt.healthOverhead = true;
            } else if (flag == "--churn-overhead") {
                opt.churnOverhead = true;
            } else if (flag == "--shards") {
                const char *v = next();
                if (!v)
                    return false;
                opt.shards = static_cast<unsigned>(std::stoul(v));
                if (opt.shards < 2)
                    return false;
            } else if (flag == "--traffic") {
                const char *v = next();
                if (!v)
                    return false;
                const auto spec = ScenarioSpec::parse(v);
                if (!spec)
                    return false;
                opt.traffics.push_back(*spec);
            } else if (flag == "--out") {
                const char *v = next();
                if (!v)
                    return false;
                opt.out = v;
            } else {
                std::cerr << "unknown flag: " << flag << "\n";
                return false;
            }
        } catch (...) {
            std::cerr << "bad value for " << flag << "\n";
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    iadm::bench::guardBuildType();

    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::cerr << "usage: bench_hotpath [--cycles N] "
                     "[--net-size N] [--rate R] [--faults K] "
                     "[--no-cache] [--traffic SPEC] "
                     "[--trace-overhead] [--health-overhead] "
                     "[--churn-overhead] "
                     "[--shards S] [--cache-pairs] [--out FILE]\n";
        return 2;
    }
    if (opt.traffics.empty())
        opt.traffics.push_back(ScenarioSpec{});

    const std::vector<Label> sizes =
        opt.netSize != 0 ? std::vector<Label>{opt.netSize}
                         : std::vector<Label>{64, 256, 1024};
    for (const ScenarioSpec &t : opt.traffics) {
        for (const Label n_size : sizes) {
            if (const auto err = t.validate(n_size)) {
                std::cerr << "bench_hotpath: invalid --traffic '"
                          << t.name() << "': " << *err << "\n";
                return 2;
            }
        }
    }
    const std::vector<RoutingScheme> schemes{
        RoutingScheme::SsdtStatic, RoutingScheme::SsdtBalanced,
        RoutingScheme::TsdtSender, RoutingScheme::DistanceTag,
        RoutingScheme::TsdtDynamic};

    std::vector<ConfigResult> results;
    std::cout << "  N  scheme         faults  cache   cycles/sec"
                 "      hops/sec    p50(ns)    p99(ns)\n";
    // One size ladder per traffic spec.
    for (std::size_t k = 0; k < opt.traffics.size() * sizes.size(); ++k) {
        opt.traffic = opt.traffics[k / sizes.size()];
        const Label n_size = sizes[k % sizes.size()];
        // Default ladder: fault-free plus a size-proportional
        // faulted row (6 blockages per 64 nodes); --faults K pins
        // one row.
        const std::vector<std::size_t> fault_counts =
            opt.faults >= 0
                ? std::vector<std::size_t>{static_cast<std::size_t>(
                      opt.faults)}
                : std::vector<std::size_t>{
                      0, static_cast<std::size_t>(6) * (n_size / 64)};
        for (const std::size_t fault_links : fault_counts) {
            for (const RoutingScheme scheme : schemes) {
                if (opt.traceOverhead) {
                    // Paired A/B: identical config, sink detached
                    // then attached.  Both rungs share one sink
                    // allocation so the "on" rung measures
                    // recording, not first-touch page faults.
                    static obs::TraceSink sink;
                    auto off =
                        runConfig(n_size, scheme, fault_links, opt);
                    off.traceMode = "off";
                    auto on = runConfig(n_size, scheme, fault_links,
                                        opt, &sink);
                    on.traceMode = "on";
                    const double pct =
                        off.cyclesPerSec > 0
                            ? 100.0 * (off.cyclesPerSec -
                                       on.cyclesPerSec) /
                                  off.cyclesPerSec
                            : 0.0;
                    std::printf(
                        "%5u  %-13s %6zu  %5s %12.0f  %12.0f  "
                        "trace on: %12.0f  (%+.1f%%)\n",
                        off.netSize, routingSchemeName(off.scheme),
                        off.faultLinks,
                        off.routeCache ? "on" : "off",
                        off.cyclesPerSec, off.hopsPerSec,
                        on.cyclesPerSec, pct);
                    results.push_back(off);
                    results.push_back(on);
                    continue;
                }
                if (opt.healthOverhead) {
                    // Paired A/B: identical config, monitor detached
                    // then attached.  The "on" rung carries the
                    // <=2% monitor budget (docs/OBSERVABILITY.md).
                    auto off =
                        runConfig(n_size, scheme, fault_links, opt);
                    off.healthMode = "off";
                    auto on =
                        runConfig(n_size, scheme, fault_links, opt,
                                  nullptr, false, 1, false, true);
                    on.healthMode = "on";
                    const double pct =
                        off.cyclesPerSec > 0
                            ? 100.0 * (off.cyclesPerSec -
                                       on.cyclesPerSec) /
                                  off.cyclesPerSec
                            : 0.0;
                    std::printf(
                        "%5u  %-13s %6zu  %5s %12.0f  %12.0f  "
                        "health on: %12.0f  (%+.1f%%)\n",
                        off.netSize, routingSchemeName(off.scheme),
                        off.faultLinks,
                        off.routeCache ? "on" : "off",
                        off.cyclesPerSec, off.hopsPerSec,
                        on.cyclesPerSec, pct);
                    results.push_back(off);
                    results.push_back(on);
                    continue;
                }
                if (opt.cachePairs) {
                    // Paired A/B: identical config, cache on then
                    // force-disabled.  Routing neutrality makes
                    // delivered/hops a built-in cross-check.
                    const auto on =
                        runConfig(n_size, scheme, fault_links, opt);
                    const auto off =
                        runConfig(n_size, scheme, fault_links, opt,
                                  nullptr, false, 1, true);
                    if (on.delivered != off.delivered ||
                        on.hops != off.hops) {
                        std::cerr << "cached run diverged from "
                                     "uncached (routing-neutrality "
                                     "bug)\n";
                        return 1;
                    }
                    const double speedup =
                        off.cyclesPerSec > 0
                            ? on.cyclesPerSec / off.cyclesPerSec
                            : 0.0;
                    std::printf(
                        "%5u  %-13s %6zu  cache %12.0f  %12.0f  "
                        "no-cache: %12.0f  (x%.2f)\n",
                        on.netSize, routingSchemeName(on.scheme),
                        on.faultLinks, on.cyclesPerSec,
                        on.hopsPerSec, off.cyclesPerSec, speedup);
                    results.push_back(on);
                    results.push_back(off);
                    continue;
                }
                if (opt.shards != 0) {
                    // Paired A/B: identical config, serial then
                    // sharded.  Determinism makes delivered/hops a
                    // built-in cross-check between the rungs.
                    auto serial =
                        runConfig(n_size, scheme, fault_links, opt,
                                  nullptr, false, 1);
                    serial.shards = 1;
                    const auto sharded =
                        runConfig(n_size, scheme, fault_links, opt,
                                  nullptr, false, opt.shards);
                    if (serial.delivered != sharded.delivered ||
                        serial.hops != sharded.hops) {
                        std::cerr << "sharded run diverged from "
                                     "serial (determinism bug)\n";
                        return 1;
                    }
                    const double speedup =
                        serial.cyclesPerSec > 0
                            ? sharded.cyclesPerSec /
                                  serial.cyclesPerSec
                            : 0.0;
                    std::printf(
                        "%5u  %-13s %6zu  %5s %12.0f  %12.0f  "
                        "shards=%u: %12.0f  (x%.2f)\n",
                        serial.netSize,
                        routingSchemeName(serial.scheme),
                        serial.faultLinks,
                        serial.routeCache ? "on" : "off",
                        serial.cyclesPerSec, serial.hopsPerSec,
                        sharded.shards, sharded.cyclesPerSec,
                        speedup);
                    results.push_back(serial);
                    results.push_back(sharded);
                    continue;
                }
                if (opt.churnOverhead) {
                    auto off =
                        runConfig(n_size, scheme, fault_links, opt);
                    off.churnMode = "off";
                    auto on = runConfig(n_size, scheme, fault_links,
                                        opt, nullptr, true);
                    on.churnMode = "on";
                    const double pct =
                        off.cyclesPerSec > 0
                            ? 100.0 * (off.cyclesPerSec -
                                       on.cyclesPerSec) /
                                  off.cyclesPerSec
                            : 0.0;
                    std::printf(
                        "%5u  %-13s %6zu  %5s %12.0f  %12.0f  "
                        "churn on: %12.0f  (%+.1f%%)\n",
                        off.netSize, routingSchemeName(off.scheme),
                        off.faultLinks,
                        off.routeCache ? "on" : "off",
                        off.cyclesPerSec, off.hopsPerSec,
                        on.cyclesPerSec, pct);
                    results.push_back(off);
                    results.push_back(on);
                    continue;
                }
                const auto r =
                    runConfig(n_size, scheme, fault_links, opt);
                std::printf(
                    "%5u  %-13s %6zu  %5s %12.0f  %12.0f  %9llu  "
                    "%9llu\n",
                    r.netSize, routingSchemeName(r.scheme),
                    r.faultLinks, r.routeCache ? "on" : "off",
                    r.cyclesPerSec, r.hopsPerSec,
                    static_cast<unsigned long long>(r.stepP50Ns),
                    static_cast<unsigned long long>(r.stepP99Ns));
                results.push_back(r);
            }
        }
    }

    std::ofstream os(opt.out, std::ios::binary);
    if (!os) {
        std::cerr << "cannot write " << opt.out << "\n";
        return 1;
    }
    writeReport(os, opt, results);
    os.close();

    if (!reportIsSchemaValid(opt.out))
        return 1;
    std::cout << "report: " << opt.out << " (build_type="
              << iadm::bench::buildType() << ")\n";
    return 0;
}
