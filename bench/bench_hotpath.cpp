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
 *                 [--faults K] [--traffic SPEC] [--out FILE]
 *                 [--pair KNOB=A,B]
 *
 * --pair runs every configuration twice, A then B, as a paired A/B
 * that differs in one knob, each value on or off:
 *   trace   an event-trace sink attached (both rungs of a pair share
 *           one sink allocation, so "on" measures recording, not
 *           first-touch page faults);
 *   health  a HealthMonitor watching the measured cycles;
 *   churn   a geometric MTBF/MTTR fault process attached.
 * Each rung carries a "pair" field, "KNOB=value", and the console
 * prints the B/A cycles/sec ratio.  Every knob but churn must leave routing alone,
 * so the binary exits 1 when a pair's delivered or hops differ.
 * A = B is the A/A noise-floor run (docs/PERF.md "Comparing runs").
 * The trace pair is also how the <=2% disabled-hook budget is
 * measured: compare a trace=off rung of an IADM_TRACE build against
 * a plain run of a trace-off build.
 *
 * --net-size 0 (default) runs the full {64, 256, 1024} ladder; a
 * specific size runs only that one (the perf-smoke ctest uses
 * --cycles 2000 --net-size 64).  By default every (size, scheme)
 * pair runs twice — fault-free and with 6 * (N / 64) random static
 * link blockages — so the faulted injection path (REROUTE's clear
 * scan, and its kernel for blocked pairs) is always on the perf
 * trajectory; --faults K pins a single blockage count instead.
 * --traffic takes any scenario spec (sim/scenario.hpp, e.g.
 * "transpose" or "shape:bursty:16:64/dst:hotspot:0:0.2"), validated
 * at every N before anything runs; given more than once, the ladder
 * runs once per spec.  Each config's "traffic" field is its spec's
 * canonical name, and the report's top-level "traffic" field lists
 * them all, comma-separated.  The binary re-reads and schema-checks
 * its own report before exiting, so a malformed document fails the
 * run.
 *
 * Every rung caps packet age at 500 cycles (SimConfig::maxPacketAge,
 * the cap of the repository benchmark's sims and sweep-grid): heads
 * stalled behind a fault they cannot route around would otherwise
 * wedge a faulted ssdt or distance-tag network during warm-up, and
 * the rung would time a scan over a frozen network.  A rung that
 * still delivers nothing exits 1 naming the rung (the wedge guard).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/json_writer.hpp"
#include "common/parse.hpp"
#include "obs/health.hpp"
#include "obs/trace_sink.hpp"
#include "sim/network_sim.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace iadm;
using namespace iadm::sim;
using Clock = std::chrono::steady_clock;

/** What a --pair run changes between its two rungs. */
enum class Knob
{
    None, //!< no --pair: one plain rung per configuration
    Trace,
    Health,
    Churn,
};

constexpr std::pair<const char *, Knob> kKnobs[] = {
    {"trace", Knob::Trace}, {"health", Knob::Health},
    {"churn", Knob::Churn}};

const char *
knobName(Knob k)
{
    for (const auto &[name, knob] : kKnobs)
        if (knob == k)
            return name;
    return "";
}

struct Options
{
    Cycle cycles = 8000;
    Label netSize = 0; //!< 0 = the full {64, 256, 1024} ladder
    double rate = 0.35;
    /** Pinned blockage count; unset = ladder default {0, 6 * N / 64}. */
    std::optional<std::size_t> faults;
    Knob knob = Knob::None;
    /** The A and B values: true for on. */
    bool pair[2] = {false, false};
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
    double elapsedSec;
    double cyclesPerSec;
    double hopsPerSec;
    std::uint64_t stepP50Ns;
    std::uint64_t stepP99Ns;
    std::uint64_t delivered;
    std::uint64_t hops;
    std::uint64_t cacheHits;
    std::uint64_t cacheMisses;
    std::string pair; //!< "KNOB=value" on paired rungs, else empty
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

/** One rung, with opt.knob (if any) switched @p on or off. */
ConfigResult
runConfig(Label n_size, RoutingScheme scheme, std::size_t fault_links,
          const Options &opt, bool on)
{
    SimConfig cfg;
    cfg.netSize = n_size;
    cfg.scheme = scheme;
    cfg.injectionRate = opt.rate;
    cfg.seed = 97;
    cfg.maxPacketAge = 500;

    // Static random-link blockages, deterministically derived from
    // (N, count) so reruns and both rungs of a pair see identical
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
    if (opt.knob == Knob::Trace && on) {
        static obs::TraceSink sink;
        sink.clear();
        s.setTraceSink(&sink);
    }
    if (opt.knob == Knob::Churn && on)
        // Mild, size-independent churn: enough transitions to keep
        // the epoch machinery hot without drowning the routing work.
        s.addFaultProcess(std::make_unique<fault::GeometricChurn>(
            s.topology(), 2000.0, 200.0, 0xbe11));

    s.run(opt.cycles / 10); // warm the queues into steady state
    s.resetMetrics();
    obs::HealthMonitor monitor; // must outlive the stepped loop
    if (opt.knob == Knob::Health && on)
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
    if (opt.knob != Knob::None)
        r.pair = std::string(knobName(opt.knob)) + '=' +
                 (on ? "on" : "off");
    return r;
}

/** The wedge guard: false, naming the rung, if @p r delivered none. */
bool
delivers(const ConfigResult &r)
{
    if (r.delivered != 0)
        return true;
    std::cerr << "bench_hotpath: rung N=" << r.netSize << " "
              << routingSchemeName(r.scheme) << " faults=" << r.faultLinks
              << " traffic=" << r.traffic
              << (r.pair.empty() ? "" : " " + r.pair)
              << " delivered no packet in " << r.cycles
              << " measured cycles: the network is wedged\n";
    return false;
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
        if (!r.pair.empty()) {
            w.key("pair");
            w.value(r.pair);
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
          "\"route_cache_hits\"", "\"route_cache_misses\""}) {
        if (doc.find(needle) == std::string::npos) {
            std::cerr << "schema check failed: missing " << needle
                      << " in " << path << "\n";
            return false;
        }
    }
    return true;
}

/** "KNOB=A,B" into opt.knob and opt.pair; false if malformed. */
bool
parsePair(const std::string &spec, Options &opt)
{
    const auto eq = spec.find('=');
    if (eq == std::string::npos)
        return false;
    for (const auto &[name, knob] : kKnobs)
        if (spec.compare(0, eq, name) == 0)
            opt.knob = knob;
    const auto values = splitOn(spec.substr(eq + 1), ',');
    if (opt.knob == Knob::None || values.size() != 2)
        return false;
    for (std::size_t k = 0; k < 2; ++k) {
        if (values[k] != "on" && values[k] != "off")
            return false;
        opt.pair[k] = values[k] == "on";
    }
    return true;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    // Every flag takes a value; numbers parse strictly.
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const std::string v = i + 1 < argc ? argv[++i] : "";
        bool ok = true;
        if (flag == "--cycles") {
            ok = parseUnsigned(v, opt.cycles);
        } else if (flag == "--net-size") {
            ok = parseUnsigned(v, opt.netSize);
        } else if (flag == "--rate") {
            ok = parseDouble(v, opt.rate);
        } else if (flag == "--faults") {
            ok = parseUnsigned(v, opt.faults.emplace());
        } else if (flag == "--pair") {
            if (opt.knob != Knob::None) {
                std::cerr << "bench_hotpath: --pair given twice\n";
                return false;
            }
            ok = parsePair(v, opt);
        } else if (flag == "--traffic") {
            const auto spec = ScenarioSpec::parse(v);
            ok = spec.has_value();
            if (ok)
                opt.traffics.push_back(*spec);
        } else if (flag == "--out") {
            opt.out = v;
            ok = !v.empty();
        } else {
            std::cerr << "bench_hotpath: unknown flag " << flag << "\n";
            return false;
        }
        if (!ok) {
            std::cerr << "bench_hotpath: bad value for " << flag
                      << ": '" << v << "'\n";
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
                     "[--traffic SPEC] [--out FILE] [--pair KNOB=A,B]\n"
                     "  KNOB is trace, health or churn; "
                     "A, B are on or off\n";
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
    std::cout << "  N  scheme         faults   cycles/sec"
                 "      hops/sec"
              << (opt.knob == Knob::None ? "    p50(ns)    p99(ns)\n"
                                         : "  B: cycles/sec  (B/A)\n");
    // One size ladder per traffic spec.
    for (std::size_t k = 0; k < opt.traffics.size() * sizes.size(); ++k) {
        opt.traffic = opt.traffics[k / sizes.size()];
        const Label n_size = sizes[k % sizes.size()];
        // Default ladder: fault-free plus a size-proportional
        // faulted row (6 blockages per 64 nodes); --faults K pins
        // one row.
        const std::vector<std::size_t> fault_counts =
            opt.faults ? std::vector<std::size_t>{*opt.faults}
                       : std::vector<std::size_t>{0, 6 * (n_size / 64)};
        for (const std::size_t fault_links : fault_counts) {
            for (const RoutingScheme scheme : schemes) {
                const auto a = runConfig(n_size, scheme, fault_links,
                                         opt, opt.pair[0]);
                if (!delivers(a))
                    return 1;
                results.push_back(a);
                if (opt.knob == Knob::None) {
                    std::printf(
                        "%5u  %-13s %6zu %12.0f  %12.0f  %9llu  "
                        "%9llu\n",
                        a.netSize, routingSchemeName(a.scheme),
                        a.faultLinks, a.cyclesPerSec, a.hopsPerSec,
                        static_cast<unsigned long long>(a.stepP50Ns),
                        static_cast<unsigned long long>(a.stepP99Ns));
                    continue;
                }
                const auto b = runConfig(n_size, scheme, fault_links,
                                         opt, opt.pair[1]);
                if (!delivers(b))
                    return 1;
                results.push_back(b);
                std::printf(
                    "%5u  %-13s %6zu %12.0f  %12.0f  "
                    "%s: %12.0f  (B/A x%.3f)\n",
                    a.netSize, routingSchemeName(a.scheme),
                    a.faultLinks, a.cyclesPerSec, a.hopsPerSec,
                    b.pair.c_str(),
                    b.cyclesPerSec,
                    a.cyclesPerSec > 0 ? b.cyclesPerSec / a.cyclesPerSec
                                       : 0.0);
                // Churn changes the fault map on purpose; every
                // other knob must leave each routing decision alone.
                if (opt.knob != Knob::Churn &&
                    (a.delivered != b.delivered || a.hops != b.hops)) {
                    std::cerr << "bench_hotpath: " << a.pair << " and "
                              << b.pair << " diverged (delivered "
                              << a.delivered << " vs " << b.delivered
                              << ", hops " << a.hops << " vs "
                              << b.hops << "): the knob changed "
                              << "routing\n";
                    return 1;
                }
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
