/**
 * @file
 * iadm_tool — command-line front end for the library.
 *
 *   iadm_tool diagram <N>
 *   iadm_tool route   <N> <src> <dst> [stage:from:kind ...]
 *                     [--repeat K]   (exercise the route cache)
 *   iadm_tool paths   <N> <src> <dst>
 *   iadm_tool census  <N>
 *   iadm_tool perm    <N> <identity|shift:K|bitrev|complement:M|
 *                          shuffle|exchange:K|transpose>
 *   iadm_tool sim     <N> <ssdt|ssdt-balanced|tsdt|distance-tag>
 *                     <rate> <cycles> [--trace FILE]
 *                     [--trace-bin FILE] [--stats]
 *   iadm_tool sweep   [--sizes 8,16] [--schemes ssdt,tsdt] ...
 *                     (deterministic parallel grid; see usage())
 *   iadm_tool trace   <src> <dst> [--n N] [--scheme ssdt|tsdt]
 *                     [--faults stage:from:kind,...]
 *                     [--export FILE] [--export-bin FILE]
 *                     (single-packet state-model replay)
 *   iadm_tool snapshot <trace.bin> <cycle>
 *                     (queue/state heatmaps from a binary trace)
 *
 * Blocked links are written stage:from:kind with kind one of
 * s (straight), p (+2^i), m (-2^i); e.g. "1:0:s 0:1:m".
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hpp"
#include "common/parse.hpp"
#include "core/distributed.hpp"
#include "core/oracle.hpp"
#include "core/pivot.hpp"
#include "core/reroute.hpp"
#include "obs/health.hpp"
#include "obs/inspector.hpp"
#include "obs/stats.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_sink.hpp"
#include "perm/multipass.hpp"
#include "serve/server.hpp"
#include "sim/network_sim.hpp"
#include "sim/route_cache.hpp"
#include "sim/sweep.hpp"
#include "subgraph/enumeration.hpp"
#include "topology/render.hpp"

namespace {

using namespace iadm;

void
printUsage(std::ostream &os)
{
    os
        << "usage:\n"
        << "  iadm_tool diagram <N>\n"
        << "  iadm_tool route  <N> <src> <dst> [stage:from:kind...]"
           " [--repeat K]\n"
        << "  iadm_tool paths  <N> <src> <dst>\n"
        << "  iadm_tool census <N>\n"
        << "  iadm_tool perm   <N> <spec>\n"
        << "  iadm_tool sim    <N> <scheme> <rate> <cycles>"
           " [--trace FILE] [--trace-bin FILE] [--stats]\n"
        << "                   [--scenario SPEC]\n"
        << "                   [--churn bernoulli:PF:PR|"
           "geometric:MTBF:MTTR|burst:IVL:DUR:SPAN]\n"
        << "                   [--max-age CYCLES] [--health]\n"
        << "  iadm_tool sweep  [--sizes 8,16] [--schemes "
           "ssdt,tsdt,...]\n"
        << "                   [--rates 0.1,0.3] [--caps 4]\n"
        << "                   [--faults none,links:4,...] "
           "[--scenario SPEC,...]\n"
        << "                   [--churn none,bernoulli:PF:PR,...] "
           "[--max-age CYCLES]\n"
        << "                   [--crossbar 0,1] [--replicates R]\n"
        << "                   [--warmup C] [--cycles C] [--seed S]\n"
        << "                   [--workers W] [--out FILE] "
           "[--no-timing]\n"
        << "                   [--stats] [--trace-dir DIR] "
           "[--health]\n"
        << "    SPEC (--traffic is an alias of --scenario) is the "
           "scenario grammar of\n"
        << "    docs/SIMULATOR.md: uniform | hotspot:N:F | bitrev | "
           "transpose | shift:K\n"
        << "    | dst:hotspot:0+5:0.3 | dst:perm:complement:M|shuffle|"
           "exchange:K\n"
        << "    | dst:adversarial | dst:mcast:G:F, composed with "
           "shape:bursty:B:I /\n"
        << "    shape:ramp:F0:F1:C / shape:closed:W, e.g. "
           "shape:bursty:16:64/dst:hotspot:0:0.2\n"
        << "  iadm_tool trace  <src> <dst> [--n N] "
           "[--scheme ssdt|tsdt]\n"
        << "                   [--faults stage:from:kind,...]\n"
        << "                   [--export FILE] [--export-bin FILE]\n"
        << "  iadm_tool snapshot <trace.bin> <cycle>\n"
        << "  iadm_tool serve  --net N --scheme S --socket PATH\n"
        << "                   [--faults SPEC] [--churn SPEC] "
           "[--no-batch]\n"
        << "                   [--cache-capacity C] [--tick-us U] "
           "[--seed S]\n"
        << "  iadm_tool --version\n";
}

int
usage()
{
    printUsage(std::cerr);
    return 2;
}

/**
 * Wrong-arity diagnostic: name the first missing argument instead of
 * dumping the whole usage block (ops hygiene — a typo'd script line
 * should say what is wrong, not scroll the terminal).  Always exit 2.
 */
int
missingArg(const char *cmd, const char *arg, const char *synopsis)
{
    std::cerr << "iadm_tool " << cmd << ": missing <" << arg
              << ">\n  usage: iadm_tool " << synopsis << "\n";
    return 2;
}

int
printVersion()
{
#ifdef IADM_TOOL_VERSION
    const char *version = IADM_TOOL_VERSION;
#else
    const char *version = "unknown";
#endif
#ifdef IADM_TOOL_BUILD_TYPE
    const char *build_type = IADM_TOOL_BUILD_TYPE;
#else
    const char *build_type = "unknown";
#endif
#ifdef IADM_SANITIZE_BUILD
    const bool sanitize = true;
#else
    const bool sanitize = false;
#endif
    std::cout << "iadm_tool " << version << " (build " << build_type
              << "; IADM_TRACE="
              << (obs::traceCompiledIn() ? "on" : "off")
              << "; IADM_SANITIZE=" << (sanitize ? "on" : "off")
              << ")\n";
    return 0;
}

/**
 * Parse a numeric argument into @p out with the strict parsers of
 * common/parse.hpp (std::from_chars over the whole value: atoi and
 * strtoull would read "-1" as 2^64 - 1, "8x" as 8 and "abc" as 0)
 * and require @p ok of the value.  Otherwise prints "<cmd>: <flag>
 * wants <want>, got '<val>'" and returns false; the caller exits 2.
 */
template <typename T, typename Ok>
bool
parseArg(const char *cmd, const std::string &flag,
         const std::string &val, const char *want, T &out, Ok ok)
{
    T v{};
    bool parsed = false;
    if constexpr (std::is_floating_point_v<T>)
        parsed = parseDouble(val, v);
    else
        parsed = parseUnsigned(val, v);
    if (!parsed || !ok(v)) {
        std::cerr << cmd << ": " << flag << " wants " << want
                  << ", got '" << val << "'\n";
        return false;
    }
    out = v;
    return true;
}

/** Cycle counts, seeds and the age cap take any unsigned value. */
bool
parseU64Arg(const char *cmd, const std::string &flag,
            const std::string &val, std::uint64_t &out)
{
    return parseArg(cmd, flag, val, "an integer >= 0", out,
                    [](std::uint64_t) { return true; });
}

/** Worker counts (--workers) and replicates. */
template <typename T>
bool
parseCount(const char *cmd, const std::string &flag,
           const std::string &val, T &out)
{
    return parseArg(cmd, flag, val, "an integer >= 1", out,
                    [](T v) { return v >= 1; });
}

/** Queue capacities: what the simulator's queue arena accepts. */
bool
parseQueueCapacity(const char *cmd, const std::string &flag,
                   const std::string &val, std::size_t &out)
{
    constexpr std::size_t kMax = sim::QueueArena::kMaxCapacity;
    static const std::string want =
        "an integer in [1, " + std::to_string(kMax) + "]";
    return parseArg(cmd, flag, val, want.c_str(), out,
                    [](std::size_t c) { return c >= 1 && c <= kMax; });
}

bool
parseRate(const char *cmd, const std::string &flag,
          const std::string &val, double &out)
{
    return parseArg(cmd, flag, val, "a rate in [0, 1]", out,
                    [](double r) { return r >= 0.0 && r <= 1.0; });
}

bool
parseNetSize(const char *cmd, const std::string &flag,
             const std::string &val, Label &out)
{
    return parseArg(cmd, flag, val, "a power of two >= 2", out,
                    [](Label n) { return n >= 2 && isPowerOfTwo(n); });
}

/**
 * Sizes the simulator, the daemon and the trace record take: packet
 * paths, trace tags and route-cache keys hold 16-bit labels, so
 * N <= 2^16.
 */
bool
parseSimNetSize(const char *cmd, const std::string &flag,
                const std::string &val, Label &out)
{
    constexpr Label kMax = Label{1} << sim::Packet::kMaxTracedStages;
    static const std::string want =
        "a power of two in [2, " + std::to_string(kMax) + "]";
    return parseArg(cmd, flag, val, want.c_str(), out, [](Label n) {
        return n >= 2 && n <= kMax && isPowerOfTwo(n);
    });
}

/** Switch labels: @p val must name one of N's switches. */
bool
parseSwitchLabel(const char *cmd, const std::string &flag,
                 const std::string &val, Label n_size, Label &out)
{
    const std::string want =
        "a switch label in [0, " + std::to_string(n_size - 1) + "]";
    return parseArg(cmd, flag, val, want.c_str(), out,
                    [n_size](Label v) { return v < n_size; });
}

bool
parseLink(const topo::IadmTopology &net, const std::string &spec,
          topo::Link &out)
{
    // Shared with the daemon's inject-fault handler.
    return serve::parseLinkSpec(net, spec, out);
}

int
cmdDiagram(Label n_size)
{
    const topo::IadmTopology net(n_size);
    std::cout << topo::asciiDiagram(net) << "\n"
              << topo::parityTable(net);
    return 0;
}

int
cmdRoute(Label n_size, Label s, Label d,
         const std::vector<std::string> &link_specs)
{
    const topo::IadmTopology net(n_size);
    fault::FaultSet faults;
    unsigned repeat = 1;
    for (std::size_t i = 0; i < link_specs.size(); ++i) {
        const auto &spec = link_specs[i];
        if (spec == "--repeat") {
            if (i + 1 >= link_specs.size()) {
                std::cerr << "--repeat needs a count\n";
                return 2;
            }
            if (!parseCount("route", spec, link_specs[++i], repeat))
                return 2;
            // The route cache's keys hold 16-bit labels.
            if (repeat > 1 && n_size > (Label{1} << 16)) {
                std::cerr << "route: --repeat needs N <= 65536, got "
                          << n_size << "\n";
                return 2;
            }
            continue;
        }
        topo::Link l{};
        if (!parseLink(net, spec, l)) {
            std::cerr << "bad link spec: " << spec << "\n";
            return 2;
        }
        faults.blockLink(l);
        std::cout << "blocked: " << l.str() << "\n";
    }
    const auto res = core::universalRoute(net, faults, s, d);
    if (repeat > 1) {
        // Resolve the same pair through the fault-epoch route cache
        // (what the routing daemon does per route request): a clear
        // initial path is taken every time and stores nothing; a
        // blocked one is computed by one miss and replayed after.
        sim::RouteCache cache(n_size);
        unsigned agree = 0;
        for (unsigned k = 0; k < repeat; ++k) {
            const auto [e, hit] =
                cache.resolveUniversal(net, faults, s, d);
            agree += e->ok() == res.ok &&
                     (!res.ok ||
                      e->tagFor(net.stages()) == res.tag);
        }
        std::cout << "cache: " << repeat << " resolutions -> "
                  << cache.stats().hits << " hit(s), "
                  << cache.stats().misses << " miss(es); "
                  << (cache.occupied() == 0
                          ? "initial path clear, nothing stored; "
                          : "")
                  << (agree == repeat ? "every replay matches REROUTE"
                                      : "REPLAY DIVERGED?!")
                  << "\n";
    }
    if (!res.ok) {
        std::cout << "UNROUTABLE: no blockage-free path exists "
                     "(verified: "
                  << (core::oracleReachable(net, faults, s, d)
                          ? "ORACLE DISAGREES?!"
                          : "oracle agrees")
                  << ")\n";
        return 1;
    }
    std::cout << "tag  : " << res.tag.str() << " (dest bits + state "
              << "bits, LSB first)\n";
    std::cout << "path : " << res.path.str() << "\n";
    std::cout << "cost : " << res.corollary41
              << " corollary-4.1 flips, " << res.backtracks
              << " BACKTRACK calls\n";
    const auto dyn = core::distributedRoute(net, faults, s,
                                            res.tag.destination());
    std::cout << "dynamic walk: " << dyn.forwardHops << " forward + "
              << dyn.backtrackHops << " backtrack hops, "
              << dyn.probes << " probes\n";
    if (!link_specs.empty()) {
        std::cout << "--- narration ---\n"
                  << core::explainReroute(net, faults, s, d);
    }
    return 0;
}

int
cmdPaths(Label n_size, Label s, Label d)
{
    const topo::IadmTopology net(n_size);
    const auto paths = core::oracleAllPaths(net, s, d);
    std::cout << paths.size() << " routing paths " << s << " -> "
              << d << ":\n";
    for (const auto &p : paths) {
        std::cout << "  tag " << core::tagForPath(p, net.stages()).str()
                  << " : " << p.str() << "\n";
    }
    const core::PivotInfo info(s, d, n_size);
    std::cout << "pivots:";
    for (unsigned i = 0; i <= net.stages(); ++i) {
        std::cout << " {";
        for (std::size_t k = 0; k < info.at(i).size(); ++k)
            std::cout << (k ? "," : "") << info.at(i)[k];
        std::cout << "}";
    }
    std::cout << "\n";
    return 0;
}

int
cmdCensus(Label n_size)
{
    const topo::IadmTopology net(n_size);
    std::cout << "distinct prefix families: "
              << subgraph::countDistinctPrefixFamilies(net) << "\n";
    std::cout << "Theorem 6.1 lower bound: N/2 * 2^N = "
              << ((static_cast<std::uint64_t>(n_size) / 2)
                  << n_size)
              << "\n";
    if (n_size <= 8) {
        const auto c = subgraph::exhaustiveCensus(net);
        std::cout << "exhaustive census: " << c.isoToICube
                  << " iso prefixes, total "
                  << c.totalWithLastStage << "\n";
    } else if (n_size <= 32) {
        const auto c = subgraph::smartCensus(net);
        std::cout << "smart census: " << c.involutionValid
                  << " involution-valid, " << c.isoToICube
                  << " iso prefixes (" << c.nonFamilyIso
                  << " outside the relabeling family), total "
                  << c.totalWithLastStage << "\n";
    }
    return 0;
}

int
cmdPerm(Label n_size, const std::string &spec)
{
    perm::Permutation p(n_size);
    const auto col = spec.find(':');
    const std::string name = spec.substr(0, col);
    // exchange:K names a dimension; shift and complement take any
    // offset or mask, reduced mod N.
    const unsigned dims = log2Floor(n_size);
    const std::string want =
        name == "exchange"
            ? "a dimension in [0, " + std::to_string(dims - 1) + "]"
            : std::string("an integer >= 0");
    Label arg = 0;
    if (col != std::string::npos &&
        !parseArg("perm", name + ":K", spec.substr(col + 1),
                  want.c_str(), arg, [&](Label k) {
                      return name != "exchange" || k < dims;
                  }))
        return 2;
    if (name == "identity")
        p = perm::Permutation(n_size);
    else if (name == "shift")
        p = perm::shiftPerm(n_size, arg % n_size);
    else if (name == "bitrev")
        p = perm::bitReversalPerm(n_size);
    else if (name == "complement")
        p = perm::bitComplementPerm(n_size, arg % n_size);
    else if (name == "shuffle")
        p = perm::perfectShufflePerm(n_size);
    else if (name == "exchange")
        p = perm::exchangePerm(n_size, arg);
    else if (name == "transpose")
        p = perm::transposePerm(n_size);
    else {
        std::cerr << "unknown permutation: " << name << "\n";
        return 2;
    }
    std::cout << "perm: " << p.str() << "\n";
    const auto offsets = perm::passingOffsets(p);
    if (offsets.empty()) {
        std::cout << "not passable in one pass; scheduling "
                     "waves...\n";
        const topo::IadmTopology net(n_size);
        const auto mp = perm::routeInPasses(net, p);
        std::cout << "passes: " << mp.passes() << "\n";
        for (std::size_t w = 0; w < mp.waves.size(); ++w)
            std::cout << "  wave " << w + 1 << ": "
                      << mp.waves[w].sources.size()
                      << " messages\n";
    } else {
        std::cout << "passable via " << offsets.size()
                  << " cube-subgraph offsets; first x="
                  << offsets.front() << "\n";
    }
    return 0;
}

/** Open @p path for writing, creating parent directories. */
std::ofstream
openOut(const std::string &path)
{
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent);
    return std::ofstream(path, std::ios::binary);
}

int
cmdSim(Label n_size, const std::string &scheme, double rate,
       sim::Cycle cycles, const std::vector<std::string> &extra)
{
    sim::SimConfig cfg;
    cfg.netSize = n_size;
    cfg.injectionRate = rate;
    if (const auto s = sim::parseRoutingScheme(scheme)) {
        cfg.scheme = *s;
    } else {
        std::cerr << "unknown scheme: " << scheme << "\n";
        return 2;
    }

    std::string trace_json, trace_bin;
    bool stats = false;
    bool health = false;
    sim::ChurnSpec churn;
    sim::ScenarioSpec traffic; // uniform unless --scenario/--traffic
    for (std::size_t i = 0; i < extra.size(); ++i) {
        if (extra[i] == "--stats") {
            stats = true;
        } else if (extra[i] == "--health") {
            health = true;
        } else if ((extra[i] == "--scenario" ||
                    extra[i] == "--traffic") &&
                   i + 1 < extra.size()) {
            const auto t = sim::ScenarioSpec::parse(extra[++i]);
            if (!t) {
                std::cerr << "sim: bad scenario spec: " << extra[i]
                          << "\n";
                return 2;
            }
            traffic = *t;
        } else if (extra[i] == "--trace" && i + 1 < extra.size()) {
            trace_json = extra[++i];
        } else if (extra[i] == "--trace-bin" &&
                   i + 1 < extra.size()) {
            trace_bin = extra[++i];
        } else if (extra[i] == "--churn" && i + 1 < extra.size()) {
            const auto c = sim::ChurnSpec::parse(extra[++i]);
            if (!c) {
                std::cerr << "sim: bad churn spec: " << extra[i]
                          << "\n";
                return 2;
            }
            churn = *c;
        } else if (extra[i] == "--max-age" && i + 1 < extra.size()) {
            if (!parseU64Arg("sim", extra[i], extra[i + 1],
                             cfg.maxPacketAge))
                return 2;
            ++i;
        } else {
            std::cerr << "sim: bad flag " << extra[i] << "\n";
            return 2;
        }
    }

    if (const auto err = traffic.validate(n_size)) {
        std::cerr << "sim: invalid scenario '" << traffic.name()
                  << "': " << *err << "\n";
        return 2;
    }
    sim::NetworkSim s(cfg, traffic.make(n_size));
    if (!(traffic == sim::ScenarioSpec{}))
        std::cout << "scenario: " << traffic.name() << "\n";
    if (churn.kind != sim::ChurnSpec::Kind::None) {
        const topo::IadmTopology net(n_size);
        s.addFaultProcess(
            churn.make(net, cfg.seed ^ 0xc402d5eed5ull));
        std::cout << "churn: " << churn.name() << "\n";
    }
    const bool want_trace = !trace_json.empty() || !trace_bin.empty();
    obs::TraceSink sink;
    if (want_trace) {
        if (!obs::traceCompiledIn())
            IADM_WARN("this build compiled without IADM_TRACE; "
                      "the exported trace will be empty");
        s.setTraceSink(&sink);
    }
    obs::HealthMonitor monitor;
    if (health)
        s.setHealthMonitor(&monitor);
    s.run(cycles);
    std::cout << s.metrics().summary(cycles) << "\n";
    std::cout << "p50/p90/p99 latency: "
              << s.metrics().latencyPercentile(0.5) << "/"
              << s.metrics().latencyPercentile(0.9) << "/"
              << s.metrics().latencyPercentile(0.99) << "\n";
    if (s.metrics().latencyCapped())
        std::cout << "(latency histogram capped at "
                  << sim::Metrics::latencyCap()
                  << " cycles; tail percentiles are lower bounds)\n";
    if (health) {
        const auto &rep = monitor.report();
        const auto ss = monitor.steadyState().analyze();
        std::cout << "health: "
                  << (rep.healthy() ? "healthy" : "UNHEALTHY")
                  << " (" << rep.scans << " scans, "
                  << rep.deadlocks << " deadlocks, "
                  << rep.progressViolations
                  << " progress violations, max head stall "
                  << rep.maxHeadStall << ", last progress @"
                  << rep.lastProgressCycle << ")\n";
        if (ss.stable)
            std::cout << "steady state: truncated "
                      << ss.truncatedWindows << "/" << ss.windows
                      << " windows; throughput "
                      << ss.steadyThroughput << " (whole-run "
                      << ss.wholeThroughput << "), avg latency "
                      << ss.steadyAvgLatency << " (whole-run "
                      << ss.wholeAvgLatency << ")\n";
        else
            std::cout << "steady state: run too short ("
                      << ss.windows << " windows; need "
                      << obs::SteadyStateTracker::kMinWindows
                      << ")\n";
    }

    if (want_trace) {
        const obs::TraceMeta meta{n_size, s.topology().stages(),
                                  scheme};
        if (!trace_json.empty()) {
            auto os = openOut(trace_json);
            if (!os) {
                std::cerr << "sim: cannot open " << trace_json
                          << "\n";
                return 1;
            }
            obs::writeChromeTrace(os, sink, meta);
            std::cerr << "wrote " << trace_json << " ("
                      << sink.size() << " events, "
                      << sink.droppedOldest()
                      << " evicted by ring wrap)\n";
        }
        if (!trace_bin.empty()) {
            auto os = openOut(trace_bin);
            if (!os) {
                std::cerr << "sim: cannot open " << trace_bin
                          << "\n";
                return 1;
            }
            obs::writeBinaryTrace(os, sink, meta);
            std::cerr << "wrote " << trace_bin << " ("
                      << sink.size() << " events)\n";
        }
    }
    if (stats) {
        obs::StatsRegistry reg;
        s.metrics().exportStats(reg, cycles);
        std::cout << reg.str();
    }
    return 0;
}

int
cmdTrace(const std::vector<std::string> &args)
{
    if (args.size() < 2)
        return usage();
    // Checked against N once --n is known.
    Label src = 0, dst = 0;
    const auto any = [](Label) { return true; };
    if (!parseArg("trace", "<src>", args[0], "a switch label", src,
                  any) ||
        !parseArg("trace", "<dst>", args[1], "a switch label", dst,
                  any))
        return 2;
    Label n_size = 16;
    auto scheme = obs::ReplayScheme::Tsdt;
    std::vector<std::string> fault_specs;
    std::string export_json, export_bin;
    for (std::size_t i = 2; i < args.size(); ++i) {
        const std::string &flag = args[i];
        if (i + 1 >= args.size()) {
            std::cerr << "trace: " << flag << " requires a value\n";
            return 2;
        }
        const std::string val = args[++i];
        if (flag == "--n") {
            if (!parseSimNetSize("trace", flag, val, n_size))
                return 2;
        } else if (flag == "--scheme") {
            if (val == "ssdt")
                scheme = obs::ReplayScheme::Ssdt;
            else if (val == "tsdt")
                scheme = obs::ReplayScheme::Tsdt;
            else {
                std::cerr << "trace: scheme must be ssdt or tsdt\n";
                return 2;
            }
        } else if (flag == "--faults") {
            for (const auto &f : splitOn(val, ','))
                fault_specs.push_back(f);
        } else if (flag == "--export") {
            export_json = val;
        } else if (flag == "--export-bin") {
            export_bin = val;
        } else {
            std::cerr << "trace: unknown flag " << flag << "\n";
            return 2;
        }
    }
    if (src >= n_size || dst >= n_size) {
        std::cerr << "trace: src/dst must be < N (" << n_size
                  << "); pass --n for larger networks\n";
        return 2;
    }

    const topo::IadmTopology net(n_size);
    fault::FaultSet faults;
    for (const auto &spec : fault_specs) {
        topo::Link l{};
        if (!parseLink(net, spec, l)) {
            std::cerr << "trace: bad link spec: " << spec << "\n";
            return 2;
        }
        faults.blockLink(l);
        std::cout << "blocked: " << l.str() << "\n";
    }

    obs::TraceSink sink(std::size_t{1} << 12);
    const auto r =
        obs::replayRoute(net, faults, src, dst, scheme, &sink);
    std::cout << obs::printReplay(r);

    const obs::TraceMeta meta{n_size, net.stages(),
                              obs::replaySchemeName(scheme)};
    if (!export_json.empty()) {
        auto os = openOut(export_json);
        if (!os) {
            std::cerr << "trace: cannot open " << export_json << "\n";
            return 1;
        }
        obs::writeChromeTrace(os, sink, meta);
        std::cerr << "wrote " << export_json << "\n";
    }
    if (!export_bin.empty()) {
        auto os = openOut(export_bin);
        if (!os) {
            std::cerr << "trace: cannot open " << export_bin << "\n";
            return 1;
        }
        obs::writeBinaryTrace(os, sink, meta);
        std::cerr << "wrote " << export_bin << "\n";
    }
    return r.delivered ? 0 : 1;
}

int
cmdSnapshot(const std::string &path, std::uint64_t cycle)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        std::cerr << "snapshot: cannot open " << path << "\n";
        return 1;
    }
    const auto trace = obs::readBinaryTrace(is);
    if (!trace) {
        std::cerr << "snapshot: " << path
                  << " is not an iadm binary trace\n";
        return 1;
    }
    std::cout << obs::printSnapshot(
        obs::queueSnapshot(*trace, cycle));
    return 0;
}

int
cmdSweep(const std::vector<std::string> &args)
{
    sim::SweepGrid grid;
    grid.measureCycles = 1000;
    grid.warmupCycles = 200;
    unsigned workers = 1;
    std::string out_path, trace_dir;
    bool timing = true;
    bool stats = false;
    bool health = false;

    const auto bad = [](const std::string &what,
                        const std::string &v) {
        std::cerr << "sweep: bad " << what << ": " << v << "\n";
        return 2;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        if (flag == "--no-timing") {
            timing = false;
            continue;
        }
        if (flag == "--stats") {
            stats = true;
            continue;
        }
        if (flag == "--health") {
            health = true;
            continue;
        }
        if (i + 1 >= args.size()) {
            std::cerr << "sweep: " << flag
                      << " requires a value\n";
            return 2;
        }
        const std::string val = args[++i];
        if (flag == "--sizes") {
            grid.netSizes.clear();
            for (const auto &v : splitOn(val, ',')) {
                Label n = 0;
                if (!parseSimNetSize("sweep", flag, v, n))
                    return 2;
                grid.netSizes.push_back(n);
            }
        } else if (flag == "--schemes") {
            grid.schemes.clear();
            for (const auto &v : splitOn(val, ',')) {
                const auto s = sim::parseRoutingScheme(v);
                if (!s)
                    return bad("scheme", v);
                grid.schemes.push_back(*s);
            }
        } else if (flag == "--rates") {
            grid.injectionRates.clear();
            for (const auto &v : splitOn(val, ',')) {
                double r = 0;
                if (!parseRate("sweep", flag, v, r))
                    return 2;
                grid.injectionRates.push_back(r);
            }
        } else if (flag == "--caps") {
            grid.queueCapacities.clear();
            for (const auto &v : splitOn(val, ',')) {
                std::size_t c = 0;
                if (!parseQueueCapacity("sweep", flag, v, c))
                    return 2;
                grid.queueCapacities.push_back(c);
            }
        } else if (flag == "--faults") {
            grid.faults.clear();
            for (const auto &v : splitOn(val, ',')) {
                const auto f = sim::FaultScenario::parse(v);
                if (!f)
                    return bad("fault scenario", v);
                grid.faults.push_back(*f);
            }
        } else if (flag == "--traffic" || flag == "--scenario") {
            // Same axis, two spellings: --scenario reads better for
            // composed specs.  Commas separate axis values, so
            // multi-node hotspot lists use '+' (dst:hotspot:0+5:0.3).
            grid.traffics.clear();
            for (const auto &v : splitOn(val, ',')) {
                const auto t = sim::ScenarioSpec::parse(v);
                if (!t)
                    return bad("traffic spec", v);
                grid.traffics.push_back(*t);
            }
        } else if (flag == "--churn") {
            grid.churns.clear();
            for (const auto &v : splitOn(val, ',')) {
                const auto c = sim::ChurnSpec::parse(v);
                if (!c)
                    return bad("churn spec", v);
                grid.churns.push_back(*c);
            }
        } else if (flag == "--max-age") {
            if (!parseU64Arg("sweep", flag, val, grid.maxPacketAge))
                return 2;
        } else if (flag == "--crossbar") {
            grid.crossbarModes.clear();
            for (const auto &v : splitOn(val, ',')) {
                unsigned b = 0;
                if (!parseArg("sweep", flag, v, "0 or 1", b,
                              [](unsigned x) { return x <= 1; }))
                    return 2;
                grid.crossbarModes.push_back(b == 1);
            }
        } else if (flag == "--replicates") {
            if (!parseCount("sweep", flag, val, grid.replicates))
                return 2;
        } else if (flag == "--warmup") {
            if (!parseU64Arg("sweep", flag, val, grid.warmupCycles))
                return 2;
        } else if (flag == "--cycles") {
            if (!parseU64Arg("sweep", flag, val, grid.measureCycles))
                return 2;
        } else if (flag == "--seed") {
            if (!parseU64Arg("sweep", flag, val, grid.masterSeed))
                return 2;
        } else if (flag == "--workers") {
            if (!parseCount("sweep", flag, val, workers))
                return 2;
        } else if (flag == "--out") {
            out_path = val;
        } else if (flag == "--trace-dir") {
            trace_dir = val;
        } else {
            std::cerr << "sweep: unknown flag " << flag << "\n";
            return 2;
        }
    }

    // N-dependent spec checks: every traffic and fault axis value
    // must be valid at every swept size (hotspot node < N, transpose
    // bits, no more faults than N has links or switches, ...).
    for (const Label n : grid.netSizes) {
        for (const auto &t : grid.traffics) {
            if (const auto err = t.validate(n)) {
                std::cerr << "sweep: invalid traffic spec '"
                          << t.name() << "': " << *err << "\n";
                return 2;
            }
        }
        for (const auto &f : grid.faults) {
            if (const auto err = f.validate(n)) {
                std::cerr << "sweep: invalid " << *err << "\n";
                return 2;
            }
        }
    }

    const bool progress = !out_path.empty();
    sim::SweepOptions opts;
    opts.workers = workers;
    opts.health = health;
    if (!trace_dir.empty()) {
        if (!obs::traceCompiledIn())
            IADM_WARN("this build compiled without IADM_TRACE; "
                      "--trace-dir will write empty traces");
        std::filesystem::create_directories(trace_dir);
        opts.traceCapacity = obs::TraceSink::kDefaultCapacity;
        opts.onReplicateTrace =
            [&trace_dir](const sim::SweepCell &cell, unsigned rep,
                         const obs::TraceSink &sink,
                         const sim::NetworkSim &s) {
                // Per-replicate file names are unique, so worker
                // threads never contend.
                const auto path =
                    std::filesystem::path(trace_dir) /
                    ("cell" + std::to_string(cell.cellIndex) +
                     "_rep" + std::to_string(rep) + ".json");
                std::ofstream os(path, std::ios::binary);
                if (!os)
                    return;
                const obs::TraceMeta meta{
                    cell.netSize, s.topology().stages(),
                    sim::routingSchemeName(cell.scheme)};
                obs::writeChromeTrace(os, sink, meta);
            };
    }
    if (progress) {
        opts.onCellDone = [](const sim::CellResult &r,
                             std::size_t done, std::size_t total) {
            std::cerr << "[" << done << "/" << total << "] N="
                      << r.cell.netSize << " "
                      << sim::routingSchemeName(r.cell.scheme)
                      << " rate=" << r.cell.injectionRate
                      << " faults=" << r.cell.fault.name();
            if (r.cell.churn.kind != sim::ChurnSpec::Kind::None)
                std::cerr << " churn=" << r.cell.churn.name();
            std::cerr << "\n";
        };
    }

    const auto t0 = std::chrono::steady_clock::now();
    const auto results = sim::runSweep(grid, opts);
    const auto t1 = std::chrono::steady_clock::now();

    sim::ReportOptions ropts;
    ropts.includeWallClock = timing;
    ropts.elapsedMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    ropts.includeStats = stats;

    if (out_path.empty()) {
        sim::writeSweepReport(std::cout, grid, results, ropts);
    } else {
        const auto parent =
            std::filesystem::path(out_path).parent_path();
        if (!parent.empty())
            std::filesystem::create_directories(parent);
        std::ofstream os(out_path);
        if (!os) {
            std::cerr << "sweep: cannot open " << out_path << "\n";
            return 1;
        }
        sim::writeSweepReport(os, grid, results, ropts);
        std::cerr << "wrote " << out_path << " ("
                  << results.size() << " cells x "
                  << grid.replicates << " replicates, "
                  << ropts.elapsedMs << " ms)\n";
    }
    return 0;
}

int
cmdServe(const std::vector<std::string> &args)
{
    serve::ServeConfig cfg;
    std::string socket_path, fault_spec;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        if (flag == "--no-batch") {
            cfg.batching = false;
            continue;
        }
        if (i + 1 >= args.size()) {
            std::cerr << "serve: " << flag << " requires a value\n";
            return 2;
        }
        const std::string val = args[++i];
        if (flag == "--net") {
            if (!parseSimNetSize("serve", flag, val, cfg.netSize))
                return 2;
        } else if (flag == "--scheme") {
            const auto s = sim::parseRoutingScheme(val);
            if (!s) {
                std::cerr << "serve: unknown scheme " << val << "\n";
                return 2;
            }
            cfg.scheme = *s;
        } else if (flag == "--socket") {
            socket_path = val;
        } else if (flag == "--faults") {
            fault_spec = val;
        } else if (flag == "--churn") {
            const auto c = sim::ChurnSpec::parse(val);
            if (!c) {
                std::cerr << "serve: bad churn spec: " << val
                          << "\n";
                return 2;
            }
            cfg.churn = *c;
        } else if (flag == "--cache-capacity") {
            // 0 picks RouteCache::autoCapacity().
            constexpr std::size_t kMax = sim::RouteCache::kMaxCapacity;
            static const std::string want =
                "an integer in [0, " + std::to_string(kMax) + "]";
            if (!parseArg("serve", flag, val, want.c_str(),
                          cfg.cacheCapacity,
                          [](std::size_t c) { return c <= kMax; }))
                return 2;
        } else if (flag == "--tick-us") {
            if (!parseCount("serve", flag, val, cfg.tickUs))
                return 2;
        } else if (flag == "--seed") {
            if (!parseU64Arg("serve", flag, val, cfg.seed))
                return 2;
        } else {
            std::cerr << "serve: unknown flag " << flag << "\n";
            return 2;
        }
    }
    if (socket_path.empty()) {
        std::cerr << "serve: --socket PATH is required\n";
        return 2;
    }

    const topo::IadmTopology net(cfg.netSize);
    fault::FaultSet faults;
    std::string err;
    if (!serve::ServerCore::parseFaultArg(net, fault_spec, cfg.seed,
                                          faults, err)) {
        std::cerr << "serve: " << err << "\n";
        return 2;
    }

    serve::ServerCore core(cfg, std::move(faults));
    serve::RouteServer server(core, socket_path);
    if (!server.start(&err)) {
        std::cerr << "serve: " << err << "\n";
        return 1;
    }
    std::cerr << "iadm_tool serve: N=" << cfg.netSize << " scheme="
              << sim::routingSchemeName(cfg.scheme) << " listening on "
              << socket_path
              << (cfg.batching ? " (batched)" : " (unbatched)")
              << "\n";
    serve::ChurnTicker ticker(core);
    serve::HealthWatchdog watchdog(core);
    server.run();
    const auto st = core.statsSnapshot();
    std::cerr << "iadm_tool serve: served " << st.requests
              << " request(s) in " << st.batches
              << " batch(es), max batch " << st.maxBatch
              << ", epoch " << core.epoch() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "--version" || cmd == "-V")
        return printVersion();
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        printUsage(std::cout);
        return 0;
    }
    if (cmd == "sweep")
        return cmdSweep(
            std::vector<std::string>(argv + 2, argv + argc));
    if (cmd == "serve")
        return cmdServe(
            std::vector<std::string>(argv + 2, argv + argc));
    // trace/snapshot take non-N positionals (src / file path), so
    // dispatch them before the power-of-two check below.
    if (cmd == "trace") {
        if (argc < 3)
            return missingArg("trace", "src",
                              "trace <src> <dst> [--n N] ...");
        if (argc < 4)
            return missingArg("trace", "dst",
                              "trace <src> <dst> [--n N] ...");
        return cmdTrace(
            std::vector<std::string>(argv + 2, argv + argc));
    }
    if (cmd == "snapshot") {
        if (argc < 3)
            return missingArg("snapshot", "trace.bin",
                              "snapshot <trace.bin> <cycle>");
        if (argc < 4)
            return missingArg("snapshot", "cycle",
                              "snapshot <trace.bin> <cycle>");
        std::uint64_t cycle = 0;
        if (!parseU64Arg("snapshot", "<cycle>", argv[3], cycle))
            return 2;
        return cmdSnapshot(argv[2], cycle);
    }

    const bool known_n_cmd = cmd == "diagram" || cmd == "route" ||
                             cmd == "paths" || cmd == "census" ||
                             cmd == "perm" || cmd == "sim";
    if (!known_n_cmd) {
        std::cerr << "iadm_tool: unknown command '" << cmd
                  << "' (run 'iadm_tool --help' for usage)\n";
        return 2;
    }
    if (argc < 3)
        return missingArg(cmd.c_str(), "N",
                          (cmd + " <N> ...").c_str());
    Label n_size = 0;
    if (!(cmd == "sim" ? parseSimNetSize : parseNetSize)(
            cmd.c_str(), "<N>", argv[2], n_size))
        return 2;
    if (cmd == "diagram")
        return cmdDiagram(n_size);
    if (cmd == "route" || cmd == "paths") {
        const char *synopsis =
            cmd == "route"
                ? "route <N> <src> <dst> [stage:from:kind...]"
                  " [--repeat K]"
                : "paths <N> <src> <dst>";
        if (argc < 4)
            return missingArg(cmd.c_str(), "src", synopsis);
        if (argc < 5)
            return missingArg(cmd.c_str(), "dst", synopsis);
        Label src = 0, dst = 0;
        if (!parseSwitchLabel(cmd.c_str(), "<src>", argv[3], n_size,
                              src) ||
            !parseSwitchLabel(cmd.c_str(), "<dst>", argv[4], n_size,
                              dst))
            return 2;
        if (cmd == "paths")
            return cmdPaths(n_size, src, dst);
        std::vector<std::string> specs(argv + 5, argv + argc);
        return cmdRoute(n_size, src, dst, specs);
    }
    if (cmd == "census")
        return cmdCensus(n_size);
    if (cmd == "perm") {
        if (argc < 4)
            return missingArg("perm", "spec", "perm <N> <spec>");
        return cmdPerm(n_size, argv[3]);
    }
    // sim
    const char *sim_synopsis =
        "sim <N> <scheme> <rate> <cycles> [flags...]";
    if (argc < 4)
        return missingArg("sim", "scheme", sim_synopsis);
    if (argc < 5)
        return missingArg("sim", "rate", sim_synopsis);
    if (argc < 6)
        return missingArg("sim", "cycles", sim_synopsis);
    double rate = 0;
    sim::Cycle cycles = 0;
    if (!parseRate("sim", "<rate>", argv[4], rate) ||
        !parseU64Arg("sim", "<cycles>", argv[5], cycles))
        return 2;
    return cmdSim(n_size, argv[3], rate, cycles,
                  std::vector<std::string>(argv + 6, argv + argc));
}
