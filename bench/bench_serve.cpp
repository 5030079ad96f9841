/**
 * @file
 * Throughput/latency benchmark for the route-serving daemon.
 *
 * Spins up an in-process RouteServer (real Unix-domain socket, real
 * poll loop — the same bytes a production client would see) and
 * drives it with a windowed pipelining client: up to --window
 * requests in flight, sent in small bursts, responses matched back
 * to their send timestamps in connection order.  Every
 * configuration runs twice — batched (the acceptor drains
 * everything readable into one epoch-pinned batch) and one-at-a-
 * time (--no-batch semantics) — and the report records sustained
 * qps and p50/p99 latency for both plus the speedup ratio.
 *
 * Request mixes are seed-derived and replayable:
 *   uniform  src, dst ~ U[0, N)
 *   perm     dst = bitrev(src) (an admissible permutation load)
 *   hotspot  20% of destinations pinned to node 0
 *   any other --mix string parses as a traffic scenario
 *   (docs/SIMULATOR.md grammar), sharing workload definitions with
 *   iadm_tool sweep --scenario
 * --save-log FILE writes the generated request lines so a run can
 * be replayed byte-for-byte later with --replay FILE (the log is
 * the wire format itself, one request per line).
 *
 * Correctness is checked inside the bench, not just measured:
 * batched and unbatched response streams must be byte-identical,
 * and for the tsdt scheme every response is additionally compared
 * against a line rebuilt from a direct universalRouteCompact()
 * call (the serve path may add caching, batching and sockets —
 * never different answers).  Any mismatch fails the run.
 *
 * Default ladder (no flags): N=1024, links:96 static faults,
 * tsdt x {uniform, perm, hotspot} at 200k requests, then the other
 * four schemes x uniform at 20k.  The perf_smoke_serve ctest runs
 * --net 64 --faults links:6 --requests 2000 --mix uniform.
 *
 * Results land in an iadm-bench-serve-v1 JSON document (default
 * BENCH_serve.json) tagged with the build type; the binary
 * re-reads and schema-checks its own report before exiting.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "common/json_writer.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "core/reroute.hpp"
#include "serve/server.hpp"
#include "serve/server_core.hpp"
#include "serve/wire.hpp"
#include "sim/network_sim.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace iadm;
using Clock = std::chrono::steady_clock;

struct Options
{
    Label netSize = 1024;
    std::string faults = "links:96";
    std::string mix = "all"; //!< uniform|perm|hotspot|all
    std::string scheme;      //!< empty = the default scheme ladder
    std::size_t requests = 200000;
    std::size_t window = 256;
    std::size_t burst = 32;
    unsigned warmupPasses = 1; //!< untimed replays before measuring
    std::uint64_t seed = 7;
    std::string replay;  //!< request-log file to replay
    std::string saveLog; //!< write the generated log here
    std::string out = "BENCH_serve.json";
    bool ladder = true;  //!< false once --scheme/--mix pin a config
};

Label
bitrev(Label v, unsigned n)
{
    Label r = 0;
    for (unsigned i = 0; i < n; ++i)
        r |= ((v >> i) & 1u) << (n - 1 - i);
    return r;
}

/**
 * Generate one mix's request lines (ids 1..q, wire format).  The
 * three legacy mixes ("uniform", "perm", "hotspot") keep their
 * historical draw streams byte-for-byte; any other string is parsed
 * as a traffic scenario (sim/scenario.hpp), so the serving bench
 * replays the same workloads the simulator sweeps —
 * e.g. --mix shape:bursty:16:64/dst:hotspot:0:0.2.  Shaper gates
 * thin the request stream: a source whose gate is closed does not
 * issue, and the generator redraws (bounded) until an open source
 * comes up, so exactly q requests always emerge.
 */
std::vector<std::string>
makeMix(const std::string &mix, Label n_size, std::size_t q,
        std::uint64_t seed)
{
    const unsigned n = topo::IadmTopology(n_size).stages();
    Rng rng(seed ^ 0xbe7c4a11ull);
    const bool legacy =
        mix == "uniform" || mix == "perm" || mix == "hotspot";
    std::unique_ptr<sim::TrafficPattern> pattern;
    if (!legacy) {
        const auto spec = sim::ScenarioSpec::parse(mix);
        if (!spec) {
            std::cerr << "bad mix / scenario spec: " << mix << "\n";
            std::exit(2);
        }
        if (const auto err = spec->validate(n_size)) {
            std::cerr << "invalid mix '" << mix << "': " << *err
                      << "\n";
            std::exit(2);
        }
        pattern = spec->make(n_size);
    }
    const bool gated = pattern && pattern->gated();
    std::vector<std::string> lines;
    lines.reserve(q);
    for (std::size_t i = 0; i < q; ++i) {
        if (gated)
            pattern->beginCycle(static_cast<sim::Cycle>(i));
        Label src =
            static_cast<Label>(rng.uniform(n_size));
        Label dst;
        if (mix == "perm")
            dst = bitrev(src, n);
        else if (mix == "hotspot")
            dst = rng.uniform(10) < 2
                      ? 0
                      : static_cast<Label>(rng.uniform(n_size));
        else if (!pattern)
            dst = static_cast<Label>(rng.uniform(n_size));
        else {
            if (gated) {
                // Redraw closed sources; cap the spin so a scenario
                // that gates everything off (e.g. ramp from 0 at
                // request 0) still terminates.
                for (int spin = 0;
                     spin < 10000 && !pattern->gate(src, rng);
                     ++spin)
                    src = static_cast<Label>(rng.uniform(n_size));
            }
            dst = pattern->pick(src, rng);
        }
        lines.push_back("{\"id\":" + std::to_string(i + 1) +
                        ",\"op\":\"route\",\"src\":" +
                        std::to_string(src) + ",\"dst\":" +
                        std::to_string(dst) + "}\n");
    }
    return lines;
}

std::vector<std::string>
loadLog(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::cerr << "cannot read replay log " << path << "\n";
        std::exit(1);
    }
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line))
        if (!line.empty())
            lines.push_back(line + "\n");
    return lines;
}

/** One measured run: qps + latency percentiles + response bytes. */
struct RunResult
{
    double qps = 0;
    double p50Us = 0;
    double p99Us = 0;
    std::uint64_t maxBatch = 0;
    std::uint64_t cacheHits = 0;
    /** Daemon-side per-request service time (log-bucket upper
     *  bounds, powers of two ns, in fractional µs) — the
     *  client-side p50/p99 minus socket and queueing delay. */
    double serviceP50Us = 0;
    double serviceP99Us = 0;
    std::string bytes; //!< concatenated response lines, in order
};

/**
 * Drive @p lines through a fresh daemon over a real socket with a
 * windowed pipelining client and collect per-response latency.
 */
RunResult
runOnce(const Options &opt, sim::RoutingScheme scheme,
        const std::vector<std::string> &lines, bool batching)
{
    serve::ServeConfig cfg;
    cfg.netSize = opt.netSize;
    cfg.scheme = scheme;
    cfg.seed = opt.seed;
    cfg.batching = batching;

    const topo::IadmTopology net(opt.netSize);
    fault::FaultSet faults;
    std::string err;
    if (!serve::ServerCore::parseFaultArg(net, opt.faults, opt.seed,
                                          faults, err)) {
        std::cerr << err << "\n";
        std::exit(1);
    }
    serve::ServerCore core(cfg, std::move(faults));
    const std::string path = "/tmp/iadm_bench_serve_" +
                             std::to_string(::getpid()) + ".sock";
    serve::RouteServer server(core, path);
    if (!server.start(&err)) {
        std::cerr << err << "\n";
        std::exit(1);
    }
    std::thread loop([&] { server.run(); });

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)) != 0) {
        std::cerr << "connect " << path << " failed\n";
        std::exit(1);
    }

    // Pre-concatenate the log so the writer sends plain slices of
    // one blob — no per-burst string building inside the timed
    // window.
    const std::size_t q = lines.size();
    std::string blob;
    std::vector<std::size_t> lineOff(q + 1, 0);
    for (std::size_t i = 0; i < q; ++i) {
        blob += lines[i];
        lineOff[i + 1] = blob.size();
    }

    std::vector<Clock::time_point> sentAt(q);
    std::vector<double> latUs(q);
    RunResult res;
    std::string buf;

    // One windowed-pipelining pass over the log.  Warmup passes run
    // the identical protocol untimed so the measured pass sees the
    // daemon's steady state (route cache warm, ssdt switch states
    // settled) — "sustained qps" in the report means exactly this.
    const auto drive = [&](bool measured) {
        std::atomic<std::size_t> received{0};
        std::mutex mu;
        std::condition_variable cv;
        std::thread writer([&] {
            std::size_t sent = 0;
            while (sent < q) {
                {
                    std::unique_lock<std::mutex> lk(mu);
                    cv.wait(lk, [&] {
                        return sent - received.load() < opt.window;
                    });
                }
                const std::size_t room =
                    opt.window - (sent - received.load());
                const std::size_t take =
                    std::min({opt.burst, room, q - sent});
                if (measured) {
                    const auto now = Clock::now();
                    for (std::size_t i = 0; i < take; ++i)
                        sentAt[sent + i] = now;
                }
                std::size_t off = lineOff[sent];
                const std::size_t end = lineOff[sent + take];
                while (off < end) {
                    const ssize_t w =
                        ::send(fd, blob.data() + off, end - off,
                               MSG_NOSIGNAL);
                    if (w <= 0) {
                        std::cerr << "client send failed\n";
                        std::exit(1);
                    }
                    off += static_cast<std::size_t>(w);
                }
                sent += take;
            }
        });

        // Reader (this thread): responses come back in request
        // order on the single connection, so response k matches
        // sentAt[k].
        buf.clear();
        char chunk[1 << 16];
        const auto t0 = Clock::now();
        std::size_t seen = 0;
        std::size_t scan = 0;
        while (seen < q) {
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0) {
                std::cerr << "daemon closed early (" << seen << "/"
                          << q << " responses)\n";
                std::exit(1);
            }
            const auto now = Clock::now();
            buf.append(chunk, static_cast<std::size_t>(n));
            for (;;) {
                const auto nl = buf.find('\n', scan);
                if (nl == std::string::npos)
                    break;
                if (measured)
                    latUs[seen] =
                        std::chrono::duration<double, std::micro>(
                            now - sentAt[seen])
                            .count();
                ++seen;
                scan = nl + 1;
            }
            {
                // Under the writer's mutex: a store between its
                // predicate check and its wait would lose this
                // wakeup, and with the window drained neither side
                // would ever move again.
                std::lock_guard<std::mutex> lk(mu);
                received.store(seen);
            }
            cv.notify_one();
        }
        const auto t1 = Clock::now();
        writer.join();
        if (measured) {
            const double secs =
                std::chrono::duration<double>(t1 - t0).count();
            res.qps =
                secs > 0 ? static_cast<double>(q) / secs : 0;
            res.bytes = std::move(buf);
        }
    };

    for (unsigned p = 0; p < opt.warmupPasses; ++p)
        drive(/*measured=*/false);
    drive(/*measured=*/true);

    const auto st = core.statsSnapshot();
    res.maxBatch = st.maxBatch;
    res.cacheHits = st.routeHits;
    res.serviceP50Us = st.servicePercentileUs(0.50);
    res.serviceP99Us = st.servicePercentileUs(0.99);
    server.stop();
    loop.join();
    ::close(fd);

    std::sort(latUs.begin(), latUs.end());
    res.p50Us = latUs[q / 2];
    res.p99Us = latUs[std::min(q - 1, q * 99 / 100)];
    return res;
}

/**
 * The byte-identity oracle for tsdt: rebuild every expected
 * response line from a direct universalRouteCompact() call against
 * the same static fault set and epoch.
 */
std::string
oracleBytes(const Options &opt,
            const std::vector<std::string> &lines,
            std::uint64_t epoch)
{
    const topo::IadmTopology net(opt.netSize);
    fault::FaultSet faults;
    std::string err;
    serve::ServerCore::parseFaultArg(net, opt.faults, opt.seed,
                                     faults, err);
    const unsigned n = net.stages();
    std::string want;
    want.reserve(lines.size() * 64);
    for (const auto &line : lines) {
        const auto r = serve::parseRequest(
            std::string_view(line.data(), line.size() - 1));
        serve::ResponseWriter w(want, r.id);
        w.field("op", std::string_view("route"));
        w.field("epoch", epoch);
        if (faults.empty()) {
            w.field("ok", true);
            w.field("tag", core::initialTag(n, r.dst).str());
            w.field("reroutes", std::uint64_t{0});
        } else {
            const auto c = core::universalRouteCompact(
                net, faults, r.src, r.dst);
            w.field("ok", c.ok);
            if (c.ok) {
                w.field("tag", c.tag.str());
                w.field("reroutes",
                        static_cast<std::uint64_t>(c.reroutes));
            }
        }
        w.finish();
    }
    return want;
}

struct ConfigResult
{
    sim::RoutingScheme scheme;
    std::string mix;
    std::size_t requests;
    RunResult batched;
    RunResult unbatched;
};

void
firstMismatch(const std::string &a, const std::string &b,
              const char *what)
{
    std::size_t pos = 0;
    while (pos < a.size() && pos < b.size() && a[pos] == b[pos])
        ++pos;
    const std::size_t ls = a.rfind('\n', pos);
    const std::size_t start = ls == std::string::npos ? 0 : ls + 1;
    std::cerr << what << " mismatch at byte " << pos << ":\n  got  "
              << a.substr(start, 120) << "\n  want "
              << b.substr(start, 120) << "\n";
}

ConfigResult
runConfig(const Options &opt, sim::RoutingScheme scheme,
          const std::string &mix,
          const std::vector<std::string> &lines)
{
    std::cerr << "  " << sim::routingSchemeName(scheme) << " x "
              << mix << " (" << lines.size() << " requests)"
              << std::flush;
    ConfigResult cr;
    cr.scheme = scheme;
    cr.mix = mix;
    cr.requests = lines.size();
    cr.batched = runOnce(opt, scheme, lines, /*batching=*/true);
    cr.unbatched = runOnce(opt, scheme, lines, /*batching=*/false);

    // Batching is a perf lever, not a semantics lever: both modes
    // must produce byte-identical response streams.
    if (cr.batched.bytes != cr.unbatched.bytes) {
        std::cerr << "\n";
        firstMismatch(cr.batched.bytes, cr.unbatched.bytes,
                      "batched vs unbatched");
        std::exit(1);
    }
    // And the served tsdt answers must equal direct REROUTE calls.
    if (scheme == sim::RoutingScheme::TsdtSender) {
        serve::ServeConfig probe;
        probe.netSize = opt.netSize;
        probe.seed = opt.seed;
        const topo::IadmTopology net(opt.netSize);
        fault::FaultSet faults;
        std::string err;
        serve::ServerCore::parseFaultArg(net, opt.faults, opt.seed,
                                         faults, err);
        const auto want =
            oracleBytes(opt, lines, faults.version());
        if (cr.batched.bytes != want) {
            std::cerr << "\n";
            firstMismatch(cr.batched.bytes, want,
                          "served vs direct REROUTE");
            std::exit(1);
        }
    }
    std::cerr << ": " << static_cast<std::uint64_t>(cr.batched.qps)
              << " qps batched, "
              << static_cast<std::uint64_t>(cr.unbatched.qps)
              << " unbatched ("
              << (cr.unbatched.qps > 0
                      ? cr.batched.qps / cr.unbatched.qps
                      : 0)
              << "x)\n";
    return cr;
}

void
writeRun(JsonWriter &w, const char *key, const RunResult &r)
{
    w.key(key);
    w.beginObject();
    w.key("qps");
    w.value(r.qps);
    w.key("p50_us");
    w.value(r.p50Us);
    w.key("p99_us");
    w.value(r.p99Us);
    w.key("max_batch");
    w.value(r.maxBatch);
    w.key("cache_hits");
    w.value(r.cacheHits);
    w.key("service_p50_us");
    w.value(r.serviceP50Us);
    w.key("service_p99_us");
    w.value(r.serviceP99Us);
    w.endObject();
}

int
writeReport(const Options &opt,
            const std::vector<ConfigResult> &results)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("schema");
    w.value("iadm-bench-serve-v1");
    w.key("build_type");
    w.value(bench::buildType());
    w.key("net_size");
    w.value(static_cast<std::uint64_t>(opt.netSize));
    w.key("faults");
    w.value(opt.faults);
    w.key("window");
    w.value(static_cast<std::uint64_t>(opt.window));
    w.key("burst");
    w.value(static_cast<std::uint64_t>(opt.burst));
    w.key("warmup_passes");
    w.value(static_cast<std::uint64_t>(opt.warmupPasses));
    w.key("seed");
    w.value(opt.seed);
    w.key("configs");
    w.beginArray();
    for (const auto &cr : results) {
        w.beginObject();
        w.key("scheme");
        w.value(sim::routingSchemeName(cr.scheme));
        w.key("mix");
        w.value(cr.mix);
        w.key("requests");
        w.value(static_cast<std::uint64_t>(cr.requests));
        writeRun(w, "batched", cr.batched);
        writeRun(w, "unbatched", cr.unbatched);
        w.key("speedup");
        w.value(cr.unbatched.qps > 0
                    ? cr.batched.qps / cr.unbatched.qps
                    : 0.0);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    std::ofstream of(opt.out);
    of << os.str() << "\n";
    of.close();

    // Schema self-check (the perf-smoke gate): re-read the emitted
    // document and require the load-bearing fields.
    std::ifstream is(opt.out);
    std::stringstream back;
    back << is.rdbuf();
    for (const char *needle :
         {"\"schema\": \"iadm-bench-serve-v1\"", "\"build_type\"",
          "\"configs\"", "\"qps\"", "\"p99_us\"", "\"speedup\""}) {
        if (back.str().find(needle) == std::string::npos) {
            std::cerr << "schema check failed: missing " << needle
                      << "\n";
            return 1;
        }
    }
    std::cerr << "wrote " << opt.out << "\n";
    return 0;
}

/**
 * Parse @p val strictly (common/parse.hpp) into @p out.  A value
 * that does not parse, or that @p ok refuses, exits 2 with a
 * diagnostic naming @p flag and what it wants (@p want).
 */
template <typename T, typename Ok>
void
parseFlag(const std::string &flag, const std::string &val,
          const char *want, T &out, Ok ok)
{
    T v{};
    if (!parseUnsigned(val, v) || !ok(v)) {
        std::cerr << "bench_serve: " << flag << " wants " << want
                  << ", got '" << val << "'\n";
        std::exit(2);
    }
    out = v;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::guardBuildType();
    const auto any = [](auto) { return true; };
    const auto positive = [](auto v) { return v >= 1; };
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << a << " requires a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--net")
            // 16-bit route-cache keys, as for iadm_tool serve --net.
            parseFlag(a, next(), "a power of two in [2, 65536]",
                      opt.netSize, [](Label n) {
                          return n >= 2 && n <= 65536 &&
                                 (n & (n - 1)) == 0;
                      });
        else if (a == "--faults")
            opt.faults = next();
        else if (a == "--mix") {
            opt.mix = next();
            opt.ladder = false;
        } else if (a == "--scheme") {
            opt.scheme = next();
            opt.ladder = false;
        } else if (a == "--requests")
            parseFlag(a, next(), "an integer >= 1", opt.requests,
                      positive);
        else if (a == "--window")
            parseFlag(a, next(), "an integer >= 1", opt.window,
                      positive);
        else if (a == "--burst")
            parseFlag(a, next(), "an integer >= 1", opt.burst,
                      positive);
        else if (a == "--warmup")
            parseFlag(a, next(), "an integer >= 0", opt.warmupPasses,
                      any);
        else if (a == "--seed")
            parseFlag(a, next(), "an integer >= 0", opt.seed, any);
        else if (a == "--replay") {
            opt.replay = next();
            opt.ladder = false;
        } else if (a == "--save-log")
            opt.saveLog = next();
        else if (a == "--out")
            opt.out = next();
        else {
            std::cerr
                << "usage: bench_serve [--net N] [--faults SPEC] "
                   "[--scheme S] "
                   "[--mix uniform|perm|hotspot|SCENARIO-SPEC] "
                   "[--requests Q] [--window W] [--burst B] "
                   "[--warmup P] [--seed S] [--replay LOG] "
                   "[--save-log LOG] [--out FILE]\n"
                   "  SCENARIO-SPEC: the scenario grammar of "
                   "docs/SIMULATOR.md, e.g.\n"
                   "  shape:bursty:16:64/dst:hotspot:0:0.2 or "
                   "dst:adversarial\n";
            return 2;
        }
    }

    std::vector<ConfigResult> results;
    if (!opt.replay.empty()) {
        const auto lines = loadLog(opt.replay);
        const auto scheme = sim::parseRoutingScheme(
            opt.scheme.empty() ? "tsdt" : opt.scheme);
        if (!scheme) {
            std::cerr << "unknown scheme " << opt.scheme << "\n";
            return 2;
        }
        results.push_back(
            runConfig(opt, *scheme, "replay", lines));
    } else if (!opt.ladder) {
        const auto scheme = sim::parseRoutingScheme(
            opt.scheme.empty() ? "tsdt" : opt.scheme);
        if (!scheme) {
            std::cerr << "unknown scheme " << opt.scheme << "\n";
            return 2;
        }
        const std::string mix =
            opt.mix == "all" ? "uniform" : opt.mix;
        const auto lines =
            makeMix(mix, opt.netSize, opt.requests, opt.seed);
        if (!opt.saveLog.empty()) {
            std::ofstream of(opt.saveLog);
            for (const auto &l : lines)
                of << l;
        }
        results.push_back(runConfig(opt, *scheme, mix, lines));
    } else {
        // The full ladder: tsdt (the cached sender path batching is
        // built around) across all three mixes, then the remaining
        // schemes under uniform load.
        std::cerr << "bench_serve ladder: N=" << opt.netSize
                  << " faults=" << opt.faults << "\n";
        for (const char *mix : {"uniform", "perm", "hotspot"}) {
            const auto lines = makeMix(mix, opt.netSize,
                                       opt.requests, opt.seed);
            results.push_back(runConfig(
                opt, sim::RoutingScheme::TsdtSender, mix, lines));
        }
        const std::size_t q = std::max<std::size_t>(
            1, opt.requests / 10);
        for (const auto s : {sim::RoutingScheme::TsdtDynamic,
                             sim::RoutingScheme::SsdtStatic,
                             sim::RoutingScheme::SsdtBalanced,
                             sim::RoutingScheme::DistanceTag}) {
            const auto lines =
                makeMix("uniform", opt.netSize, q, opt.seed);
            results.push_back(runConfig(opt, s, "uniform", lines));
        }
    }
    return writeReport(opt, results);
}
