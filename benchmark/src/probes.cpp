/**
 * @file
 * Layer probes: each replays one layer's public functions on the
 * workload's own network (its size, fault set and uniform pair
 * distribution) and times the calls from outside.  A workload sets
 * the per-layer metrics its own run exercises; the probes fill in
 * the rest, so every workload reports every per-layer metric.
 */

#include <memory>
#include <set>
#include <string>

#include "bench.hpp"
#include "core/reroute.hpp"
#include "core/tsdt.hpp"
#include "fault/fault_process.hpp"
#include "serve/server_core.hpp"
#include "serve/wire.hpp"
#include "sim/route_cache.hpp"
#include "sim/traffic.hpp"

namespace ibench {

using namespace iadm;

namespace {

using Pair = std::pair<Label, Label>;

/** Median cost of an empty timed region (subtracted per call). */
double
clockOverheadNs()
{
    std::vector<double> v(2001);
    for (double &x : v) {
        const auto a = Clock::now();
        x = ns(a, Clock::now());
    }
    return median(v);
}

/** @p count distinct uniform (src, dst) pairs (fewer if N is tiny). */
std::vector<Pair>
distinctPairs(Label n, std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    const std::size_t limit =
        std::min<std::size_t>(count, std::size_t{n} * n);
    std::set<Pair> seen;
    std::vector<Pair> out;
    while (out.size() < limit) {
        const Pair p{static_cast<Label>(rng.uniform(n)),
                     static_cast<Label>(rng.uniform(n))};
        if (seen.insert(p).second)
            out.push_back(p);
    }
    return out;
}

std::string
routeLine(std::uint64_t id, Label src, Label dst)
{
    return "{\"id\":" + std::to_string(id) +
           ",\"op\":\"route\",\"src\":" + std::to_string(src) +
           ",\"dst\":" + std::to_string(dst) + "}";
}

bool
has(const Result &r, const char *name)
{
    return r.metrics.count(name) != 0;
}

/** Mean ns per call of @p body over @p calls calls, best of 3. */
template <typename F>
double
perCallNs(std::size_t calls, F &&body)
{
    std::vector<double> v;
    for (int rep = 0; rep < 3; ++rep) {
        const auto a = Clock::now();
        body();
        v.push_back(ns(a, Clock::now()) / static_cast<double>(calls));
    }
    return *std::min_element(v.begin(), v.end());
}

/** Median of @p reps constructions of @p net's simulator, ms. */
double
constructMs(const Network &net, unsigned reps)
{
    std::vector<double> v;
    for (unsigned i = 0; i < reps; ++i) {
        const auto a = Clock::now();
        sim::NetworkSim s(net.cfg,
                          std::make_unique<sim::UniformTraffic>(
                              net.cfg.netSize),
                          net.faults);
        v.push_back(ns(a, Clock::now()) / 1e6);
        consume(s.now());
    }
    return median(v);
}

} // namespace

void
runLayerProbes(const Options &opt, const Network &net,
               const ProbeOptions &popt, Result &r, Tracer &tracer)
{
    const auto t0 = Clock::now();
    const std::uint64_t root = tracer.newId();
    const Label n_size = net.cfg.netSize;
    const topo::IadmTopology topo(n_size);
    const unsigned n = topo.stages();
    const fault::FaultSet &faults = net.faults;
    const double clk = clockOverheadNs();
    const std::size_t count = opt.smoke ? 512 : 4096;
    const auto pairs = distinctPairs(n_size, count, subSeed(opt.seed, 41));
    const std::size_t np = pairs.size();

    // --- core: REROUTE, decode, initial tags ----------------------
    auto a = Clock::now();
    std::vector<core::CompactRoute> routes(np);
    std::vector<double> rr;
    rr.reserve(np);
    std::size_t fails = 0;
    for (std::size_t i = 0; i < np; ++i) {
        const auto c0 = Clock::now();
        routes[i] = core::universalRouteCompact(topo, faults,
                                                pairs[i].first,
                                                pairs[i].second);
        rr.push_back(std::max(0.0, ns(c0, Clock::now()) - clk));
        fails += routes[i].ok ? 0 : 1;
    }
    r.set("core.reroute_ns_p50", quantile(rr, 0.5), "ns");
    r.set("core.reroute_ns_p99", quantile(rr, 0.99), "ns");
    r.set("core.reroute_fail_ratio",
          static_cast<double>(fails) / static_cast<double>(np), "ratio");
    tracer.span("probe.core.reroute", root, a, Clock::now());

    a = Clock::now();
    std::uint16_t sw[sim::RouteCache::kMaxPathSw];
    r.set("core.decode_ns", perCallNs(np * 8, [&] {
              for (int k = 0; k < 8; ++k)
                  for (std::size_t i = 0; i < np; ++i) {
                      core::decodeDelta(pairs[i].first, pairs[i].second,
                                        routes[i].tag.stateBits(), n, sw);
                      consume(sw[n]);
                  }
          }),
          "ns");
    r.set("core.initial_tag_ns", perCallNs(np * 8, [&] {
              for (int k = 0; k < 8; ++k)
                  for (std::size_t i = 0; i < np; ++i)
                      consume(core::initialTag(n, pairs[i].second)
                                  .stateBits() +
                              i);
          }),
          "ns");
    tracer.span("probe.core.decode_initial_tag", root, a, Clock::now());

    // --- route cache: a miss pass over distinct pairs, then a hit
    // pass over the same pairs ---------------------------------------
    a = Clock::now();
    {
        sim::RouteCache rc(n_size);
        std::vector<double> miss, hit;
        for (int rep = 0; rep < 3; ++rep) {
            rc.clear();
            auto c0 = Clock::now();
            for (const auto &[s, d] : pairs)
                consume(rc.resolveUniversal(topo, faults, s, d).second);
            miss.push_back(ns(c0, Clock::now()) / static_cast<double>(np));
            c0 = Clock::now();
            for (const auto &[s, d] : pairs)
                consume(rc.resolveUniversal(topo, faults, s, d).second);
            hit.push_back(ns(c0, Clock::now()) / static_cast<double>(np));
        }
        r.set("route_cache.miss_ns", median(miss), "ns");
        r.set("route_cache.hit_ns", median(hit), "ns");
        if (!has(r, "route_cache.capacity_mib"))
            r.set("route_cache.capacity_mib",
                  static_cast<double>(rc.capacity() *
                                      sizeof(sim::RouteCache::Entry)) /
                      (1024.0 * 1024.0),
                  "MiB");
    }
    tracer.span("probe.route_cache", root, a, Clock::now());

    // --- traffic -----------------------------------------------------
    a = Clock::now();
    {
        sim::UniformTraffic traffic(n_size);
        Rng rng(subSeed(opt.seed, 42));
        const std::size_t picks = std::size_t{1} << 16;
        r.set("traffic.pick_ns", perCallNs(picks, [&] {
                  for (std::size_t i = 0; i < picks; ++i)
                      consume(traffic.pick(
                          static_cast<Label>(i) & (n_size - 1), rng));
              }),
              "ns");
    }
    tracer.span("probe.traffic", root, a, Clock::now());

    // --- wire: parse request lines, format route answers -----------
    a = Clock::now();
    std::vector<std::string> lines;
    lines.reserve(np);
    for (std::size_t i = 0; i < np; ++i)
        lines.push_back(routeLine(i + 1, pairs[i].first, pairs[i].second));
    r.set("wire.parse_ns", perCallNs(np * 4, [&] {
              for (int k = 0; k < 4; ++k)
                  for (const auto &l : lines) {
                      const auto q = serve::parseRequest(l);
                      consume(q.src ^ q.dst);
                  }
          }),
          "ns");
    std::string out;
    out.reserve(np * 96);
    r.set("wire.format_ns", perCallNs(np * 4, [&] {
              for (int k = 0; k < 4; ++k) {
                  out.clear();
                  for (std::size_t i = 0; i < np; ++i) {
                      serve::ResponseWriter w(out, i + 1);
                      w.field("op", std::string_view("route"));
                      w.field("epoch", faults.version());
                      w.field("ok", routes[i].ok);
                      if (routes[i].ok) {
                          w.field("tag", routes[i].tag.str());
                          w.field("reroutes",
                                  std::uint64_t{routes[i].reroutes});
                      }
                      w.finish();
                  }
                  consume(out.size());
              }
          }),
          "ns");
    tracer.span("probe.wire", root, a, Clock::now());

    // --- serving engine, in process, on a uniform request stream ----
    if (!has(r, "server_core.resolve_ns_per_req")) {
        a = Clock::now();
        serve::ServeConfig sc;
        sc.netSize = n_size;
        sc.scheme = sim::RoutingScheme::TsdtSender;
        serve::ServerCore core(sc, faults);
        Rng rng(subSeed(opt.seed, 43));
        std::vector<serve::Request> reqs(count * 4);
        for (std::size_t i = 0; i < reqs.size(); ++i)
            reqs[i] = serve::parseRequest(routeLine(
                i + 1, static_cast<Label>(rng.uniform(n_size)),
                static_cast<Label>(rng.uniform(n_size))));
        // A batch per simulated cycle's injections: N x rate.
        const std::size_t batch = std::max<std::size_t>(
            1, static_cast<std::size_t>(net.cfg.injectionRate * n_size));
        const auto c0 = Clock::now();
        for (std::size_t i = 0; i < reqs.size(); i += batch) {
            out.clear();
            core.resolveBatch(reqs.data() + i,
                              std::min(batch, reqs.size() - i), out);
        }
        r.set("server_core.resolve_ns_per_req",
              ns(c0, Clock::now()) / static_cast<double>(reqs.size()),
              "ns");
        tracer.span("probe.server_core", root, a, Clock::now());
    }

    // --- fault layer: the churn process of sim-churn-n1024 driven
    // over this network, as the simulator drives it -----------------
    if (popt.churnReplay) {
        a = Clock::now();
        const Label span = std::max<Label>(1, n_size / 64);
        const auto spec =
            sim::ChurnSpec::parse("burst:400:100:" + std::to_string(span));
        auto proc = spec->make(topo, subSeed(opt.seed, 44));
        fault::FaultSet f = faults;
        double total = 0;
        std::uint64_t calls = 0;
        const std::uint64_t horizon = opt.smoke ? 4000 : 40000;
        for (std::uint64_t c = 1; c <= horizon; ++c) {
            if (proc->nextTransition() > c)
                continue;
            const auto c0 = Clock::now();
            proc->runUntil(c, f, {});
            total += ns(c0, Clock::now());
            ++calls;
        }
        r.set("fault.run_until_ns",
              calls > 0 ? total / static_cast<double>(calls) : 0, "ns");
        tracer.span("probe.fault", root, a, Clock::now());
    }

    if (!has(r, "network_sim.construct_ms"))
        r.set("network_sim.construct_ms", constructMs(net, kSetups), "ms");

    // --- a probe simulation of this network, for workloads that do
    // not step a simulator themselves ---------------------------------
    if (popt.simSteps) {
        a = Clock::now();
        sim::NetworkSim s(net.cfg,
                          std::make_unique<sim::UniformTraffic>(n_size),
                          net.faults);
        s.run(opt.smoke ? 100 : 500);
        s.resetMetrics();
        const unsigned cycles = opt.smoke ? 200 : 2000;
        std::vector<double> steps;
        steps.reserve(cycles);
        double in_flight = 0;
        for (unsigned c = 0; c < cycles; ++c) {
            const auto c0 = Clock::now();
            s.step();
            steps.push_back(ns(c0, Clock::now()));
            in_flight += static_cast<double>(s.inFlight());
        }
        const auto &m = s.metrics();
        setStepMetrics(r, steps, m.totalHops());
        setSimCounts(r, m, in_flight / cycles);
        double total = 0;
        for (const double v : steps)
            total += v;
        setUnattributed(r, m, total, 0);
        tracer.span("probe.network_sim", root, a, Clock::now());
    }
    tracer.span("layer_probes", 0, t0, Clock::now(), root);
}

void
setUnattributed(Result &r, const sim::Metrics &m, double step_total_ns,
                double run_until_total_ns)
{
    const auto get = [&](const char *k) { return r.metrics.at(k).value; };
    const double attempts = static_cast<double>(
        m.injected() + m.throttled() + m.unroutable());
    const double hits = static_cast<double>(m.routeCacheHits());
    const double misses = static_cast<double>(m.routeCacheMisses());
    // Injection draws a destination per attempt, then either probes
    // the route cache (hit or REROUTE fill) or builds the initial tag.
    double attributed = attempts * get("traffic.pick_ns") +
                        hits * get("route_cache.hit_ns") +
                        misses * get("route_cache.miss_ns") +
                        std::max(0.0, attempts - hits - misses) *
                            get("core.initial_tag_ns") +
                        run_until_total_ns;
    r.set("network_sim.unattributed_frac",
          step_total_ns > 0 ? 1.0 - attributed / step_total_ns : 0,
          "ratio");
}

} // namespace ibench
