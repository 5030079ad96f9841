/**
 * @file
 * The sweep-grid workload: the experimenter's job (EXPERIMENTS.md),
 * a runSweep over N x scheme x rate x faults on min(4, nproc)
 * workers, repeated until the time budget is spent.  Replicate
 * boundaries come from the runner's own hooks: setup() fires on a
 * worker as each replicate starts, onCellDone() on the worker that
 * finished a cell.
 */

#include <map>
#include <thread>

#include "bench.hpp"

namespace ibench {

using namespace iadm;

namespace {

sim::SweepGrid
makeGrid(const Options &opt)
{
    using sim::RoutingScheme;
    sim::SweepGrid g;
    g.netSizes = opt.smoke ? std::vector<Label>{16, 32}
                           : std::vector<Label>{64, 256};
    g.schemes = {RoutingScheme::SsdtStatic, RoutingScheme::SsdtBalanced,
                 RoutingScheme::TsdtSender, RoutingScheme::DistanceTag,
                 RoutingScheme::TsdtDynamic};
    g.injectionRates = {0.2, 0.35};
    g.faults = {sim::FaultScenario{},
                *sim::FaultScenario::parse(opt.smoke ? "links:2"
                                                     : "links:12")};
    g.replicates = 2;
    g.warmupCycles = opt.smoke ? 50 : 500;
    g.measureCycles = opt.smoke ? 300 : 6000;
    g.maxPacketAge = 500;
    g.masterSeed = subSeed(opt.seed, 5);
    return g;
}

/** One grid run, with the replicate timeline its hooks recorded. */
struct GridRun
{
    double wallS = 0;
    std::vector<double> replicateMs;
    double busyFrac = 0;
    double tailIdleMs = 0;
    std::string report;
    std::vector<sim::CellResult> results;
};

GridRun
runGrid(const Options &opt, const sim::SweepGrid &grid, Tracer *tracer)
{
    struct Event
    {
        std::thread::id tid;
        Clock::time_point t;
        bool start; //!< replicate start (setup) or cell done
    };
    std::mutex mu;
    std::vector<Event> events;
    sim::SweepOptions so;
    so.workers = opt.threads;
    so.setup = [&](sim::NetworkSim &, const sim::SweepCell &, Rng &) {
        const auto t = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        events.push_back({std::this_thread::get_id(), t, true});
    };
    so.onCellDone = [&](const sim::CellResult &, std::size_t,
                        std::size_t) {
        // Runs on the worker that just finished the cell's last
        // replicate.
        const auto t = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        events.push_back({std::this_thread::get_id(), t, false});
    };

    GridRun g;
    const auto a = Clock::now();
    g.results = sim::runSweep(grid, so);
    const auto b = Clock::now();
    g.wallS = ns(a, b) * 1e-9;

    // A replicate ends at the next event of its worker: the worker's
    // next replicate start, or the cell-done call it made right after
    // finishing; the last one on a worker ends with the grid.
    const std::uint64_t gid = tracer ? tracer->newId() : 0;
    std::map<std::thread::id, std::vector<Event>> by_worker;
    for (const Event &e : events)
        by_worker[e.tid].push_back(e);
    double busy = 0;
    Clock::time_point first_idle = b;
    for (auto &[tid, ev] : by_worker) {
        Clock::time_point last_end = a;
        for (std::size_t i = 0; i < ev.size(); ++i) {
            if (!ev[i].start)
                continue;
            const Clock::time_point end =
                i + 1 < ev.size() ? ev[i + 1].t : b;
            g.replicateMs.push_back(ns(ev[i].t, end) * 1e-6);
            busy += ns(ev[i].t, end);
            last_end = end;
            if (tracer)
                tracer->span("sweep.replicate", gid, ev[i].t, end);
        }
        first_idle = std::min(first_idle, last_end);
    }
    g.busyFrac = busy / (ns(a, b) * static_cast<double>(
                                        std::max<std::size_t>(
                                            1, by_worker.size())));
    g.tailIdleMs = ns(first_idle, b) * 1e-6;
    g.report = sim::sweepReportJson(grid, g.results);
    if (tracer) {
        tracer->span("sweep.report", gid, b, Clock::now());
        tracer->span("sweep.grid", 0, a, Clock::now(), gid);
    }
    return g;
}

/** Grid-wide packet totals (cells differ in N, so sum by hand). */
void
setGridCounts(Result &r, const std::vector<sim::CellResult> &results)
{
    double offered = 0, lost = 0, hits = 0, misses = 0, evictions = 0;
    for (const auto &cell : results)
        for (const auto &rep : cell.replicates) {
            const auto &m = rep.metrics;
            offered += static_cast<double>(m.injected() + m.throttled() +
                                           m.unroutable());
            lost += static_cast<double>(m.dropped() + m.throttled() +
                                        m.unroutable());
            hits += static_cast<double>(m.routeCacheHits());
            misses += static_cast<double>(m.routeCacheMisses());
            evictions += static_cast<double>(m.routeCacheEvictions());
        }
    r.set("fail_frac", offered > 0 ? lost / offered : 0, "ratio");
    r.set("route_cache.hits", hits, "count");
    r.set("route_cache.misses", misses, "count");
    r.set("route_cache.evictions", evictions, "count");
    r.set("route_cache.hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
}

} // namespace

Result
runSweepGrid(const Options &opt, Tracer &tracer, HostSpeed &host)
{
    const sim::SweepGrid grid = makeGrid(opt);

    // Set-up is that of the grid's N=256 tsdt links:12 cell.
    Network net;
    net.cfg.netSize = grid.netSizes.back();
    net.cfg.scheme = sim::RoutingScheme::TsdtSender;
    net.cfg.injectionRate = 0.35;
    net.cfg.maxPacketAge = grid.maxPacketAge;
    net.cfg.seed = subSeed(opt.seed, 1);
    Result r;
    timeSimSetup(opt, grid.faults.back(), net, r);

    // Untraced grids, or in a traced run untraced/traced pairs; every
    // report (which carries no wall clock) must be byte-identical.
    std::vector<GridRun> plain, traced;
    std::string first_report;
    std::vector<sim::CellResult> last_results;
    const auto start = Clock::now();
    do {
        host.sample();
        plain.push_back(runGrid(opt, grid, nullptr));
        if (opt.trace)
            traced.push_back(runGrid(opt, grid, &tracer));
        for (GridRun *g : {&plain.back(), opt.trace ? &traced.back()
                                                    : nullptr}) {
            if (g == nullptr)
                continue;
            ++r.attempted;
            if (first_report.empty())
                first_report = g->report;
            if (g->report != first_report) {
                ++r.failed;
                r.gateFailures.push_back(
                    "sweep report of grid " + std::to_string(r.attempted) +
                    " differs from the first");
            }
            // Keep one grid's results, so memory does not grow with
            // the number of grids a run fits.
            last_results = std::move(g->results);
            g->results.clear();
            g->report.clear();
            g->report.shrink_to_fit();
        }
    } while (secondsSince(start) < opt.seconds ||
             plain.size() < (opt.trace ? 1u : 3u));

    if (!opt.trace) {
        std::vector<double> rate, wall;
        for (const GridRun &g : plain) {
            rate.push_back(static_cast<double>(grid.runCount()) / g.wallS);
            wall.push_back(g.wallS * 1e6);
        }
        r.set("ops_per_s", median(rate), "1/s");
        r.set("latency_p50_us", median(wall), "us");
        return r;
    }

    std::vector<double> over, reps_p50, reps_max, busy, tail, report_ms;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        over.push_back(traced[i].wallS / plain[i].wallS - 1.0);
        const GridRun &g = traced[i];
        reps_p50.push_back(quantile(g.replicateMs, 0.5));
        reps_max.push_back(quantile(g.replicateMs, 1.0));
        busy.push_back(g.busyFrac);
        tail.push_back(g.tailIdleMs);
    }
    for (int i = 0; i < 5; ++i) {
        const auto a = Clock::now();
        consume(sim::sweepReportJson(grid, last_results).size());
        report_ms.push_back(ns(a, Clock::now()) * 1e-6);
    }
    r.set("bench.trace_overhead_pct", 100.0 * median(over), "%");
    r.set("sweep.runs", static_cast<double>(grid.runCount()), "count");
    r.set("sweep.workers", opt.threads, "count");
    r.set("sweep.wall_s", median([&] {
              std::vector<double> v;
              for (const GridRun &g : plain)
                  v.push_back(g.wallS);
              return v;
          }()),
          "s");
    r.set("sweep.replicate_ms_p50", median(reps_p50), "ms");
    r.set("sweep.replicate_ms_max", median(reps_max), "ms");
    r.set("sweep.worker_busy_frac", median(busy), "ratio");
    r.set("sweep.tail_idle_ms", median(tail), "ms");
    r.set("sweep.report_ms", median(report_ms), "ms");
    r.set("fault.transitions", 0, "count");

    ProbeOptions popt;
    popt.simSteps = true;
    runLayerProbes(opt, net, popt, r, tracer);
    // Counts that describe the grid itself override the probe's.
    setGridCounts(r, last_results);
    return r;
}

} // namespace ibench
