/**
 * @file
 * The three single-simulation workloads: sim-static-n1024,
 * sim-churn-n1024 and sim-clean-n1024 (README.md says why each
 * exists).  One NetworkSim is stepped in fixed-size windows until the
 * time budget is spent; every step() is timed from outside.
 *
 * The traced run steps twins in lockstep, windows interleaved in
 * rotating order: an untimed-span twin (the end-to-end loop), a
 * traced twin (spans per step, a timed churn process), and per
 * workload a diagnostic twin (health monitor and trace sink attached
 * on sim-static, min(4, nproc) shards on sim-clean).  Twins share
 * the seed, so their packet counts must match exactly after every
 * window; the paired window times give the overheads.
 */

#include <memory>
#include <set>
#include <string>

#include "bench.hpp"
#include "obs/health.hpp"
#include "obs/trace_sink.hpp"
#include "sim/traffic.hpp"

namespace ibench {

using namespace iadm;

namespace {

struct SimSpec
{
    Label n;
    sim::RoutingScheme scheme;
    std::string faults;
    std::string churn;
    sim::Cycle warmup;
    sim::Cycle window;
};

SimSpec
specFor(const Options &opt)
{
    const bool s = opt.smoke;
    const auto tsdt = sim::RoutingScheme::TsdtSender;
    if (opt.workload == "sim-static-n1024")
        return {s ? 64u : 1024u, tsdt, s ? "links:6" : "links:96", "none",
                s ? 100u : 2000u, s ? 100u : 1000u};
    if (opt.workload == "sim-churn-n1024")
        return {s ? 64u : 1024u, tsdt, s ? "links:6" : "links:96",
                s ? "burst:40:10:1" : "burst:400:100:16",
                s ? 100u : 2000u, s ? 100u : 1000u};
    return {s ? 128u : 1024u, sim::RoutingScheme::SsdtStatic, "none",
            "none", s ? 100u : 2000u, s ? 100u : 1000u};
}

/** Forwards to a churn process and times every runUntil call. */
class TimedProcess final : public fault::FaultProcess
{
  public:
    TimedProcess(std::unique_ptr<fault::FaultProcess> inner,
                 Tracer &tracer)
        : inner_(std::move(inner)), tracer_(tracer) {}

    std::uint64_t
    nextTransition() const override
    {
        return inner_->nextTransition();
    }

    void
    runUntil(std::uint64_t now, fault::FaultSet &faults,
             const Observer &obs) override
    {
        const auto a = Clock::now();
        inner_->runUntil(now, faults, obs);
        const auto b = Clock::now();
        totalNs += ns(a, b);
        ++calls;
        tracer_.span("fault.run_until", parent, a, b);
    }

    std::string name() const override { return inner_->name(); }

    double totalNs = 0;
    std::uint64_t calls = 0;
    std::uint64_t parent = 0; //!< span the next calls nest under

  private:
    std::unique_ptr<fault::FaultProcess> inner_;
    Tracer &tracer_;
};

/** One simulator of the lockstep set. */
struct Twin
{
    const char *name;
    std::unique_ptr<sim::NetworkSim> sim;
    std::vector<double> steps{};    //!< this window's step times
    std::vector<double> allSteps{}; //!< every measured step
    std::vector<double> windowNs{}; //!< per window
    std::unique_ptr<obs::HealthMonitor> health{};
    std::unique_ptr<obs::TraceSink> sink{};
};

std::unique_ptr<sim::NetworkSim>
makeSim(const Options &opt, const Network &net, unsigned shards,
        Tracer *tracer, TimedProcess **timed)
{
    sim::SimConfig cfg = net.cfg;
    cfg.shards = shards;
    auto s = std::make_unique<sim::NetworkSim>(
        cfg, std::make_unique<sim::UniformTraffic>(cfg.netSize),
        net.faults);
    if (net.churn != "none") {
        auto proc = sim::ChurnSpec::parse(net.churn)->make(
            s->topology(), subSeed(opt.seed, 3));
        if (tracer != nullptr) {
            auto t = std::make_unique<TimedProcess>(std::move(proc),
                                                    *tracer);
            *timed = t.get();
            proc = std::move(t);
        }
        s->addFaultProcess(std::move(proc));
    }
    return s;
}

/** Step @p t one window, timing each step(); returns window ns. */
double
timedWindow(Twin &t, sim::Cycle window)
{
    t.steps.clear();
    const auto w0 = Clock::now();
    for (sim::Cycle c = 0; c < window; ++c) {
        const auto a = Clock::now();
        t.sim->step();
        t.steps.push_back(ns(a, Clock::now()));
    }
    const double w = ns(w0, Clock::now());
    t.windowNs.push_back(w);
    t.allSteps.insert(t.allSteps.end(), t.steps.begin(), t.steps.end());
    return w;
}

/** Median over paired windows of a's time over b's. */
double
pairedRatio(const Twin &a, const Twin &b)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < a.windowNs.size(); ++i)
        v.push_back(a.windowNs[i] / b.windowNs[i]);
    return median(v);
}

/** The wedge guard: every measured window must deliver packets. */
void
checkDelivered(Result &r, const sim::Metrics &m, std::uint64_t &delivered0)
{
    ++r.attempted;
    if (m.delivered() == delivered0) {
        ++r.failed;
        r.gateFailures.push_back("window " + std::to_string(r.attempted) +
                                 " delivered 0 packets");
    }
    delivered0 = m.delivered();
}

void
runUntraced(const Options &opt, const Network &net, const SimSpec &sp,
            Result &r, HostSpeed &host)
{
    Twin t{"untraced", makeSim(opt, net, 1, nullptr, nullptr)};
    t.sim->run(sp.warmup);
    t.sim->resetMetrics();
    std::vector<double> rate, p50;
    std::uint64_t hops0 = 0, delivered0 = 0;
    const auto start = Clock::now();
    do {
        host.sample();
        const double w = timedWindow(t, sp.window);
        const auto &m = t.sim->metrics();
        const std::uint64_t hops = m.totalHops();
        checkDelivered(r, m, delivered0);
        rate.push_back(static_cast<double>(hops - hops0) / (w * 1e-9));
        p50.push_back(quantile(t.steps, 0.5));
        hops0 = hops;
    } while (secondsSince(start) < opt.seconds || rate.size() < 5);
    r.set("ops_per_s", median(rate), "1/s");
    r.set("latency_p50_us", median(p50) / 1e3, "us");
}

void
runTraced(const Options &opt, const Network &net, const SimSpec &sp,
          Result &r, Tracer &tracer, HostSpeed &host)
{
    TimedProcess *timed = nullptr;
    std::vector<Twin> twins;
    twins.push_back({"untraced", makeSim(opt, net, 1, nullptr, nullptr)});
    twins.push_back({"traced", makeSim(opt, net, 1, &tracer, &timed)});
    const bool diag_obs = opt.workload == "sim-static-n1024";
    const bool diag_shards = opt.workload == "sim-clean-n1024";
    if (diag_obs) {
        twins.push_back({"health", makeSim(opt, net, 1, nullptr, nullptr)});
        twins.push_back({"trace_sink",
                         makeSim(opt, net, 1, nullptr, nullptr)});
    }
    if (diag_shards)
        twins.push_back({"sharded", makeSim(opt, net, opt.threads, nullptr,
                                            nullptr)});
    for (auto &t : twins) {
        t.sim->run(sp.warmup);
        t.sim->resetMetrics();
    }
    if (diag_obs) {
        twins[2].health = std::make_unique<obs::HealthMonitor>();
        twins[2].sim->setHealthMonitor(twins[2].health.get());
        twins[3].sink = std::make_unique<obs::TraceSink>();
        twins[3].sim->setTraceSink(twins[3].sink.get());
    }

    Twin &traced = twins[1];
    sim::NetworkSim &ts = *traced.sim;
    const std::uint64_t root = tracer.newId();
    const auto start = Clock::now();
    std::vector<double> epoch_steps, steady_steps;
    std::set<std::uint64_t> epochs{ts.faults().version()};
    double in_flight = 0;
    std::uint64_t delivered0 = 0;
    std::size_t w = 0;
    do {
        host.sample();
        for (std::size_t k = 0; k < twins.size(); ++k) {
            Twin &t = twins[(k + w) % twins.size()];
            if (&t != &traced) {
                timedWindow(t, sp.window);
                continue;
            }
            // The traced loop: a span per step, epoch steps told
            // apart, in-flight sampled every cycle.
            const std::uint64_t wid = tracer.newId();
            if (timed != nullptr)
                timed->parent = wid;
            t.steps.clear();
            const auto w0 = Clock::now();
            for (sim::Cycle c = 0; c < sp.window; ++c) {
                const std::uint64_t v0 = ts.faults().version();
                const auto a = Clock::now();
                ts.step();
                const auto b = Clock::now();
                const double d = ns(a, b);
                t.steps.push_back(d);
                const bool epoch = ts.faults().version() != v0;
                (epoch ? epoch_steps : steady_steps).push_back(d);
                if (epoch)
                    epochs.insert(ts.faults().version());
                in_flight += static_cast<double>(ts.inFlight());
                tracer.span(epoch ? "network_sim.step.epoch"
                                  : "network_sim.step",
                            wid, a, b);
            }
            const auto w1 = Clock::now();
            t.windowNs.push_back(ns(w0, w1));
            t.allSteps.insert(t.allSteps.end(), t.steps.begin(),
                              t.steps.end());
            tracer.span("window", root, w0, w1, wid);
        }
        ++w;
        checkDelivered(r, ts.metrics(), delivered0);
        const auto fp = Fingerprint::of(ts.metrics());
        for (const auto &t : twins)
            r.gate(Fingerprint::of(t.sim->metrics()) == fp,
                   std::string("packet counts of the ") + t.name +
                       " twin diverge from the traced run at window " +
                       std::to_string(w));
    } while (secondsSince(start) < opt.seconds || w < 3);
    tracer.span(opt.workload.c_str(), 0, start, Clock::now(), root);

    const auto &m = ts.metrics();
    const double cycles = static_cast<double>(w * sp.window);
    setStepMetrics(r, traced.allSteps, m.totalHops());
    setSimCounts(r, m, in_flight / cycles);
    const auto overhead_pct = [&](const Twin &t) {
        return 100.0 * (pairedRatio(t, twins[0]) - 1.0);
    };
    r.set("bench.trace_overhead_pct", overhead_pct(traced), "%");
    if (diag_obs) {
        r.set("obs.health_overhead_pct", overhead_pct(twins[2]), "%");
        r.set("obs.trace_overhead_pct", overhead_pct(twins[3]), "%");
    }
    if (diag_shards) {
        r.set("shard_pool.shards", twins[2].sim->shards(), "count");
        r.set("shard_pool.step_ns_p50", quantile(twins[2].allSteps, 0.5),
              "ns");
        r.set("shard_pool.speedup", pairedRatio(twins[0], twins[2]),
              "ratio");
    }
    r.set("fault.transitions",
          static_cast<double>(m.faultDowns() + m.faultUps()), "count");
    r.set("fault.epochs_seen", static_cast<double>(epochs.size()),
          "count");
    double run_until_total = 0;
    if (timed != nullptr) {
        run_until_total = timed->totalNs;
        r.set("fault.run_until_ns",
              timed->calls > 0
                  ? timed->totalNs / static_cast<double>(timed->calls)
                  : 0,
              "ns");
    }
    if (!epoch_steps.empty()) {
        const double ep = quantile(epoch_steps, 0.5);
        r.set("fault.epoch_step_ns_p50", ep, "ns");
        r.set("fault.epoch_penalty_ns",
              ep - quantile(steady_steps, 0.5), "ns");
    }
    const sim::RouteCache *rc = ts.routeCache();
    r.set("route_cache.capacity_mib",
          rc != nullptr ? static_cast<double>(
                              rc->capacity() *
                              sizeof(sim::RouteCache::Entry)) /
                              (1024.0 * 1024.0)
                        : 0.0,
          "MiB");

    ProbeOptions popt;
    popt.churnReplay = timed == nullptr;
    runLayerProbes(opt, net, popt, r, tracer);
    double step_total = 0;
    for (const double d : traced.allSteps)
        step_total += d;
    setUnattributed(r, m, step_total, run_until_total);
}

} // namespace

Result
runSimWorkload(const Options &opt, Tracer &tracer, HostSpeed &host)
{
    const SimSpec sp = specFor(opt);
    Network net;
    net.cfg.netSize = sp.n;
    net.cfg.scheme = sp.scheme;
    net.cfg.injectionRate = 0.35;
    net.cfg.maxPacketAge = 500;
    net.cfg.seed = subSeed(opt.seed, 1);
    net.churn = sp.churn;
    Result r;
    timeSimSetup(opt, *sim::FaultScenario::parse(sp.faults), net, r);
    if (opt.trace)
        runTraced(opt, net, sp, r, tracer, host);
    else
        runUntraced(opt, net, sp, r, host);
    return r;
}

} // namespace ibench
