#include <atomic>
#include <cmath>
#include <fstream>
#include <thread>

#include <sys/resource.h>

#include "bench.hpp"
#include "sim/traffic.hpp"

namespace ibench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    const auto k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    const std::size_t idx = k == 0 ? 0 : std::min(k, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(idx),
                     v.end());
    return v[idx];
}

double
peakRssMib()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

namespace {
volatile std::uint64_t gSink = 0;
}

void
consume(std::uint64_t v)
{
    gSink = gSink + v;
}

namespace {

/**
 * The kernel's time on the reference host (the 4-vCPU Xeon VM of
 * README.md, at its quietest), so scaled metrics read as on that host.
 */
constexpr double kReferenceNs = 9.45e5;

double
kernelNs()
{
    // Four independent chains keep several execution ports busy, as
    // the workloads do, so the kernel also feels a neighbour on the
    // same physical core; one dependent chain would not.
    const auto a = Clock::now();
    std::uint64_t x[4] = {1, 2, 3, 4};
    for (int i = 0; i < (1 << 18); ++i)
        for (std::uint64_t &v : x) {
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            v *= 0xff51afd7ed558ccdull;
        }
    consume(x[0] + x[1] + x[2] + x[3]);
    return ns(a, Clock::now());
}

} // namespace

void
HostSpeed::sample()
{
    // All threads start together, so the sample sees the cores the
    // workload's threads share with each other as well as the host.
    std::vector<double> t(threads_);
    std::atomic<bool> go{false};
    std::vector<std::thread> others;
    for (unsigned i = 1; i < threads_; ++i)
        others.emplace_back([&, i] {
            while (!go.load(std::memory_order_acquire))
                ;
            t[i] = kernelNs();
        });
    go.store(true, std::memory_order_release);
    t[0] = kernelNs();
    for (auto &th : others)
        th.join();
    double sum = 0;
    for (const double v : t)
        sum += v;
    samples_.push_back(sum / threads_);
}

double
HostSpeed::slowdown() const
{
    return median(samples_) / kReferenceNs;
}

std::uint64_t
Tracer::span(const char *name, std::uint64_t parent,
             Clock::time_point a, Clock::time_point b, std::uint64_t id)
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    if (id == 0)
        id = nextId_++;
    if (spans_.size() >= kMaxSpans) {
        ++dropped_;
        return id;
    }
    spans_.push_back({id, parent, name,
                      static_cast<std::int64_t>(ns(origin_, a)),
                      static_cast<std::int64_t>(ns(origin_, b))});
    return id;
}

void
Tracer::writeJson(const std::string &path,
                  const std::string &workload) const
{
    std::ofstream os(path);
    os << "{\"workload\":\"" << workload << "\",\"dropped_spans\":"
       << dropped_ << ",\"spans\":[";
    bool first = true;
    for (const Span &s : spans_) {
        os << (first ? "\n" : ",\n") << "{\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
           << "\",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs << ",\"workload\":\""
           << workload << "\"}";
        first = false;
    }
    os << "\n]}\n";
}

void
Result::gate(bool ok, const std::string &what)
{
    if (!ok)
        gateFailures.push_back(what);
}

Fingerprint
Fingerprint::of(const iadm::sim::Metrics &m)
{
    Fingerprint f;
    f.injected = m.injected();
    f.delivered = m.delivered();
    f.dropped = m.dropped();
    f.throttled = m.throttled();
    f.unroutable = m.unroutable();
    f.hops = m.totalHops();
    f.stalls = m.totalStalls();
    f.reroutes = m.totalReroutes();
    f.backtrackHops = m.backtrackHops();
    f.cacheHits = m.routeCacheHits();
    f.cacheMisses = m.routeCacheMisses();
    return f;
}

void
timeSimSetup(const Options &opt, const iadm::sim::FaultScenario &scenario,
             Network &net, Result &r)
{
    const Label n = net.cfg.netSize;
    std::vector<double> setup, construct;
    for (int i = 0; i < kSetups; ++i) {
        const auto a = Clock::now();
        const iadm::topo::IadmTopology topo(n);
        iadm::Rng rng(subSeed(opt.seed, 2));
        iadm::fault::FaultSet faults = scenario.make(topo, rng);
        const auto b = Clock::now();
        iadm::sim::NetworkSim s(
            net.cfg, std::make_unique<iadm::sim::UniformTraffic>(n),
            faults);
        const auto c = Clock::now();
        setup.push_back(ns(a, c) * 1e-9);
        construct.push_back(ns(b, c) * 1e-6);
        consume(s.now());
        net.faults = std::move(faults);
    }
    r.set("setup_s", median(setup), "s");
    r.set("network_sim.construct_ms", median(construct), "ms");
}

void
setSimCounts(Result &r, const iadm::sim::Metrics &m,
             double in_flight_mean)
{
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    r.set("network_sim.injected", d(m.injected()), "count");
    r.set("network_sim.delivered", d(m.delivered()), "count");
    r.set("network_sim.dropped", d(m.dropped()), "count");
    r.set("network_sim.throttled", d(m.throttled()), "count");
    r.set("network_sim.unroutable", d(m.unroutable()), "count");
    r.set("network_sim.hops", d(m.totalHops()), "count");
    r.set("network_sim.stalls", d(m.totalStalls()), "count");
    r.set("network_sim.reroutes", d(m.totalReroutes()), "count");
    r.set("network_sim.backtrack_hops", d(m.backtrackHops()), "count");
    r.set("network_sim.in_flight_mean", in_flight_mean, "count");
    r.set("network_sim.latency_cycles_mean", m.avgLatency(), "cycles");

    // Offered = every injection attempt: enqueued, refused for
    // queue space (throttled) or refused as unroutable by REROUTE.
    const double offered =
        d(m.injected()) + d(m.throttled()) + d(m.unroutable());
    const double lost =
        d(m.dropped()) + d(m.throttled()) + d(m.unroutable());
    r.set("fail_frac", offered > 0 ? lost / offered : 0, "ratio");

    const double hits = d(m.routeCacheHits());
    const double misses = d(m.routeCacheMisses());
    r.set("route_cache.hits", hits, "count");
    r.set("route_cache.misses", misses, "count");
    r.set("route_cache.evictions", d(m.routeCacheEvictions()), "count");
    r.set("route_cache.hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
}

void
setStepMetrics(Result &r, const std::vector<double> &step_ns,
               std::uint64_t hops)
{
    double total = 0;
    for (const double v : step_ns)
        total += v;
    r.set("network_sim.step_ns_p50", quantile(step_ns, 0.5), "ns");
    r.set("network_sim.step_ns_p99", quantile(step_ns, 0.99), "ns");
    r.set("network_sim.ns_per_hop",
          hops > 0 ? total / static_cast<double>(hops) : 0, "ns");
}

} // namespace ibench
