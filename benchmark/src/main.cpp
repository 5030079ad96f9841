/**
 * @file
 * Entry point of the repository benchmark (benchmark/README.md).
 *
 *   iadm_bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
 *              [--smoke] [--out-dir DIR]
 *
 * Runs one workload and prints, as the last line of standard output,
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * Untraced runs report the end-to-end metrics; traced runs report
 * the per-layer metrics and write trace-NAME.json (spans) and
 * summary-NAME.json (every metric measured) into DIR.  The exit
 * code is nonzero when a correctness gate fails.
 */

#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include <sched.h>
#include <unistd.h>

#include "bench.hpp"

namespace {

using namespace ibench;

struct MetricName
{
    const char *name;
    const char *unit;
};

// These two lists are the metric sets of BENCHMARK.json: every
// workload reports every one of them.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ops_per_s", "1/s"},
    {"latency_p50_us", "us"},
};

constexpr MetricName kPerLayer[] = {
    {"network_sim.construct_ms", "ms"},
    {"network_sim.step_ns_p50", "ns"},
    {"network_sim.step_ns_p99", "ns"},
    {"network_sim.ns_per_hop", "ns"},
    {"network_sim.unattributed_frac", "ratio"},
    {"network_sim.injected", "count"},
    {"network_sim.delivered", "count"},
    {"network_sim.dropped", "count"},
    {"network_sim.throttled", "count"},
    {"network_sim.unroutable", "count"},
    {"network_sim.hops", "count"},
    {"network_sim.stalls", "count"},
    {"network_sim.reroutes", "count"},
    {"network_sim.backtrack_hops", "count"},
    {"network_sim.in_flight_mean", "count"},
    {"network_sim.latency_cycles_mean", "cycles"},
    {"fail_frac", "ratio"},
    {"route_cache.hits", "count"},
    {"route_cache.misses", "count"},
    {"route_cache.evictions", "count"},
    {"route_cache.hit_ratio", "ratio"},
    {"route_cache.hit_ns", "ns"},
    {"route_cache.miss_ns", "ns"},
    {"route_cache.capacity_mib", "MiB"},
    {"core.reroute_ns_p50", "ns"},
    {"core.reroute_ns_p99", "ns"},
    {"core.reroute_fail_ratio", "ratio"},
    {"core.decode_ns", "ns"},
    {"core.initial_tag_ns", "ns"},
    {"traffic.pick_ns", "ns"},
    {"fault.transitions", "count"},
    {"fault.run_until_ns", "ns"},
    {"wire.parse_ns", "ns"},
    {"wire.format_ns", "ns"},
    {"server_core.resolve_ns_per_req", "ns"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.host_slowdown", "ratio"},
};

constexpr const char *kWorkloads[] = {
    "sweep-grid", "sim-static-n1024", "sim-churn-n1024",
    "sim-clean-n1024", "serve-n1024",
};

std::string
num(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
resultJson(const Result &r, const std::vector<std::string> &names)
{
    std::string s = std::string("{\"correct\": ") +
                    (r.correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
    bool first = true;
    for (const auto &n : names) {
        const auto &m = r.metrics.at(n);
        s += (first ? "" : ", ") + ("\"" + n + "\": {\"value\": ") +
             num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    return s + "}}";
}

int
usage()
{
    std::cerr << "usage: iadm_bench --workload NAME [--seed S] "
                 "[--seconds T] [--trace 0|1] [--smoke] "
                 "[--out-dir DIR]\n  workloads:";
    for (const char *w : kWorkloads)
        std::cerr << " " << w;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool seconds_given = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), nullptr);
            seconds_given = true;
        } else if (a == "--trace")
            opt.trace = v != "0";
        else if (a == "--out-dir")
            opt.outDir = v;
        else
            return usage();
    }
    if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const char *w) { return opt.workload == w; }) ==
            std::end(kWorkloads) ||
        !(opt.seconds > 0))
        return usage();
    if (opt.smoke && !seconds_given)
        opt.seconds = 0.5;
    // The load thread budget: min(4, nproc), nproc as the CPUs this
    // process may run on.
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    const int nproc = ::sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                          ? CPU_COUNT(&cpus)
                          : static_cast<int>(
                                std::thread::hardware_concurrency());
    opt.threads = static_cast<unsigned>(std::clamp(nproc, 1, 4));
    if (::chdir(opt.outDir.c_str()) != 0) {
        std::cerr << "cannot enter " << opt.outDir << ": "
                  << std::strerror(errno) << "\n";
        return 2;
    }

    Tracer tracer(opt.trace);
    // The sweep keeps all its workers busy at once, so its host samples
    // run on as many threads; the others sample on one.
    HostSpeed host(opt.workload == "sweep-grid" ? opt.threads : 1u);
    for (int i = 0; i < 3; ++i)
        host.sample();
    Result r;
    if (opt.workload == "sweep-grid")
        r = runSweepGrid(opt, tracer, host);
    else if (opt.workload == "serve-n1024")
        r = runServe(opt, tracer, host);
    else
        r = runSimWorkload(opt, tracer, host);
    r.set("peak_rss_mb", peakRssMib(), "MiB");

    // End-to-end timings at the reference host's speed (HostSpeed).
    const double slow = host.slowdown();
    r.set("bench.host_slowdown", slow, "ratio");
    if (!opt.trace)
        for (const auto &[name, per] :
             {std::pair<const char *, double>{"setup_s", 1 / slow},
              {"latency_p50_us", 1 / slow},
              {"ops_per_s", slow}}) {
            const auto it = r.metrics.find(name);
            if (it == r.metrics.end())
                continue;
            r.set(std::string(name) + ".raw", it->second.value,
                  it->second.unit);
            it->second.value *= per;
        }

    std::vector<std::string> names;
    for (const MetricName &m : opt.trace ? std::vector<MetricName>(
                                               std::begin(kPerLayer),
                                               std::end(kPerLayer))
                                         : std::vector<MetricName>(
                                               std::begin(kEndToEnd),
                                               std::end(kEndToEnd))) {
        const auto it = r.metrics.find(m.name);
        if (it == r.metrics.end() || !std::isfinite(it->second.value)) {
            r.gateFailures.push_back(std::string("metric ") + m.name +
                                     " was not measured");
            r.set(m.name, 0, m.unit);
        }
        names.push_back(m.name);
    }

    for (const auto &[name, m] : r.metrics)
        std::cerr << "  " << opt.workload << "  " << name << " = "
                  << num(m.value) << " " << m.unit << "\n";
    for (const auto &g : r.gateFailures)
        std::cerr << "GATE FAILED (" << opt.workload << "): " << g << "\n";

    if (opt.trace) {
        tracer.writeJson("trace-" + opt.workload + ".json", opt.workload);
        std::vector<std::string> all;
        for (const auto &kv : r.metrics)
            all.push_back(kv.first);
        std::ofstream("summary-" + opt.workload + ".json")
            << resultJson(r, all) << "\n";
    }
    std::cout << resultJson(r, names) << std::endl;
    return r.correct() ? 0 : 1;
}
