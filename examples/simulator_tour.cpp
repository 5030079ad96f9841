/**
 * @file
 * A tour of the packet simulator: traffic patterns, latency
 * percentiles, transient blockages, and the in-network dynamic
 * rerouting scheme — everything Section 4's MIMD setting implies.
 *
 * Usage: simulator_tour [N]
 */

#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "sim/network_sim.hpp"
#include "sim/scenario.hpp"

int
main(int argc, char **argv)
{
    using namespace iadm;
    using namespace iadm::sim;
    const Label n_size =
        argc > 1 ? static_cast<Label>(std::atoi(argv[1])) : 32;
    const Cycle cycles = 10000;

    // Traffic is a scenario spec (docs/SIMULATOR.md, "Scenario
    // grammar"): a destination source plus optional load shapers.
    const auto run = [&](const char *title, RoutingScheme scheme,
                         const char *traffic, double rate,
                         fault::FaultSet faults = {},
                         bool storm = false) {
        SimConfig cfg;
        cfg.netSize = n_size;
        cfg.scheme = scheme;
        cfg.injectionRate = rate;
        cfg.seed = 4242;
        NetworkSim s(cfg,
                     ScenarioSpec::parse(traffic).value().make(n_size),
                     std::move(faults));
        if (storm) {
            const topo::IadmTopology t(n_size);
            Rng rng(7);
            for (int k = 0; k < 40; ++k) {
                const auto stage = static_cast<unsigned>(
                    rng.uniform(t.stages()));
                const auto j =
                    static_cast<Label>(rng.uniform(n_size));
                const Cycle from = 500 + rng.uniform(cycles - 1500);
                s.scheduleTransientBlockage(
                    rng.chance(0.5) ? t.plusLink(stage, j)
                                    : t.minusLink(stage, j),
                    from, from + 400);
            }
        }
        s.run(cycles / 5);
        s.resetMetrics();
        s.run(cycles);
        const auto &m = s.metrics();
        std::cout << "  " << std::left << std::setw(34) << title
                  << std::right << " thr=" << std::fixed
                  << std::setprecision(4) << m.throughput(cycles)
                  << "  lat p50/p99=" << m.latencyPercentile(0.5)
                  << "/" << m.latencyPercentile(0.99)
                  << "  reroutes=" << m.totalReroutes()
                  << "  backhops=" << m.backtrackHops()
                  << "  dropped=" << m.dropped() << "\n";
    };

    std::cout << "== Packet simulator tour (N=" << n_size << ", "
              << cycles << " measured cycles) ==\n";

    run("uniform / ssdt-balanced", RoutingScheme::SsdtBalanced,
        "uniform", 0.35);
    run("hotspot / ssdt-balanced", RoutingScheme::SsdtBalanced,
        "hotspot:0:0.25", 0.3);
    run("bursty / ssdt-balanced", RoutingScheme::SsdtBalanced,
        "bursty:60:120", 0.6);
    // Transpose needs an even bit count; fall back to bit reversal.
    if (log2Floor(n_size) % 2 == 0) {
        run("transpose perm / tsdt", RoutingScheme::TsdtSender,
            "transpose", 0.4);
    } else {
        run("bit-reversal perm / tsdt", RoutingScheme::TsdtSender,
            "bitrev", 0.4);
    }
    run("uniform+storm / ssdt", RoutingScheme::SsdtStatic, "uniform",
        0.3, {}, true);

    // Static faults: dynamic in-network rerouting vs sender tags.
    const topo::IadmTopology t(n_size);
    Rng frng(9);
    fault::FaultSet fs;
    auto all = t.allLinks();
    for (std::size_t idx : frng.sample(all.size(), 6))
        fs.blockLink(all[idx]);
    fault::FaultSet fs2 = fs;
    run("6 static faults / tsdt-sender", RoutingScheme::TsdtSender,
        "uniform", 0.3, std::move(fs));
    run("6 static faults / tsdt-dynamic", RoutingScheme::TsdtDynamic,
        "uniform", 0.3, std::move(fs2));
    return 0;
}
