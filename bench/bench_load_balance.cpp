/**
 * @file
 * Experiment C6: the Section 4 load-balancing claim in the packet
 * simulator.  The report prints latency / throughput / nonstraight
 * imbalance for static vs balanced SSDT across injection rates and
 * traffic patterns; the benchmarks measure simulation speed.
 *
 * Both report sections run through the deterministic parallel sweep
 * runner and are archived as bench/out/load_balance*.json.
 */

#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "sim/network_sim.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace iadm;
using namespace iadm::sim;

/** Mean nonstraight imbalance over the non-final stages. */
double
meanImbalance(const Metrics &m)
{
    double sum = 0;
    unsigned counted = 0;
    for (unsigned i = 0; i + 1 < m.stages(); ++i) {
        sum += m.nonstraightImbalance(i);
        ++counted;
    }
    return counted == 0 ? 0.0 : sum / counted;
}

std::vector<CellResult>
sweepAndSave(const SweepGrid &grid, const std::string &name)
{
    SweepOptions opts;
    const unsigned hw = std::thread::hardware_concurrency();
    opts.workers = hw == 0 ? 1 : hw;
    auto results = runSweep(grid, opts);
    std::filesystem::create_directories("bench/out");
    std::ofstream os("bench/out/" + name + ".json");
    if (os) {
        ReportOptions ropts;
        ropts.buildType = iadm::bench::buildType();
        writeSweepReport(os, grid, results, ropts);
    }
    return results;
}

void
printReport()
{
    const Label n_size = 32;
    const Cycle cycles = 8000;
    std::cout << "=== C6: SSDT load balancing (N=" << n_size
              << ", uniform traffic, " << cycles << " cycles) ===\n";

    SweepGrid c6;
    c6.netSizes = {n_size};
    c6.schemes = {RoutingScheme::SsdtStatic,
                  RoutingScheme::SsdtBalanced};
    c6.injectionRates = {0.1, 0.25, 0.4, 0.55};
    c6.warmupCycles = cycles / 5;
    c6.measureCycles = cycles;
    c6.masterSeed = 1234;
    const auto results = sweepAndSave(c6, "load_balance_uniform");

    std::cout << std::setw(7) << "rate" << std::setw(15) << "scheme"
              << std::setw(10) << "latency" << std::setw(12)
              << "thruput" << std::setw(12) << "imbalance"
              << std::setw(10) << "stalls" << "\n";
    for (const double rate : c6.injectionRates) {
        for (const auto scheme : c6.schemes) {
            for (const auto &cr : results) {
                if (cr.cell.scheme != scheme ||
                    cr.cell.injectionRate != rate)
                    continue;
                const auto &rep = cr.replicates[0];
                std::cout
                    << std::setw(7) << std::setprecision(2)
                    << std::fixed << rate << std::setw(15)
                    << routingSchemeName(scheme) << std::setw(10)
                    << rep.metrics.avgLatency() << std::setw(12)
                    << std::setprecision(4)
                    << rep.metrics.throughput(rep.measuredCycles)
                    << std::setw(12) << std::setprecision(3)
                    << meanImbalance(rep.metrics) << std::setw(10)
                    << rep.metrics.totalStalls() << "\n";
            }
        }
    }

    std::cout << "\n-- hotspot traffic (20% to node 0, rate 0.3) "
                 "--\n";
    SweepGrid hot = c6;
    hot.injectionRates = {0.3};
    hot.traffics = {ScenarioSpec::parse("hotspot:0:0.2").value()};
    const auto hot_results =
        sweepAndSave(hot, "load_balance_hotspot");
    for (const auto &cr : hot_results) {
        const auto &rep = cr.replicates[0];
        std::cout << "  " << std::setw(14)
                  << routingSchemeName(cr.cell.scheme)
                  << "  latency=" << std::setprecision(2)
                  << std::fixed << rep.metrics.avgLatency()
                  << "  throughput=" << std::setprecision(4)
                  << rep.metrics.throughput(rep.measuredCycles)
                  << "  imbalance=" << std::setprecision(3)
                  << meanImbalance(rep.metrics) << "\n";
    }
    std::cout << "\n";
}

void
BM_SimCyclesPerSecond(benchmark::State &state)
{
    SimConfig cfg;
    cfg.netSize = static_cast<Label>(state.range(0));
    cfg.scheme = RoutingScheme::SsdtBalanced;
    cfg.injectionRate = 0.3;
    cfg.seed = 77;
    NetworkSim s(cfg, ScenarioSpec{}.make(cfg.netSize));
    for (auto _ : state)
        s.step();
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimCyclesPerSecond)->Arg(16)->Arg(64)->Arg(256);

void
BM_SimSchemes(benchmark::State &state)
{
    SimConfig cfg;
    cfg.netSize = 64;
    cfg.scheme = static_cast<RoutingScheme>(state.range(0));
    cfg.injectionRate = 0.3;
    cfg.seed = 78;
    NetworkSim s(cfg, ScenarioSpec{}.make(cfg.netSize));
    for (auto _ : state)
        s.step();
    state.SetLabel(routingSchemeName(cfg.scheme));
}
BENCHMARK(BM_SimSchemes)->DenseRange(0, 3, 1);

} // namespace

int
main(int argc, char **argv)
{
    iadm::bench::guardBuildType();
    printReport();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
