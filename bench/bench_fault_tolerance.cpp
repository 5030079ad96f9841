/**
 * @file
 * Experiment C7: fault-tolerance comparison across schemes — the
 * fraction of (source, destination) pairs still routable as random
 * link blockages accumulate, per scheme, against the oracle.  This
 * is the quantitative version of the paper's Section 1/4 claims:
 * the SDT schemes cover every blockage the prior schemes cover,
 * and REROUTE covers exactly what is physically coverable.
 */

#include <benchmark/benchmark.h>

#include <iomanip>
#include <iostream>

#include "bench_common.hpp"
#include "baselines/lookahead.hpp"
#include "core/oracle.hpp"
#include "core/reroute.hpp"
#include "core/ssdt.hpp"
#include "fault/fault_view.hpp"
#include "fault/injection.hpp"
#include "sim/route_cache.hpp"

namespace {

using namespace iadm;

void
sweep(const char *title, const topo::IadmTopology &net,
      const std::function<fault::FaultSet(std::size_t, Rng &)> &inject)
{
    const Label n_size = net.size();
    Rng rng(31337);
    std::cout << title << "\n";
    std::cout << std::setw(8) << "faults" << std::setw(10)
              << "oracle" << std::setw(10) << "REROUTE"
              << std::setw(10) << "SSDT" << std::setw(10)
              << "MS-bit" << std::setw(10) << "lookahd" << "\n";
    for (std::size_t f : {0u, 4u, 8u, 16u, 32u, 64u}) {
        std::size_t total = 0, oracle = 0, rr = 0, ss = 0, ms = 0,
                    la = 0;
        for (int trial = 0; trial < 150; ++trial) {
            const auto fs = inject(f, rng);
            for (int k = 0; k < 10; ++k) {
                const auto s =
                    static_cast<Label>(rng.uniform(n_size));
                const auto d =
                    static_cast<Label>(rng.uniform(n_size));
                ++total;
                oracle += core::oracleReachable(net, fs, s, d);
                rr += core::universalRoute(net, fs, s, d).ok;
                core::SsdtRouter router(net);
                ss += router.route(s, d, fs).delivered;
                ms += baselines::dynamicDistanceRoute(
                          net, fs, s, d,
                          baselines::McMillenScheme::ExtraTagBit)
                          .delivered;
                la += baselines::lookaheadRoute(net, fs, s, d)
                          .delivered;
            }
        }
        const auto pct = [&](std::size_t v) {
            return 100.0 * static_cast<double>(v) /
                   static_cast<double>(total);
        };
        std::cout << std::setw(8) << f << std::fixed
                  << std::setprecision(1) << std::setw(9)
                  << pct(oracle) << "%" << std::setw(9) << pct(rr)
                  << "%" << std::setw(9) << pct(ss) << "%"
                  << std::setw(9) << pct(ms) << "%" << std::setw(9)
                  << pct(la) << "%\n";
    }
    std::cout << "\n";
}

void
printReport()
{
    const topo::IadmTopology net(64);
    std::cout << "=== C7: routable pairs vs blockages (N=64) ===\n";
    sweep("-- arbitrary random link blockages --", net,
          [&](std::size_t f, Rng &rng) {
              return fault::randomLinkFaults(net, f, rng);
          });
    sweep("-- nonstraight-only blockages (SSDT's domain) --", net,
          [&](std::size_t f, Rng &rng) {
              return fault::randomNonstraightFaults(net, f, rng);
          });
    std::cout << "(REROUTE always matches the oracle; SSDT and the "
                 "[9]/[10] schemes trail\nonce straight links "
                 "block, and coincide with the oracle on the\n"
                 "nonstraight-only sweep until double blockages "
                 "appear.)\n\n";
}

void
BM_SsdtRouteFaulty(benchmark::State &state)
{
    const topo::IadmTopology net(64);
    Rng rng(5);
    const auto fs = fault::randomNonstraightFaults(
        net, static_cast<std::size_t>(state.range(0)), rng);
    core::SsdtRouter router(net);
    Label s = 0;
    for (auto _ : state) {
        auto res = router.route(s, (s * 13 + 5) % 64, fs);
        benchmark::DoNotOptimize(res.delivered);
        s = (s + 1) % 64;
    }
}
BENCHMARK(BM_SsdtRouteFaulty)->Arg(0)->Arg(16)->Arg(64);

void
BM_McMillenExtraBitFaulty(benchmark::State &state)
{
    const topo::IadmTopology net(64);
    Rng rng(5);
    const auto fs = fault::randomNonstraightFaults(
        net, static_cast<std::size_t>(state.range(0)), rng);
    Label s = 0;
    for (auto _ : state) {
        auto res = baselines::dynamicDistanceRoute(
            net, fs, s, (s * 13 + 5) % 64,
            baselines::McMillenScheme::ExtraTagBit);
        benchmark::DoNotOptimize(res.delivered);
        s = (s + 1) % 64;
    }
}
BENCHMARK(BM_McMillenExtraBitFaulty)->Arg(0)->Arg(16)->Arg(64);

/** Fresh REROUTE per (src, dst): the uncached injection cost. */
void
BM_RerouteUncached(benchmark::State &state)
{
    const topo::IadmTopology net(64);
    Rng rng(5);
    const auto fs = fault::randomLinkFaults(
        net, static_cast<std::size_t>(state.range(0)), rng);
    Label s = 0;
    for (auto _ : state) {
        auto res =
            core::universalRoute(net, fs, s, (s * 13 + 5) % 64);
        benchmark::DoNotOptimize(res.ok);
        s = (s + 1) % 64;
    }
}
BENCHMARK(BM_RerouteUncached)->Arg(0)->Arg(16)->Arg(64);

/**
 * The same pair stream through the fault-epoch route cache: after
 * the first lap of 64 sources every resolution is a hit — a clear
 * pair's scan of the FaultSet, or a stored repair's replay — so
 * this measures the steady-state cost of a cached resolution.
 */
void
BM_RerouteCached(benchmark::State &state)
{
    const topo::IadmTopology net(64);
    Rng rng(5);
    const auto fs = fault::randomLinkFaults(
        net, static_cast<std::size_t>(state.range(0)), rng);
    sim::RouteCache cache(64);
    Label s = 0;
    for (auto _ : state) {
        const auto [e, hit] =
            cache.resolveUniversal(net, fs, s, (s * 13 + 5) % 64);
        benchmark::DoNotOptimize(e->ok());
        benchmark::DoNotOptimize(hit);
        s = (s + 1) % 64;
    }
}
BENCHMARK(BM_RerouteCached)->Arg(0)->Arg(16)->Arg(64);

/**
 * Pure decode cost of a compressed cache entry: expanding the
 * 16-bit delta word back into the per-stage switch list a packet
 * embeds.  This is the extra work a hit pays under the 16-byte
 * entry layout compared to copying a stored pathSw[] — the faults
 * arg only varies the state bits decoded, the cost is fault-blind
 * by construction (~n integer ops, no loads).
 */
void
BM_DecodeDelta(benchmark::State &state)
{
    const topo::IadmTopology net(64);
    Rng rng(5);
    const auto fs = fault::randomLinkFaults(
        net, static_cast<std::size_t>(state.range(0)), rng);
    // Pre-resolve the pair stream's delta words (the cache's job);
    // the loop then measures decode alone.
    std::uint16_t deltas[64];
    for (Label s = 0; s < 64; ++s) {
        const auto cr = core::universalRouteCompact(
            net, fs, s, (s * 13 + 5) % 64);
        deltas[s] =
            static_cast<std::uint16_t>(cr.tag.stateBits());
    }
    std::uint16_t sw[sim::RouteCache::kMaxPathSw];
    Label s = 0;
    for (auto _ : state) {
        const unsigned len = core::decodeDelta(
            s, (s * 13 + 5) % 64, deltas[s], net.stages(), sw);
        benchmark::DoNotOptimize(len);
        benchmark::DoNotOptimize(sw[net.stages()]);
        s = (s + 1) % 64;
    }
}
BENCHMARK(BM_DecodeDelta)->Arg(0)->Arg(16)->Arg(64);

/**
 * One route-cache miss's fill at the churn benchmark's scale (N=1024,
 * 96 random link faults, 1024 distinct pairs): REROUTE's compact
 * form over the hashed FaultSet, and over the bitset FaultView the
 * simulator and the daemon fill through.  Same kernel, same answers
 * (tests/reroute_test.cpp); only the blockage test differs.
 */
template <bool View>
void
BM_RerouteFill(benchmark::State &state)
{
    const topo::IadmTopology net(1024);
    Rng rng(5);
    const auto fs = fault::randomLinkFaults(net, 96, rng);
    fault::FaultView view(net.stages(), net.size());
    view.refresh(fs);
    Label s = 0;
    for (auto _ : state) {
        const Label d = (s * 613 + 5) & 1023;
        const auto cr = View
                            ? core::universalRouteCompact(net, view, s, d)
                            : core::universalRouteCompact(net, fs, s, d);
        benchmark::DoNotOptimize(cr.tag);
        s = (s + 1) & 1023;
    }
}
BENCHMARK_TEMPLATE(BM_RerouteFill, false);
BENCHMARK_TEMPLATE(BM_RerouteFill, true);

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
