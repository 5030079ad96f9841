/**
 * @file
 * Perf-gate smoke (`ctest -L perf`): the compressed-delta route
 * cache is a speed change only.  Each of the three golden grids
 * (plain transient-storm, static-faulted, churned — the same grids
 * the golden fixtures freeze) is run twice, cache on and cache
 * force-disabled, and the two iadm-sweep-v1 reports must be
 * byte-identical once the route_cache_* counter lines (the only
 * legitimately cache-dependent output) are stripped.
 *
 * This is deliberately a live A/B, not a fixture diff: it stays
 * valid across intentional fixture regenerations, and it pins the
 * decode-on-hit path (packets built from decodeDelta'd pathSw)
 * against the never-cached path on every grid class at once.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/sweep.hpp"
#include "topology/iadm.hpp"

namespace iadm {
namespace {

using namespace sim;

/** All five schemes at N = 64 — shared base of the three grids. */
SweepGrid
baseGrid(std::uint64_t master_seed)
{
    SweepGrid grid;
    grid.netSizes = {64};
    grid.schemes = {RoutingScheme::SsdtStatic,
                    RoutingScheme::SsdtBalanced,
                    RoutingScheme::TsdtSender,
                    RoutingScheme::DistanceTag,
                    RoutingScheme::TsdtDynamic};
    grid.injectionRates = {0.25};
    grid.queueCapacities = {4};
    grid.traffics = {ScenarioSpec{}};
    grid.replicates = 1; // half the golden runtime, same claim
    grid.warmupCycles = 200;
    grid.measureCycles = 1200;
    grid.masterSeed = master_seed;
    return grid;
}

/** goldenGrid() of golden_sweep_test.cpp, one replicate. */
SweepGrid
plainGrid()
{
    SweepGrid grid = baseGrid(20260806);
    grid.faults = {FaultScenario{FaultScenario::Kind::RandomLinks, 6}};
    return grid;
}

/** Its transient-blockage storm, verbatim (same rng draw order). */
void
scheduleStorm(NetworkSim &s, const SweepCell &cell, Rng &rng)
{
    const topo::IadmTopology topo(cell.netSize);
    for (int k = 0; k < 16; ++k) {
        const auto stage =
            static_cast<unsigned>(rng.uniform(topo.stages()));
        const auto j = static_cast<Label>(rng.uniform(cell.netSize));
        const auto kind = rng.uniform(3);
        const topo::Link link =
            kind == 0   ? topo.straightLink(stage, j)
            : kind == 1 ? topo.plusLink(stage, j)
                        : topo.minusLink(stage, j);
        const Cycle from = 250 + rng.uniform(900);
        const Cycle len = 100 + rng.uniform(200);
        s.scheduleTransientBlockage(link, from, from + len);
    }
}

/** goldenFaultedGrid() of golden_sweep_test.cpp, one replicate. */
SweepGrid
faultedGrid()
{
    SweepGrid grid = baseGrid(20260807);
    grid.faults = {
        FaultScenario{FaultScenario::Kind::Nonstraight, 4},
        FaultScenario{FaultScenario::Kind::RandomLinks, 6},
        FaultScenario{FaultScenario::Kind::DoubleNonstraight, 2}};
    return grid;
}

/** goldenChurnGrid() of churn_test.cpp, one replicate. */
SweepGrid
churnGrid()
{
    SweepGrid grid = baseGrid(20260807);
    grid.faults = {FaultScenario{FaultScenario::Kind::RandomLinks, 4}};
    grid.churns = {ChurnSpec::parse("geometric:500:100").value()};
    grid.measureCycles = 1000;
    grid.maxPacketAge = 600;
    return grid;
}

/** Drop the route_cache_* lines (hit/miss/eviction counters are the
 *  one part of the report allowed to differ when the cache toggles). */
std::string
stripCacheStats(const std::string &report)
{
    std::istringstream is(report);
    std::ostringstream os;
    std::string line;
    while (std::getline(is, line)) {
        if (line.find("route_cache") == std::string::npos)
            os << line << '\n';
    }
    return os.str();
}

void
expectCacheParity(const SweepGrid &grid, bool with_storm)
{
    SweepOptions cached;
    cached.workers = 2;
    if (with_storm)
        cached.setup = scheduleStorm;
    const std::string on =
        sweepReportJson(grid, runSweep(grid, cached));

    SweepOptions uncached;
    uncached.workers = 2;
    uncached.setup = [with_storm](NetworkSim &s,
                                  const SweepCell &cell, Rng &rng) {
        s.setRouteCacheEnabled(false);
        // Disabling draws nothing from rng: the scenario stream
        // stays aligned with the cached twin's.
        if (with_storm)
            scheduleStorm(s, cell, rng);
    };
    const std::string off =
        sweepReportJson(grid, runSweep(grid, uncached));

    EXPECT_NE(on, off)
        << "cache counters should register traffic on tsdt cells";
    EXPECT_EQ(stripCacheStats(on), stripCacheStats(off))
        << "disabling the route cache changed routing results";
}

TEST(CacheParityPerf, PlainTransientStormGrid)
{
    expectCacheParity(plainGrid(), true);
}

TEST(CacheParityPerf, StaticFaultedGrid)
{
    expectCacheParity(faultedGrid(), false);
}

TEST(CacheParityPerf, ChurnedGrid)
{
    expectCacheParity(churnGrid(), false);
}

} // namespace
} // namespace iadm
