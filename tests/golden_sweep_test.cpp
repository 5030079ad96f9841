/**
 * @file
 * Golden-equivalence fixture for the simulator hot path.
 *
 * The flattened hot path (link tables, queue arena, cached TSDT
 * paths) must be a pure re-implementation: a fixed sweep grid over
 * all five routing schemes at N = 64, with static faults AND
 * transient blockages, must produce an iadm-sweep-v1 report that is
 * byte-identical to the fixture captured from the seed simulator
 * (tests/data/golden_sweep_n64.json).  The iadm-sweep-v1
 * determinism guarantee (same grid => same bytes, any worker count)
 * turns behavioural equivalence into a straight file diff.
 *
 * Regenerating (only after an *intentional* behaviour change):
 *   IADM_REGEN_GOLDEN=1 ./golden_sweep_test
 * and commit the updated fixture with an explanation.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/sweep.hpp"

namespace iadm {
namespace {

using namespace sim;

#ifndef IADM_TEST_DATA_DIR
#error "IADM_TEST_DATA_DIR must point at tests/data"
#endif

const char *const kFixturePath =
    IADM_TEST_DATA_DIR "/golden_sweep_n64.json";

/** The frozen grid.  Changing anything here invalidates the fixture. */
SweepGrid
goldenGrid()
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
    grid.faults = {FaultScenario{FaultScenario::Kind::RandomLinks, 6}};
    grid.traffics = {ScenarioSpec{}};
    grid.replicates = 2;
    grid.warmupCycles = 200;
    grid.measureCycles = 1200;
    grid.masterSeed = 20260806;
    return grid;
}

/**
 * Transient-blockage storm, derived entirely from the replicate's
 * scenario rng so the schedule is part of the frozen grid: 16 random
 * links each go down for 100-300 cycles inside the measure window.
 */
SweepOptions
goldenOptions()
{
    SweepOptions opts;
    opts.workers = 2;
    opts.setup = [](NetworkSim &s, const SweepCell &cell, Rng &rng) {
        const topo::IadmTopology topo(cell.netSize);
        for (int k = 0; k < 16; ++k) {
            const auto stage =
                static_cast<unsigned>(rng.uniform(topo.stages()));
            const auto j = static_cast<Label>(
                rng.uniform(cell.netSize));
            const auto kind = rng.uniform(3);
            const topo::Link link =
                kind == 0   ? topo.straightLink(stage, j)
                : kind == 1 ? topo.plusLink(stage, j)
                            : topo.minusLink(stage, j);
            const Cycle from = 250 + rng.uniform(900);
            const Cycle len = 100 + rng.uniform(200);
            s.scheduleTransientBlockage(link, from, from + len);
        }
    };
    return opts;
}

std::string
runGolden()
{
    const SweepGrid grid = goldenGrid();
    const auto results = runSweep(grid, goldenOptions());
    return sweepReportJson(grid, results); // wall clock off: frozen
}

TEST(GoldenSweep, FlattenedSimulatorMatchesSeedFixtureByteForByte)
{
    const std::string report = runGolden();

    if (std::getenv("IADM_REGEN_GOLDEN") != nullptr) {
        std::ofstream os(kFixturePath, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << kFixturePath;
        os << report;
        GTEST_SKIP() << "fixture regenerated at " << kFixturePath;
    }

    std::ifstream is(kFixturePath, std::ios::binary);
    ASSERT_TRUE(is) << "missing fixture " << kFixturePath
                    << " (run with IADM_REGEN_GOLDEN=1 to create)";
    std::ostringstream fixture;
    fixture << is.rdbuf();

    // Byte-for-byte: any drift in routing decisions, rng draw order,
    // metrics accounting or JSON formatting fails here.
    ASSERT_EQ(report.size(), fixture.str().size());
    EXPECT_TRUE(report == fixture.str())
        << "simulator output diverged from the golden fixture";
}

// --- faulted fixture: the route cache's home turf -----------------

const char *const kFaultedFixturePath =
    IADM_TEST_DATA_DIR "/golden_sweep_n64_faulted.json";

/**
 * The frozen faulted grid: every blockage class REROUTE
 * distinguishes (nonstraight, straight-containing random links, and
 * double-nonstraight) crossed with all five schemes, so the cached
 * REROUTE replay is pinned for Corollary 4.1 flips, BACKTRACK
 * rewrites and FAIL outcomes alike.
 */
SweepGrid
goldenFaultedGrid()
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
    grid.faults = {
        FaultScenario{FaultScenario::Kind::Nonstraight, 4},
        FaultScenario{FaultScenario::Kind::RandomLinks, 6},
        FaultScenario{FaultScenario::Kind::DoubleNonstraight, 2}};
    grid.traffics = {ScenarioSpec{}};
    grid.replicates = 2;
    grid.warmupCycles = 200;
    grid.measureCycles = 1200;
    grid.masterSeed = 20260807;
    return grid;
}

TEST(GoldenSweep, FaultedGridMatchesFixtureByteForByte)
{
    SweepOptions opts;
    opts.workers = 2;
    const SweepGrid grid = goldenFaultedGrid();
    const std::string report =
        sweepReportJson(grid, runSweep(grid, opts));

    if (std::getenv("IADM_REGEN_GOLDEN") != nullptr) {
        std::ofstream os(kFaultedFixturePath, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << kFaultedFixturePath;
        os << report;
        GTEST_SKIP() << "fixture regenerated at "
                     << kFaultedFixturePath;
    }

    std::ifstream is(kFaultedFixturePath, std::ios::binary);
    ASSERT_TRUE(is) << "missing fixture " << kFaultedFixturePath
                    << " (run with IADM_REGEN_GOLDEN=1 to create)";
    std::ostringstream fixture;
    fixture << is.rdbuf();
    ASSERT_EQ(report.size(), fixture.str().size());
    EXPECT_TRUE(report == fixture.str())
        << "faulted sweep diverged from the golden fixture";
}

// --- crossbar switches and queue capacities -----------------------

const char *const kCrossbarCapsFixturePath =
    IADM_TEST_DATA_DIR "/golden_sweep_n64_crossbar_caps.json";

/**
 * The frozen crossbar/capacity grid: every scheme with one- and
 * three-packet acceptance per switch per cycle, at queue capacities
 * that make the ring one slot (1), a padded power of two (3 in 4
 * slots) and deeper than the other fixtures (8), so the acceptance
 * counts and the ring masks of the service loop are pinned.  The age
 * cap keeps faulted ssdt and distance-tag cells from wedging.
 */
SweepGrid
goldenCrossbarCapsGrid()
{
    SweepGrid grid;
    grid.netSizes = {64};
    grid.schemes = {RoutingScheme::SsdtStatic,
                    RoutingScheme::SsdtBalanced,
                    RoutingScheme::TsdtSender,
                    RoutingScheme::DistanceTag,
                    RoutingScheme::TsdtDynamic};
    grid.injectionRates = {0.25};
    grid.queueCapacities = {1, 3, 8};
    grid.faults = {FaultScenario{FaultScenario::Kind::RandomLinks, 6}};
    grid.traffics = {ScenarioSpec{}};
    grid.crossbarModes = {false, true};
    grid.replicates = 2;
    grid.warmupCycles = 200;
    grid.measureCycles = 1200;
    grid.masterSeed = 20261019;
    grid.maxPacketAge = 500;
    return grid;
}

TEST(GoldenSweep, CrossbarAndCapacityGridMatchesFixtureByteForByte)
{
    SweepOptions opts;
    opts.workers = 2;
    const SweepGrid grid = goldenCrossbarCapsGrid();
    const std::string report =
        sweepReportJson(grid, runSweep(grid, opts));

    if (std::getenv("IADM_REGEN_GOLDEN") != nullptr) {
        std::ofstream os(kCrossbarCapsFixturePath, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << kCrossbarCapsFixturePath;
        os << report;
        GTEST_SKIP() << "fixture regenerated at "
                     << kCrossbarCapsFixturePath;
    }

    std::ifstream is(kCrossbarCapsFixturePath, std::ios::binary);
    ASSERT_TRUE(is) << "missing fixture " << kCrossbarCapsFixturePath
                    << " (run with IADM_REGEN_GOLDEN=1 to create)";
    std::ostringstream fixture;
    fixture << is.rdbuf();
    ASSERT_EQ(report.size(), fixture.str().size());
    EXPECT_TRUE(report == fixture.str())
        << "crossbar/capacity sweep diverged from the golden fixture";
}

} // namespace
} // namespace iadm
