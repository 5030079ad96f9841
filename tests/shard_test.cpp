/**
 * @file
 * Sharded-simulation equivalence and order-dependence regressions.
 *
 * SimConfig::shards splits each cycle's injection fill + build phase
 * into parallel blocks; draw, probe, commit and the service loop
 * stay serial.  The claim is *byte* equality: an iadm-sweep-v1
 * report produced at any shard count must equal the serial report
 * bit for bit — same routing decisions, same RNG draw order, same
 * metric totals, same JSON.  The tests here pin that claim against
 * all four golden fixtures (plain, faulted, churned, scenario) at
 * 1/2/4/8 shards, and pin the order-dependence properties the
 * sharded injector must keep:
 *
 *  - inFlight() accounting must survive park-and-retry packets,
 *    backward walks and age-outs mid-fault-epoch at any shard count;
 *  - batched injection (resolutions on any shard, counters folded
 *    in attempt order at commit) must resolve every attempt as
 *    REROUTE would one at a time: the clear scan for a clear
 *    initial path, the kernel for a blocked one.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/reroute.hpp"
#include "fault/injection.hpp"
#include "obs/trace_sink.hpp"
#include "sim/sweep.hpp"

namespace iadm {
namespace {

using namespace sim;

#ifndef IADM_TEST_DATA_DIR
#error "IADM_TEST_DATA_DIR must point at tests/data"
#endif

// --- shared grid/fixture definitions ------------------------------
//
// These replicate the frozen grids of golden_sweep_test.cpp and
// churn_test.cpp verbatim (the fixture files are shared); any edit
// there invalidates these copies too.

SweepGrid
plainGrid()
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

/** Transient-blockage storm of the plain fixture (16 down windows). */
void
plainSetup(NetworkSim &s, const SweepCell &cell, Rng &rng)
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

SweepGrid
faultedGrid()
{
    SweepGrid grid = plainGrid();
    grid.faults = {
        FaultScenario{FaultScenario::Kind::Nonstraight, 4},
        FaultScenario{FaultScenario::Kind::RandomLinks, 6},
        FaultScenario{FaultScenario::Kind::DoubleNonstraight, 2}};
    grid.masterSeed = 20260807;
    return grid;
}

SweepGrid
churnGrid()
{
    SweepGrid grid = plainGrid();
    grid.faults = {FaultScenario{FaultScenario::Kind::RandomLinks, 4}};
    grid.churns = {ChurnSpec::parse("geometric:500:100").value()};
    grid.measureCycles = 1000;
    grid.masterSeed = 20260807;
    grid.maxPacketAge = 600;
    return grid;
}

/** The scenario grid of tests/scenario_test.cpp, replicated verbatim
 *  (the fixture file is shared).  The bursty and ramp cells advance
 *  per-source gate state in the serial draw phase — exactly the
 *  state the old std::vector<bool> bursty gate would have raced on
 *  under sharding. */
SweepGrid
scenarioGrid()
{
    SweepGrid grid;
    grid.netSizes = {64};
    grid.schemes = {RoutingScheme::SsdtStatic,
                    RoutingScheme::SsdtBalanced,
                    RoutingScheme::TsdtSender,
                    RoutingScheme::DistanceTag,
                    RoutingScheme::TsdtDynamic};
    grid.injectionRates = {0.3};
    grid.queueCapacities = {4};
    grid.traffics = {
        ScenarioSpec::parse("shape:bursty:16:64/dst:hotspot:0:0.2")
            .value(),
        ScenarioSpec::parse("dst:adversarial").value(),
        ScenarioSpec::parse("dst:mcast:4:8").value(),
        ScenarioSpec::parse("shape:ramp:0.2:0.8:500/dst:uniform")
            .value(),
        ScenarioSpec::parse("shape:closed:4/dst:uniform").value(),
    };
    grid.replicates = 1;
    grid.warmupCycles = 200;
    grid.measureCycles = 800;
    grid.masterSeed = 20260808;
    return grid;
}

std::string
runAtShards(const SweepGrid &grid, unsigned sim_shards,
            bool with_setup)
{
    SweepOptions opts;
    opts.workers = 2;
    opts.simShards = sim_shards;
    if (with_setup)
        opts.setup = plainSetup;
    return sweepReportJson(grid, runSweep(grid, opts));
}

std::string
readFixture(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is) << "missing fixture " << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/**
 * gtest has no printer for this struct, so the test listing shows its
 * raw bytes.  withSetup leads so those bytes start with a fixed value
 * rather than a string-literal address, which moves whenever the
 * binary's layout does.
 */
struct ShardFixtureCase
{
    bool withSetup;
    const char *name;
    const char *fixture;
    SweepGrid (*grid)();
};

class ShardIdentityP
    : public ::testing::TestWithParam<ShardFixtureCase>
{
};

/**
 * The central acceptance test: the serial (shards=1) report matches
 * the committed fixture bytes, and every sharded report matches the
 * serial one.  A single decision made in the wrong order anywhere —
 * RNG draw, cache probe, fill write-back, stage-0 build — changes
 * delivered/latency/stall counts and fails the byte compare.  The
 * fixtures cover every scheme, ssdt-balanced and closed-loop cells
 * included.
 */
TEST_P(ShardIdentityP, ReportBytesIdenticalAtEveryShardCount)
{
    const ShardFixtureCase &c = GetParam();
    const SweepGrid grid = c.grid();

    const std::string serial = runAtShards(grid, 1, c.withSetup);
    const std::string fixture = readFixture(
        std::string(IADM_TEST_DATA_DIR) + "/" + c.fixture);
    ASSERT_EQ(serial.size(), fixture.size())
        << "serial report diverged from fixture " << c.fixture;
    ASSERT_TRUE(serial == fixture)
        << "serial report diverged from fixture " << c.fixture;

    for (const unsigned shards : {2u, 4u, 8u}) {
        const std::string sharded =
            runAtShards(grid, shards, c.withSetup);
        ASSERT_EQ(sharded.size(), serial.size())
            << "shards=" << shards << " changed the report size";
        EXPECT_TRUE(sharded == serial)
            << "shards=" << shards
            << " produced different report bytes";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, ShardIdentityP,
    ::testing::Values(
        ShardFixtureCase{true, "plain", "golden_sweep_n64.json",
                         plainGrid},
        ShardFixtureCase{false, "faulted",
                         "golden_sweep_n64_faulted.json", faultedGrid},
        ShardFixtureCase{false, "churn", "golden_sweep_n64_churn.json",
                         churnGrid},
        ShardFixtureCase{false, "scenario",
                         "golden_sweep_scenarios_n64.json",
                         scenarioGrid}),
    [](const auto &info) { return info.param.name; });

// --- inFlight accounting at every shard count ---------------------

SimConfig
dynamicChurnConfig(unsigned shards)
{
    SimConfig cfg;
    cfg.netSize = 64;
    cfg.scheme = RoutingScheme::TsdtDynamic;
    cfg.injectionRate = 0.3;
    cfg.queueCapacity = 4;
    cfg.seed = 20260808;
    cfg.maxPacketAge = 120;
    cfg.shards = shards;
    return cfg;
}

/**
 * A simulator whose transient blockages force BACKTRACK rewrites,
 * park-and-retry verdicts and age-outs, so stage-0 queues fill,
 * back up and drain unevenly under the sharded injector's blocks
 * (with 8 shards each block builds into a handful of sources).
 */
NetworkSim
makeDynamicChurnSim(unsigned shards)
{
    const SimConfig cfg = dynamicChurnConfig(shards);
    NetworkSim s(cfg, ScenarioSpec{}.make(cfg.netSize));
    const topo::IadmTopology topo(cfg.netSize);
    Rng rng(7);
    for (int k = 0; k < 24; ++k) {
        const auto stage =
            static_cast<unsigned>(rng.uniform(topo.stages()));
        const auto j = static_cast<Label>(rng.uniform(cfg.netSize));
        const auto kind = rng.uniform(3);
        const topo::Link link =
            kind == 0   ? topo.straightLink(stage, j)
            : kind == 1 ? topo.plusLink(stage, j)
                        : topo.minusLink(stage, j);
        const Cycle from = 20 + rng.uniform(400);
        const Cycle len = 60 + rng.uniform(200);
        s.scheduleTransientBlockage(link, from, from + len);
    }
    return s;
}

/**
 * Conservation regression: injected packets either deliver, drop or
 * stay in flight — at every cycle, under sharding, through fault
 * epochs, backward walks and age-outs.  (Under IADM_SANITIZE builds
 * inFlight() additionally cross-checks the counter against a full
 * queue-arena scan on each call.)
 */
TEST(ShardInFlight, ConservationHoldsEveryCycleUnderChurn)
{
    NetworkSim s = makeDynamicChurnSim(8);
    ASSERT_EQ(s.shards(), 8u);
    for (Cycle c = 0; c < 600; ++c) {
        s.step();
        const Metrics &m = s.metrics();
        ASSERT_EQ(m.injected() - m.delivered() - m.dropped(),
                  s.inFlight())
            << "conservation broke at cycle " << c;
    }
    // The scenario must actually exercise the recovery machinery,
    // or the assertions above prove nothing.
    const Metrics &m = s.metrics();
    EXPECT_GT(m.backtrackHops(), 0u);
    EXPECT_GT(m.dropped(), 0u);
    EXPECT_GT(m.recoveries(), 0u);
}

/**
 * Serial/sharded twin lockstep: the same churn scenario stepped
 * cycle-by-cycle at shards=1 and shards=8 must agree on the live
 * packet count at every cycle and on every headline counter at the
 * end — park-and-retry packets mid-epoch included.
 */
TEST(ShardInFlight, ShardedTwinTracksSerialTwinCycleByCycle)
{
    NetworkSim serial = makeDynamicChurnSim(1);
    NetworkSim sharded = makeDynamicChurnSim(8);
    ASSERT_EQ(serial.shards(), 1u);
    ASSERT_EQ(sharded.shards(), 8u);

    for (Cycle c = 0; c < 600; ++c) {
        serial.step();
        sharded.step();
        ASSERT_EQ(serial.inFlight(), sharded.inFlight())
            << "live packet count diverged at cycle " << c;
    }

    const Metrics &a = serial.metrics();
    const Metrics &b = sharded.metrics();
    EXPECT_EQ(a.injected(), b.injected());
    EXPECT_EQ(a.delivered(), b.delivered());
    EXPECT_EQ(a.dropped(), b.dropped());
    EXPECT_EQ(a.droppedFor(DropReason::Expired),
              b.droppedFor(DropReason::Expired));
    EXPECT_EQ(a.droppedFor(DropReason::Unroutable),
              b.droppedFor(DropReason::Unroutable));
    EXPECT_EQ(a.totalStalls(), b.totalStalls());
    EXPECT_EQ(a.totalReroutes(), b.totalReroutes());
    EXPECT_EQ(a.totalHops(), b.totalHops());
    EXPECT_EQ(a.backtrackHops(), b.backtrackHops());
    EXPECT_EQ(a.recoveries(), b.recoveries());
    EXPECT_DOUBLE_EQ(a.avgRecoveryWait(), b.avgRecoveryWait());
    EXPECT_DOUBLE_EQ(a.avgLatency(), b.avgLatency());
    EXPECT_EQ(a.maxLatency(), b.maxLatency());
    EXPECT_EQ(a.latencyHistogram(), b.latencyHistogram());
    EXPECT_EQ(a.routeCacheHits(), b.routeCacheHits());
    EXPECT_EQ(a.routeCacheMisses(), b.routeCacheMisses());
}

// --- injection: one resolve/build path at every shard count --------

/** N=64 under enough static link faults that some pairs are
 *  unroutable. */
NetworkSim
makeInjectSim(RoutingScheme scheme, unsigned shards)
{
    SimConfig cfg;
    cfg.netSize = 64;
    cfg.scheme = scheme;
    cfg.injectionRate = 0.5;
    cfg.seed = 7;
    cfg.maxPacketAge = 200;
    cfg.shards = shards;
    const topo::IadmTopology topo(cfg.netSize);
    Rng rng(99);
    return NetworkSim(cfg, ScenarioSpec{}.make(cfg.netSize),
                      fault::randomLinkFaults(topo, 12, rng));
}

/**
 * Every faulted tsdt attempt resolves as REROUTE would one at a
 * time: a CacheHit is a pair whose initial path is clear, a
 * CacheMiss one whose path is blocked, and every injected tag and
 * every unroutable refusal is universalRouteCompact's answer for
 * the pair.  Sender REROUTE searches (the only source of Reroute
 * events under static faults) belong to misses.  The dynamic scheme
 * resolves nothing at injection: no hit or miss, and every packet
 * enters with its initial tag.  Untraced runs at 2 and 4 shards,
 * whose resolutions run on worker threads and whose counters fold
 * at commit, match the one-shard run counter for counter.
 */
TEST(ShardInject, EveryAttemptResolvesByClearScanOrKernel)
{
    for (const RoutingScheme scheme :
         {RoutingScheme::TsdtSender, RoutingScheme::TsdtDynamic}) {
        SCOPED_TRACE(routingSchemeName(scheme));
        const bool sender = scheme == RoutingScheme::TsdtSender;
        if (obs::traceCompiledIn()) {
            obs::TraceSink sink(std::size_t{1} << 18);
            NetworkSim s = makeInjectSim(scheme, 1);
            s.setTraceSink(&sink);
            s.run(300);
            ASSERT_EQ(sink.droppedOldest(), 0u);

            const topo::IadmTopology &topo = s.topology();
            std::unordered_map<std::uint64_t, core::CompactRoute> want;
            std::unordered_map<std::uint64_t, bool> missed;
            std::size_t hits = 0, misses = 0, injected = 0;
            std::vector<std::uint64_t> searched;
            for (const obs::TraceEvent &e : sink.snapshot()) {
                if (e.kind == obs::EventKind::CacheHit ||
                    e.kind == obs::EventKind::CacheMiss) {
                    const bool miss = e.kind == obs::EventKind::CacheMiss;
                    EXPECT_EQ(miss, !core::initialPathClear(
                                        topo, s.faults(), e.sw, e.aux))
                        << "packet " << e.packet << ": " << e.sw << "->"
                        << e.aux;
                    want[e.packet] = core::universalRouteCompact(
                        topo, s.faults(), e.sw, e.aux);
                    missed[e.packet] = miss;
                    (miss ? misses : hits) += 1;
                } else if (e.kind == obs::EventKind::Inject) {
                    ++injected;
                    if (!sender) {
                        EXPECT_EQ(e.tagState, 0u)
                            << "packet " << e.packet;
                        continue;
                    }
                    ASSERT_EQ(want.count(e.packet), 1u);
                    const core::CompactRoute &w = want[e.packet];
                    EXPECT_TRUE(w.ok);
                    EXPECT_EQ(e.tagState, w.tag.stateBits())
                        << "packet " << e.packet;
                } else if (e.kind == obs::EventKind::Drop &&
                           (e.flags &
                            obs::TraceEvent::kFlagUnroutable) &&
                           (e.flags &
                            obs::TraceEvent::kFlagNotEnqueued)) {
                    ASSERT_EQ(want.count(e.packet), 1u);
                    EXPECT_FALSE(want[e.packet].ok)
                        << "packet " << e.packet;
                } else if (e.kind == obs::EventKind::Reroute &&
                           sender) {
                    // A miss's search runs before its CacheMiss event.
                    searched.push_back(e.packet);
                }
            }
            for (const std::uint64_t id : searched)
                EXPECT_TRUE(missed[id])
                    << "REROUTE ran for a clear path, packet " << id;
            const Metrics &m = s.metrics();
            EXPECT_GT(injected, 0u);
            EXPECT_EQ(hits, m.routeCacheHits());
            EXPECT_EQ(misses, m.routeCacheMisses());
            if (sender) {
                EXPECT_GT(hits, 0u);
                EXPECT_FALSE(searched.empty());
                EXPECT_GT(m.unroutable(), 0u);
            } else {
                EXPECT_EQ(hits + misses, 0u);
            }
        }

        NetworkSim one = makeInjectSim(scheme, 1);
        one.run(300);
        const Metrics &o = one.metrics();
        EXPECT_EQ(o.routeCacheMisses() > 0, sender);
        for (const unsigned shards : {2u, 4u}) {
            NetworkSim s = makeInjectSim(scheme, shards);
            ASSERT_EQ(s.shards(), shards);
            s.run(300);
            const Metrics &m = s.metrics();
            EXPECT_EQ(m.injected(), o.injected()) << shards;
            EXPECT_EQ(m.delivered(), o.delivered()) << shards;
            EXPECT_EQ(m.throttled(), o.throttled()) << shards;
            EXPECT_EQ(m.unroutable(), o.unroutable()) << shards;
            EXPECT_EQ(m.totalHops(), o.totalHops()) << shards;
            EXPECT_EQ(m.totalReroutes(), o.totalReroutes()) << shards;
            EXPECT_EQ(m.latencyHistogram(), o.latencyHistogram())
                << shards;
            EXPECT_EQ(m.routeCacheHits(), o.routeCacheHits()) << shards;
            EXPECT_EQ(m.routeCacheMisses(), o.routeCacheMisses())
                << shards;
            EXPECT_EQ(s.inFlight(), one.inFlight()) << shards;
        }
    }
}

} // namespace
} // namespace iadm
