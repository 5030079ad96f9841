/**
 * @file
 * Fault-churn and packet-lifecycle tests (the `robustness` suite).
 *
 * Covers the composable blockage model end to end: refcounted
 * transient windows that overlap static faults, the window schedule
 * and its place on the fault clock after churn, seed-derived churn
 * processes (Bernoulli / geometric / burst), the parked-packet
 * retry protocol for transiently-unroutable packets, the stall-age
 * cap with its drop-reason taxonomy, sender-scheme head-of-line
 * re-resolution, and the determinism guarantees of churned sweeps
 * (byte-identical reports across worker counts, plus a golden
 * fixture under tests/data/).
 *
 * Regenerating the fixture (only after an *intentional* behaviour
 * change):  IADM_REGEN_GOLDEN=1 ./churn_test
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <tuple>
#include <vector>

#include "fault/fault_process.hpp"
#include "obs/trace_sink.hpp"
#include "perm/permutation.hpp"
#include "sim/sweep.hpp"

namespace iadm {
namespace {

using namespace sim;
using topo::IadmTopology;

std::unique_ptr<TrafficPattern>
uniform(Label n)
{
    return std::make_unique<UniformTraffic>(n);
}

std::unique_ptr<TrafficPattern>
identity(Label n)
{
    return std::make_unique<PermutationTraffic>(perm::Permutation(n));
}

// --- composable blockage model ------------------------------------

TEST(Blockage, TransientOverWindowDoesNotUnblockStaticFault)
{
    // Regression: a transient window on an already-faulty link used
    // to *restore* the link when the window closed, erasing the
    // static fault.  With refcounted claims the restore releases
    // only the window's own claim.
    IadmTopology topo(8);
    const topo::Link link = topo.straightLink(1, 3);
    fault::FaultSet fs;
    fs.blockLink(link); // static fault
    SimConfig cfg;
    cfg.netSize = 8;
    cfg.injectionRate = 0.0;
    NetworkSim s(cfg, uniform(8), fs);
    s.scheduleTransientBlockage(link, 10, 50);
    s.run(100); // well past the restore at cycle 50
    EXPECT_TRUE(s.faults().isBlocked(link))
        << "transient restore erased the static fault";
    EXPECT_EQ(s.faults().refcount(link), 1u);
}

TEST(Blockage, OverlappingTransientWindowsUnwindInOrder)
{
    IadmTopology topo(8);
    const topo::Link link = topo.plusLink(0, 2);
    SimConfig cfg;
    cfg.netSize = 8;
    cfg.injectionRate = 0.0;
    NetworkSim s(cfg, uniform(8));
    s.scheduleTransientBlockage(link, 10, 100);
    s.scheduleTransientBlockage(link, 20, 60);
    s.run(80); // the inner window has closed, the outer has not
    EXPECT_TRUE(s.faults().isBlocked(link))
        << "inner window's restore unblocked the outer window";
    s.run(40); // past cycle 100
    EXPECT_FALSE(s.faults().isBlocked(link));
    EXPECT_TRUE(s.faults().empty());
}

TEST(Blockage, CollidingBlockageEventsFireInScheduleOrder)
{
    // Two transient blockages of the same link share cycle 10: the
    // first window clears exactly when the second appears.  The
    // monotonic sequence tie-break must replay them in schedule
    // order (clear, then block) regardless of heap internals, so
    // the link ends cycle 10 blocked — std::priority_queue alone is
    // not stable for equal timestamps.
    IadmTopology topo(16);
    const auto link = topo.plusLink(1, 3);
    SimConfig cfg;
    cfg.netSize = 16;
    cfg.injectionRate = 0.0;
    NetworkSim s(cfg, uniform(16));
    s.scheduleTransientBlockage(link, 5, 10);
    s.scheduleTransientBlockage(link, 10, 20);
    s.run(8);
    EXPECT_TRUE(s.faults().isBlocked(link)); // first window active
    s.run(3); // past cycle 10: clear fired, then re-block
    EXPECT_TRUE(s.faults().isBlocked(link));
    s.run(10); // past cycle 20
    EXPECT_FALSE(s.faults().isBlocked(link));
    EXPECT_TRUE(s.faults().empty());
}

// --- churn processes ----------------------------------------------

using Transition = std::tuple<std::uint64_t, std::uint64_t, bool>;

/** Drive @p proc to @p horizon, logging every transition. */
std::pair<std::vector<Transition>, std::string>
driveProcess(fault::FaultProcess &proc, fault::FaultSet &fs,
             std::uint64_t horizon)
{
    std::vector<Transition> log;
    const auto obs = [&](std::uint64_t cycle, const topo::Link &l,
                         bool down) {
        log.emplace_back(cycle, l.key(), down);
    };
    for (std::uint64_t now = 1; now <= horizon; ++now)
        if (proc.nextTransition() <= now)
            proc.runUntil(now, fs, obs);
    return {std::move(log), fs.str()};
}

class ChurnKinds
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ChurnKinds, SameSeedSameTransitions)
{
    const auto spec = ChurnSpec::parse(GetParam());
    ASSERT_TRUE(spec.has_value());
    IadmTopology topo(16);
    const auto p1 = spec->make(topo, 99);
    const auto p2 = spec->make(topo, 99);
    ASSERT_NE(p1, nullptr);
    fault::FaultSet f1, f2;
    const auto r1 = driveProcess(*p1, f1, 3000);
    const auto r2 = driveProcess(*p2, f2, 3000);
    EXPECT_FALSE(r1.first.empty())
        << "process never fired in 3000 cycles";
    EXPECT_EQ(r1.first, r2.first);
    EXPECT_EQ(r1.second, r2.second);
}

TEST_P(ChurnKinds, EveryFailureIsEventuallyRepaired)
{
    // Claims must balance: once the process goes quiet (or at any
    // down/up-paired point), downs - ups equals the claims it still
    // holds, and each link's refcount is exactly its net claims.
    const auto spec = ChurnSpec::parse(GetParam());
    ASSERT_TRUE(spec.has_value());
    IadmTopology topo(16);
    const auto p = spec->make(topo, 7);
    fault::FaultSet fs;
    const auto [log, str] = driveProcess(*p, fs, 5000);
    std::size_t downs = 0, ups = 0;
    for (const auto &[cycle, key, down] : log)
        down ? ++downs : ++ups;
    std::size_t claims = 0;
    for (const auto &[key, cnt] : fs.keys())
        claims += cnt;
    EXPECT_EQ(downs, ups + claims)
        << "a repair fired without a matching failure (or lost one)";
}

TEST_P(ChurnKinds, NameParseRoundTrip)
{
    const auto spec = ChurnSpec::parse(GetParam());
    ASSERT_TRUE(spec.has_value());
    const auto again = ChurnSpec::parse(spec->name());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*spec, *again);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ChurnKinds,
                         ::testing::Values("bernoulli:0.001:0.05",
                                           "geometric:300:60",
                                           "burst:400:120:4"));

TEST(ChurnSpec, RejectsMalformedSpecs)
{
    EXPECT_FALSE(ChurnSpec::parse("").has_value());
    EXPECT_FALSE(ChurnSpec::parse("bernoulli").has_value());
    EXPECT_FALSE(ChurnSpec::parse("bernoulli:2:0.5").has_value());
    EXPECT_FALSE(ChurnSpec::parse("geometric:0:5").has_value());
    EXPECT_FALSE(ChurnSpec::parse("burst:100:50").has_value());
    EXPECT_FALSE(ChurnSpec::parse("burst:0:50:2").has_value());
    EXPECT_FALSE(ChurnSpec::parse("meteor:1:2").has_value());
    // Strict numbers: no trailing bytes, signs, wraps or non-finite
    // values (bernoulli:nan:0.1 used to parse and then abort the
    // simulator; burst:2000:150:-1 used to read as a 2^32 - 1 span).
    for (const std::string bad :
         {"bernoulli:nan:0.1", "bernoulli:0.1:inf", "bernoulli:0.1x:0.5",
          "geometric:inf:5", "geometric:300:50:", "burst:2000:150:-1",
          "burst:2000x:150:4", "burst:2000:150:4294967296",
          "burst:-5:150:4", "none:"}) {
        EXPECT_FALSE(ChurnSpec::parse(bad).has_value()) << bad;
    }
    EXPECT_TRUE(ChurnSpec::parse("none").has_value());
    EXPECT_EQ(ChurnSpec::parse("none")->make(IadmTopology(8), 1),
              nullptr);
}

TEST(Churn, SimAppliesAndRepairsChurnFaults)
{
    SimConfig cfg;
    cfg.netSize = 16;
    cfg.scheme = RoutingScheme::TsdtSender;
    cfg.injectionRate = 0.2;
    cfg.seed = 31;
    NetworkSim s(cfg, uniform(16));
    const auto spec = ChurnSpec::parse("geometric:300:50");
    ASSERT_TRUE(spec.has_value());
    s.addFaultProcess(spec->make(s.topology(), 1234));
    EXPECT_EQ(s.faultProcessCount(), 1u);
    s.run(4000);
    const auto &m = s.metrics();
    EXPECT_GT(m.faultDowns(), 0u);
    EXPECT_GT(m.faultUps(), 0u);
    EXPECT_GE(m.faultDowns(), m.faultUps()); // claims never go negative
    EXPECT_GT(m.delivered(), 0u);
    EXPECT_GT(m.deliveredDuringFaults(), 0u);
    // Lifecycle conservation, drops included.
    EXPECT_EQ(m.injected(),
              m.delivered() + m.dropped() + s.inFlight());
}

// --- transient windows on the fault clock ------------------------

TEST(FaultSchedule, FiresInTimeOrder)
{
    IadmTopology topo(16);
    const topo::Link a = topo.plusLink(0, 1);
    const topo::Link b = topo.minusLink(1, 2);
    const topo::Link c = topo.straightLink(2, 3);
    fault::FaultSchedule sched;
    sched.addWindow(c, 5, 9);
    sched.addWindow(a, 1, 3);
    sched.addWindow(b, 3, 7);
    fault::FaultSet fs;
    const auto [log, str] = driveProcess(sched, fs, 10);
    const std::vector<Transition> want{
        {1, a.key(), true},  {3, a.key(), false}, {3, b.key(), true},
        {5, c.key(), true},  {7, b.key(), false}, {9, c.key(), false}};
    EXPECT_EQ(log, want);
    EXPECT_TRUE(fs.empty());
}

TEST(FaultSchedule, TiesFireInScheduleOrder)
{
    // A hundred windows open on one cycle and close on three, and a
    // later-added window opens earlier and closes on the first of
    // those: each group of equal times replays in add order.
    IadmTopology topo(16);
    const std::vector<topo::Link> links = topo.allLinks();
    fault::FaultSchedule sched;
    for (std::size_t i = 0; i < 100; ++i)
        sched.addWindow(links[i], 7, 8 + i % 3);
    sched.addWindow(links[100], 3, 8);
    fault::FaultSet fs;
    const auto [log, str] = driveProcess(sched, fs, 20);

    std::vector<Transition> want{{3, links[100].key(), true}};
    for (std::size_t i = 0; i < 100; ++i)
        want.emplace_back(7, links[i].key(), true);
    for (std::uint64_t t = 8; t <= 10; ++t) {
        for (std::size_t i = 0; i < 100; ++i)
            if (8 + i % 3 == t)
                want.emplace_back(t, links[i].key(), false);
        if (t == 8)
            want.emplace_back(8, links[100].key(), false);
    }
    EXPECT_EQ(log, want);
    EXPECT_TRUE(fs.empty());
}

TEST(FaultSchedule, NextTransitionIsNeverOnceDrained)
{
    IadmTopology topo(8);
    fault::FaultSchedule sched;
    EXPECT_EQ(sched.nextTransition(), fault::FaultProcess::kNever);
    sched.addWindow(topo.plusLink(0, 1), 4, 6);
    EXPECT_EQ(sched.nextTransition(), 4u);
    EXPECT_EQ(sched.pending(), 2u);
    fault::FaultSet fs;
    sched.runUntil(4, fs, nullptr);
    EXPECT_EQ(sched.nextTransition(), 6u);
    EXPECT_EQ(sched.pending(), 1u);
    sched.runUntil(6, fs, nullptr);
    EXPECT_EQ(sched.nextTransition(), fault::FaultProcess::kNever);
    EXPECT_EQ(sched.pending(), 0u);
    EXPECT_TRUE(fs.empty());
}

TEST(Blockage, WindowFromAtOrBeforeNowFiresOnNextStep)
{
    // Cycles 0..9 have run.  A window that should have opened at
    // cycle 4 and one that opens at cycle 10 both open at the start
    // of the next step, stamped with its cycle, 10.
    IadmTopology topo(16);
    const topo::Link late = topo.plusLink(1, 3);
    const topo::Link due = topo.minusLink(2, 5);
    SimConfig cfg;
    cfg.netSize = 16;
    cfg.injectionRate = 0.0;
    NetworkSim s(cfg, uniform(16));
    obs::TraceSink sink(64);
    s.setTraceSink(&sink);
    s.run(10);
    s.scheduleTransientBlockage(late, 4, 30);
    s.scheduleTransientBlockage(due, 10, 30);
    EXPECT_FALSE(s.faults().isBlocked(late));
    s.step();
    EXPECT_TRUE(s.faults().isBlocked(late));
    EXPECT_TRUE(s.faults().isBlocked(due));
    EXPECT_EQ(s.metrics().faultDowns(), 2u);

    // The stamp, at the schedule itself and, with the hooks compiled
    // in, in the simulator's trace.
    fault::FaultSchedule sched;
    sched.addWindow(late, 4, 30);
    fault::FaultSet fs;
    std::vector<Transition> log;
    sched.runUntil(10, fs,
                   [&](std::uint64_t cycle, const topo::Link &l,
                       bool down) {
                       log.emplace_back(cycle, l.key(), down);
                   });
    EXPECT_EQ(log, (std::vector<Transition>{{10, late.key(), true}}));
    if (obs::traceCompiledIn()) {
        const std::vector<obs::TraceEvent> ev = sink.snapshot();
        ASSERT_EQ(ev.size(), 2u);
        for (const obs::TraceEvent &e : ev) {
            EXPECT_EQ(e.kind, obs::EventKind::FaultDown);
            EXPECT_EQ(e.cycle, 10u);
        }
        EXPECT_EQ(ev[0].sw, late.from);
        EXPECT_EQ(ev[1].sw, due.from);
    }
}

TEST(Blockage, ChurnTransitionsRecordBeforeWindowsOnTheSameCycle)
{
    // A burst and a window share cycles 5 (down) and 9 (up).  The
    // window is scheduled before the churn process is attached, yet
    // on each cycle the trace records the burst's transitions first:
    // churn runs before windows.
    if (!obs::traceCompiledIn())
        GTEST_SKIP() << "needs IADM_TRACE hooks";
    IadmTopology topo(16);
    const topo::Link windowed = topo.minusLink(1, 2);
    SimConfig cfg;
    cfg.netSize = 16;
    cfg.injectionRate = 0.0;
    NetworkSim s(cfg, uniform(16));
    obs::TraceSink sink(64);
    s.setTraceSink(&sink);
    s.scheduleTransientBlockage(windowed, 5, 9);
    s.addFaultProcess(
        std::make_unique<fault::BurstChurn>(topo, 5, 4, 1, 3));
    s.run(10); // cycles 0..9: the second burst starts at 10
    const std::vector<obs::TraceEvent> ev = sink.snapshot();
    ASSERT_EQ(ev.size(), 8u); // three burst links and the window, twice
    for (std::size_t i = 0; i < ev.size(); ++i) {
        const bool down = i < 4;
        EXPECT_EQ(ev[i].cycle, down ? 5u : 9u) << "event " << i;
        EXPECT_EQ(ev[i].kind, down ? obs::EventKind::FaultDown
                                   : obs::EventKind::FaultUp)
            << "event " << i;
    }
    for (const std::size_t last : {std::size_t{3}, std::size_t{7}}) {
        EXPECT_EQ(ev[last].stage, windowed.stage);
        EXPECT_EQ(ev[last].sw, windowed.from);
        EXPECT_EQ(ev[last].link,
                  static_cast<std::uint8_t>(windowed.kind));
    }
}

// --- packet lifecycle: park / retry / expire ----------------------

TEST(Lifecycle, ParkedUnroutablePacketDeliversAfterRepair)
{
    // Identity traffic at N=8 routes straight-only, so a straight
    // blockage at stage 0 of switch 5 makes 5->5 *provably*
    // unroutable while it lasts.  Dynamic-TSDT packets get a FAIL
    // verdict from BACKTRACK; because the blockage is transient they
    // must park and deliver after the repair, not drop.
    IadmTopology topo(8);
    SimConfig cfg;
    cfg.netSize = 8;
    cfg.scheme = RoutingScheme::TsdtDynamic;
    cfg.injectionRate = 0.4;
    cfg.seed = 5;
    NetworkSim s(cfg, identity(8));
    s.scheduleTransientBlockage(topo.straightLink(0, 5), 2, 600);
    s.run(1500);
    const auto &m = s.metrics();
    EXPECT_EQ(m.dropped(), 0u)
        << "transiently-unroutable packets were dropped";
    EXPECT_GT(m.recoveries(), 0u)
        << "no parked packet ever resumed after the repair";
    EXPECT_GT(m.avgRecoveryWait(), 0.0);
    EXPECT_EQ(m.injected(), m.delivered() + s.inFlight());
    EXPECT_TRUE(s.faults().empty());
}

TEST(Lifecycle, AgeCapDropsParkedPacketsAsUnroutable)
{
    // Same setup, but with a stall-age cap shorter than the outage:
    // parked FAIL-verdict packets now expire with the Unroutable
    // reason instead of waiting out the repair.
    IadmTopology topo(8);
    SimConfig cfg;
    cfg.netSize = 8;
    cfg.scheme = RoutingScheme::TsdtDynamic;
    cfg.injectionRate = 0.4;
    cfg.seed = 5;
    cfg.maxPacketAge = 100;
    NetworkSim s(cfg, identity(8));
    s.scheduleTransientBlockage(topo.straightLink(0, 5), 2, 600);
    s.run(1500);
    const auto &m = s.metrics();
    EXPECT_GT(m.droppedFor(DropReason::Unroutable), 0u);
    EXPECT_EQ(m.droppedFor(DropReason::Legacy), 0u);
    EXPECT_EQ(m.dropped(), m.droppedFor(DropReason::Unroutable) +
                               m.droppedFor(DropReason::Expired));
    // Per-stage attribution: the FAIL verdicts all happen at the
    // blocked stage-0 switch.
    EXPECT_EQ(m.dropsAt(0), m.droppedFor(DropReason::Unroutable));
    EXPECT_EQ(m.injected(),
              m.delivered() + m.dropped() + s.inFlight());
}

TEST(Lifecycle, AgeCapExpiresBlockedSenderPackets)
{
    // Sender-computed tags meet an in-flight blockage with no
    // alternative (straight is forced on the identity pairs): the
    // head stalls, and with an age cap it must expire with the
    // Expired reason — it was never proven unroutable by REROUTE.
    IadmTopology topo(8);
    SimConfig cfg;
    cfg.netSize = 8;
    cfg.scheme = RoutingScheme::TsdtSender;
    cfg.injectionRate = 1.0;
    cfg.seed = 9;
    cfg.maxPacketAge = 60;
    NetworkSim s(cfg, identity(8));
    s.scheduleTransientBlockage(topo.straightLink(2, 5), 10, 800);
    s.run(900);
    const auto &m = s.metrics();
    EXPECT_GT(m.droppedFor(DropReason::Expired), 0u);
    EXPECT_EQ(m.droppedFor(DropReason::Unroutable), 0u)
        << "a sender stall was misclassified as a FAIL verdict";
    EXPECT_EQ(m.injected(),
              m.delivered() + m.dropped() + s.inFlight());
}

TEST(Lifecycle, SenderHeadOfLineReResolvesAroundNewFaults)
{
    // Packets whose planned link goes down mid-flight used to stall
    // until the repair; the head must instead re-run REROUTE from
    // its current switch once per fault epoch and take a spare path
    // (Theorem 3.1 guarantees one for state-bit repairs).  Geometric
    // churn at high load keeps enough packets in flight across
    // enough failures that re-resolution provably fires.
    SimConfig cfg;
    cfg.netSize = 16;
    cfg.scheme = RoutingScheme::TsdtSender;
    cfg.injectionRate = 0.8;
    cfg.seed = 12;
    NetworkSim s(cfg, uniform(16));
    const auto spec = ChurnSpec::parse("geometric:300:60");
    ASSERT_TRUE(spec.has_value());
    s.addFaultProcess(spec->make(s.topology(), 42));
    s.run(2000);
    const auto &m = s.metrics();
    EXPECT_GT(m.totalReroutes(), 0u)
        << "no in-flight sender packet ever re-resolved";
    EXPECT_GT(m.recoveries(), 0u);
    EXPECT_EQ(m.dropped(), 0u);
    EXPECT_EQ(m.injected(), m.delivered() + s.inFlight());
}

// --- sweep integration --------------------------------------------

SweepGrid
churnGrid()
{
    SweepGrid grid;
    grid.netSizes = {16};
    grid.schemes = {RoutingScheme::TsdtSender,
                    RoutingScheme::TsdtDynamic};
    grid.injectionRates = {0.2};
    grid.queueCapacities = {4};
    grid.faults = {FaultScenario{FaultScenario::Kind::RandomLinks, 2}};
    grid.traffics = {ScenarioSpec{}};
    grid.churns = {ChurnSpec::parse("bernoulli:0.0005:0.05").value(),
                   ChurnSpec::parse("burst:300:80:4").value()};
    grid.replicates = 2;
    grid.warmupCycles = 100;
    grid.measureCycles = 600;
    grid.masterSeed = 77;
    grid.maxPacketAge = 400;
    return grid;
}

TEST(ChurnSweep, ReportIsByteIdenticalAcrossWorkerCounts)
{
    const SweepGrid grid = churnGrid();
    const auto render = [&](unsigned workers) {
        SweepOptions opts;
        opts.workers = workers;
        return sweepReportJson(grid, runSweep(grid, opts));
    };
    const std::string w1 = render(1);
    EXPECT_EQ(w1, render(4));
    EXPECT_EQ(w1, render(8));
}

TEST(ChurnSweep, ChurnAxisAndAgeCapAppearOnlyWhenUsed)
{
    SweepGrid plain;
    plain.netSizes = {8};
    plain.measureCycles = 50;
    const std::string without =
        sweepReportJson(plain, runSweep(plain, {}));
    EXPECT_EQ(without.find("churn"), std::string::npos);
    EXPECT_EQ(without.find("max_packet_age"), std::string::npos);

    const SweepGrid grid = churnGrid();
    const std::string with =
        sweepReportJson(grid, runSweep(grid, {}));
    EXPECT_NE(with.find("\"churns\": ["), std::string::npos);
    EXPECT_NE(with.find("\"bernoulli:"), std::string::npos);
    EXPECT_NE(with.find("\"churn\": \"burst:300:80:4\""),
              std::string::npos);
    EXPECT_NE(with.find("\"max_packet_age\": 400"),
              std::string::npos);
}

TEST(ChurnSweep, DropsByReasonKeysGateOnAnyDrop)
{
    // The taxonomy keys are additive: absent whenever dropped == 0
    // (the frozen legacy schema), present and self-consistent when
    // anything was dropped.
    SweepGrid grid = churnGrid();
    const auto results = runSweep(grid, {});
    const std::string report = sweepReportJson(grid, results);
    bool any_dropped = false;
    for (const auto &cell : results)
        for (const auto &rep : cell.replicates)
            any_dropped = any_dropped || rep.metrics.dropped() != 0;
    EXPECT_EQ(report.find("drops_by_reason") != std::string::npos,
              any_dropped);
    EXPECT_EQ(report.find("drops_by_stage") != std::string::npos,
              any_dropped);
}

// --- golden fixture -----------------------------------------------

#ifndef IADM_TEST_DATA_DIR
#error "IADM_TEST_DATA_DIR must point at tests/data"
#endif

const char *const kChurnFixturePath =
    IADM_TEST_DATA_DIR "/golden_sweep_n64_churn.json";

/** The frozen churn grid: all five schemes under geometric churn
 *  with an age cap, N = 64.  Changing anything here (or any churn
 *  rng draw order) invalidates the fixture. */
SweepGrid
goldenChurnGrid()
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
    grid.faults = {FaultScenario{FaultScenario::Kind::RandomLinks, 4}};
    grid.traffics = {ScenarioSpec{}};
    grid.churns = {ChurnSpec::parse("geometric:500:100").value()};
    grid.replicates = 2;
    grid.warmupCycles = 200;
    grid.measureCycles = 1000;
    grid.masterSeed = 20260807;
    grid.maxPacketAge = 600;
    return grid;
}

TEST(ChurnSweep, GoldenChurnGridMatchesFixtureByteForByte)
{
    SweepOptions opts;
    opts.workers = 2;
    const SweepGrid grid = goldenChurnGrid();
    const std::string report =
        sweepReportJson(grid, runSweep(grid, opts));

    if (std::getenv("IADM_REGEN_GOLDEN") != nullptr) {
        std::ofstream os(kChurnFixturePath, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << kChurnFixturePath;
        os << report;
        GTEST_SKIP() << "fixture regenerated at "
                     << kChurnFixturePath;
    }

    std::ifstream is(kChurnFixturePath, std::ios::binary);
    ASSERT_TRUE(is) << "missing fixture " << kChurnFixturePath
                    << " (run with IADM_REGEN_GOLDEN=1 to create)";
    std::ostringstream fixture;
    fixture << is.rdbuf();
    ASSERT_EQ(report.size(), fixture.str().size());
    EXPECT_TRUE(report == fixture.str())
        << "churned sweep diverged from the golden fixture";
}

} // namespace
} // namespace iadm
