/**
 * @file
 * Scenario-grammar suite (`ctest -L scenario`): parse round-trips
 * and rejection regressions for the composable traffic subsystem,
 * statistical checks of every destination source and shaper, the
 * closed-loop feedback contract, and sweep determinism for the new
 * scenario axis — byte-identical reports across worker counts,
 * pinned by a dedicated golden fixture
 * (tests/data/golden_sweep_scenarios_n64.json).
 *
 * Regenerating the fixture (only after an *intentional* behaviour
 * change):
 *   IADM_REGEN_GOLDEN=1 ./scenario_test
 * and commit the updated file with an explanation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace iadm {
namespace {

using namespace sim;

#ifndef IADM_TEST_DATA_DIR
#error "IADM_TEST_DATA_DIR must point at tests/data"
#endif

// --- parse round-trips --------------------------------------------

TEST(ScenarioParse, CanonicalNameReparsesToEqualSpec)
{
    for (const std::string spec : {
             "uniform",
             "hotspot:0:0.2",
             "dst:hotspot:0+5+9:0.3",
             "dst:perm:shift:4",
             "bitrev",
             "transpose",
             "dst:perm:complement:63",
             "dst:perm:shuffle",
             "dst:perm:exchange:2",
             "dst:adversarial",
             "dst:mcast:4:8",
             "shape:bursty:16:64/dst:uniform",
             "shape:ramp:0.1:0.9:2000/dst:uniform",
             "shape:closed:4/dst:uniform",
             "shape:ramp:0.1:0.9:2000/over:bursty:16:64/"
             "dst:hotspot:0:0.2",
             "shape:bursty:8:32/over:closed:2/dst:perm:bitrev",
         }) {
        const auto s = ScenarioSpec::parse(spec);
        ASSERT_TRUE(s.has_value()) << spec;
        EXPECT_EQ(s->name(), spec) << "non-canonical input? " << spec;
        const auto again = ScenarioSpec::parse(s->name());
        ASSERT_TRUE(again.has_value()) << s->name();
        EXPECT_TRUE(*again == *s)
            << "round trip changed the spec: " << spec;
    }
}

TEST(ScenarioParse, SugarAtomsNormalizeToCanonicalClauses)
{
    const auto canon = [](const std::string &spec) {
        const auto s = ScenarioSpec::parse(spec);
        EXPECT_TRUE(s.has_value()) << spec;
        return s ? s->name() : std::string("<unparsed>");
    };
    // The four legacy atoms are their own canonical names.
    EXPECT_EQ(canon("uniform"), "uniform");
    EXPECT_EQ(canon("hotspot:0:0.2"), "hotspot:0:0.2");
    EXPECT_EQ(canon("bitrev"), "bitrev");
    EXPECT_EQ(canon("transpose"), "transpose");
    EXPECT_EQ(canon("shift:5"), "dst:perm:shift:5");
    EXPECT_EQ(canon("bursty:16:64"), "shape:bursty:16:64/dst:uniform");
    // over: and shape: are interchangeable on input.
    EXPECT_EQ(canon("over:bursty:16:64/dst:uniform"),
              "shape:bursty:16:64/dst:uniform");
    // Clause order is free on input; the name is shapers-then-dst.
    EXPECT_EQ(canon("dst:uniform/shape:closed:4"),
              "shape:closed:4/dst:uniform");
}

TEST(ScenarioParse, LegacyNamesAreTheCanonicalNamesOfUnshapedSpecs)
{
    // One naming rule replaces the old legacy traffic type: an
    // unshaped uniform, one-node hotspot, bitrev or transpose spec
    // prints its pre-grammar name (the golden fixtures freeze those
    // report names), however it was spelled.
    for (const auto &[legacy, dst_form] :
         std::vector<std::pair<std::string, std::string>>{
             {"uniform", "dst:uniform"},
             {"hotspot:0:0.2", "dst:hotspot:0:0.2"},
             {"bitrev", "dst:perm:bitrev"},
             {"transpose", "dst:perm:transpose"},
         }) {
        const auto a = ScenarioSpec::parse(legacy);
        const auto b = ScenarioSpec::parse(dst_form);
        ASSERT_TRUE(a.has_value()) << legacy;
        ASSERT_TRUE(b.has_value()) << dst_form;
        EXPECT_TRUE(*a == *b) << legacy << " vs " << dst_form;
        EXPECT_EQ(a->name(), legacy);
        EXPECT_EQ(b->name(), legacy);
    }
    EXPECT_EQ(ScenarioSpec{}.name(), "uniform");
    // Everything else keeps its clause form: a shaper, a hot set of
    // more than one node, or a destination the grammar introduced.
    EXPECT_EQ(ScenarioSpec::parse("bursty:16:64")->name(),
              "shape:bursty:16:64/dst:uniform");
    EXPECT_EQ(ScenarioSpec::parse("shape:closed:2/bitrev")->name(),
              "shape:closed:2/dst:perm:bitrev");
    EXPECT_EQ(ScenarioSpec::parse("dst:hotspot:0+5:0.3")->name(),
              "dst:hotspot:0+5:0.3");
    EXPECT_EQ(ScenarioSpec::parse("shift:5")->name(),
              "dst:perm:shift:5");
}

// --- rejection regressions ----------------------------------------

TEST(ScenarioParse, RejectsMalformedSpecs)
{
    for (const std::string spec : {
             "",                        //
             "lava",                    // unknown atom
             "uniform:1",               // excess args
             "hotspot:a",               // non-numeric node
             "hotspot:0:-0.1",          // fraction < 0
             "hotspot:0:1.5",           // fraction > 1
             "hotspot:0:nan",           // non-finite via stod
             "hotspot:0:inf",           //
             "hotspot:0:0.2:9",         // excess args
             "hotspot:3+3:0.2",         // duplicate hot node
             "shift",                   // missing distance
             "shift:0",                 // identity typo
             "shift:x",                 //
             "bursty:16",               // missing idle length
             "bursty:0.5:64",           // burst < 1
             "bursty:16:0.5",           // idle < 1
             "dst:perm:complement",     // missing mask
             "dst:perm:complement:0",   // identity typo
             "dst:perm:exchange",       // missing dimension
             "dst:perm:lava",           // unknown family
             "dst:mcast:0:8",           // zero groups
             "dst:mcast:4:1",           // fanout < 2
             "dst:mcast:4",             // missing fanout
             "shape:ramp:0.1:1.5:100",  // factor > 1
             "shape:ramp:-0.1:0.9:100", // factor < 0
             "shape:ramp:0.1:0.9:0",    // zero ramp window
             "shape:ramp:0.1:0.9",      // missing window
             "shape:closed:0",          // zero window
             "shape:closed",            //
             "shape:lava:1",            // unknown shaper
             "dst:uniform/dst:uniform", // two destination sources
             "dst:uniform/uniform",     // ditto, via sugar
             "uniform:",                // stray separators
             "dst:uniform/",            //
             "shift:5x",                // trailing bytes
             "hotspot:4294967296:0.2",  // node wraps a 32-bit label
             "shift:4294967297",        // distance wraps to 1
             "dst:perm:complement:-1",  // signed mask
             "dst:mcast:4294967300:8",  // group count wraps to 4
             "shape:closed:4294967297", // window wraps to 1
             "bursty:16:64x",           //
         }) {
        EXPECT_FALSE(ScenarioSpec::parse(spec).has_value())
            << "should have been rejected: " << spec;
    }
}

TEST(ScenarioValidate, RejectsOutOfRangeSpecsAtN)
{
    const auto diag = [](const std::string &spec, Label n) {
        const auto t = ScenarioSpec::parse(spec);
        EXPECT_TRUE(t.has_value()) << spec;
        if (!t)
            return std::string("<unparsed>");
        const auto err = t->validate(n);
        return err.value_or("");
    };
    // The original bug: hotspot:9999:0.2 at N=64 injected label 9999
    // straight into the link tables.
    EXPECT_NE(diag("hotspot:9999:0.2", 64), "");
    EXPECT_NE(diag("hotspot:64:0.2", 64), "");  // boundary
    EXPECT_EQ(diag("hotspot:63:0.2", 64), "");
    EXPECT_NE(diag("dst:hotspot:0+64:0.2", 64), ""); // in a hot set
    EXPECT_NE(diag("shift:64", 64), "");
    EXPECT_EQ(diag("shift:63", 64), "");
    EXPECT_NE(diag("dst:perm:complement:64", 64), "");
    EXPECT_NE(diag("dst:perm:exchange:6", 64), ""); // 6 bits: 0..5
    EXPECT_EQ(diag("dst:perm:exchange:5", 64), "");
    EXPECT_NE(diag("transpose", 32), ""); // 5 label bits, odd
    EXPECT_EQ(diag("transpose", 64), "");
    EXPECT_NE(diag("dst:perm:transpose", 32), "");
    EXPECT_NE(diag("dst:mcast:4:65", 64), ""); // fanout > N
    EXPECT_NE(diag("dst:mcast:128:8", 64), ""); // groups > N
    EXPECT_EQ(diag("dst:mcast:4:8", 64), "");
}

// --- destination-source statistics --------------------------------

TEST(ScenarioStats, HotspotHitFractionMatchesSpec)
{
    const Label n = 64;
    const auto t = ScenarioSpec::parse("hotspot:3:0.3");
    ASSERT_TRUE(t.has_value());
    auto pattern = t->make(n);
    Rng rng(42);
    const int draws = 100000;
    int hot = 0;
    for (int i = 0; i < draws; ++i)
        hot += pattern->pick(0, rng) == 3 ? 1 : 0;
    // Hot draws plus the uniform tail landing on the hot node.
    const double expect = 0.3 + 0.7 / n;
    EXPECT_NEAR(static_cast<double>(hot) / draws, expect, 0.01);
}

TEST(ScenarioStats, MultiHotspotSplitsTheHotFractionAcrossTheSet)
{
    const Label n = 64;
    const auto t = ScenarioSpec::parse("dst:hotspot:1+2+3:0.5");
    ASSERT_TRUE(t.has_value());
    auto pattern = t->make(n);
    Rng rng(42);
    const int draws = 150000;
    int set_hits = 0;
    int node1 = 0;
    for (int i = 0; i < draws; ++i) {
        const Label d = pattern->pick(0, rng);
        if (d >= 1 && d <= 3)
            ++set_hits;
        if (d == 1)
            ++node1;
    }
    const double set_expect = 0.5 + 0.5 * 3.0 / n;
    const double node_expect = 0.5 / 3.0 + 0.5 / n;
    EXPECT_NEAR(static_cast<double>(set_hits) / draws, set_expect,
                0.01);
    EXPECT_NEAR(static_cast<double>(node1) / draws, node_expect,
                0.01);
}

TEST(ScenarioStats, ShiftAndBitrevPicksMatchThePermutationFamily)
{
    const Label n = 64;
    const auto shift = ScenarioSpec::parse("shift:5");
    ASSERT_TRUE(shift.has_value());
    auto sp = shift->make(n);
    const perm::Permutation sref = perm::shiftPerm(n, 5);
    const auto bitrev = ScenarioSpec::parse("bitrev");
    ASSERT_TRUE(bitrev.has_value());
    auto bp = bitrev->make(n);
    const perm::Permutation bref = perm::bitReversalPerm(n);
    Rng rng(1);
    for (Label src = 0; src < n; ++src) {
        EXPECT_EQ(sp->pick(src, rng), sref(src)) << src;
        EXPECT_EQ(bp->pick(src, rng), bref(src)) << src;
    }
}

TEST(ScenarioStats, BurstyDutyCycleMatchesMeasuredGateOpenFraction)
{
    // Stationary ON probability of the two-state chain with mean
    // burst B and mean idle I: B / (B + I).
    const double burst = 16.0, idle = 64.0;
    const double duty = burst / (burst + idle);
    ASSERT_DOUBLE_EQ(duty, 0.2);
    const auto t = ScenarioSpec::parse("bursty:16:64");
    ASSERT_TRUE(t.has_value());
    auto pattern = t->make(4);
    ASSERT_TRUE(pattern->gated());
    Rng rng(7);
    const int cycles = 200000;
    int open = 0;
    for (int c = 0; c < cycles; ++c)
        open += pattern->gate(0, rng) ? 1 : 0;
    // The chain decorrelates over ~(burst+idle) cycles, so the
    // effective sample count is cycles / 80; tolerance sized to it.
    EXPECT_NEAR(static_cast<double>(open) / cycles, duty, 0.02);
}

TEST(ScenarioStats, RampFactorFollowsTheConfiguredSchedule)
{
    // rampFrom = 0 and rampTo = 1 make the schedule deterministic at
    // the endpoints: every gate closed at cycle 0, every gate open
    // once the ramp window has elapsed.
    const auto t = ScenarioSpec::parse("shape:ramp:0:1:1000/dst:uniform");
    ASSERT_TRUE(t.has_value());
    auto pattern = t->make(8);
    Rng rng(3);
    pattern->beginCycle(0);
    for (Label s = 0; s < 8; ++s)
        EXPECT_FALSE(pattern->gate(s, rng));
    pattern->beginCycle(2000);
    for (Label s = 0; s < 8; ++s)
        EXPECT_TRUE(pattern->gate(s, rng));
    // Midpoint: factor 0.5 within statistical tolerance.
    pattern->beginCycle(500);
    int open = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i)
        open += pattern->gate(0, rng) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(open) / draws, 0.5, 0.02);
}

TEST(ScenarioStats, AdversarialPermIsADeterministicNontrivialBijection)
{
    const Label n = 64;
    const perm::Permutation p = adversarialPerm(n);
    const perm::Permutation q = adversarialPerm(n);
    std::set<Label> images;
    bool identity = true;
    for (Label src = 0; src < n; ++src) {
        EXPECT_EQ(p(src), q(src)) << "non-deterministic at " << src;
        EXPECT_LT(p(src), n);
        images.insert(p(src));
        identity = identity && p(src) == src;
    }
    EXPECT_EQ(images.size(), n) << "not a bijection";
    EXPECT_FALSE(identity);
}

TEST(ScenarioStats, AdversarialPermCongestsUnlikeAnAdmissibleShift)
{
    // The point of the greedy construction: under the same open-loop
    // rate, the adversarial permutation piles contention onto shared
    // switches, while an admissible shift permutation sails through
    // conflict-free.  (Bitrev already saturates this rate, so the
    // admissible family is the discriminating baseline.)
    const auto run = [](const std::string &spec) {
        SimConfig cfg;
        cfg.netSize = 64;
        cfg.scheme = RoutingScheme::TsdtSender;
        cfg.injectionRate = 0.4;
        cfg.seed = 11;
        NetworkSim s(cfg,
                     ScenarioSpec::parse(spec).value().make(64));
        s.run(600);
        return s.metrics().totalStalls();
    };
    const auto adversarial = run("dst:adversarial");
    EXPECT_GT(adversarial, 10 * run("shift:1"))
        << "greedy worst case failed to congest";
    EXPECT_GT(adversarial, 1000u);
}

TEST(ScenarioStats, McastSourcesCycleTheirGroupDestinationSet)
{
    const Label n = 64;
    const auto t = ScenarioSpec::parse("dst:mcast:4:8");
    ASSERT_TRUE(t.has_value());
    auto pattern = t->make(n);
    Rng rng(5);
    // Each source visits exactly its fanout-8 set, cyclically.
    std::vector<std::vector<Label>> first_cycle(n);
    for (Label src = 0; src < n; ++src) {
        std::set<Label> seen;
        for (int i = 0; i < 16; ++i) {
            const Label d = pattern->pick(src, rng);
            EXPECT_LT(d, n);
            if (i < 8)
                first_cycle[src].push_back(d);
            else
                EXPECT_EQ(d, first_cycle[src][i - 8])
                    << "not cyclic at src " << src;
            seen.insert(d);
        }
        EXPECT_EQ(seen.size(), 8u) << "wrong fanout at src " << src;
    }
    // Sources in the same group (src mod 4) share a destination set.
    for (Label src = 4; src < n; ++src) {
        std::set<Label> a(first_cycle[src].begin(),
                          first_cycle[src].end());
        std::set<Label> b(first_cycle[src % 4].begin(),
                          first_cycle[src % 4].end());
        EXPECT_EQ(a, b) << "group sets diverge at src " << src;
    }
}

// --- closed-loop feedback contract --------------------------------

TEST(ScenarioClosedLoop, WindowGatesAfterOutstandingLimit)
{
    const auto t = ScenarioSpec::parse("shape:closed:2/dst:uniform");
    ASSERT_TRUE(t.has_value());
    auto pattern = t->make(8);
    EXPECT_TRUE(pattern->closedLoop());
    Rng rng(1);
    EXPECT_TRUE(pattern->gate(0, rng));
    pattern->onInject(0);
    EXPECT_TRUE(pattern->gate(0, rng));
    pattern->onInject(0);
    EXPECT_FALSE(pattern->gate(0, rng)) << "window 2 exhausted";
    EXPECT_TRUE(pattern->gate(1, rng)) << "windows are per-source";
    pattern->onRetire(0);
    EXPECT_TRUE(pattern->gate(0, rng));
}

TEST(ScenarioClosedLoop, OutstandingWindowBoundsInFlightEveryCycle)
{
    SimConfig cfg;
    cfg.netSize = 64;
    cfg.scheme = RoutingScheme::TsdtDynamic;
    cfg.injectionRate = 1.0;
    cfg.maxPacketAge = 200;
    cfg.seed = 9;
    NetworkSim s(
        cfg, ScenarioSpec::parse("shape:closed:3").value().make(64));
    for (Cycle c = 0; c < 500; ++c) {
        s.step();
        ASSERT_LE(s.inFlight(), std::size_t{3 * 64})
            << "window exceeded at cycle " << c;
        const Metrics &m = s.metrics();
        ASSERT_EQ(m.injected() - m.delivered() - m.dropped(),
                  s.inFlight())
            << "conservation broke at cycle " << c;
    }
}

// --- sweep determinism for the scenario axis ----------------------

/**
 * The frozen scenario grid (fixture
 * tests/data/golden_sweep_scenarios_n64.json); any edit here
 * invalidates the fixture.
 */
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
runScenarioGrid(unsigned workers)
{
    const SweepGrid grid = scenarioGrid();
    SweepOptions opts;
    opts.workers = workers;
    return sweepReportJson(grid, runSweep(grid, opts));
}

const char *const kScenarioFixturePath =
    IADM_TEST_DATA_DIR "/golden_sweep_scenarios_n64.json";

TEST(ScenarioSweep, MatchesGoldenFixtureByteForByte)
{
    const std::string report = runScenarioGrid(2);

    if (std::getenv("IADM_REGEN_GOLDEN") != nullptr) {
        std::ofstream os(kScenarioFixturePath, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << kScenarioFixturePath;
        os << report;
        GTEST_SKIP() << "fixture regenerated at "
                     << kScenarioFixturePath;
    }

    std::ifstream is(kScenarioFixturePath, std::ios::binary);
    ASSERT_TRUE(is) << "missing fixture " << kScenarioFixturePath
                    << " (run with IADM_REGEN_GOLDEN=1 to create)";
    std::ostringstream fixture;
    fixture << is.rdbuf();
    ASSERT_EQ(report.size(), fixture.str().size());
    EXPECT_TRUE(report == fixture.str())
        << "scenario sweep diverged from the golden fixture";
}

TEST(ScenarioSweep, ReportBytesIdenticalAcrossWorkerCounts)
{
    const std::string one = runScenarioGrid(1);
    EXPECT_EQ(one, runScenarioGrid(4));
    EXPECT_EQ(one, runScenarioGrid(8));
}

} // namespace
} // namespace iadm
