/**
 * @file
 * Sweep-runner tests: seed derivation, grid geometry, JSON writer
 * determinism, and — the load-bearing guarantee — byte-identical
 * reports regardless of worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <tuple>

#include "common/json_writer.hpp"
#include "sim/sweep.hpp"

namespace iadm {
namespace {

using namespace sim;

// --- JSON writer ---------------------------------------------------

TEST(JsonWriter, NestedDocument)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("name");
    w.value("sweep");
    w.key("values");
    w.beginArray();
    w.value(std::uint64_t{1});
    w.value(2.5);
    w.value(true);
    w.endArray();
    w.key("empty");
    w.beginObject();
    w.endObject();
    w.endObject();
    EXPECT_TRUE(w.done());
    EXPECT_EQ(os.str(), "{\n  \"name\": \"sweep\",\n"
                        "  \"values\": [\n    1,\n    2.5,\n"
                        "    true\n  ],\n  \"empty\": {}\n}");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.value(std::string_view("a\"b\\c\nd\te\x01"));
    EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonWriter, NumbersRoundTripShortest)
{
    EXPECT_EQ(jsonNumber(0.1), "0.1");
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(2.0), "2");
    EXPECT_EQ(jsonNumber(1.0 / 3.0), "0.3333333333333333");
}

// --- seed derivation ----------------------------------------------

TEST(Sweep, DerivedSeedsAreStable)
{
    // Frozen values: the derivation is part of the report contract
    // (docs/SWEEP.md); changing it silently would invalidate every
    // archived sweep.
    EXPECT_EQ(deriveSeed(1, 0, 0), deriveSeed(1, 0, 0));
    EXPECT_NE(deriveSeed(1, 0, 0), deriveSeed(1, 0, 1));
    EXPECT_NE(deriveSeed(1, 0, 0), deriveSeed(1, 1, 0));
    EXPECT_NE(deriveSeed(1, 0, 0), deriveSeed(2, 0, 0));
}

TEST(Sweep, DerivedSeedsHaveNoPairwiseCollisionsOnSmallGrids)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t cell = 0; cell < 64; ++cell)
        for (std::uint64_t rep = 0; rep < 16; ++rep)
            seen.insert(deriveSeed(99, cell, rep));
    EXPECT_EQ(seen.size(), 64u * 16u);
}

// --- grid geometry -------------------------------------------------

SweepGrid
smallGrid()
{
    SweepGrid g;
    g.netSizes = {8, 16};
    g.schemes = {RoutingScheme::SsdtStatic,
                 RoutingScheme::TsdtSender};
    g.injectionRates = {0.1, 0.3};
    g.queueCapacities = {4};
    g.faults = {FaultScenario{},
                FaultScenario{FaultScenario::Kind::Nonstraight, 3}};
    g.replicates = 2;
    g.warmupCycles = 20;
    g.measureCycles = 150;
    g.masterSeed = 7;
    return g;
}

TEST(Sweep, CellCountIsAxisProduct)
{
    const auto g = smallGrid();
    EXPECT_EQ(g.cellCount(), 2u * 2u * 2u * 2u);
    EXPECT_EQ(g.runCount(), g.cellCount() * 2);
}

TEST(Sweep, ResolveCellCoversEveryCombinationExactlyOnce)
{
    const auto g = smallGrid();
    std::set<std::tuple<Label, int, double, std::size_t,
                        std::string>>
        seen;
    for (std::size_t i = 0; i < g.cellCount(); ++i) {
        const auto c = resolveCell(g, i);
        EXPECT_EQ(c.cellIndex, i);
        seen.insert({c.netSize, static_cast<int>(c.scheme),
                     c.injectionRate, c.queueCapacity,
                     c.fault.name()});
    }
    EXPECT_EQ(seen.size(), g.cellCount());
}

// --- spec parsing --------------------------------------------------

TEST(Sweep, FaultScenarioParseRoundTrips)
{
    for (const std::string spec :
         {"none", "links:4", "nonstraight:3", "double:2",
          "switches:1"}) {
        const auto f = FaultScenario::parse(spec);
        ASSERT_TRUE(f.has_value()) << spec;
        EXPECT_EQ(f->name(), spec);
    }
    for (const std::string bad :
         {"", "links", "links:x", "bogus:1", "none:1", "links:",
          "links:4x",     // used to read as links:4
          "links:-1",     // used to wrap to 2^64 - 1
          "switches:2.5", // used to read as switches:2
          "links:+4", "links: 4", "links:4:"}) {
        EXPECT_FALSE(FaultScenario::parse(bad).has_value()) << bad;
    }
}

TEST(Sweep, FaultScenarioValidatesCountAgainstN)
{
    // N=8: 3 link stages of 8 switches, 3 output links each.
    const auto diag = [](const std::string &spec) {
        return FaultScenario::parse(spec).value().validate(8);
    };
    EXPECT_FALSE(diag("none").has_value());
    EXPECT_FALSE(diag("links:72").has_value());
    EXPECT_TRUE(diag("links:73").has_value());
    EXPECT_TRUE(diag("links:9999").has_value());
    EXPECT_FALSE(diag("nonstraight:48").has_value());
    EXPECT_TRUE(diag("nonstraight:49").has_value());
    EXPECT_FALSE(diag("double:24").has_value());
    EXPECT_TRUE(diag("double:25").has_value());
    EXPECT_FALSE(diag("switches:16").has_value()); // inner columns
    EXPECT_TRUE(diag("switches:17").has_value());
    EXPECT_NE(diag("links:9999")->find("N=8"), std::string::npos);

    // Every count validate accepts materializes, and at the links
    // bound every link of the network is blocked: the bound is the
    // injection pool, not a guess below it.
    const topo::IadmTopology topo(8);
    Rng rng(3);
    for (const std::string spec :
         {"links:72", "nonstraight:48", "double:24", "switches:16"}) {
        const auto f = FaultScenario::parse(spec).value();
        EXPECT_FALSE(f.make(topo, rng).empty()) << spec;
    }
    EXPECT_EQ(FaultScenario::parse("links:72")->make(topo, rng).count(),
              topo.allLinks().size());
}

// --- determinism ---------------------------------------------------

TEST(Sweep, ReportIsByteIdenticalAcrossWorkerCounts)
{
    // The acceptance guarantee: a sweep's JSON depends only on the
    // grid, never on thread count or OS scheduling.
    const auto g = smallGrid();
    const auto json_for = [&](unsigned workers) {
        SweepOptions opts;
        opts.workers = workers;
        return sweepReportJson(g, runSweep(g, opts));
    };
    const std::string one = json_for(1);
    EXPECT_EQ(one, json_for(4));
    EXPECT_EQ(one, json_for(8));
}

TEST(Sweep, RepeatedRunsAreByteIdentical)
{
    const auto g = smallGrid();
    SweepOptions opts;
    opts.workers = 3;
    const auto a = sweepReportJson(g, runSweep(g, opts));
    const auto b = sweepReportJson(g, runSweep(g, opts));
    EXPECT_EQ(a, b);
}

TEST(Sweep, SetupHookStaysDeterministicAcrossWorkerCounts)
{
    SweepGrid g;
    g.netSizes = {16};
    g.schemes = {RoutingScheme::SsdtStatic};
    g.injectionRates = {0.2, 0.3};
    g.measureCycles = 400;
    g.masterSeed = 11;
    const auto json_for = [&](unsigned workers) {
        SweepOptions opts;
        opts.workers = workers;
        opts.setup = [](NetworkSim &s, const SweepCell &cell,
                        Rng &rng) {
            const topo::IadmTopology topo(cell.netSize);
            for (int k = 0; k < 8; ++k) {
                const auto stage = static_cast<unsigned>(
                    rng.uniform(topo.stages()));
                const auto j =
                    static_cast<Label>(rng.uniform(cell.netSize));
                const auto from = 10 + rng.uniform(100);
                s.scheduleTransientBlockage(
                    topo.plusLink(stage, j), from, from + 40);
            }
        };
        return sweepReportJson(g, runSweep(g, opts));
    };
    EXPECT_EQ(json_for(1), json_for(4));
}

TEST(Sweep, FixedSeedSimReproducesExactCounts)
{
    // Two invocations of the simulator itself with one fixed seed:
    // delivered/dropped must match exactly (the per-run half of the
    // determinism contract).
    const auto counts = [] {
        SimConfig cfg;
        cfg.netSize = 16;
        cfg.scheme = RoutingScheme::TsdtDynamic;
        cfg.injectionRate = 0.3;
        cfg.seed = deriveSeed(5, 3, 1);
        NetworkSim s(cfg,
                     std::make_unique<UniformTraffic>(16),
                     fault::FaultSet{});
        s.run(1500);
        return std::pair{s.metrics().delivered(),
                         s.metrics().dropped()};
    };
    EXPECT_EQ(counts(), counts());
}

// --- runner mechanics ----------------------------------------------

TEST(Sweep, ResultsArriveInCellOrderWithAllReplicates)
{
    const auto g = smallGrid();
    SweepOptions opts;
    opts.workers = 4;
    const auto results = runSweep(g, opts);
    ASSERT_EQ(results.size(), g.cellCount());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].cell.cellIndex, i);
        ASSERT_EQ(results[i].replicates.size(), g.replicates);
        for (unsigned r = 0; r < g.replicates; ++r)
            EXPECT_EQ(results[i].replicates[r].seed,
                      deriveSeed(g.masterSeed, i, r));
    }
}

TEST(Sweep, CollectorReportsEachCellExactlyOnce)
{
    const auto g = smallGrid();
    std::atomic<std::size_t> calls{0};
    std::vector<bool> seen(g.cellCount(), false);
    SweepOptions opts;
    opts.workers = 4;
    opts.onCellDone = [&](const CellResult &r, std::size_t done,
                          std::size_t total) {
        // Called under the collector mutex: no two callbacks race.
        ++calls;
        EXPECT_EQ(total, g.cellCount());
        EXPECT_GE(done, 1u);
        EXPECT_LE(done, total);
        EXPECT_FALSE(seen[r.cell.cellIndex]);
        seen[r.cell.cellIndex] = true;
        EXPECT_EQ(r.replicates.size(), g.replicates);
    };
    (void)runSweep(g, opts);
    EXPECT_EQ(calls.load(), g.cellCount());
    for (const bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Sweep, LentCellResultsMatchTheFinalResults)
{
    // onCellDone borrows each finished cell's replicates: it sees
    // the same seeds and counts the caller gets back, and lending
    // them leaves the report untouched.
    const auto g = smallGrid();
    SweepOptions opts;
    opts.workers = 4;
    const std::string plain = sweepReportJson(g, runSweep(g, opts));

    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        lent(g.cellCount());
    opts.onCellDone = [&](const CellResult &r, std::size_t,
                          std::size_t) {
        for (const auto &rep : r.replicates)
            lent[r.cell.cellIndex].emplace_back(
                rep.seed, rep.metrics.delivered());
    };
    const auto results = runSweep(g, opts);
    EXPECT_EQ(sweepReportJson(g, results), plain);
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_EQ(lent[i].size(), g.replicates) << "cell " << i;
        for (unsigned r = 0; r < g.replicates; ++r) {
            const auto &rep = results[i].replicates[r];
            EXPECT_EQ(lent[i][r].first, rep.seed);
            EXPECT_EQ(lent[i][r].second, rep.metrics.delivered());
        }
    }
}

TEST(Sweep, ReplicateHistogramsHoldOnlyTheirUsedBuckets)
{
    // Each replicate's latency histogram ends at its highest
    // latency, not at Metrics::latencyCap(): the sizes differ from
    // replicate to replicate.  Faulted tsdt-dynamic with no age cap
    // gives the grid its longest tail.
    SweepGrid g;
    g.netSizes = {16};
    g.schemes = {RoutingScheme::SsdtStatic, RoutingScheme::TsdtDynamic};
    g.injectionRates = {0.6};
    g.faults = {FaultScenario{},
                FaultScenario{FaultScenario::Kind::RandomLinks, 12}};
    g.replicates = 2;
    g.warmupCycles = 50;
    g.measureCycles = 600;
    g.maxPacketAge = 0;
    g.masterSeed = 41;
    SweepOptions opts;
    opts.workers = 2;
    std::set<std::size_t> sizes;
    for (const auto &cell : runSweep(g, opts))
        for (const auto &rep : cell.replicates) {
            const Metrics &m = rep.metrics;
            ASSERT_GT(m.delivered(), 0u);
            const auto &hist = m.latencyHistogram();
            EXPECT_EQ(hist.size(),
                      std::min(m.maxLatency(), Metrics::latencyCap()) +
                          1);
            EXPECT_NE(hist.back(), 0u);
            sizes.insert(hist.size());
        }
    EXPECT_GT(sizes.size(), 1u) << "every histogram has one size";
}

TEST(Sweep, FaultScenarioCellsDeliverUnderFaults)
{
    SweepGrid g;
    g.netSizes = {16};
    g.schemes = {RoutingScheme::TsdtSender};
    g.injectionRates = {0.1};
    g.faults = {FaultScenario{FaultScenario::Kind::RandomLinks, 4}};
    g.replicates = 3;
    g.measureCycles = 800;
    g.masterSeed = 31;
    const auto results = runSweep(g);
    ASSERT_EQ(results.size(), 1u);
    for (const auto &rep : results[0].replicates)
        EXPECT_GT(rep.metrics.delivered(), 0u);
    // Replicates draw independent fault sets and traffic: at least
    // one pair of replicates should differ in injected count.
    const auto &reps = results[0].replicates;
    EXPECT_TRUE(reps[0].metrics.injected() !=
                    reps[1].metrics.injected() ||
                reps[1].metrics.injected() !=
                    reps[2].metrics.injected());
}

} // namespace
} // namespace iadm
