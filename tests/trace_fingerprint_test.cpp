/**
 * @file
 * Trace-event fingerprints of a small traced grid, pinned against
 * tests/data/trace_fingerprints.txt.
 *
 * The golden sweep fixtures pin report bytes: counters and averages.
 * Two runs can agree on every counter and still take different
 * paths, stall at different switches or apply fault transitions in a
 * different order.  The event stream records each of those, so one
 * hash of it per replicate catches what a report cannot.  The grid
 * covers the schemes that resolve tags (tsdt and tsdt-dynamic) at
 * N = 16 and 64, under static link faults with transient windows on
 * top, alone and with geometric or burst churn.
 *
 * Regenerating (only after an intentional behaviour change):
 *   IADM_REGEN_GOLDEN=1 ./trace_fingerprint_test
 * and name the cells whose lines moved when committing the fixture.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_sink.hpp"
#include "sim/sweep.hpp"

namespace iadm {
namespace {

using namespace sim;

#ifndef IADM_TEST_DATA_DIR
#error "IADM_TEST_DATA_DIR must point at tests/data"
#endif

const char *const kFixturePath =
    IADM_TEST_DATA_DIR "/trace_fingerprints.txt";

/** Ring slots per replicate: large enough that nothing wraps. */
constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;

/** The frozen grid.  Changing anything here invalidates the fixture. */
SweepGrid
fingerprintGrid()
{
    SweepGrid grid;
    grid.netSizes = {16, 64};
    grid.schemes = {RoutingScheme::TsdtSender,
                    RoutingScheme::TsdtDynamic};
    grid.injectionRates = {0.3};
    grid.queueCapacities = {4};
    grid.faults = {FaultScenario{FaultScenario::Kind::RandomLinks, 4}};
    grid.churns = {ChurnSpec{}, *ChurnSpec::parse("geometric:200:40"),
                   *ChurnSpec::parse("burst:120:40:2")};
    grid.replicates = 2;
    grid.warmupCycles = 100;
    grid.measureCycles = 500;
    grid.masterSeed = 20261017;
    grid.maxPacketAge = 300;
    return grid;
}

/**
 * Twelve transient windows per replicate, drawn from the replicate's
 * scenario rng; every third one lands on a link the static faults
 * already block, so window claims stack on static claims.
 */
void
scheduleWindows(NetworkSim &s, const SweepCell &cell, Rng &rng)
{
    const topo::IadmTopology topo(cell.netSize);
    std::vector<topo::Link> blocked;
    for (const topo::Link &l : topo.allLinks())
        if (s.faults().isBlocked(l))
            blocked.push_back(l);
    for (int k = 0; k < 12; ++k) {
        topo::Link link;
        if (k % 3 == 0 && !blocked.empty()) {
            link = blocked[rng.uniform(blocked.size())];
        } else {
            const auto stage =
                static_cast<unsigned>(rng.uniform(topo.stages()));
            const auto j =
                static_cast<Label>(rng.uniform(cell.netSize));
            const auto kind = rng.uniform(3);
            link = kind == 0   ? topo.straightLink(stage, j)
                   : kind == 1 ? topo.plusLink(stage, j)
                               : topo.minusLink(stage, j);
        }
        const Cycle from = 40 + rng.uniform(480);
        const Cycle len = 20 + rng.uniform(160);
        s.scheduleTransientBlockage(link, from, from + len);
    }
}

/** FNV-1a over every field of every retained event, in order. */
std::uint64_t
hashEvents(const std::vector<obs::TraceEvent> &events)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v, unsigned bytes) {
        for (unsigned b = 0; b < bytes; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    for (const obs::TraceEvent &e : events) {
        mix(e.packet, 8);
        mix(e.cycle, 4);
        mix(e.sw, 2);
        mix(e.aux, 2);
        mix(e.tagDest, 2);
        mix(e.tagState, 2);
        mix(static_cast<std::uint8_t>(e.kind), 1);
        mix(e.stage, 1);
        mix(e.link, 1);
        mix(e.flags, 1);
    }
    return h;
}

/** One fixture line per (cell, replicate), in cell order. */
std::string
runFingerprints()
{
    const SweepGrid grid = fingerprintGrid();
    std::vector<std::string> lines(grid.runCount());
    SweepOptions opts;
    opts.workers = 2;
    opts.setup = scheduleWindows;
    opts.traceCapacity = kTraceCapacity;
    // Each replicate writes only its own line: workers share nothing.
    opts.onReplicateTrace = [&lines, &grid](const SweepCell &cell,
                                            unsigned rep,
                                            const obs::TraceSink &sink,
                                            const NetworkSim &) {
        EXPECT_EQ(sink.droppedOldest(), 0u)
            << "trace ring wrapped; raise kTraceCapacity";
        char hash[17];
        std::snprintf(hash, sizeof hash, "%016llx",
                      static_cast<unsigned long long>(
                          hashEvents(sink.snapshot())));
        std::ostringstream os;
        os << "cell " << cell.cellIndex << " rep " << rep << ' '
           << routingSchemeName(cell.scheme) << " N=" << cell.netSize
           << " faults=" << cell.fault.name()
           << " churn=" << cell.churn.name()
           << " events=" << sink.recorded() << " hash=" << hash;
        lines[cell.cellIndex * grid.replicates + rep] = os.str();
    };
    runSweep(grid, opts);
    std::string out;
    for (const std::string &l : lines)
        out += l + '\n';
    return out;
}

std::vector<std::string>
splitLines(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    for (std::string line; std::getline(is, line);)
        out.push_back(line);
    return out;
}

TEST(TraceFingerprint, TracedGridMatchesFixture)
{
    const std::string got = runFingerprints();

    if (std::getenv("IADM_REGEN_GOLDEN") != nullptr) {
        std::ofstream os(kFixturePath, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << kFixturePath;
        os << got;
        GTEST_SKIP() << "fixture regenerated at " << kFixturePath;
    }

    std::ifstream is(kFixturePath, std::ios::binary);
    ASSERT_TRUE(is) << "missing fixture " << kFixturePath
                    << " (run with IADM_REGEN_GOLDEN=1 to create)";
    std::ostringstream fixture;
    fixture << is.rdbuf();

    // Name every moved line, so a failure says which cells changed.
    const std::vector<std::string> want = splitLines(fixture.str());
    const std::vector<std::string> have = splitLines(got);
    ASSERT_EQ(have.size(), want.size());
    for (std::size_t i = 0; i < have.size(); ++i)
        EXPECT_EQ(have[i], want[i]) << "fixture line " << i + 1;
    EXPECT_TRUE(got == fixture.str());
}

} // namespace
} // namespace iadm
