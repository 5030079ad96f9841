/**
 * @file
 * Health-monitor suite (`ctest -L health`; also in the tsan and asan
 * presets).
 *
 * Covers, bottom-up:
 *   - the wait-for-cycle detector on hand-constructed graphs: a
 *     built deadlock is flagged deterministically after exactly
 *     `confirmScans` scans, transient cycles stay sightings, acyclic
 *     graphs stay clean,
 *   - progress-bound episode accounting (one violation per stuck
 *     episode, not per scan),
 *   - the MSER steady-state rule: warmup ramps are truncated,
 *     constant series are kept whole, short series refuse to claim
 *     stability,
 *   - simulator integration: churn-heavy N=64 runs across all five
 *     schemes pass clean, the three golden sweep grids report
 *     healthy with the monitor attached, and the monitor never
 *     perturbs the simulation (the health-on sweep report minus its
 *     additive sections is byte-identical to the health-off report),
 *   - the serve daemon: `health` wire query against a churning
 *     daemon with a live watchdog (epoch_torn == 0), and the
 *     per-request service-time histogram.
 */

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/health.hpp"
#include "obs/steady_state.hpp"
#include "serve/server.hpp"
#include "serve/server_core.hpp"
#include "serve/wire.hpp"
#include "sim/sweep.hpp"

namespace iadm {
namespace {

using namespace sim;
using obs::HealthConfig;
using obs::HealthMonitor;
using obs::SteadyStateTracker;

// ------------------------------------------------- wait-for cycles

/** One scan over an 8-queue network with the 3-cycle 0->1->2->0. */
void
scanWithCycle(HealthMonitor &hm, std::uint64_t cycle)
{
    hm.beginScan(cycle, 8);
    hm.waitEdge(0, 1);
    hm.waitEdge(1, 2);
    hm.waitEdge(2, 0);
    hm.endScan();
}

TEST(WaitForCycle, ConstructedDeadlockIsFlaggedDeterministically)
{
    HealthConfig cfg;
    cfg.confirmScans = 2;
    HealthMonitor hm(cfg);

    scanWithCycle(hm, 100);
    EXPECT_EQ(hm.report().waitCycleSightings, 1u);
    EXPECT_EQ(hm.report().deadlocks, 0u) << "one scan is a sighting";

    scanWithCycle(hm, 200);
    EXPECT_EQ(hm.report().waitCycleSightings, 2u);
    EXPECT_EQ(hm.report().deadlocks, 1u)
        << "the cycle persisted for confirmScans scans";
    EXPECT_FALSE(hm.report().healthy());

    // The same cycle persisting further is still the one deadlock.
    scanWithCycle(hm, 300);
    scanWithCycle(hm, 400);
    EXPECT_EQ(hm.report().deadlocks, 1u);
    EXPECT_EQ(hm.report().scans, 4u);
}

TEST(WaitForCycle, TransientCycleNeverConfirms)
{
    HealthConfig cfg;
    cfg.confirmScans = 2;
    HealthMonitor hm(cfg);

    // Seen, dissolved, seen again: the streak resets in between, so
    // it can never reach confirmScans.
    scanWithCycle(hm, 100);
    hm.beginScan(200, 8); // churn repaired something: no cycle
    hm.endScan();
    scanWithCycle(hm, 300);
    EXPECT_EQ(hm.report().waitCycleSightings, 2u);
    EXPECT_EQ(hm.report().deadlocks, 0u);
    EXPECT_TRUE(hm.report().healthy());
}

TEST(WaitForCycle, AcyclicWaitChainsAreClean)
{
    HealthMonitor hm;
    for (int s = 0; s < 4; ++s) {
        // Forward-traffic shape: stage s waits only on stage s+1.
        hm.beginScan(100 * (s + 1), 8);
        hm.waitEdge(0, 1);
        hm.waitEdge(1, 2);
        hm.waitEdge(2, 3);
        hm.waitEdge(5, 6);
        hm.endScan();
    }
    EXPECT_EQ(hm.report().waitCycleSightings, 0u);
    EXPECT_EQ(hm.report().deadlocks, 0u);
}

TEST(WaitForCycle, TailLeadingIntoACycleCountsItOnce)
{
    HealthMonitor hm;
    hm.beginScan(100, 8);
    hm.waitEdge(5, 0); // tail merging into the cycle
    hm.waitEdge(0, 1);
    hm.waitEdge(1, 2);
    hm.waitEdge(2, 0);
    hm.endScan();
    EXPECT_EQ(hm.report().waitCycleSightings, 1u)
        << "the tail's walk and the cycle's own walk found the same "
           "cycle twice";
}

TEST(WaitForCycle, DisjointCyclesCountSeparately)
{
    HealthConfig cfg;
    cfg.confirmScans = 2;
    HealthMonitor hm(cfg);
    for (int i = 0; i < 2; ++i) {
        hm.beginScan(100 * (i + 1), 8);
        hm.waitEdge(0, 1);
        hm.waitEdge(1, 0);
        hm.waitEdge(4, 5);
        hm.waitEdge(5, 6);
        hm.waitEdge(6, 4);
        hm.endScan();
    }
    EXPECT_EQ(hm.report().waitCycleSightings, 4u);
    EXPECT_EQ(hm.report().deadlocks, 2u);
}

// ------------------------------------------------- progress bound

TEST(ProgressBound, EachStuckEpisodeCountsOnce)
{
    HealthConfig cfg;
    cfg.progressBound = 100;
    HealthMonitor hm(cfg);
    const auto scanStuck = [&](std::uint64_t cycle,
                               std::uint64_t stuck) {
        hm.beginScan(cycle, 8);
        hm.headStuck(3, stuck);
        hm.endScan();
    };

    scanStuck(100, 50); // below the bound
    EXPECT_EQ(hm.report().progressViolations, 0u);
    scanStuck(200, 120); // crosses the bound: one violation
    EXPECT_EQ(hm.report().progressViolations, 1u);
    scanStuck(300, 184); // same episode, still stuck: no recount
    EXPECT_EQ(hm.report().progressViolations, 1u);
    scanStuck(400, 10); // the head moved: episode over
    EXPECT_EQ(hm.report().progressViolations, 1u);
    scanStuck(500, 150); // a fresh episode crosses the bound
    EXPECT_EQ(hm.report().progressViolations, 2u);
    EXPECT_EQ(hm.report().maxHeadStall, 184u);
}

TEST(ProgressBound, ZeroBoundDisablesTheCheck)
{
    HealthConfig cfg;
    cfg.progressBound = 0;
    HealthMonitor hm(cfg);
    hm.beginScan(100, 8);
    hm.headStuck(1, 1u << 30);
    hm.endScan();
    EXPECT_EQ(hm.report().progressViolations, 0u);
    EXPECT_EQ(hm.report().maxHeadStall, 1u << 30)
        << "the stall gauge still tracks with the check disabled";
}

TEST(Progress, NoteDeliveredAdvancesOnlyOnNewDeliveries)
{
    HealthMonitor hm;
    hm.noteDelivered(10, 5);
    EXPECT_EQ(hm.report().lastProgressCycle, 10u);
    hm.noteDelivered(20, 5); // nothing new delivered
    EXPECT_EQ(hm.report().lastProgressCycle, 10u);
    hm.noteDelivered(30, 7);
    EXPECT_EQ(hm.report().lastProgressCycle, 30u);
}

// ------------------------------------------------- MSER steady state

TEST(SteadyState, ShortSeriesRefusesToClaimStability)
{
    SteadyStateTracker t;
    for (int i = 0; i < 4; ++i)
        t.addWindow(0.1 * (i + 1), 10.0);
    const auto r = t.analyze();
    EXPECT_FALSE(r.stable);
    EXPECT_EQ(r.windows, 4u);
    EXPECT_EQ(r.truncatedWindows, 0u);
    EXPECT_DOUBLE_EQ(r.steadyThroughput, r.wholeThroughput);
    EXPECT_DOUBLE_EQ(r.steadyAvgLatency, r.wholeAvgLatency);
}

TEST(SteadyState, MserTruncatesTheWarmupRamp)
{
    // 8 ramp windows (queues filling) then 24 flat windows: MSER
    // must delete exactly the ramp — a constant suffix has zero
    // standard error, and ties prefer the smallest deletion point.
    SteadyStateTracker t;
    for (int i = 0; i < 8; ++i)
        t.addWindow(0.1 * (i + 1), 50.0);
    for (int i = 0; i < 24; ++i)
        t.addWindow(1.0, 20.0);
    const auto r = t.analyze();
    EXPECT_TRUE(r.stable);
    EXPECT_EQ(r.windows, 32u);
    EXPECT_EQ(r.truncatedWindows, 8u);
    EXPECT_DOUBLE_EQ(r.steadyThroughput, 1.0);
    EXPECT_DOUBLE_EQ(r.steadyAvgLatency, 20.0);
    EXPECT_LT(r.wholeThroughput, r.steadyThroughput)
        << "the ramp drags the whole-run average down";
    EXPECT_GT(r.wholeAvgLatency, r.steadyAvgLatency);
}

TEST(SteadyState, ConstantSeriesKeepsEveryWindow)
{
    SteadyStateTracker t;
    for (int i = 0; i < 16; ++i)
        t.addWindow(0.5, 12.0);
    const auto r = t.analyze();
    EXPECT_TRUE(r.stable);
    EXPECT_EQ(r.truncatedWindows, 0u);
    EXPECT_DOUBLE_EQ(r.steadyThroughput, 0.5);
    EXPECT_DOUBLE_EQ(r.steadyThroughput, r.wholeThroughput);
}

// ------------------------------------------------- sim integration

TEST(SimHealth, ChurnHeavyRunPassesCleanForEveryScheme)
{
    // The liveness acceptance: a churn-heavy N=64 run — the regime
    // where park-and-retry could in principle starve — must report
    // zero deadlocks and zero progress violations for all five
    // schemes.  The load is heavy in *churn* (geometric MTBF 500 /
    // MTTR 100 across every link) but below saturation in rate, so
    // any violation is a liveness bug, not an offered-load artifact.
    for (const RoutingScheme scheme :
         {RoutingScheme::SsdtStatic, RoutingScheme::SsdtBalanced,
          RoutingScheme::TsdtSender, RoutingScheme::DistanceTag,
          RoutingScheme::TsdtDynamic}) {
        SimConfig cfg;
        cfg.netSize = 64;
        cfg.scheme = scheme;
        cfg.injectionRate = 0.15;
        cfg.seed = 20260807;
        cfg.maxPacketAge = 600;
        NetworkSim s(cfg,
                     std::make_unique<UniformTraffic>(cfg.netSize));
        const auto churn = ChurnSpec::parse("geometric:500:100");
        ASSERT_TRUE(churn.has_value());
        s.addFaultProcess(churn->make(s.topology(), 0x4ea17u));
        obs::HealthConfig hc;
        hc.progressBound = 2000;
        obs::HealthMonitor monitor(hc);
        s.setHealthMonitor(&monitor);
        s.run(4000);

        const auto &rep = monitor.report();
        EXPECT_TRUE(rep.healthy())
            << routingSchemeName(scheme) << ": deadlocks="
            << rep.deadlocks
            << " violations=" << rep.progressViolations;
        EXPECT_GT(rep.scans, 0u);
        EXPECT_GT(monitor.steadyState().windowCount(), 0u);
        EXPECT_GT(rep.lastProgressCycle, 0u)
            << "a 4000-cycle churn run must deliver something";
    }
}

// The three golden grids, restated from golden_sweep_test.cpp /
// churn_test.cpp (the fixtures freeze them; restating keeps this
// suite self-contained).
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

SweepGrid
goldenFaultedGrid()
{
    SweepGrid grid = goldenGrid();
    grid.faults = {
        FaultScenario{FaultScenario::Kind::Nonstraight, 4},
        FaultScenario{FaultScenario::Kind::RandomLinks, 6},
        FaultScenario{FaultScenario::Kind::DoubleNonstraight, 2}};
    grid.masterSeed = 20260807;
    return grid;
}

SweepGrid
goldenChurnGrid()
{
    SweepGrid grid = goldenGrid();
    grid.faults = {FaultScenario{FaultScenario::Kind::RandomLinks, 4}};
    grid.churns = {ChurnSpec::parse("geometric:500:100").value()};
    grid.measureCycles = 1000;
    grid.masterSeed = 20260807;
    grid.maxPacketAge = 600;
    return grid;
}

/** goldenGrid()'s transient-blockage storm (golden_sweep_test.cpp). */
void
goldenTransientSetup(NetworkSim &s, const SweepCell &cell, Rng &rng)
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

/** Every replicate of a health-on sweep must carry a clean report. */
void
expectAllHealthy(const std::vector<CellResult> &results,
                 const char *what)
{
    std::size_t replicates = 0;
    for (const auto &cell : results) {
        for (const auto &rep : cell.replicates) {
            ++replicates;
            ASSERT_TRUE(rep.healthEnabled) << what;
            EXPECT_TRUE(rep.health.healthy())
                << what << " " << routingSchemeName(cell.cell.scheme)
                << ": deadlocks=" << rep.health.deadlocks
                << " violations=" << rep.health.progressViolations;
            EXPECT_GT(rep.health.scans, 0u) << what;
        }
    }
    EXPECT_GT(replicates, 0u) << what;
}

TEST(SimHealth, AllThreeGoldenGridsReportClean)
{
    SweepOptions opts;
    opts.workers = 2;
    opts.health = true;

    SweepOptions transient = opts;
    transient.setup = goldenTransientSetup;
    expectAllHealthy(runSweep(goldenGrid(), transient), "transient");
    expectAllHealthy(runSweep(goldenFaultedGrid(), opts), "faulted");
    expectAllHealthy(runSweep(goldenChurnGrid(), opts), "churn");
}

TEST(SimHealth, MonitorNeverPerturbsTheSweepReport)
{
    // Byte-identity two ways.  First: the monitor must not change
    // the simulation — a health-on run whose additive sections are
    // suppressed renders byte-identical to a health-off run.
    // Second: the sections really are additive — present only with
    // health on.
    SweepGrid grid = goldenChurnGrid();
    grid.netSizes = {16};
    grid.measureCycles = 600; // small: this is a purity check

    SweepOptions off;
    off.workers = 2;
    const std::string plain =
        sweepReportJson(grid, runSweep(grid, off));
    EXPECT_EQ(plain.find("\"health\""), std::string::npos);
    EXPECT_EQ(plain.find("\"steady_state\""), std::string::npos);

    SweepOptions on = off;
    on.health = true;
    auto results = runSweep(grid, on);
    const std::string with =
        sweepReportJson(grid, results);
    EXPECT_NE(with.find("\"health\""), std::string::npos);
    EXPECT_NE(with.find("\"deadlocks\": 0"), std::string::npos);
    EXPECT_NE(with.find("\"steady_state\""), std::string::npos);

    for (auto &cell : results)
        for (auto &rep : cell.replicates)
            rep.healthEnabled = false; // suppress the new sections
    EXPECT_EQ(sweepReportJson(grid, results), plain)
        << "attaching the monitor changed the simulation itself";
}

// ------------------------------------------------- serve daemon

TEST(ServeHealth, WireParsesHealthOpAndPairElements)
{
    const auto r = serve::parseRequest(R"({"id":3,"op":"health"})");
    EXPECT_EQ(r.op, serve::Request::Op::Health);
    EXPECT_EQ(r.id, 3u);

    std::string out;
    serve::ResponseWriter w(out, 1);
    w.beginArray("hist");
    w.pairElement(4, 9);
    w.pairElement(8, 2);
    w.endArray();
    w.finish();
    EXPECT_EQ(out, "{\"id\":1,\"hist\":[[4,9],[8,2]]}\n");
}

TEST(ServeHealth, ServiceHistogramCountsEveryRequest)
{
    serve::ServeConfig cfg;
    cfg.netSize = 16;
    cfg.scheme = sim::RoutingScheme::TsdtSender;
    serve::ServerCore core(cfg);

    std::vector<serve::Request> reqs;
    for (std::uint64_t i = 0; i < 16; ++i) {
        serve::Request r;
        r.op = serve::Request::Op::Route;
        r.id = i + 1;
        r.src = static_cast<Label>(i);
        r.dst = static_cast<Label>(15 - i);
        reqs.push_back(r);
    }
    std::string out;
    core.resolveBatch(reqs.data(), 5, out);
    core.resolveBatch(reqs.data() + 5, 1, out);
    core.resolveBatch(reqs.data() + 6, 10, out);

    const auto st = core.statsSnapshot();
    EXPECT_EQ(st.serviceSamples, 16u);
    EXPECT_EQ(st.serviceSamples, st.requests);
    std::uint64_t sum = 0;
    for (const auto c : st.serviceHist)
        sum += c;
    EXPECT_EQ(sum, st.serviceSamples);
    // A request takes well under a microsecond; ns buckets still
    // resolve it, so the median is a positive fraction of a µs.
    EXPECT_GT(st.servicePercentileUs(0.50), 0.0);
    EXPECT_GE(st.servicePercentileUs(0.99),
              st.servicePercentileUs(0.50));
    EXPECT_GT(st.lastProgressEpoch + 1, 0u); // present (may be 0)

    // The stats response carries the histogram fields.
    serve::Request stats;
    stats.op = serve::Request::Op::Stats;
    stats.id = 99;
    std::string sout;
    core.resolveBatch(&stats, 1, sout);
    EXPECT_NE(sout.find("\"service_samples\":"), std::string::npos)
        << sout;
    EXPECT_NE(sout.find("\"service_p50_us\":"), std::string::npos);
    EXPECT_NE(sout.find("\"service_p99_us\":"), std::string::npos);
    EXPECT_NE(sout.find("\"service_hist_ns\":[["), std::string::npos);
}

/** Blocking test client with a wedge-detection receive timeout. */
class Client
{
  public:
    explicit Client(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        connected_ =
            fd_ >= 0 &&
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0;
        timeval tv{};
        tv.tv_sec = 10;
        if (connected_)
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv,
                         sizeof(tv));
    }
    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool connected() const { return connected_; }

    bool send(const std::string &s)
    {
        std::size_t off = 0;
        while (off < s.size()) {
            const ssize_t n = ::send(fd_, s.data() + off,
                                     s.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    std::string recvLine()
    {
        for (;;) {
            const auto nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return {};
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    bool connected_ = false;
    std::string buf_;
};

std::uint64_t
jsonInt(const std::string &line, const std::string &key)
{
    const auto pos = line.find("\"" + key + "\":");
    EXPECT_NE(pos, std::string::npos) << key << " in " << line;
    if (pos == std::string::npos)
        return 0;
    return std::strtoull(line.c_str() + pos + key.size() + 3,
                         nullptr, 10);
}

TEST(ServeHealth, HealthQueryAnswersAgainstChurningDaemon)
{
    // The serve acceptance: a churning daemon with a live watchdog
    // answers the health query with status "ok", a zero torn-epoch
    // counter, and an advancing last-progress epoch.
    serve::ServeConfig cfg;
    cfg.netSize = 64;
    cfg.scheme = sim::RoutingScheme::TsdtSender;
    cfg.seed = 3;
    cfg.tickUs = 200;
    const auto churn = sim::ChurnSpec::parse("bernoulli:0.02:0.1");
    ASSERT_TRUE(churn.has_value());
    cfg.churn = *churn;

    const topo::IadmTopology net(cfg.netSize);
    fault::FaultSet faults;
    std::string err;
    ASSERT_TRUE(serve::ServerCore::parseFaultArg(
        net, "links:8", cfg.seed, faults, err))
        << err;
    serve::ServerCore core(cfg, std::move(faults));
    serve::RouteServer server(
        core, "/tmp/iadm_health_test_" +
                  std::to_string(::getpid()) + ".sock");
    ASSERT_TRUE(server.start(&err)) << err;
    std::thread loop([&] { server.run(); });
    serve::ChurnTicker ticker(core);
    serve::HealthWatchdog watchdog(core);

    Client c(server.socketPath());
    ASSERT_TRUE(c.connected());
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(c.send("{\"id\":" + std::to_string(i + 1) +
                           ",\"op\":\"route\",\"src\":" +
                           std::to_string(i % 64) + ",\"dst\":" +
                           std::to_string((i * 7) % 64) + "}\n"));
        ASSERT_FALSE(c.recvLine().empty()) << "daemon wedged";
    }

    // Poll until the watchdog has visibly beaten and the churn
    // ticker has run (both threads race this client; tickUs=200
    // means ticks arrive within ~ms, but a loaded sanitizer host can
    // starve either thread for much longer).  Bounded at ~5 s.
    std::string line;
    for (int tries = 0; tries < 1000; ++tries) {
        ASSERT_TRUE(c.send("{\"id\":777,\"op\":\"health\"}\n"));
        line = c.recvLine();
        ASSERT_FALSE(line.empty()) << "daemon wedged on health";
        if (jsonInt(line, "watchdog_ticks") > 0 &&
            jsonInt(line, "churn_ticks") > 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    EXPECT_NE(line.find("\"op\":\"health\""), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"uptime_windows\":["), std::string::npos)
        << line;
    EXPECT_EQ(jsonInt(line, "epoch_torn"), 0u) << line;
    EXPECT_GT(jsonInt(line, "watchdog_ticks"), 0u) << line;
    EXPECT_GE(jsonInt(line, "requests"), 50u) << line;
    EXPECT_GT(jsonInt(line, "last_progress_epoch"), 0u)
        << "batches completed, so the progress epoch must be pinned: "
        << line;
    EXPECT_GE(jsonInt(line, "epoch"),
              jsonInt(line, "last_progress_epoch"))
        << line;

    server.stop();
    loop.join();
    const auto st = core.statsSnapshot();
    EXPECT_EQ(st.epochTorn, 0u);
    EXPECT_GT(st.churnTicks, 0u);
}

} // namespace
} // namespace iadm
