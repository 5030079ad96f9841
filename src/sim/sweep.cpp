#include "sim/sweep.hpp"

#include <atomic>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/bits.hpp"
#include "common/logging.hpp"
#include "common/json_writer.hpp"
#include "common/parse.hpp"
#include "fault/injection.hpp"
#include "obs/stats.hpp"
#include "obs/trace_sink.hpp"

namespace iadm::sim {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

/** Salt separating the fault/setup rng stream from the sim seed. */
constexpr std::uint64_t kScenarioSalt = 0x5cafed00d5eed5ull;

/** Salt separating the churn-process stream from traffic and from
 *  the static-scenario draws (docs/SWEEP.md). */
constexpr std::uint64_t kChurnSalt = 0xc402d5eed5ull;

std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

// --- FaultScenario -------------------------------------------------

std::string
FaultScenario::name() const
{
    switch (kind) {
      case Kind::None: return "none";
      case Kind::RandomLinks:
        return "links:" + std::to_string(count);
      case Kind::Nonstraight:
        return "nonstraight:" + std::to_string(count);
      case Kind::DoubleNonstraight:
        return "double:" + std::to_string(count);
      case Kind::Switches:
        return "switches:" + std::to_string(count);
    }
    return "?";
}

std::optional<FaultScenario>
FaultScenario::parse(const std::string &spec)
{
    const auto parts = splitOn(spec, ':');
    FaultScenario fs;
    if (parts[0] == "none") {
        if (parts.size() != 1)
            return std::nullopt;
        return fs;
    }
    if (parts.size() != 2)
        return std::nullopt;
    if (parts[0] == "links")
        fs.kind = Kind::RandomLinks;
    else if (parts[0] == "nonstraight")
        fs.kind = Kind::Nonstraight;
    else if (parts[0] == "double")
        fs.kind = Kind::DoubleNonstraight;
    else if (parts[0] == "switches")
        fs.kind = Kind::Switches;
    else
        return std::nullopt;
    if (!parseUnsigned(parts[1], fs.count))
        return std::nullopt;
    return fs;
}

std::optional<std::string>
FaultScenario::validate(Label n_size) const
{
    // The pools fault/injection.cpp samples from, without
    // replacement: log2 N link stages of N switches, each with a
    // straight and two nonstraight output links; whole-switch faults
    // spare the input and output columns.
    const std::size_t n = n_size;
    const std::size_t stages = log2Floor(n_size);
    std::size_t pool = 0;
    const char *what = "";
    switch (kind) {
      case Kind::None: return std::nullopt;
      case Kind::RandomLinks:
        pool = 3 * n * stages;
        what = "links";
        break;
      case Kind::Nonstraight:
        pool = 2 * n * stages;
        what = "nonstraight links";
        break;
      case Kind::DoubleNonstraight:
        pool = n * stages;
        what = "switches";
        break;
      case Kind::Switches:
        pool = n * (stages - 1);
        what = "inner-column switches";
        break;
    }
    if (count <= pool)
        return std::nullopt;
    return "fault scenario " + name() + " exceeds the " +
           std::to_string(pool) + " " + what + " at N=" +
           std::to_string(n_size);
}

fault::FaultSet
FaultScenario::make(const topo::IadmTopology &topo, Rng &rng) const
{
    if (const auto err = validate(topo.size()))
        IADM_FATAL("invalid fault scenario: ", *err);
    switch (kind) {
      case Kind::None: return {};
      case Kind::RandomLinks:
        return fault::randomLinkFaults(topo, count, rng);
      case Kind::Nonstraight:
        return fault::randomNonstraightFaults(topo, count, rng);
      case Kind::DoubleNonstraight:
        return fault::randomDoubleNonstraightFaults(topo, count, rng);
      case Kind::Switches:
        return fault::randomSwitchFaults(topo, count, rng);
    }
    IADM_PANIC("unreachable fault scenario kind");
}

// --- ChurnSpec -----------------------------------------------------

std::string
ChurnSpec::name() const
{
    switch (kind) {
      case Kind::None: return "none";
      case Kind::Bernoulli:
        return "bernoulli:" + jsonNumber(pFail) + ":" +
               jsonNumber(pRepair);
      case Kind::Geometric:
        return "geometric:" + jsonNumber(mtbf) + ":" +
               jsonNumber(mttr);
      case Kind::Burst:
        return "burst:" + std::to_string(interval) + ":" +
               std::to_string(duration) + ":" + std::to_string(span);
    }
    return "?";
}

std::optional<ChurnSpec>
ChurnSpec::parse(const std::string &spec)
{
    const auto parts = splitOn(spec, ':');
    ChurnSpec c;
    if (parts[0] == "none" && parts.size() == 1)
        return c;
    if (parts[0] == "bernoulli" && parts.size() == 3) {
        c.kind = Kind::Bernoulli;
        if (parseDouble(parts[1], c.pFail) &&
            parseDouble(parts[2], c.pRepair) && c.pFail >= 0 &&
            c.pFail <= 1 && c.pRepair >= 0 && c.pRepair <= 1)
            return c;
    }
    if (parts[0] == "geometric" && parts.size() == 3) {
        c.kind = Kind::Geometric;
        if (parseDouble(parts[1], c.mtbf) &&
            parseDouble(parts[2], c.mttr) && c.mtbf >= 1 &&
            c.mttr >= 1)
            return c;
    }
    if (parts[0] == "burst" && parts.size() == 4) {
        c.kind = Kind::Burst;
        if (parseUnsigned(parts[1], c.interval) &&
            parseUnsigned(parts[2], c.duration) &&
            parseUnsigned(parts[3], c.span) && c.interval != 0 &&
            c.duration != 0 && c.span != 0)
            return c;
    }
    return std::nullopt;
}

std::unique_ptr<fault::FaultProcess>
ChurnSpec::make(const topo::IadmTopology &topo,
                std::uint64_t seed) const
{
    switch (kind) {
      case Kind::None: return nullptr;
      case Kind::Bernoulli:
        return std::make_unique<fault::BernoulliChurn>(
            topo, pFail, pRepair, seed);
      case Kind::Geometric:
        return std::make_unique<fault::GeometricChurn>(topo, mtbf,
                                                       mttr, seed);
      case Kind::Burst:
        return std::make_unique<fault::BurstChurn>(
            topo, interval, duration, span, seed);
    }
    IADM_PANIC("unreachable churn kind");
}

// --- grid geometry -------------------------------------------------

std::size_t
SweepGrid::cellCount() const
{
    return netSizes.size() * schemes.size() * injectionRates.size() *
           queueCapacities.size() * faults.size() * traffics.size() *
           crossbarModes.size() * churns.size();
}

SweepCell
resolveCell(const SweepGrid &grid, std::size_t index)
{
    IADM_ASSERT(index < grid.cellCount(), "cell index out of range");
    // Canonical nesting order, crossbar fastest: the cell index is
    // part of the seed derivation, so this order is frozen (see
    // docs/SWEEP.md).
    SweepCell c;
    c.cellIndex = index;
    auto take = [&index](std::size_t n) {
        const std::size_t i = index % n;
        index /= n;
        return i;
    };
    c.crossbar = grid.crossbarModes[take(grid.crossbarModes.size())];
    c.traffic = grid.traffics[take(grid.traffics.size())];
    c.fault = grid.faults[take(grid.faults.size())];
    c.queueCapacity =
        grid.queueCapacities[take(grid.queueCapacities.size())];
    c.injectionRate =
        grid.injectionRates[take(grid.injectionRates.size())];
    c.scheme = grid.schemes[take(grid.schemes.size())];
    c.netSize = grid.netSizes[take(grid.netSizes.size())];
    // Churn is taken LAST (slowest-varying): with the default
    // single-None axis the divisions above see the exact legacy
    // index stream, so pre-churn grids keep their cell indices and
    // replicate seeds.
    c.churn = grid.churns[take(grid.churns.size())];
    return c;
}

std::uint64_t
deriveSeed(std::uint64_t master_seed, std::uint64_t cell_index,
           std::uint64_t replicate)
{
    std::uint64_t z = mix64(master_seed + kGolden * (cell_index + 1));
    return mix64(z + kGolden * (replicate + 1));
}

// --- runner --------------------------------------------------------

std::vector<CellResult>
runSweep(const SweepGrid &grid, const SweepOptions &opts)
{
    IADM_ASSERT(grid.replicates > 0, "replicates must be positive");
    const std::size_t cells = grid.cellCount();
    const std::size_t total = grid.runCount();

    unsigned workers = opts.workers != 0
                           ? opts.workers
                           : std::thread::hardware_concurrency();
    if (workers == 0)
        workers = 1;
    if (total > 0 && workers > total)
        workers = static_cast<unsigned>(total);

    // One preallocated slot per replicate: workers write disjoint
    // slots, so results need no lock and assemble in cell order
    // independent of completion order.
    std::vector<std::vector<std::optional<ReplicateResult>>> slots(
        cells);
    for (auto &s : slots)
        s.resize(grid.replicates);

    std::atomic<std::size_t> next{0};

    // The collector guards only progress bookkeeping and the
    // callback's loan of a finished cell's slots; metrics flow
    // through the lock-free slots above.
    std::mutex collectorMx;
    std::vector<unsigned> repsDone(cells, 0);
    std::size_t cellsDone = 0;

    const auto runOne = [&](std::size_t run_index) {
        const std::size_t ci = run_index / grid.replicates;
        const auto rep =
            static_cast<unsigned>(run_index % grid.replicates);
        const SweepCell cell = resolveCell(grid, ci);
        const std::uint64_t seed =
            deriveSeed(grid.masterSeed, ci, rep);

        SimConfig cfg;
        cfg.netSize = cell.netSize;
        cfg.scheme = cell.scheme;
        cfg.injectionRate = cell.injectionRate;
        cfg.queueCapacity = cell.queueCapacity;
        cfg.crossbarSwitches = cell.crossbar;
        cfg.maxPacketAge = grid.maxPacketAge;
        cfg.seed = seed;

        const topo::IadmTopology topo(cell.netSize);
        Rng scenario_rng(mix64(seed ^ kScenarioSalt));
        fault::FaultSet faults = cell.fault.make(topo, scenario_rng);

        NetworkSim simulation(cfg, cell.traffic.make(cell.netSize),
                              std::move(faults));
        // The churn stream is salted separately from the scenario
        // rng: adding churn to a grid never perturbs the static
        // fault placement or setup-hook draws of existing cells.
        if (auto proc =
                cell.churn.make(topo, mix64(seed ^ kChurnSalt)))
            simulation.addFaultProcess(std::move(proc));
        // Each replicate owns its sink, like its Metrics: workers
        // stay share-nothing and trace determinism mirrors metric
        // determinism.
        std::optional<obs::TraceSink> sink;
        if (opts.traceCapacity != 0) {
            sink.emplace(opts.traceCapacity);
            simulation.setTraceSink(&*sink);
        }
        if (opts.setup)
            opts.setup(simulation, cell, scenario_rng);
        simulation.run(grid.warmupCycles);
        simulation.resetMetrics();
        if (sink)
            sink->clear(); // retained window = measured cycles
        // The monitor watches only the measured cycles (attached
        // after the metrics reset, like the sink's clear): warmup
        // transients are the steady-state detector's subject, not
        // pre-filtered noise.
        std::optional<obs::HealthMonitor> health;
        if (opts.health) {
            health.emplace(opts.healthConfig);
            simulation.setHealthMonitor(&*health);
        }
        simulation.run(grid.measureCycles);

        ReplicateResult result(seed, simulation.metrics(),
                               grid.measureCycles);
        if (health) {
            result.healthEnabled = true;
            result.health = health->report();
            result.steady = health->steadyState().analyze();
        }
        slots[ci][rep] = std::move(result);
        if (sink && opts.onReplicateTrace)
            opts.onReplicateTrace(cell, rep, *sink, simulation);

        std::lock_guard<std::mutex> lock(collectorMx);
        if (++repsDone[ci] == grid.replicates) {
            ++cellsDone;
            if (opts.onCellDone) {
                // Lend the cell's replicates rather than copy each
                // Metrics under the lock.  No worker writes
                // slots[ci] again, so they move in for the call and
                // back out after it.
                CellResult done;
                done.cell = cell;
                done.replicates.reserve(grid.replicates);
                for (auto &slot : slots[ci])
                    done.replicates.push_back(std::move(*slot));
                opts.onCellDone(done, cellsDone, cells);
                for (unsigned r = 0; r < grid.replicates; ++r)
                    slots[ci][r] = std::move(done.replicates[r]);
            }
        }
    };

    const auto workerLoop = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= total)
                break;
            runOne(i);
        }
    };

    if (workers <= 1) {
        workerLoop();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(workerLoop);
        for (auto &t : pool)
            t.join();
    }

    std::vector<CellResult> results;
    results.reserve(cells);
    for (std::size_t ci = 0; ci < cells; ++ci) {
        CellResult r;
        r.cell = resolveCell(grid, ci);
        r.replicates.reserve(grid.replicates);
        for (auto &slot : slots[ci]) {
            IADM_ASSERT(slot.has_value(), "missing replicate result");
            r.replicates.push_back(std::move(*slot));
        }
        results.push_back(std::move(r));
    }
    return results;
}

// --- report --------------------------------------------------------

namespace {

void
writeReplicate(JsonWriter &w, const ReplicateResult &r,
               bool include_stats)
{
    const Metrics &m = r.metrics;
    const Cycle cycles = r.measuredCycles;
    w.beginObject();
    w.key("seed");
    w.value(r.seed);
    w.key("injected");
    w.value(m.injected());
    w.key("delivered");
    w.value(m.delivered());
    w.key("throttled");
    w.value(m.throttled());
    w.key("unroutable");
    w.value(m.unroutable());
    w.key("dropped");
    w.value(m.dropped());
    if (m.dropped() != 0) {
        // Additive taxonomy keys: absent whenever nothing was
        // dropped, so drop-free documents (and their golden
        // fixtures) are byte-identical to the pre-taxonomy schema.
        w.key("drops_by_reason");
        w.beginObject();
        for (unsigned dr = 0; dr < kDropReasons; ++dr) {
            w.key(dropReasonName(static_cast<DropReason>(dr)));
            w.value(m.droppedFor(static_cast<DropReason>(dr)));
        }
        w.endObject();
        w.key("drops_by_stage");
        w.beginArray();
        for (unsigned s = 0; s < m.stages(); ++s)
            w.value(m.dropsAt(s));
        w.endArray();
    }
    w.key("avg_latency");
    w.value(m.avgLatency());
    w.key("max_latency");
    w.value(m.maxLatency());
    if (m.latencyCapped()) {
        // Emitted only when true: the histogram tail was clamped at
        // Metrics::latencyCap(), so the percentile fields above are
        // lower bounds.  Absent in the default (uncapped) documents,
        // which the golden fixtures freeze.
        w.key("latency_capped");
        w.value(true);
    }
    w.key("p50_latency");
    w.value(m.latencyPercentile(0.5));
    w.key("p90_latency");
    w.value(m.latencyPercentile(0.9));
    w.key("p99_latency");
    w.value(m.latencyPercentile(0.99));
    w.key("throughput");
    w.value(m.throughput(cycles));
    w.key("reroutes");
    w.value(m.totalReroutes());
    w.key("stalls");
    w.value(m.totalStalls());
    w.key("backtrack_hops");
    w.value(m.backtrackHops());
    w.key("route_cache_hits");
    w.value(m.routeCacheHits());
    w.key("route_cache_misses");
    w.value(m.routeCacheMisses());

    w.key("stalls_by_stage");
    w.beginArray();
    for (unsigned s = 0; s < m.stages(); ++s)
        w.value(m.stallsAt(s));
    w.endArray();

    w.key("reroutes_by_stage");
    w.beginArray();
    for (unsigned s = 0; s < m.stages(); ++s)
        w.value(m.reroutesAt(s));
    w.endArray();

    w.key("avg_queue_depth_by_stage");
    w.beginArray();
    for (unsigned s = 0; s < m.stages(); ++s)
        w.value(m.avgQueueDepth(s));
    w.endArray();

    w.key("nonstraight_imbalance_by_stage");
    w.beginArray();
    for (unsigned s = 0; s < m.stages(); ++s)
        w.value(m.nonstraightImbalance(s));
    w.endArray();

    // Sparse exact latency histogram: [latency, count] pairs for
    // nonzero buckets (the last bucket also holds every latency
    // above the cap).
    w.key("latency_hist");
    w.beginArray();
    const auto &hist = m.latencyHistogram();
    for (std::size_t lat = 0; lat < hist.size(); ++lat) {
        if (hist[lat] == 0)
            continue;
        w.beginArray();
        w.value(static_cast<std::uint64_t>(lat));
        w.value(hist[lat]);
        w.endArray();
    }
    w.endArray();

    if (r.healthEnabled) {
        // Additive like drops_by_reason: absent without --health, so
        // default documents (and golden fixtures) stay byte-stable.
        w.key("health");
        w.beginObject();
        w.key("healthy");
        w.value(r.health.healthy());
        w.key("scans");
        w.value(r.health.scans);
        w.key("deadlocks");
        w.value(r.health.deadlocks);
        w.key("wait_cycle_sightings");
        w.value(r.health.waitCycleSightings);
        w.key("progress_violations");
        w.value(r.health.progressViolations);
        w.key("max_head_stall");
        w.value(r.health.maxHeadStall);
        w.key("last_progress_cycle");
        w.value(r.health.lastProgressCycle);
        w.endObject();

        w.key("steady_state");
        w.beginObject();
        w.key("stable");
        w.value(r.steady.stable);
        w.key("windows");
        w.value(static_cast<std::uint64_t>(r.steady.windows));
        w.key("truncated_windows");
        w.value(
            static_cast<std::uint64_t>(r.steady.truncatedWindows));
        w.key("steady_throughput");
        w.value(r.steady.steadyThroughput);
        w.key("steady_avg_latency");
        w.value(r.steady.steadyAvgLatency);
        w.key("whole_throughput");
        w.value(r.steady.wholeThroughput);
        w.key("whole_avg_latency");
        w.value(r.steady.wholeAvgLatency);
        w.endObject();
    }

    if (include_stats) {
        w.key("stats");
        obs::StatsRegistry reg;
        m.exportStats(reg, cycles);
        reg.writeJson(w);
    }
    w.endObject();
}

} // namespace

void
writeSweepReport(std::ostream &os, const SweepGrid &grid,
                 const std::vector<CellResult> &results,
                 const ReportOptions &ropts)
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema");
    w.value("iadm-sweep-v1");
    if (ropts.buildType != nullptr) {
        w.key("build_type");
        w.value(ropts.buildType);
    }
    w.key("master_seed");
    w.value(grid.masterSeed);
    w.key("warmup_cycles");
    w.value(grid.warmupCycles);
    w.key("measure_cycles");
    w.value(grid.measureCycles);
    w.key("replicates");
    w.value(grid.replicates);
    if (grid.maxPacketAge != 0) {
        // Gated like the churn axis: absent in legacy documents.
        w.key("max_packet_age");
        w.value(grid.maxPacketAge);
    }

    w.key("grid");
    w.beginObject();
    w.key("net_sizes");
    w.beginArray();
    for (const Label n : grid.netSizes)
        w.value(static_cast<std::uint64_t>(n));
    w.endArray();
    w.key("schemes");
    w.beginArray();
    for (const auto s : grid.schemes)
        w.value(routingSchemeName(s));
    w.endArray();
    w.key("injection_rates");
    w.beginArray();
    for (const double r : grid.injectionRates)
        w.value(r);
    w.endArray();
    w.key("queue_capacities");
    w.beginArray();
    for (const std::size_t c : grid.queueCapacities)
        w.value(static_cast<std::uint64_t>(c));
    w.endArray();
    w.key("fault_scenarios");
    w.beginArray();
    for (const auto &f : grid.faults)
        w.value(f.name());
    w.endArray();
    w.key("traffics");
    w.beginArray();
    for (const auto &t : grid.traffics)
        w.value(t.name());
    w.endArray();
    w.key("crossbar_modes");
    w.beginArray();
    for (const bool b : grid.crossbarModes)
        w.value(b);
    w.endArray();
    // The churn axis appears only when it deviates from the default
    // single-None value: churn-free grids keep producing the exact
    // pre-churn document bytes.
    const bool has_churn = grid.churns.size() != 1 ||
                           !(grid.churns[0] == ChurnSpec{});
    if (has_churn) {
        w.key("churns");
        w.beginArray();
        for (const auto &c : grid.churns)
            w.value(c.name());
        w.endArray();
    }
    w.endObject();

    w.key("cells");
    w.beginArray();
    for (const auto &cr : results) {
        w.beginObject();
        w.key("cell_index");
        w.value(static_cast<std::uint64_t>(cr.cell.cellIndex));
        w.key("net_size");
        w.value(static_cast<std::uint64_t>(cr.cell.netSize));
        w.key("scheme");
        w.value(routingSchemeName(cr.cell.scheme));
        w.key("injection_rate");
        w.value(cr.cell.injectionRate);
        w.key("queue_capacity");
        w.value(static_cast<std::uint64_t>(cr.cell.queueCapacity));
        w.key("fault_scenario");
        w.value(cr.cell.fault.name());
        w.key("traffic");
        w.value(cr.cell.traffic.name());
        w.key("crossbar");
        w.value(cr.cell.crossbar);
        if (has_churn) {
            w.key("churn");
            w.value(cr.cell.churn.name());
        }
        w.key("replicates");
        w.beginArray();
        for (const auto &rep : cr.replicates)
            writeReplicate(w, rep, ropts.includeStats);
        w.endArray();
        w.endObject();
    }
    w.endArray();

    if (ropts.includeWallClock) {
        w.key("elapsed_ms");
        w.value(ropts.elapsedMs);
    }
    w.endObject();
    os << "\n";
    IADM_ASSERT(w.done(), "unterminated JSON document");
}

std::string
sweepReportJson(const SweepGrid &grid,
                const std::vector<CellResult> &results,
                const ReportOptions &ropts)
{
    std::ostringstream os;
    writeSweepReport(os, grid, results, ropts);
    return std::move(os).str();
}

} // namespace iadm::sim
