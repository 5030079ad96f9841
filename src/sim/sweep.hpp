/**
 * @file
 * Deterministic parallel parameter-sweep runner for the packet
 * simulator.
 *
 * A SweepGrid is the cartesian product of simulator axes (network
 * size x routing scheme x injection rate x queue capacity x fault
 * scenario x traffic pattern x crossbar mode); each cell is run for
 * a configurable number of independent replicates.  Replicate seeds
 * are derived from (master_seed, cell_index, replicate) with a
 * splitmix64-style mix, so every simulation is fully determined by
 * the grid alone: results are identical no matter how many workers
 * run the sweep or how the scheduler interleaves them.
 *
 * Workers are plain std::thread instances pulling run indices from
 * an atomic counter; each owns its NetworkSim (no shared mutable
 * state) and deposits the finished Metrics snapshot into its
 * preallocated result slot.  A mutex-guarded collector serializes
 * only the optional progress callback.
 */

#ifndef IADM_SIM_SWEEP_HPP
#define IADM_SIM_SWEEP_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "fault/fault_process.hpp"
#include "fault/fault_set.hpp"
#include "obs/health.hpp"
#include "sim/metrics.hpp"
#include "sim/network_sim.hpp"
#include "sim/scenario.hpp"

namespace iadm::obs {
class TraceSink;
}

namespace iadm::sim {

/** Named static-fault scenario, one axis of the sweep grid. */
struct FaultScenario
{
    enum class Kind : std::uint8_t
    {
        None,              //!< fault-free network
        RandomLinks,       //!< count random links of any kind
        Nonstraight,       //!< count random nonstraight links
        DoubleNonstraight, //!< both nonstraight links of count switches
        Switches,          //!< count random whole-switch blockages
    };

    Kind kind = Kind::None;
    std::size_t count = 0;

    /** Canonical spelling, e.g. "none", "links:4", "switches:2". */
    std::string name() const;

    /** Parse the canonical spelling; nullopt on bad input. */
    static std::optional<FaultScenario> parse(const std::string &spec);

    /**
     * N-dependent validation: the count must not exceed the links or
     * switches the scenario draws from at N.  nullopt when valid,
     * else a one-line diagnostic; CLI front ends reject with exit 2.
     */
    std::optional<std::string> validate(Label n_size) const;

    /** Materialize the scenario for one replicate (rng-seeded);
     *  fails fatally if validate(topo.size()) rejects it. */
    fault::FaultSet make(const topo::IadmTopology &topo,
                         Rng &rng) const;

    bool operator==(const FaultScenario &) const = default;
};

/**
 * Fault-churn axis of the sweep grid: a seed-derived FaultProcess
 * attached to every replicate of the cell (fault/fault_process.hpp).
 * The process seed mixes the replicate seed with a dedicated salt,
 * so churn schedules are as reproducible as the traffic itself and
 * independent of the static-scenario rng draws.
 */
struct ChurnSpec
{
    enum class Kind : std::uint8_t
    {
        None,      //!< no churn process (the default axis value)
        Bernoulli, //!< per-cycle coin flips: pFail / pRepair
        Geometric, //!< per-link geometric holding times: mtbf / mttr
        Burst,     //!< periodic regional outages: interval/duration/span
    };

    Kind kind = Kind::None;
    double pFail = 0.0;        //!< Bernoulli: up -> down per cycle
    double pRepair = 0.0;      //!< Bernoulli: down -> up per cycle
    double mtbf = 0.0;         //!< Geometric: mean cycles up
    double mttr = 0.0;         //!< Geometric: mean cycles down
    std::uint64_t interval = 0; //!< Burst: cycles between outages
    std::uint64_t duration = 0; //!< Burst: outage length in cycles
    Label span = 1;            //!< Burst: switches per outage

    /** Canonical spelling, e.g. "none", "bernoulli:1e-05:0.01",
     *  "geometric:5000:200", "burst:2000:150:4". */
    std::string name() const;

    static std::optional<ChurnSpec> parse(const std::string &spec);

    /** Instantiate the process for one replicate; null for None. */
    std::unique_ptr<fault::FaultProcess>
    make(const topo::IadmTopology &topo, std::uint64_t seed) const;

    bool operator==(const ChurnSpec &) const = default;
};

/**
 * The sweep specification: every axis, the replicate count, run
 * lengths, and the master seed all replicate seeds derive from.
 */
struct SweepGrid
{
    std::vector<Label> netSizes{16};
    std::vector<RoutingScheme> schemes{RoutingScheme::SsdtStatic};
    std::vector<double> injectionRates{0.1};
    std::vector<std::size_t> queueCapacities{4};
    std::vector<FaultScenario> faults{FaultScenario{}};
    /** Traffic axis: one ScenarioSpec per value (sim/scenario.hpp);
     *  the default is unshaped uniform traffic. */
    std::vector<ScenarioSpec> traffics{ScenarioSpec{}};
    std::vector<bool> crossbarModes{false};
    /** Churn axis; the single-None default keeps legacy cell
     *  indices (and therefore replicate seeds) unchanged. */
    std::vector<ChurnSpec> churns{ChurnSpec{}};

    unsigned replicates = 1;
    Cycle warmupCycles = 0;
    Cycle measureCycles = 1000;
    std::uint64_t masterSeed = 1;
    /** SimConfig::maxPacketAge for every replicate (0 = no cap).
     *  A scalar, not an axis: it is a lifecycle guarantee of the
     *  experiment, not a swept variable. */
    Cycle maxPacketAge = 0;

    /** Number of cells (cartesian product, replicates excluded). */
    std::size_t cellCount() const;

    /** Total simulation runs: cellCount() * replicates. */
    std::size_t runCount() const { return cellCount() * replicates; }
};

/** One fully resolved grid cell. */
struct SweepCell
{
    std::size_t cellIndex = 0;
    Label netSize = 16;
    RoutingScheme scheme = RoutingScheme::SsdtStatic;
    double injectionRate = 0.1;
    std::size_t queueCapacity = 4;
    FaultScenario fault;
    ScenarioSpec traffic;
    bool crossbar = false;
    ChurnSpec churn;
};

/** Resolve cell @p index of @p grid (canonical axis nesting order). */
SweepCell resolveCell(const SweepGrid &grid, std::size_t index);

/**
 * Seed for one replicate: a splitmix64-style mix of the master seed,
 * the cell index and the replicate number.  Documented in
 * docs/SWEEP.md; changing this breaks report reproducibility.
 */
std::uint64_t deriveSeed(std::uint64_t master_seed,
                         std::uint64_t cell_index,
                         std::uint64_t replicate);

/** Result of one replicate run: the seed used and a Metrics copy. */
struct ReplicateResult
{
    std::uint64_t seed = 0;
    Metrics metrics;
    Cycle measuredCycles = 0;

    /**
     * Liveness + steady-state summary, populated only when the sweep
     * ran with SweepOptions::health (the monitor dies with the
     * simulator).
     */
    bool healthEnabled = false;
    obs::HealthReport health;
    obs::SteadyStateTracker::Result steady;

    ReplicateResult() : metrics(2, 1) {}
    ReplicateResult(std::uint64_t s, Metrics m, Cycle c)
        : seed(s), metrics(std::move(m)), measuredCycles(c) {}
};

/** All replicates of one cell, in replicate order. */
struct CellResult
{
    SweepCell cell;
    std::vector<ReplicateResult> replicates;
};

/** Runner knobs. */
struct SweepOptions
{
    /** Worker threads; 0 means hardware concurrency. */
    unsigned workers = 1;

    /**
     * Optional pre-run hook, called once per replicate after the
     * simulator is constructed and before warmup; use it to schedule
     * transient blockages.  The Rng is derived from the replicate
     * seed, so hooked sweeps stay deterministic as long as the hook
     * uses only it.  Called concurrently from worker threads; must
     * not touch shared state.
     */
    std::function<void(NetworkSim &, const SweepCell &, Rng &)>
        setup;

    /**
     * Progress callback, invoked under the collector mutex as each
     * cell completes (all replicates done); never concurrent.
     */
    std::function<void(const CellResult &, std::size_t done,
                       std::size_t total)>
        onCellDone;

    /**
     * Event-trace ring capacity per replicate; 0 (the default)
     * leaves tracing detached.  Nonzero attaches a fresh TraceSink
     * to every replicate's simulator (cleared after warmup, so the
     * retained window covers the measured cycles) and hands it to
     * onReplicateTrace when the replicate finishes.  Recording
     * requires a build with the hooks compiled in
     * (obs::traceCompiledIn()); otherwise the sinks stay empty.
     */
    std::size_t traceCapacity = 0;

    /**
     * Per-replicate trace consumer, called from worker threads right
     * after the measured run (before the simulator is destroyed).
     * Concurrent when workers > 1: write to per-replicate files or
     * lock inside.  Replicate identity comes from (cell, replicate).
     */
    std::function<void(const SweepCell &, unsigned replicate,
                       const obs::TraceSink &, const NetworkSim &)>
        onReplicateTrace;

    /**
     * Attach a liveness monitor (obs::HealthMonitor) to every
     * replicate for the measured run and record its verdicts in
     * ReplicateResult.  Purely additive: the simulation trajectory
     * is untouched and the report gains `health` / `steady_state`
     * sections per replicate — with this off the report stays
     * byte-identical to a build without the feature.
     */
    bool health = false;

    /** Monitor knobs used when health is on. */
    obs::HealthConfig healthConfig;
};

/**
 * Run the whole grid and return one CellResult per cell, in cell
 * order.  Deterministic: the returned metrics depend only on the
 * grid (and hook), never on worker count or scheduling.
 */
std::vector<CellResult> runSweep(const SweepGrid &grid,
                                 const SweepOptions &opts = {});

/** Extra knobs for report serialization. */
struct ReportOptions
{
    /**
     * Include wall-clock fields (elapsed_ms).  Off for byte-exact
     * comparison across runs; on for human-facing reports.
     */
    bool includeWallClock = false;
    double elapsedMs = 0.0;

    /**
     * When set, emit a "build_type" field after "schema" so perf
     * numbers from unoptimized builds can be identified after the
     * fact (benches pass iadm::bench::buildType()).  Null omits the
     * field, keeping the default document byte-stable.
     */
    const char *buildType = nullptr;

    /**
     * Append a "stats" object to every replicate — the uniform
     * StatsRegistry rendering (docs/OBSERVABILITY.md) of the same
     * metrics the named report fields summarize.  Off by default:
     * the default document is frozen by the golden fixtures.
     */
    bool includeStats = false;
};

/**
 * Serialize a finished sweep as the iadm-sweep-v1 JSON document
 * (schema in docs/SWEEP.md).  Field order is fixed; with
 * includeWallClock off the output is byte-identical for identical
 * grids regardless of worker count.
 */
void writeSweepReport(std::ostream &os, const SweepGrid &grid,
                      const std::vector<CellResult> &results,
                      const ReportOptions &ropts = {});

/** writeSweepReport into a string. */
std::string sweepReportJson(const SweepGrid &grid,
                            const std::vector<CellResult> &results,
                            const ReportOptions &ropts = {});

} // namespace iadm::sim

#endif // IADM_SIM_SWEEP_HPP
