/**
 * @file
 * Cycle-accurate packet-switched simulation of the IADM network.
 *
 * The simulator is the MIMD packet-switching environment that
 * Section 4 of the paper assumes: bounded per-switch queues, one
 * packet forwarded per switch per cycle, per-cycle injection at the
 * input column, and routing-scheme plug-ins (SSDT with and without
 * queue balancing, sender-computed TSDT, and the distance-tag
 * baseline of [9]) so the schemes can be compared under identical
 * traffic and blockage conditions.  Transient blockage windows model
 * busy links; they run on the same fault clock as churn processes.
 *
 * The hot path is flat (docs/PERF.md): link destinations come from
 * a precomputed LinkTable, blockage tests from a bitset FaultView
 * that re-syncs on FaultSet mutation, queues are rings of packet
 * handles into one QueueArena pool, and the dynamic TSDT scheme
 * reads the path cached in each packet instead of re-tracing its
 * tag.  A hop takes no data-dependent branch until its blockage
 * test: the head's link kind is core's bit formula for the scheme
 * (headKind: linkKindFor, tsdtKindOf or distance-tag's dominant
 * digits), an open link is taken at once (chooseLink's logic runs
 * only for blocked links and balanced nonstraight hops), and queue
 * occupancy moves by arithmetic on the emptied and was-empty flags.
 * step() performs no heap allocation and no virtual topology calls
 * in steady state, at any shard count.
 */

#ifndef IADM_SIM_NETWORK_SIM_HPP
#define IADM_SIM_NETWORK_SIM_HPP

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/reroute.hpp"
#include "core/ssdt.hpp"
#include "fault/fault_process.hpp"
#include "fault/fault_set.hpp"
#include "fault/fault_view.hpp"
#include "obs/health.hpp"
#include "obs/trace_sink.hpp"
#include "sim/link_table.hpp"
#include "sim/metrics.hpp"
#include "sim/route_cache.hpp"
#include "sim/shard_pool.hpp"
#include "sim/switch_model.hpp"
#include "sim/traffic.hpp"
#include "topology/iadm.hpp"

namespace iadm::sim {

/** Per-hop routing discipline used by the simulated switches. */
enum class RoutingScheme
{
    SsdtStatic,    //!< SSDT, flip only on blockage (Section 4)
    SsdtBalanced,  //!< SSDT + emptier-queue nonstraight choice
    TsdtSender,    //!< sender-computed TSDT tags via REROUTE
    DistanceTag,   //!< extra-tag-bit distance scheme of [9]
    TsdtDynamic,   //!< in-network TSDT: packets repair tags and
                   //!< physically backtrack (Section 4's dynamic
                   //!< implementation)
};

const char *routingSchemeName(RoutingScheme s);

/** Inverse of routingSchemeName(); nullopt for unknown names. */
std::optional<RoutingScheme>
parseRoutingScheme(const std::string &name);

/** Simulation parameters. */
struct SimConfig
{
    Label netSize = 16;
    RoutingScheme scheme = RoutingScheme::SsdtStatic;
    double injectionRate = 0.1; //!< packets/node/cycle
    /** Packets per switch queue, in [1, QueueArena::kMaxCapacity]. */
    std::size_t queueCapacity = 4;
    std::uint64_t seed = 1;
    bool crossbarSwitches = false; //!< Gamma semantics: accept up to 3

    /**
     * Stall-age cap in cycles; 0 disables it.  A head packet that
     * has been in the network longer than this and still cannot
     * move is dropped (DropReason::Expired for plain stalls,
     * Unroutable for packets whose BACKTRACK verdict was FAIL) —
     * the livelock/starvation guard for churning fault maps, where
     * "wait for the next repair" may never terminate.
     */
    Cycle maxPacketAge = 0;

    /**
     * Worker shards inside one simulation: each cycle's injection
     * attempts are split into this many contiguous blocks whose
     * route resolutions and packet builds run in parallel (docs/
     * SIMULATOR.md, "Intra-simulation sharding").  Draw, commit
     * and the per-stage service loop stay serial, so
     * metrics, queues and report bytes are identical at any shard
     * count.  1 (the default) runs the fill + build block on the
     * caller, with no pool and no synchronization.  Clamped to
     * netSize.  A simulator with a trace sink attached fills
     * serially (a TraceSink is single-owner and its event order
     * must stay deterministic).
     */
    unsigned shards = 1;
};

/** The simulator. */
class NetworkSim
{
  public:
    NetworkSim(const SimConfig &cfg,
               std::unique_ptr<TrafficPattern> traffic,
               fault::FaultSet static_faults = {});

    /** Advance one cycle. */
    void step();

    /** Advance @p cycles cycles. */
    void run(Cycle cycles);

    Cycle now() const { return now_; }
    const SimConfig &config() const { return cfg_; }
    const Metrics &metrics() const { return metrics_; }
    Metrics &metrics() { return metrics_; }

    /** Effective shard count (cfg.shards clamped; 1 = serial). */
    unsigned
    shards() const
    {
        return pool_ != nullptr ? pool_->shards() : 1;
    }
    const topo::IadmTopology &topology() const { return topo_; }
    const fault::FaultSet &faults() const { return faults_; }

    /** Discard metrics collected so far (end-of-warmup reset). */
    void resetMetrics();

    /** Change the injection rate (e.g. to 0 for a drain phase). */
    void setInjectionRate(double rate) { cfg_.injectionRate = rate; }

    /**
     * Packets currently queued in the network.  O(1): the count is
     * maintained on every push/deliver/drop (and cross-checked
     * against a full arena scan under IADM_SANITIZE builds).
     */
    std::size_t inFlight() const;

    /**
     * Schedule a transient blockage: @p link goes down at @p from
     * and comes back at @p until.  Blockages are refcounted claims
     * on the FaultSet, so overlapping windows (or overlap with a
     * static fault or a churn process) compose: the link stays
     * blocked until the last claim is released.  Windows fire
     * after the cycle's churn transitions, in schedule order.
     */
    void scheduleTransientBlockage(const topo::Link &link, Cycle from,
                                   Cycle until);

    /**
     * Attach a fault-churn process (fault::FaultProcess): its
     * failure/repair transitions are applied at the start of each
     * cycle they fall on, before transient windows and injection.
     * Transitions emit FaultDown/FaultUp trace events and bump the
     * sim.fault_downs/ups counters.  Multiple processes compose
     * through the refcounted blockage model.
     */
    void addFaultProcess(std::unique_ptr<fault::FaultProcess> p);

    /** Number of attached churn processes. */
    std::size_t faultProcessCount() const { return churn_.size(); }

    /**
     * Always null: the simulator keeps no route table.  A faulted
     * tsdt attempt resolves by REROUTE's clear scan or its kernel
     * (docs/SIMULATOR.md); RouteCache is the daemon's.  Kept until
     * the repository benchmark (benchmark/src) stops reading it.
     */
    RouteCache *routeCache() { return nullptr; }

    /**
     * Attach (or detach, with nullptr) an event-trace sink.  The
     * hooks only exist when the build compiled them in (CMake option
     * IADM_TRACE; see obs::traceCompiledIn()) — attaching a sink to
     * a trace-free build records nothing.  Detached tracing costs
     * one predictable branch per would-be event (docs/PERF.md).
     */
    void setTraceSink(obs::TraceSink *sink) { trace_ = sink; }
    obs::TraceSink *traceSink() const { return trace_; }

    /**
     * Attach (or detach, with nullptr) a liveness monitor
     * (docs/OBSERVABILITY.md).  A detached monitor costs one
     * predicted-false branch per cycle.  When attached, step()
     * feeds it wait-for scans every HealthConfig::checkInterval
     * cycles and a steady-state rollup window every
     * HealthConfig::windowCycles.  Unlike the trace
     * sink the monitor does not force a sharded sim serial: it runs
     * after the cycle's injection and service have completed.
     */
    void setHealthMonitor(obs::HealthMonitor *m);
    obs::HealthMonitor *healthMonitor() const { return health_; }

  private:
    SimConfig cfg_;
    topo::IadmTopology topo_;
    fault::FaultSet faults_;
    std::unique_ptr<TrafficPattern> traffic_;
    Rng rng_;
    Cycle now_ = 0;
    std::uint64_t nextPacketId_ = 0;
    Metrics metrics_;
    core::NetworkState ssdtState_;
    obs::TraceSink *trace_ = nullptr; //!< null = tracing disabled

    // --- liveness monitoring (docs/OBSERVABILITY.md) --------------
    obs::HealthMonitor *health_ = nullptr; //!< null = monitor off
    Cycle healthNextScan_ = 0;   //!< next wait-for scan cycle
    Cycle healthWinStart_ = 0;   //!< current rollup window start
    std::uint64_t healthWinDelivered_ = 0; //!< delivered() baseline
    std::uint64_t healthWinLatSum_ = 0;    //!< latencySum() baseline

    // --- fault churn (docs/SIMULATOR.md, "Fault lifecycle") -------
    std::vector<std::unique_ptr<fault::FaultProcess>> churn_;
    /** Transient blockage windows; run after churn_ each cycle. */
    fault::FaultSchedule windows_;
    /**
     * Earliest pending churn or window transition; kNever with no
     * process attached and no window pending, so a churn-free run
     * pays one compare per cycle.
     */
    Cycle churnNext_ = fault::FaultProcess::kNever;

    // --- flattened hot-path state (docs/PERF.md) ------------------
    LinkTable ltab_;    //!< [stage][switch][kind] -> destination
    fault::FaultView fview_; //!< bitset mirror of faults_, same indexing
    std::uint64_t faultsVersion_ = ~std::uint64_t{0};
    QueueArena queues_; //!< all stages x N queues + packet pool
    std::vector<std::uint32_t> stageSize_;     //!< packets per stage
    std::vector<std::uint32_t> stageOccupied_; //!< nonempty queues
    /**
     * One bit per queue, set iff nonempty, [stage][j / 64]: the
     * service scan walks set bits instead of probing all N queues.
     */
    std::vector<std::uint64_t> occWords_;
    unsigned occWordsPerStage_ = 0;
    std::vector<Label> serviceList_; //!< per-stage scratch, size N
    /**
     * Per-switch acceptance counts for the stage currently being
     * serviced, packed as (epoch << 8) | count so they never need
     * clearing: a count whose stamp is not the current epoch reads
     * as zero.  One load per check instead of two.
     */
    std::vector<std::uint64_t> accepted_;
    std::uint64_t epoch_ = 0;
    std::size_t inFlight_ = 0;
    Label mask_ = 0;     //!< netSize - 1 (N is a power of two)
    bool gated_ = true;  //!< traffic_->gated(), cached at build
    /** traffic_->closedLoop(), cached at build.  When set, the
     *  pattern gets onInject/onRetire feedback, both from serial
     *  code (see traffic.hpp). */
    bool feedback_ = false;

    // --- batched injection -----------------------------------------
    //
    // inject() runs one cycle's attempts through three phases (docs/
    // SIMULATOR.md, "Intra-simulation sharding"): draw (serial RNG
    // order and packet-handle claims), fill + build (route
    // resolution and packet construction, split into contiguous
    // blocks of attempts across the shard pool, or one block on the
    // caller when the step is serial), and commit (serial:
    // unused-handle release, counters, stage-0 bookkeeping).

    /** One injection attempt, staged between the phases. */
    struct InjectAttempt
    {
        enum class Outcome : std::uint8_t
        {
            Injected,
            Throttled,  //!< stage-0 queue full
            Unroutable, //!< REROUTE found no path
        };
        Label src;
        Label dst;
        /** Packet handle claimed in the draw phase; the commit phase
         *  releases it unless the packet was injected. */
        QueueArena::Handle handle = 0;
        Outcome outcome = Outcome::Injected;
        /** A faulted tsdt attempt's initial path was blocked, so
         *  REROUTE's kernel ran: a route-cache miss at commit (a
         *  clear path is a hit). */
        bool filled = false;
    };
    std::vector<InjectAttempt> attempts_; //!< scratch, size <= N
    /** Runs the fill + build blocks; null when serial. */
    std::unique_ptr<ShardPool> pool_;

    /** Draw, fill + build and commit this cycle's attempts. */
    void inject();

    /**
     * Fill + build phase for attempts [lo, hi): resolve each route
     * (with @p Resolve, a faulted tsdt batch: REROUTE's clear scan,
     * then its kernel for a blocked path; otherwise the initial
     * tag), construct the packet under the attempt's claimed handle
     * and append the handle to its stage-0 queue.  Writes only these
     * attempts, their packets and their (distinct) stage-0 queues,
     * so disjoint ranges run concurrently; shared counters and the
     * free list wait for the commit phase.
     */
    template <bool Resolve>
    void injectFillBuild(std::uint64_t version, std::uint64_t first_id,
                         std::size_t lo, std::size_t hi);

    /** Dispatch to the scheme-specialized service loop. */
    void advanceStage(unsigned stage);

    /**
     * Service every occupied queue of one stage.  Templated on the
     * scheme so chooseLink() inlines into the loop with the scheme
     * branches resolved at compile time, and on whether a trace
     * sink is attached: with Traced == false the trace hooks fold
     * away entirely, so a compiled-in-but-disabled build runs the
     * same loop body as a trace-off build (the sink test is paid
     * once per stage call in advanceStage(), not per event).
     */
    template <RoutingScheme S, bool Traced>
    void advanceStageImpl(unsigned stage);

    /**
     * The kind of link the head packet @p h of (stage, j) asks for
     * under scheme @p S, before any blockage test: core's branch-free
     * bit formula for the scheme (linkKindFor on the switch state,
     * tsdtKindOf on the tag words), or distance-tag's Straight/Plus.
     * chooseLink, the service loop's landing-slot guess and the
     * health scan all read it.
     */
    template <RoutingScheme S>
    topo::LinkKind headKind(unsigned stage, Label j,
                            const Packet &h) const;

    /**
     * Choose the output link for the head packet of (stage, j) under
     * scheme @p S; returns nullopt to stall this cycle.
     */
    template <RoutingScheme S, bool Traced>
    std::optional<topo::Link> chooseLink(unsigned stage, Label j,
                                         Packet &p);

    /**
     * Cold body of the per-cycle health hook: cadences rollup
     * windows and wait-for scans.  Runs after the cycle's service
     * loop completes, so it reads settled queue state.
     */
    __attribute__((noinline, cold)) void healthTick();

    /** One wait-for-graph scan over the queue arena. */
    void healthScan();

    /**
     * Queue the head packet of (stage, j) waits to enter, computed
     * without mutating routing state (mirrors prefetchDestGuess);
     * kHealthNoQueue when the head never waits on a queue (last
     * stage delivers unconditionally).
     */
    std::size_t healthNextQueue(unsigned stage, Label j,
                                const Packet &h) const;

    static constexpr std::size_t kHealthNoQueue = ~std::size_t{0};

    /** Re-sync fview_ with faults_ (called when version() moves). */
    void refreshFaultView();

    /** Apply due churn, then due windows; recomputes churnNext_. */
    void runChurn();

    /** Trace + metrics for one link transition (churn/transient). */
    void recordFaultTransition(Cycle cycle, const topo::Link &link,
                               bool down);

    /** Refresh p.pathSw from (p.src, p.tag); see Packet::pathSw. */
    void cachePath(Packet &p) const;

    // Queue operations with stage occupancy bookkeeping.  Inline:
    // every packet movement of every cycle funnels through these.
    // Occupancy is kept without branches: a queue that just received
    // a packet gets its bit set whether or not it was set, and one
    // that gave a packet away clears its bit by its emptied flag
    // (0 or 1) shifted into place; stageOccupied_ moves by the same
    // flags.

    std::uint64_t &
    occWord(unsigned stage, Label j)
    {
        return occWords_[static_cast<std::size_t>(stage) *
                             occWordsPerStage_ +
                         (j >> 6)];
    }

    /** Bookkeeping after (stage, j) received a packet. */
    void
    noteFilled(unsigned stage, Label j, bool was_empty)
    {
        stageOccupied_[stage] += was_empty;
        occWord(stage, j) |= std::uint64_t{1} << (j & 63);
    }

    /** Bookkeeping after (stage, j) gave its head packet away. */
    void
    noteDrained(unsigned stage, Label j, bool emptied)
    {
        stageOccupied_[stage] -= emptied;
        occWord(stage, j) &= ~(std::uint64_t{emptied} << (j & 63));
    }

    void
    dropAt(unsigned stage, Label j)
    {
        const std::size_t q = queues_.qid(stage, j);
        queues_.dropFront(q);
        --stageSize_[stage];
        noteDrained(stage, j, queues_.empty(q));
    }

    void
    moveAt(unsigned from_stage, Label from_j, unsigned to_stage,
           Label to_j)
    {
        const std::size_t from_q = queues_.qid(from_stage, from_j);
        const std::size_t to_q = queues_.qid(to_stage, to_j);
        const bool was_empty = queues_.empty(to_q);
        queues_.moveFront(from_q, to_q);
        --stageSize_[from_stage];
        ++stageSize_[to_stage];
        noteDrained(from_stage, from_j, queues_.empty(from_q));
        noteFilled(to_stage, to_j, was_empty);
    }

    /**
     * Collect the occupied queues of @p stage into serviceList_ in
     * rotated service order; returns the count.
     */
    unsigned gatherOccupied(unsigned stage, Label offset);

#ifdef IADM_SANITIZE_BUILD
    /**
     * Sanitize builds, end of every step(): per stage, assert that
     * each occupancy bit equals !empty(q), that stageOccupied_ equals
     * the popcount of the stage's words and that stageSize_ is the
     * sum of its queue sizes.  O(stages x N), allocation-free.
     */
    void auditOccupancy() const;
#endif
};

} // namespace iadm::sim

#endif // IADM_SIM_NETWORK_SIM_HPP
