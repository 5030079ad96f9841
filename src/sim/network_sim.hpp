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
 * A hop is index arithmetic: chooseLink answers with the link's flat
 * index, which the fault view, the link table and the hop counters
 * share, a stage's counts live in locals for its scan, and nothing
 * on the hop path is an out-of-line call.  step() performs no heap
 * allocation and no virtual topology calls in steady state.
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
     * Read by nothing: every simulation steps on its caller's
     * thread.  Kept until the repository benchmark (benchmark/src)
     * stops setting it.
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

    /**
     * Always 1: the simulator steps on one thread.  Kept until the
     * repository benchmark (benchmark/src) stops reading it.
     */
    unsigned shards() const { return 1; }
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
     * HealthConfig::windowCycles, after the cycle's injection and
     * service have completed.
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
     *  pattern gets onInject/onRetire feedback (see traffic.hpp). */
    bool feedback_ = false;

    /**
     * This cycle's injection: one pass over the sources in ascending
     * order.  Each source draws gate, chance and destination, takes a
     * packet id, resolves its tag (a faulted tsdt source: REROUTE's
     * clear scan, then its kernel for a blocked path; otherwise the
     * initial tag) and is refused (unroutable or throttled) or built
     * straight into its stage-0 queue.
     */
    void inject();

    /** Dispatch to the scheme-specialized service loop. */
    void advanceStage(unsigned stage);

    /**
     * Service every occupied queue of one stage.  Templated on the
     * scheme so chooseLink() inlines into the loop with the scheme
     * branches resolved at compile time, and on whether a trace
     * sink is attached: with Traced == false the trace hooks fold
     * away entirely, so a compiled-in-but-disabled build runs the
     * same loop body as a trace-off build (the sink test is paid
     * once per stage call in advanceStage(), not per event).  The
     * scan's invariants (clock, epoch, queue and link bases) and
     * this stage's and the next stage's StageCounts are locals;
     * the counts are stored back once when the scan ends.
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

    /** chooseLink's answer for a head that does not move forward. */
    static constexpr std::size_t kStall = ~std::size_t{0};

    /**
     * Choose the output link for the head packet of (stage, j) under
     * scheme @p S: the link's flat index (fault::linkIndex, which
     * LinkTable, FaultView and Metrics share), or kStall to stall
     * this cycle.  Always inlined, as are the queue moves and the
     * delivery record: the service loop's ten instantiations share
     * one translation unit, and GCC's unit-growth limit otherwise
     * leaves such calls out of line on the hop path.
     */
    template <RoutingScheme S, bool Traced>
    [[gnu::always_inline]] std::size_t chooseLink(unsigned stage,
                                                  Label j, Packet &p);

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

    /**
     * One stage's queue bookkeeping, copied into locals for a pass
     * over the stage (countsOf) and stored back once at its end
     * (storeCounts).  Every move, drop and injection goes through
     * filled/drained, and occupancy moves without branches: a queue
     * that received a packet sets its bit whether or not it was set,
     * and one that gave its head away clears its bit by its emptied
     * flag (0 or 1) shifted into place; the nonempty count moves by
     * the same flags.
     */
    struct StageCounts
    {
        std::uint64_t *words;   //!< the stage's occupancy bits
        std::uint32_t size;     //!< packets queued (stageSize_)
        std::uint32_t occupied; //!< nonempty queues (stageOccupied_)

        /** Switch @p j's queue received a packet. */
        void
        filled(Label j, bool was_empty)
        {
            ++size;
            occupied += was_empty;
            words[j >> 6] |= std::uint64_t{1} << (j & 63);
        }

        /** Switch @p j's queue gave its head packet away. */
        void
        drained(Label j, bool emptied)
        {
            --size;
            occupied -= emptied;
            words[j >> 6] &= ~(std::uint64_t{emptied} << (j & 63));
        }
    };

    StageCounts
    countsOf(unsigned stage)
    {
        return {occWords_.data() +
                    static_cast<std::size_t>(stage) * occWordsPerStage_,
                stageSize_[stage], stageOccupied_[stage]};
    }

    void
    storeCounts(unsigned stage, const StageCounts &c)
    {
        stageSize_[stage] = c.size;
        stageOccupied_[stage] = c.occupied;
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
