/**
 * @file
 * Online liveness monitor: wait-for-cycle deadlock detection and
 * per-packet progress invariants.
 *
 * PR 5's park-and-retry lifecycle makes starvation *possible* in
 * principle; nothing in the test suite proved it absent — liveness
 * was only inferred from tests finishing.  The HealthMonitor turns
 * that inference into a checked invariant, following Stramaglia et
 * al.'s characterization of packet-switching deadlock: a set of full
 * queues each waiting for space in the next is deadlocked exactly
 * when the wait-for graph among them contains a cycle.
 *
 * The monitor is observation-driven and simulator-agnostic: a host
 * (NetworkSim, or a test fixture constructing graphs by hand) feeds
 * it scans via beginScan()/waitEdge()/headStuck()/endScan().  Each
 * head packet waits for at most one queue, so the wait-for graph is
 * functional (out-degree <= 1) and cycle detection is a stamped walk
 * — O(nodes) per scan, no recursion.
 *
 * Two liveness checks:
 *
 *  - **Deadlock**: a wait-for cycle whose node-set signature persists
 *    for `confirmScans` consecutive scans.  One scan is only a
 *    *sighting* — churn restores and age-based drops dissolve
 *    transient cycles, and counting those would cry wolf.  Forward
 *    traffic alone cannot close a cycle (stage s waits only on stage
 *    s+1 — a DAG); only tsdt-dynamic's backward walks can, which is
 *    what makes a clean report meaningful rather than vacuous.
 *
 *  - **Progress bound** (livelock/starvation): a head packet that has
 *    neither hopped nor been delivered within `progressBound` cycles.
 *    Each stuck episode is counted once, not once per scan.
 *
 * The monitor also owns a SteadyStateTracker fed with fixed-width
 * window rollups by the host, so one attachment point yields both
 * liveness verdicts and warmup-truncated steady-state statistics.
 */

#ifndef IADM_OBS_HEALTH_HPP
#define IADM_OBS_HEALTH_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/steady_state.hpp"

namespace iadm::obs {

struct HealthConfig
{
    /** Cycles between wait-for scans. */
    std::uint64_t checkInterval = 64;
    /**
     * A head packet stuck (no hop, no delivery) for this many cycles
     * is a progress violation.  0 disables the check.
     */
    std::uint64_t progressBound = 4096;
    /**
     * Consecutive scans a wait-for cycle must persist (with the same
     * frozen heads) before it counts as a deadlock.  Sizing rule:
     * confirmScans * checkInterval must exceed the largest recovery
     * horizon armed in the experiment — the packet age cap above
     * all, since a wait-for cycle is guaranteed to dissolve once a
     * participant head expires.  Cycles that dissolve within the
     * horizon are recoverable stall storms (visible as sightings and
     * maxHeadStall), not deadlocks, and flagging them would cry
     * wolf.  A permanent cycle cannot hide behind any horizon, and
     * its frozen heads trip the progress bound regardless.  The
     * default — 12 scans at the default interval, 768 cycles —
     * comfortably clears the 400-600-cycle age caps the experiment
     * grids use.
     */
    unsigned confirmScans = 12;
    /** Cycles per steady-state rollup window. */
    std::uint64_t windowCycles = 256;
};

/** Cumulative liveness verdicts. */
struct HealthReport
{
    std::uint64_t scans = 0;
    /** Wait-for cycles confirmed for `confirmScans` scans. */
    std::uint64_t deadlocks = 0;
    /** Wait-for cycles seen in any single scan (incl. transient). */
    std::uint64_t waitCycleSightings = 0;
    /** Distinct head-stuck episodes past the progress bound. */
    std::uint64_t progressViolations = 0;
    /** Longest observed head stall, in cycles. */
    std::uint64_t maxHeadStall = 0;
    /** Cycle at which the delivered counter last advanced. */
    std::uint64_t lastProgressCycle = 0;

    bool
    healthy() const
    {
        return deadlocks == 0 && progressViolations == 0;
    }
};

class HealthMonitor
{
  public:
    /** Sentinel for "head waits on no queue". */
    static constexpr std::uint32_t kNoQueue = ~std::uint32_t{0};

    explicit HealthMonitor(HealthConfig cfg = {}) : cfg_(cfg) {}

    const HealthConfig &config() const { return cfg_; }

    /**
     * Open a scan at `cycle` over a network with `queue_count`
     * queues.  Queue ids are host-defined, dense in
     * [0, queue_count).
     */
    void beginScan(std::uint64_t cycle, std::uint32_t queue_count);
    /**
     * Full queue `from_q`'s head waits for space in full queue
     * `to_q`.  At most one edge per `from_q` per scan (the head has
     * exactly one next hop).  `head_stamp` identifies the waiting
     * head (e.g. packet id mixed with its last-move cycle); it is
     * folded into the cycle signature, so a cycle only *persists*
     * across scans while the very same unmoved heads keep waiting —
     * congestion that re-forms a cycle among the same queues with
     * fresh traffic is a new sighting, not a confirmed deadlock.
     */
    void waitEdge(std::uint32_t from_q, std::uint32_t to_q,
                  std::uint64_t head_stamp = 0);
    /**
     * Queue `q`'s head has neither hopped nor been delivered for
     * `stuck_cycles` cycles.  Call for every occupied queue (full or
     * not — starvation does not require a full queue).
     */
    void headStuck(std::uint32_t q, std::uint64_t stuck_cycles);
    /** Close the scan: detect cycles, age confirmation streaks. */
    void endScan();

    /**
     * Record the cumulative delivered counter; advancing it updates
     * lastProgressCycle.
     */
    void noteDelivered(std::uint64_t cycle, std::uint64_t total);

    const HealthReport &report() const { return rep_; }

    SteadyStateTracker &steadyState() { return steady_; }
    const SteadyStateTracker &steadyState() const { return steady_; }

  private:
    HealthConfig cfg_;
    HealthReport rep_;
    SteadyStateTracker steady_;

    std::vector<std::uint32_t> edgeTo_; //!< successor per queue
    std::vector<std::uint64_t> stamp_;  //!< waiting head per queue
    std::vector<std::uint32_t> nodes_;  //!< queues with an out-edge
    std::vector<std::uint32_t> mark_;   //!< walk stamp per queue
    /** Last scan's head stall per queue, for episode dedup. */
    std::vector<std::uint64_t> prevStuck_;
    /** Cycle-signature -> consecutive-scan streak. */
    std::unordered_map<std::uint64_t, unsigned> cycleStreak_;
    std::vector<std::uint64_t> seenThisScan_;
    std::uint64_t lastDeliveredTotal_ = 0;
};

} // namespace iadm::obs

#endif // IADM_OBS_HEALTH_HPP
