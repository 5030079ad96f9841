/**
 * @file
 * Measurement sinks for the packet-switched simulation.
 */

#ifndef IADM_SIM_METRICS_HPP
#define IADM_SIM_METRICS_HPP

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "fault/fault_view.hpp"
#include "sim/packet.hpp"
#include "topology/topology.hpp"

namespace iadm::obs {
class StatsRegistry;
}

namespace iadm::sim {

/**
 * Why a packet was removed from the network undelivered
 * (docs/SIMULATOR.md, "Fault lifecycle").  Values index the
 * drops-by-reason counters and name the drops_by_reason report keys.
 */
enum class DropReason : std::uint8_t
{
    Unroutable = 0, //!< REROUTE/BACKTRACK proved no path exists
    Expired = 1,    //!< stall-age cap (SimConfig::maxPacketAge) hit
    Legacy = 2,     //!< never recorded; kept for its frozen report keys
};

/** Number of distinct DropReason values. */
inline constexpr unsigned kDropReasons = 3;

const char *dropReasonName(DropReason r);

/** Aggregate counters and distributions for one simulation run. */
class Metrics
{
  public:
    Metrics(Label n_size, unsigned n_stages);

    // --- recording -------------------------------------------------
    void recordInjected() { ++injected_; }
    void recordThrottled() { ++throttled_; }
    void recordUnroutable() { ++unroutable_; }

    /** Drop with context: the stage it happened at and why. */
    void
    recordDropped(unsigned stage, DropReason reason)
    {
        ++dropped_;
        ++dropsByReason_[static_cast<unsigned>(reason)];
        ++dropsByStage_[stage];
    }

    /**
     * Always inlined: called once per delivered packet.  Only a
     * latency past the histogram's current size leaves it, to grow
     * the histogram (inside its reserved capacity, so the simulator
     * never allocates here) or to clamp into the overflow bucket.
     */
    [[gnu::always_inline]] void
    recordDelivered(const Packet &p, Cycle now)
    {
        ++delivered_;
        const Cycle lat = now - p.injected;
        latencySum_ += lat;
        maxLatency_ = std::max(maxLatency_, lat);
        std::size_t bucket = lat;
        if (__builtin_expect(lat >= latencyHist_.size(), 0))
            bucket = growLatencyHistogram(lat);
        ++latencyHist_[bucket];
    }

    /** A delivery that happened while any link was blocked. */
    void recordFaultedDelivery() { ++deliveredDuringFaults_; }

    /** One churn/transient link transition (down or repaired). */
    void
    recordFaultTransition(bool down)
    {
        ++(down ? faultDowns_ : faultUps_);
    }

    /**
     * A stalled head successfully re-resolved its route after
     * @p wait cycles without progress (time-to-reroute).
     */
    void
    recordRecovery(Cycle wait)
    {
        ++recoveries_;
        recoveryWaitSum_ += wait;
    }

    /**
     * One forward hop over the link at flat index @p link
     * (fault::linkIndex).  Inline: called once per hop of every
     * packet.
     */
    void recordHop(std::size_t link) { ++hopsByLink_[link]; }

    /**
     * Hint recordHop's counter slot for flat link index @p link into
     * cache: hopsByLink_ outgrows L2 on large networks, so the
     * increment is a miss unless issued ahead of use.
     */
    void
    prefetchHopCounters(std::size_t link) const
    {
        __builtin_prefetch(&hopsByLink_[link], 1);
    }

    void recordStall(unsigned stage) { ++stalls_[stage]; }
    void recordReroute(unsigned stage) { ++reroutes_[stage]; }
    void recordBacktrackHop() { ++backtrackHops_; }
    void recordRouteCacheHit() { ++routeCacheHits_; }
    void recordRouteCacheMiss() { ++routeCacheMisses_; }

    /**
     * Add @p total_depth over @p n_switches queue-depth samples of
     * one stage in one call.  Valid whenever per-switch depths are
     * summable at a single instant (queues of a stage do not change
     * while that stage's service scan runs, so the sum over switches
     * equals the sum of individual samples).
     */
    void
    sampleStageDepths(unsigned stage, std::uint64_t total_depth,
                      std::uint64_t n_switches)
    {
        depthSum_[stage] += total_depth;
        depthSamples_[stage] += n_switches;
    }

    // --- results ---------------------------------------------------
    std::uint64_t injected() const { return injected_; }
    std::uint64_t delivered() const { return delivered_; }
    /** Sum of delivery latencies — window rollups take deltas of
     *  this and delivered() to get per-window averages. */
    std::uint64_t latencySum() const { return latencySum_; }
    std::uint64_t throttled() const { return throttled_; }
    std::uint64_t unroutable() const { return unroutable_; }
    std::uint64_t dropped() const { return dropped_; }

    std::uint64_t
    droppedFor(DropReason reason) const
    {
        return dropsByReason_[static_cast<unsigned>(reason)];
    }
    std::uint64_t dropsAt(unsigned stage) const
    {
        return dropsByStage_[stage];
    }

    /** Churn/recovery counters (docs/SIMULATOR.md). */
    std::uint64_t faultDowns() const { return faultDowns_; }
    std::uint64_t faultUps() const { return faultUps_; }
    std::uint64_t deliveredDuringFaults() const
    {
        return deliveredDuringFaults_;
    }
    std::uint64_t recoveries() const { return recoveries_; }
    double avgRecoveryWait() const;

    std::uint64_t totalReroutes() const;
    std::uint64_t totalStalls() const;

    /** Forward hops recorded across every link of the network. */
    std::uint64_t totalHops() const;
    std::uint64_t backtrackHops() const { return backtrackHops_; }

    /**
     * Faulted tsdt resolutions at injection (docs/SIMULATOR.md): a
     * hit took the clear initial path, a miss ran REROUTE's kernel.
     */
    std::uint64_t routeCacheHits() const { return routeCacheHits_; }
    std::uint64_t routeCacheMisses() const
    {
        return routeCacheMisses_;
    }
    /**
     * Always 0: the simulator keeps no route table to evict from.
     * Kept until the repository benchmark (benchmark/src) stops
     * reading it.
     */
    std::uint64_t routeCacheEvictions() const { return 0; }

    double avgLatency() const;
    Cycle maxLatency() const { return maxLatency_; }

    /**
     * Latency percentile in [0, 1] from the exact histogram
     * (latencies above kLatencyCap cycles share the top bucket).
     * When latencyCapped(), percentiles that land in the overflow
     * bucket under-report the true latency.
     */
    Cycle latencyPercentile(double q) const;

    /** Histogram resolution limit (the overflow-bucket index). */
    static constexpr Cycle latencyCap() { return kLatencyCap; }

    /**
     * True once any delivered latency exceeded latencyCap() and was
     * clamped into the overflow bucket: high percentiles and the
     * histogram tail are then lower bounds, not exact values.  The
     * first such delivery also emits a one-time IADM_WARN.
     */
    bool latencyCapped() const { return latencyCapped_; }

    /** Delivered packets per cycle per node over @p cycles. */
    double throughput(Cycle cycles) const;

    /** Mean busy fraction of the links of one stage over @p cycles. */
    double linkUtilization(unsigned stage, Cycle cycles) const;

    /**
     * Imbalance of nonstraight-link use at one stage: the mean over
     * switches of |plusUse - minusUse| / (plusUse + minusUse); 0 is
     * perfectly balanced (the SSDT load-balancing target).
     */
    double nonstraightImbalance(unsigned stage) const;

    double avgQueueDepth(unsigned stage) const;

    // --- structured export (sweep reports) -------------------------
    unsigned stages() const { return nStages_; }
    std::uint64_t stallsAt(unsigned stage) const
    {
        return stalls_[stage];
    }
    std::uint64_t reroutesAt(unsigned stage) const
    {
        return reroutes_[stage];
    }

    /**
     * Exact latency histogram, indexed by latency in cycles.  It
     * holds buckets 0..min(maxLatency(), latencyCap()) and no more,
     * so its last bucket is nonzero whenever a packet was delivered
     * (empty before that); once latencyCapped(), the last bucket
     * (latencyCap()) also counts every longer latency.
     */
    const std::vector<std::uint64_t> &latencyHistogram() const
    {
        return latencyHist_;
    }

    std::string summary(Cycle cycles) const;

    /**
     * Register every counter into @p reg under the "sim." prefix
     * (docs/OBSERVABILITY.md lists the names).  @p cycles scales the
     * derived rates, exactly as in the sweep report.
     */
    void exportStats(obs::StatsRegistry &reg, Cycle cycles) const;

  private:
    Label nSize_;
    unsigned nStages_;
    std::uint64_t injected_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t throttled_ = 0;
    std::uint64_t unroutable_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t latencySum_ = 0;
    Cycle maxLatency_ = 0;
    static constexpr std::size_t kLatencyCap = 4096;
    bool latencyCapped_ = false;
    std::uint64_t backtrackHops_ = 0;
    std::uint64_t routeCacheHits_ = 0;
    std::uint64_t routeCacheMisses_ = 0;
    std::uint64_t dropsByReason_[kDropReasons] = {};
    std::uint64_t faultDowns_ = 0;
    std::uint64_t faultUps_ = 0;
    std::uint64_t deliveredDuringFaults_ = 0;
    std::uint64_t recoveries_ = 0;
    std::uint64_t recoveryWaitSum_ = 0;
    std::vector<std::uint64_t> dropsByStage_; //!< per stage
    std::vector<std::uint64_t> stalls_;     //!< per stage
    std::vector<std::uint64_t> reroutes_;   //!< per stage
    std::vector<std::uint64_t> hopsByLink_; //!< [stage][switch][kind]
    std::vector<std::uint64_t> depthSum_;   //!< per stage
    std::vector<std::uint64_t> depthSamples_; //!< per stage
    /** [latency cycles], sized by content; reserved to
     *  kLatencyCap + 1 at construction. */
    std::vector<std::uint64_t> latencyHist_;

    /**
     * Cold half of recordDelivered for a latency past the
     * histogram's size: grow it to reach @p lat, or to the overflow
     * bucket with a one-time flag and warning.  Returns @p lat's
     * bucket.
     */
    __attribute__((noinline, cold)) std::size_t
    growLatencyHistogram(Cycle lat);

    std::size_t
    linkIndex(unsigned stage, Label from, topo::LinkKind kind) const
    {
        IADM_ASSERT(kind != topo::LinkKind::Exchange,
                    "IADM links only in the simulator");
        return fault::linkIndex(stage, from, kind, nSize_);
    }
};

} // namespace iadm::sim

#endif // IADM_SIM_METRICS_HPP
