/**
 * @file
 * Deterministic fault-churn processes: live link failure/repair.
 *
 * The paper's robustness claims (SSDT "self-repair", the universal
 * BACKTRACK+REROUTE procedure) are about networks whose blockage set
 * *changes while packets are in flight*.  A FaultProcess is a
 * seed-derived generator of such changes: it owns a private Rng and
 * a set of outstanding blockage claims on a FaultSet, fires
 * down/up transitions at deterministic cycle times, and composes
 * with static faults and other processes through the FaultSet's
 * refcounted blockage model (its repairs release only its own
 * claims).
 *
 * Layering: fault/ sits below sim/, so cycle times are plain
 * std::uint64_t here; the simulator drives processes from its fault
 * clock and forwards transitions to tracing/metrics via Observer.
 */

#ifndef IADM_FAULT_FAULT_PROCESS_HPP
#define IADM_FAULT_FAULT_PROCESS_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_set.hpp"
#include "topology/topology.hpp"

namespace iadm::fault {

/**
 * Abstract seed-derived failure/repair process over a topology's
 * links.  Drive it by polling nextTransition() and calling
 * runUntil(now) whenever the horizon is reached; runUntil applies
 * every transition with time <= now, in deterministic order, to the
 * given FaultSet.
 */
class FaultProcess
{
  public:
    /** Sentinel: the process will never fire again. */
    static constexpr std::uint64_t kNever = ~std::uint64_t{0};

    /**
     * Transition callback: (cycle, link, down).  down = true for a
     * failure (blockLink), false for a repair (unblockLink).  The
     * FaultSet mutation has already happened when this is called.
     */
    using Observer = std::function<void(
        std::uint64_t cycle, const topo::Link &link, bool down)>;

    virtual ~FaultProcess() = default;

    /** Earliest cycle at which a transition may fire (or kNever). */
    virtual std::uint64_t nextTransition() const = 0;

    /**
     * Apply all transitions with time <= @p now to @p faults, in a
     * deterministic order, invoking @p obs (if set) per transition.
     */
    virtual void runUntil(std::uint64_t now, FaultSet &faults,
                          const Observer &obs) = 0;

    /** Human-readable process description for diagnostics. */
    virtual std::string name() const = 0;
};

/**
 * Memoryless per-cycle churn: every cycle, each healthy link fails
 * with probability pFail and each failed link is repaired with
 * probability pRepair.  Expected steady-state outage fraction is
 * pFail / (pFail + pRepair).
 */
class BernoulliChurn final : public FaultProcess
{
  public:
    BernoulliChurn(const topo::MultistageTopology &topo, double p_fail,
                   double p_repair, std::uint64_t seed);

    std::uint64_t nextTransition() const override;
    void runUntil(std::uint64_t now, FaultSet &faults,
                  const Observer &obs) override;
    std::string name() const override;

  private:
    std::vector<topo::Link> links_;
    std::vector<std::uint8_t> down_;
    double pFail_;
    double pRepair_;
    Rng rng_;
    std::uint64_t ranThrough_ = 0; //!< cycles [1, ranThrough_] done
};

/**
 * Per-link renewal churn with geometric up/down times: each link
 * alternates healthy-for-~MTBF / failed-for-~MTTR, with holding
 * times drawn independently per link (discretized exponential,
 * mean = the respective parameter, minimum 1 cycle).  Unlike
 * BernoulliChurn this skips ahead: cost is O(active transitions),
 * not O(links) per cycle.
 */
class GeometricChurn final : public FaultProcess
{
  public:
    GeometricChurn(const topo::MultistageTopology &topo, double mtbf,
                   double mttr, std::uint64_t seed);

    std::uint64_t nextTransition() const override;
    void runUntil(std::uint64_t now, FaultSet &faults,
                  const Observer &obs) override;
    std::string name() const override;

  private:
    std::uint64_t holdingTime(double mean);

    std::vector<topo::Link> links_;
    std::vector<std::uint8_t> down_;
    std::vector<std::uint64_t> nextAt_;
    double mtbf_;
    double mttr_;
    Rng rng_;
    std::uint64_t cachedNext_ = kNever;
};

/**
 * Regional burst outages: every @p interval cycles a random stage
 * and a contiguous run of @p span switches lose all their output
 * links for @p duration cycles.  Bursts overlap freely — each owns
 * its blocked-link list, and the refcounted FaultSet unwinds them
 * independently.
 */
class BurstChurn final : public FaultProcess
{
  public:
    BurstChurn(const topo::MultistageTopology &topo,
               std::uint64_t interval, std::uint64_t duration,
               Label span, std::uint64_t seed);

    std::uint64_t nextTransition() const override;
    void runUntil(std::uint64_t now, FaultSet &faults,
                  const Observer &obs) override;
    std::string name() const override;

  private:
    struct Burst
    {
        std::uint64_t endsAt;
        std::vector<topo::Link> links;
    };

    void startBurst(std::uint64_t when, FaultSet &faults,
                    const Observer &obs);

    unsigned stages_;
    Label n_;
    //! Out-links per switch, flat [stage * N + j] (no topo ref kept).
    std::vector<std::vector<topo::Link>> outLinks_;
    std::uint64_t interval_;
    std::uint64_t duration_;
    Label span_;
    Rng rng_;
    std::uint64_t nextStart_;
    std::vector<Burst> active_; //!< sorted by endsAt (FIFO: equal durations)
};

/**
 * A fixed schedule of transient blockage windows.  Each window adds
 * one down and one up transition; runUntil fires the due ones in
 * (time, add order) order, reports each at the cycle passed to it
 * (so a transition added for a cycle that already ran fires late,
 * at the next call), and allocates nothing itself.
 */
class FaultSchedule final : public FaultProcess
{
  public:
    /**
     * Add one window: @p link takes one blockage claim at cycle
     * @p from and releases it at cycle @p until (from < until).
     */
    void addWindow(const topo::Link &link, std::uint64_t from,
                   std::uint64_t until);

    /** Transitions not yet fired. */
    std::size_t pending() const { return queue_.size() - fired_; }

    std::uint64_t nextTransition() const override;
    void runUntil(std::uint64_t now, FaultSet &faults,
                  const Observer &obs) override;
    std::string name() const override;

  private:
    struct Transition
    {
        std::uint64_t at;
        topo::Link link;
        bool down;
    };

    /** Sorted by time, ties in add order; [0, fired_) have fired. */
    std::vector<Transition> queue_;
    std::size_t fired_ = 0;
};

} // namespace iadm::fault

#endif // IADM_FAULT_FAULT_PROCESS_HPP
