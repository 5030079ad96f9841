#include "fault/fault_process.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hpp"

namespace iadm::fault {

// --- BernoulliChurn -------------------------------------------------

BernoulliChurn::BernoulliChurn(const topo::MultistageTopology &topo,
                               double p_fail, double p_repair,
                               std::uint64_t seed)
    : links_(topo.allLinks()), down_(links_.size(), 0),
      pFail_(p_fail), pRepair_(p_repair), rng_(seed)
{
    IADM_ASSERT(p_fail >= 0.0 && p_fail <= 1.0 &&
                    p_repair >= 0.0 && p_repair <= 1.0,
                "churn probabilities must be in [0,1]");
}

std::uint64_t
BernoulliChurn::nextTransition() const
{
    // One Bernoulli draw per link per cycle: the process "may fire"
    // every cycle after the last one it covered.
    return ranThrough_ + 1;
}

void
BernoulliChurn::runUntil(std::uint64_t now, FaultSet &faults,
                         const Observer &obs)
{
    // Fixed (cycle, link-index) draw order is the determinism
    // contract: the same seed always yields the same outage history.
    for (std::uint64_t cycle = ranThrough_ + 1; cycle <= now; ++cycle) {
        for (std::size_t i = 0; i < links_.size(); ++i) {
            if (down_[i]) {
                if (!rng_.chance(pRepair_))
                    continue;
                down_[i] = 0;
                faults.unblockLink(links_[i]);
                if (obs)
                    obs(cycle, links_[i], false);
            } else {
                if (!rng_.chance(pFail_))
                    continue;
                down_[i] = 1;
                faults.blockLink(links_[i]);
                if (obs)
                    obs(cycle, links_[i], true);
            }
        }
    }
    ranThrough_ = std::max(ranThrough_, now);
}

std::string
BernoulliChurn::name() const
{
    std::ostringstream os;
    os << "bernoulli(pFail=" << pFail_ << ",pRepair=" << pRepair_
       << ")";
    return os.str();
}

// --- GeometricChurn -------------------------------------------------

GeometricChurn::GeometricChurn(const topo::MultistageTopology &topo,
                               double mtbf, double mttr,
                               std::uint64_t seed)
    : links_(topo.allLinks()), down_(links_.size(), 0),
      nextAt_(links_.size()), mtbf_(mtbf), mttr_(mttr), rng_(seed)
{
    IADM_ASSERT(mtbf >= 1.0 && mttr >= 1.0,
                "mean holding times must be >= 1 cycle");
    for (std::size_t i = 0; i < links_.size(); ++i)
        nextAt_[i] = holdingTime(mtbf_);
    cachedNext_ = links_.empty()
                      ? kNever
                      : *std::min_element(nextAt_.begin(),
                                          nextAt_.end());
}

std::uint64_t
GeometricChurn::holdingTime(double mean)
{
    // Discretized exponential with the requested mean, floored at
    // one cycle so a link is never down-and-up within one step.
    const double u = rng_.uniformReal();
    return 1 + static_cast<std::uint64_t>(-mean * std::log1p(-u));
}

std::uint64_t
GeometricChurn::nextTransition() const
{
    return cachedNext_;
}

void
GeometricChurn::runUntil(std::uint64_t now, FaultSet &faults,
                         const Observer &obs)
{
    if (cachedNext_ > now)
        return;
    // Links are independent renewal processes, so draining each
    // link's transitions in turn (links in fixed index order, each
    // link's transitions in time order) is deterministic.
    std::uint64_t next = kNever;
    for (std::size_t i = 0; i < links_.size(); ++i) {
        while (nextAt_[i] <= now) {
            const std::uint64_t t = nextAt_[i];
            if (down_[i]) {
                down_[i] = 0;
                faults.unblockLink(links_[i]);
                if (obs)
                    obs(t, links_[i], false);
                nextAt_[i] = t + holdingTime(mtbf_);
            } else {
                down_[i] = 1;
                faults.blockLink(links_[i]);
                if (obs)
                    obs(t, links_[i], true);
                nextAt_[i] = t + holdingTime(mttr_);
            }
        }
        next = std::min(next, nextAt_[i]);
    }
    cachedNext_ = next;
}

std::string
GeometricChurn::name() const
{
    std::ostringstream os;
    os << "geometric(mtbf=" << mtbf_ << ",mttr=" << mttr_ << ")";
    return os.str();
}

// --- BurstChurn -----------------------------------------------------

BurstChurn::BurstChurn(const topo::MultistageTopology &topo,
                       std::uint64_t interval, std::uint64_t duration,
                       Label span, std::uint64_t seed)
    : stages_(topo.stages()), n_(topo.size()), interval_(interval),
      duration_(duration), span_(std::min<Label>(span, topo.size())),
      rng_(seed), nextStart_(interval)
{
    IADM_ASSERT(interval > 0 && duration > 0 && span > 0,
                "burst interval, duration and span must be positive");
    outLinks_.reserve(static_cast<std::size_t>(stages_) * n_);
    for (unsigned stage = 0; stage < stages_; ++stage)
        for (Label j = 0; j < n_; ++j)
            outLinks_.push_back(topo.outLinks(stage, j));
}

std::uint64_t
BurstChurn::nextTransition() const
{
    std::uint64_t next = nextStart_;
    if (!active_.empty())
        next = std::min(next, active_.front().endsAt);
    return next;
}

void
BurstChurn::runUntil(std::uint64_t now, FaultSet &faults,
                     const Observer &obs)
{
    // Chronological merge of burst ends (repairs) and starts; on a
    // tie the ending burst releases its links before the new one
    // claims.  Constant duration keeps active_ sorted by endsAt.
    for (;;) {
        const std::uint64_t end =
            active_.empty() ? kNever : active_.front().endsAt;
        if (std::min(end, nextStart_) > now)
            return;
        if (end <= nextStart_) {
            for (const topo::Link &l : active_.front().links) {
                faults.unblockLink(l);
                if (obs)
                    obs(end, l, false);
            }
            active_.erase(active_.begin());
        } else {
            startBurst(nextStart_, faults, obs);
            nextStart_ += interval_;
        }
    }
}

void
BurstChurn::startBurst(std::uint64_t when, FaultSet &faults,
                       const Observer &obs)
{
    const auto stage = static_cast<unsigned>(rng_.uniform(stages_));
    const auto first = static_cast<Label>(rng_.uniform(n_));
    Burst b;
    b.endsAt = when + duration_;
    for (Label k = 0; k < span_; ++k) {
        const Label j = (first + k) % n_;
        const auto &out =
            outLinks_[static_cast<std::size_t>(stage) * n_ + j];
        for (const topo::Link &l : out) {
            faults.blockLink(l);
            if (obs)
                obs(when, l, true);
            b.links.push_back(l);
        }
    }
    active_.push_back(std::move(b));
}

std::string
BurstChurn::name() const
{
    std::ostringstream os;
    os << "burst(interval=" << interval_ << ",duration=" << duration_
       << ",span=" << span_ << ")";
    return os.str();
}

// --- FaultSchedule --------------------------------------------------

void
FaultSchedule::addWindow(const topo::Link &link, std::uint64_t from,
                         std::uint64_t until)
{
    IADM_ASSERT(from < until, "empty blockage interval");
    // Drop the fired prefix, then insert each transition after every
    // pending one of the same time: ties keep add order.
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(fired_));
    fired_ = 0;
    const auto before = [](std::uint64_t when, const Transition &x) {
        return when < x.at;
    };
    for (const Transition &t :
         {Transition{from, link, true}, Transition{until, link, false}})
        queue_.insert(std::upper_bound(queue_.begin(), queue_.end(),
                                       t.at, before),
                      t);
}

std::uint64_t
FaultSchedule::nextTransition() const
{
    return fired_ < queue_.size() ? queue_[fired_].at : kNever;
}

void
FaultSchedule::runUntil(std::uint64_t now, FaultSet &faults,
                        const Observer &obs)
{
    for (; fired_ < queue_.size() && queue_[fired_].at <= now;
         ++fired_) {
        const Transition &t = queue_[fired_];
        if (t.down)
            faults.blockLink(t.link);
        else
            faults.unblockLink(t.link);
        if (obs)
            obs(now, t.link, t.down);
    }
}

std::string
FaultSchedule::name() const
{
    return "schedule";
}

} // namespace iadm::fault
