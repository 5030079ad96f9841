#include "obs/health.hpp"

#include <algorithm>

namespace iadm::obs {

namespace {

/** splitmix64 finalizer — commutative sum of these per node makes a
 *  start-point-independent cycle signature. */
std::uint64_t
mixNode(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

void
HealthMonitor::beginScan(std::uint64_t /*cycle*/,
                         std::uint32_t queue_count)
{
    if (edgeTo_.size() < queue_count) {
        edgeTo_.resize(queue_count, kNoQueue);
        stamp_.resize(queue_count, 0);
        mark_.resize(queue_count, 0);
        prevStuck_.resize(queue_count, 0);
    }
    std::fill(edgeTo_.begin(), edgeTo_.end(), kNoQueue);
    std::fill(mark_.begin(), mark_.end(), 0);
    nodes_.clear();
}

void
HealthMonitor::waitEdge(std::uint32_t from_q, std::uint32_t to_q,
                        std::uint64_t head_stamp)
{
    if (from_q >= edgeTo_.size() || to_q >= edgeTo_.size())
        return;
    if (edgeTo_[from_q] == kNoQueue)
        nodes_.push_back(from_q);
    edgeTo_[from_q] = to_q;
    stamp_[from_q] = head_stamp;
}

void
HealthMonitor::headStuck(std::uint32_t q, std::uint64_t stuck_cycles)
{
    if (q >= prevStuck_.size())
        return;
    if (stuck_cycles > rep_.maxHeadStall)
        rep_.maxHeadStall = stuck_cycles;
    if (cfg_.progressBound != 0 && stuck_cycles >= cfg_.progressBound) {
        // Count each stuck episode once: the previous scan already
        // counted it iff the same head was past the bound then (its
        // stall can only have grown since).
        const std::uint64_t prev = prevStuck_[q];
        const bool already =
            prev >= cfg_.progressBound && prev <= stuck_cycles;
        if (!already)
            ++rep_.progressViolations;
    }
    prevStuck_[q] = stuck_cycles;
}

void
HealthMonitor::endScan()
{
    ++rep_.scans;
    seenThisScan_.clear();

    // The graph is functional: walk successor chains, stamping each
    // node with its walk id.  Re-entering the *current* walk closes a
    // cycle; hitting an older stamp merges into an already-resolved
    // tail.
    std::uint32_t walk = 0;
    for (const std::uint32_t start : nodes_) {
        if (mark_[start] != 0)
            continue;
        ++walk;
        std::uint32_t v = start;
        while (v != kNoQueue && mark_[v] == 0) {
            mark_[v] = walk;
            v = edgeTo_[v];
        }
        if (v != kNoQueue && mark_[v] == walk) {
            ++rep_.waitCycleSightings;
            // Signature over (queue, waiting head) pairs: the cycle
            // "persists" only while the same unmoved heads close it.
            std::uint64_t sig = 0;
            std::uint32_t u = v;
            do {
                sig += mixNode(mixNode(u) ^ stamp_[u]);
                u = edgeTo_[u];
            } while (u != v);
            seenThisScan_.push_back(sig);
        }
    }

    // Age confirmation streaks: a signature seen `confirmScans`
    // scans in a row is a deadlock (counted once, streak saturates).
    for (const std::uint64_t sig : seenThisScan_) {
        unsigned &streak = cycleStreak_[sig];
        if (streak < cfg_.confirmScans) {
            ++streak;
            if (streak == cfg_.confirmScans)
                ++rep_.deadlocks;
        }
    }
    for (auto it = cycleStreak_.begin(); it != cycleStreak_.end();) {
        const bool seen =
            std::find(seenThisScan_.begin(), seenThisScan_.end(),
                      it->first) != seenThisScan_.end();
        it = seen ? std::next(it) : cycleStreak_.erase(it);
    }
}

void
HealthMonitor::noteDelivered(std::uint64_t cycle, std::uint64_t total)
{
    if (total > lastDeliveredTotal_) {
        lastDeliveredTotal_ = total;
        rep_.lastProgressCycle = cycle;
    }
}

} // namespace iadm::obs
