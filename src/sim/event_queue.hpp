/**
 * @file
 * A minimal discrete-event calendar.
 *
 * The network itself advances cycle by cycle; the calendar schedules
 * asynchronous events against that clock — transient link blockages
 * appearing and clearing, fault injections, traffic phase changes —
 * and fires them as the simulation reaches their timestamps.
 */

#ifndef IADM_SIM_EVENT_QUEUE_HPP
#define IADM_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/packet.hpp"

namespace iadm::sim {

/** Time-ordered callback calendar. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Schedule @p fn to run at cycle @p when. */
    void schedule(Cycle when, Callback fn);

    /** Fire every event with time <= @p now, in time order. */
    void runUntil(Cycle now);

    bool empty() const { return heap_.empty(); }
    std::size_t pending() const { return heap_.size(); }

    /** Time of the earliest pending event. */
    Cycle nextTime() const;

  private:
    struct Entry
    {
        Cycle time;
        std::uint64_t seq; //!< FIFO tie-break for equal times
        Callback fn;
    };
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.time != b.time ? a.time > b.time
                                    : a.seq > b.seq;
        }
    };
    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    std::uint64_t seq_ = 0;
};

} // namespace iadm::sim

#endif // IADM_SIM_EVENT_QUEUE_HPP
