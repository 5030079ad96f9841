#include "sim/event_queue.hpp"

#include "common/logging.hpp"

namespace iadm::sim {

void
EventQueue::schedule(Cycle when, Callback fn)
{
    heap_.push({when, seq_++, std::move(fn)});
}

void
EventQueue::runUntil(Cycle now)
{
    while (!heap_.empty() && heap_.top().time <= now) {
        // priority_queue::top() is const; move via const_cast is
        // UB-adjacent, so copy the callback out instead.
        Callback fn = heap_.top().fn;
        heap_.pop();
        fn();
    }
}

Cycle
EventQueue::nextTime() const
{
    IADM_ASSERT(!heap_.empty(), "no pending events");
    return heap_.top().time;
}

} // namespace iadm::sim
