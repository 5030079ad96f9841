/**
 * @file
 * Packets for the packet-switched IADM simulation (the MIMD
 * environment Section 4 targets).
 *
 * Packets live in the queue arena's pool and stay put while 32-bit
 * handles to them move between queues (switch_model.hpp), so the
 * layout is pinned for the pool's sake: 8-byte fields first, then
 * the tag and 4-byte fields, then the cached path and flags.
 * sizeof(Packet) is static_assert'ed below (and re-checked in
 * tests/sim_test.cpp) so accidental growth of the hot struct fails
 * loudly instead of silently growing the pool and every prefetch.
 */

#ifndef IADM_SIM_PACKET_HPP
#define IADM_SIM_PACKET_HPP

#include <cstdint>

#include "common/bits.hpp"
#include "core/tsdt.hpp"

namespace iadm::sim {

/** Simulation time in cycles. */
using Cycle = std::uint64_t;

/** One message moving through the network. */
struct Packet
{
    /**
     * Largest stage count whose TSDT path fits the in-packet cache:
     * the simulator's bound, N <= 2^16 (NetworkSim's constructor
     * rejects larger networks).
     */
    static constexpr unsigned kMaxTracedStages = 16;

    std::uint64_t id = 0;
    Cycle injected = 0;   //!< cycle the packet entered stage 0
    Cycle movedAt = ~Cycle{0}; //!< cycle of the last hop (move guard)
    core::TsdtTag tag;     //!< routing tag (TSDT/dynamic schemes)
    Label src = 0;
    Label dst = 0;
    unsigned reroutes = 0; //!< spare-link / tag repairs experienced
    unsigned resumeStage = 0; //!< stage to resume forward motion at

    /**
     * Cached TSDT path of a dynamic-scheme packet: the switch
     * visited at every stage 0..n under (src, tag), refreshed
     * whenever the tag is computed or rewritten.  Lets the dynamic
     * scheme's backward walk and BACKTRACK read the path instead of
     * re-running core::tsdtTrace every cycle.  Sender-routed packets
     * never walk backward and leave it stale.
     */
    std::uint16_t pathSw[kMaxTracedStages + 1] = {};

    /**
     * Truncated FaultSet::version() stamp of the last fault-epoch
     * this packet's routing verdict was computed against: set at
     * injection for sender-routed packets and refreshed on every
     * in-flight re-resolution / BACKTRACK failure.  A stalled or
     * undeliverable head retries only when the live (truncated)
     * version differs — a 16-bit wraparound collision merely delays
     * the retry to the next mutation, it never causes a wrong route.
     */
    std::uint16_t lastEpoch = 0;

    bool goingBack = false;   //!< dynamic scheme: walking backward
    bool undeliverable = false; //!< dynamic scheme: BACKTRACK failed
};

// The hot-struct pin: the packet pool holds one Packet per packet in
// flight, and the service loop prefetches each head packet it will
// read, so growing Packet grows the pool footprint and the lines per
// prefetch.  Growth must be a conscious decision here (and in the
// matching test), never a side effect.  At 96 bytes in a
// line-aligned pool every packet spans exactly two cache lines.
static_assert(sizeof(Packet) == 96, "Packet grew: re-budget the "
                                    "hot path before raising this");

} // namespace iadm::sim

#endif // IADM_SIM_PACKET_HPP
