#include "obs/inspector.hpp"

#include <bit>
#include <sstream>
#include <unordered_map>

#include "common/logging.hpp"
#include "core/reroute.hpp"
#include "obs/trace_sink.hpp"

namespace iadm::obs {

namespace {

void
emitHop(TraceSink *sink, std::uint64_t pid, const ReplayHop &h,
        Label tag_dest, Label tag_state)
{
    if (sink == nullptr)
        return;
    if (h.flipped) {
        sink->record(EventKind::StateFlip, pid, h.stage, h.stage,
                     h.sw, static_cast<std::uint8_t>(h.kind),
                     static_cast<std::uint32_t>(h.state), tag_dest,
                     tag_state);
    }
    sink->record(EventKind::Hop, pid, h.stage, h.stage, h.sw,
                 static_cast<std::uint8_t>(h.kind), h.next, tag_dest,
                 tag_state);
}

/**
 * SSDT: run core::SsdtRouter — the local repair rule of Theorem 3.2,
 * where a blocked nonstraight link flips the switch state and uses
 * the spare, and straight / double-nonstraight blockages are
 * unrepairable — then narrate its walk.  The router starts every
 * switch in state C and the walk visits each stage once, so a hop's
 * switch reads C~ exactly when the walk flipped it, and a failed
 * walk's last hop is the blocked state-C link at its failed stage.
 */
ReplayResult
replaySsdt(const topo::IadmTopology &topo,
           const fault::FaultSet &faults, Label src, Label dst,
           TraceSink *sink, std::uint64_t pid)
{
    ReplayResult r;
    r.src = src;
    r.dst = dst;
    r.netSize = topo.size();
    r.scheme = ReplayScheme::Ssdt;

    core::SsdtRouter router(topo);
    const core::SsdtResult route = router.route(src, dst, faults);
    r.delivered = route.delivered;
    r.reroutes = route.stateFlips;
    const auto hop = [&](unsigned i) {
        ReplayHop h;
        h.stage = i;
        h.sw = route.path.switchAt(i);
        h.odd = core::isOddSwitch(h.sw, i);
        h.state = router.state().get(i, h.sw);
        h.flipped = h.state == core::SwitchState::Cbar;
        h.stateBit = h.flipped ? 1u : 0u;
        h.tagBit = bit(dst, i);
        h.kind = core::linkKindFor(h.sw, h.tagBit, i, h.state);
        h.next =
            core::applyState(h.sw, h.tagBit, i, r.netSize, h.state);
        return h;
    };
    for (unsigned i = 0; i < route.path.length(); ++i) {
        r.hops.push_back(hop(i));
        emitHop(sink, pid, r.hops.back(), dst, 0);
    }
    if (!route.delivered) {
        r.hops.push_back(hop(route.path.length()));
        r.failReason =
            std::string(route.failure == fault::BlockageKind::Straight
                            ? "straight"
                            : "double-nonstraight") +
            " blockage at stage " + std::to_string(route.failedStage) +
            " is locally unrepairable (Theorem 3.2)";
    }
    return r;
}

/** TSDT: run REROUTE, then narrate the tag's path hop by hop. */
ReplayResult
replayTsdt(const topo::IadmTopology &topo,
           const fault::FaultSet &faults, Label src, Label dst,
           TraceSink *sink, std::uint64_t pid)
{
    const Label n_size = topo.size();
    const unsigned n = topo.stages();

    ReplayResult r;
    r.src = src;
    r.dst = dst;
    r.netSize = n_size;
    r.scheme = ReplayScheme::Tsdt;

    const core::RerouteResult route =
        core::universalRoute(topo, faults, src, dst);
    r.reroutes = route.corollary41;
    r.backtracks = route.backtracks;
    if (!route.ok) {
        r.failReason = "REROUTE: FAIL — no blockage-free path "
                       "exists for this pair (Theorem 5.1)";
        return r;
    }

    r.tag = route.tag;
    Label j = src;
    for (unsigned i = 0; i < n; ++i) {
        ReplayHop h;
        h.stage = i;
        h.sw = j;
        h.odd = core::isOddSwitch(j, i);
        h.state = r.tag.stateAt(i);
        h.tagBit = r.tag.destBit(i);
        h.stateBit = r.tag.stateBit(i);
        h.kind = core::tsdtLinkKind(j, i, r.tag);
        h.next = core::tsdtNext(j, i, r.tag, n_size);
        r.hops.push_back(h);
        emitHop(sink, pid, h,
                static_cast<Label>(r.tag.destination()),
                static_cast<Label>(r.tag.stateBits()));
        j = h.next;
    }
    r.delivered = j == dst;
    IADM_ASSERT(r.delivered,
                "REROUTE tag failed to reach its destination");
    return r;
}

char
depthChar(std::uint32_t d)
{
    if (d == 0)
        return '.';
    if (d > 9)
        return '+';
    return static_cast<char>('0' + d);
}

} // namespace

const char *
replaySchemeName(ReplayScheme s)
{
    return s == ReplayScheme::Ssdt ? "ssdt" : "tsdt";
}

ReplayResult
replayRoute(const topo::IadmTopology &topo,
            const fault::FaultSet &faults, Label src, Label dst,
            ReplayScheme scheme, TraceSink *sink,
            std::uint64_t packet_id)
{
    IADM_ASSERT(src < topo.size() && dst < topo.size(),
                "replay endpoints must be switch labels");
    if (sink != nullptr) {
        sink->record(EventKind::Inject, packet_id, 0, 0, src,
                     TraceEvent::kNoLink, dst, dst, 0);
    }
    ReplayResult r =
        scheme == ReplayScheme::Ssdt
            ? replaySsdt(topo, faults, src, dst, sink, packet_id)
            : replayTsdt(topo, faults, src, dst, sink, packet_id);
    if (sink != nullptr) {
        const unsigned n = topo.stages();
        if (r.delivered) {
            sink->record(EventKind::Deliver, packet_id, n,
                         n == 0 ? 0 : n - 1, dst, TraceEvent::kNoLink,
                         dst, dst, 0);
        } else {
            const unsigned stage =
                r.hops.empty() ? 0 : r.hops.back().stage;
            const Label sw = r.hops.empty() ? src : r.hops.back().sw;
            sink->record(EventKind::Drop, packet_id, r.hops.size(),
                         stage, sw, TraceEvent::kNoLink, dst, dst, 0,
                         TraceEvent::kFlagUnroutable);
        }
    }
    return r;
}

std::string
printReplay(const ReplayResult &r)
{
    std::ostringstream os;
    const unsigned n = r.hops.empty()
                           ? 0
                           : r.hops.back().stage + 1;
    os << "replay " << r.src << " -> " << r.dst << "  N="
       << r.netSize << "  scheme=" << replaySchemeName(r.scheme)
       << "\n";
    if (r.scheme == ReplayScheme::Tsdt && r.delivered) {
        os << "tag " << r.tag.str() << "  (dest bits = "
           << r.tag.destination() << ", state bits = "
           << r.tag.stateBits() << ")\n";
    }
    for (const ReplayHop &h : r.hops) {
        os << "stage " << h.stage << ": switch " << h.sw << " ("
           << (h.odd ? "odd_" : "even_") << h.stage << ", state "
           << (h.state == core::SwitchState::C ? "C" : "C~") << ")  ";
        if (r.scheme == ReplayScheme::Tsdt) {
            os << "b_" << h.stage << "=" << h.tagBit << " b_"
               << (n + h.stage) << "=" << h.stateBit;
        } else {
            os << "tag bit " << h.tagBit;
        }
        os << "  -> " << topo::linkKindName(h.kind) << " -> "
           << h.next;
        if (h.flipped)
            os << "  [state flipped: spare link used, Theorem 3.2]";
        os << "\n";
    }
    if (r.delivered) {
        os << "delivered at switch " << r.dst << " after "
           << r.hops.size() << " hops";
        if (r.scheme == ReplayScheme::Tsdt) {
            os << "; Corollary 4.1 reroutes: " << r.reroutes
               << ", BACKTRACKs: " << r.backtracks;
        } else if (r.reroutes != 0) {
            os << "; local state flips: " << r.reroutes;
        }
        os << "\n";
    } else {
        os << "NOT delivered: " << r.failReason << "\n";
    }
    return os.str();
}

QueueSnapshot
queueSnapshot(const BinaryTrace &trace, std::uint64_t cycle)
{
    QueueSnapshot s;
    s.cycle = cycle;
    s.netSize = trace.meta.netSize;
    s.stages = trace.meta.stages;
    s.scheme = trace.meta.scheme;
    if (s.netSize == 0 || s.stages == 0)
        return s;

    std::vector<std::vector<std::int64_t>> depth(
        s.stages, std::vector<std::int64_t>(s.netSize, 0));
    s.state.assign(s.stages,
                   std::vector<signed char>(s.netSize, -1));

    auto add = [&](unsigned stage, Label sw, std::int64_t d) {
        if (stage < s.stages && sw < s.netSize)
            depth[stage][sw] += d;
    };

    // Per-link outstanding blockage claims, [stage][3*sw + kind]:
    // FaultUp releases one claim, so overlapping outage windows on
    // the same link keep it down until the last one lifts (the
    // simulator's refcounted FaultSet semantics).
    std::vector<std::vector<std::int32_t>> claims(
        s.stages,
        std::vector<std::int32_t>(std::size_t{3} * s.netSize, 0));
    auto claim = [&](const TraceEvent &e, std::int32_t d) {
        if (e.stage < s.stages && e.sw < s.netSize && e.link < 3)
            claims[e.stage][std::size_t{3} * e.sw + e.link] += d;
    };

    // Per-packet fold for the parked-packet heatmap: a packet is
    // *parked* when its most recent event is a Stall; any movement
    // (hop, backtrack) or exit (deliver, drop) clears it.  lastMoved
    // tracks the cycle of the packet's last position change so the
    // snapshot can report how long each parked head has been stuck.
    struct PktState
    {
        unsigned stage;
        Label sw;
        std::uint64_t lastMoved;
        bool parked;
    };
    std::unordered_map<std::uint64_t, PktState> pkts;
    auto move = [&](std::uint64_t pid, unsigned stage, Label sw,
                    std::uint64_t cyc) {
        pkts[pid] = PktState{stage, sw, cyc, false};
    };

    for (const TraceEvent &e : trace.events) {
        if (e.cycle > cycle)
            continue;
        switch (e.kind) {
          case EventKind::Inject:
            if (!(e.flags & TraceEvent::kFlagNotEnqueued)) {
                add(e.stage, e.sw, +1);
                move(e.packet, e.stage, e.sw, e.cycle);
            }
            break;
          case EventKind::Hop:
            add(e.stage, e.sw, -1);
            add(e.stage + 1, e.aux, +1);
            move(e.packet, e.stage + 1, e.aux, e.cycle);
            break;
          case EventKind::BacktrackHop:
            add(e.stage, e.sw, -1);
            if (e.stage > 0) {
                add(e.stage - 1, e.aux, +1);
                move(e.packet, e.stage - 1, e.aux, e.cycle);
            }
            break;
          case EventKind::Stall:
            if (auto it = pkts.find(e.packet); it != pkts.end())
                it->second.parked = true;
            break;
          case EventKind::Deliver:
            add(e.stage, e.sw, -1);
            pkts.erase(e.packet);
            break;
          case EventKind::Drop:
            if (!(e.flags & TraceEvent::kFlagNotEnqueued))
                add(e.stage, e.sw, -1);
            pkts.erase(e.packet);
            break;
          case EventKind::StateFlip:
            if (e.stage < s.stages && e.sw < s.netSize)
                s.state[e.stage][e.sw] =
                    static_cast<signed char>(e.aux & 1u);
            break;
          case EventKind::FaultDown:
            claim(e, +1);
            break;
          case EventKind::FaultUp:
            claim(e, -1);
            break;
          default:
            break;
        }
    }

    s.depth.assign(s.stages,
                   std::vector<std::uint32_t>(s.netSize, 0));
    for (unsigned i = 0; i < s.stages; ++i) {
        for (Label j = 0; j < s.netSize; ++j) {
            const std::int64_t d = depth[i][j] < 0 ? 0 : depth[i][j];
            s.depth[i][j] = static_cast<std::uint32_t>(d);
            s.inFlight += static_cast<std::uint64_t>(d);
        }
    }
    s.down.assign(s.stages,
                  std::vector<std::uint8_t>(s.netSize, 0));
    for (unsigned i = 0; i < s.stages; ++i)
        for (Label j = 0; j < s.netSize; ++j)
            for (unsigned k = 0; k < 3; ++k)
                if (claims[i][std::size_t{3} * j + k] > 0)
                    ++s.down[i][j];
    s.parked.assign(s.stages,
                    std::vector<std::uint32_t>(s.netSize, 0));
    s.parkedAge.assign(s.stages,
                       std::vector<std::uint32_t>(s.netSize, 0));
    for (const auto &[pid, p] : pkts) {
        if (!p.parked || p.stage >= s.stages || p.sw >= s.netSize)
            continue;
        ++s.parked[p.stage][p.sw];
        const std::uint64_t age =
            cycle > p.lastMoved ? cycle - p.lastMoved : 0;
        const auto a = static_cast<std::uint32_t>(
            age > ~std::uint32_t{0} ? ~std::uint32_t{0} : age);
        if (a > s.parkedAge[p.stage][p.sw])
            s.parkedAge[p.stage][p.sw] = a;
    }
    return s;
}

std::string
printSnapshot(const QueueSnapshot &s)
{
    std::ostringstream os;
    os << "snapshot at cycle " << s.cycle << "  N=" << s.netSize
       << "  scheme=" << (s.scheme.empty() ? "?" : s.scheme)
       << "  in-flight=" << s.inFlight << "\n";
    os << "queue depth per stage (one column per switch; '.'=0, "
          "'+'=10+):\n";
    for (unsigned i = 0; i < s.stages; ++i) {
        os << "  S" << i << (i < 10 ? " " : "") << " |";
        for (Label j = 0; j < s.netSize; ++j)
            os << depthChar(s.depth[i][j]);
        os << "|\n";
    }
    os << "switch states ('C'=C, '~'=C~, '.'=never flipped):\n";
    for (unsigned i = 0; i < s.stages; ++i) {
        os << "  S" << i << (i < 10 ? " " : "") << " |";
        for (Label j = 0; j < s.netSize; ++j) {
            const signed char st = s.state[i][j];
            os << (st < 0 ? '.' : (st == 0 ? 'C' : '~'));
        }
        os << "|\n";
    }
    bool any_parked = false;
    for (const auto &row : s.parked)
        for (const std::uint32_t p : row)
            any_parked = any_parked || p != 0;
    if (any_parked) {
        os << "parked packets per switch (head stalled; '.'=0, "
              "'+'=10+):\n";
        for (unsigned i = 0; i < s.stages; ++i) {
            os << "  S" << i << (i < 10 ? " " : "") << " |";
            for (Label j = 0; j < s.netSize; ++j)
                os << depthChar(s.parked[i][j]);
            os << "|\n";
        }
        os << "max parked age, log scale (char = bit_width(cycles); "
              "'.'=none):\n";
        for (unsigned i = 0; i < s.stages; ++i) {
            os << "  S" << i << (i < 10 ? " " : "") << " |";
            for (Label j = 0; j < s.netSize; ++j)
                os << depthChar(static_cast<std::uint32_t>(
                       std::bit_width(s.parkedAge[i][j])));
            os << "|\n";
        }
    }
    bool any_down = false;
    for (const auto &row : s.down)
        for (const std::uint8_t d : row)
            any_down = any_down || d != 0;
    if (any_down) {
        os << "down out-links per switch ('.'=0, 1-3):\n";
        for (unsigned i = 0; i < s.stages; ++i) {
            os << "  S" << i << (i < 10 ? " " : "") << " |";
            for (Label j = 0; j < s.netSize; ++j)
                os << (s.down[i][j] == 0
                           ? '.'
                           : static_cast<char>('0' + s.down[i][j]));
            os << "|\n";
        }
    }
    return os.str();
}

} // namespace iadm::obs
