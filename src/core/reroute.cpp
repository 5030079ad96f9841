#include "core/reroute.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/logging.hpp"
#include "obs/trace_sink.hpp"

namespace iadm::core {

namespace {

/**
 * The REROUTE loop every entry point shares, over any blockage test
 * isBlocked(stage, switch, kind) — instantiated for fault::FaultSet
 * and fault::FaultView.  Starts from switch @p src of stage
 * @p first (0 for a route from the input column) and iterates
 * Corollary 4.1 / BACKTRACK from the lowest blocked stage upward,
 * leaving the final tag in @p tag, its path in @p path (traced
 * through the last stage checked) and the work counters in @p res.
 * Returns true iff a blockage-free path was found.
 *
 * A packet at stage @p first has already spent the state bits below
 * it, and its switch's low @p first bits equal the destination's.
 * The links left add +-2^l for l >= first only, so the stages ahead
 * form an IADM network of size N / 2^first on the high bits, and
 * REROUTE on them is complete there too.  The spent stages are
 * seeded with the destination, so their links read as straight and
 * BACKTRACK never walks below @p first.
 *
 * The path lives on the stack and is traced one tsdtStep() per
 * stage, fused with the blockage test, so a clear initial path
 * costs n steps and n bit tests.  A repair leaves every stage below
 * its lowest changed state bit untouched (Lemma A1.1: stage i's
 * switch depends only on bits below i), and those stages were
 * already clear, so the next scan resumes there: the same smallest
 * blocked stage a scan from stage 0 would find.
 */
template <class Faults>
bool
rerouteKernel(const Faults &faults, unsigned n, unsigned first,
              Label src, TsdtTag &tag, RerouteWork &res,
              TsdtPath &path, RerouteObserver *observer)
{
    const Label dest = tag.destination();
    path.n = n;
    path.dest = dest;
    path.state = tag.stateBits();
    for (unsigned r = 0; r < first; ++r)
        path.sw[r] = dest;
    path.sw[first] = src;
    unsigned from = first;

    // Each iteration leaves the path blockage-free through a
    // strictly higher stage, so n+1 iterations always suffice; the
    // guard only trips on an implementation bug.
    const unsigned guard = 4 * n + 8;
    for (unsigned iter = 0; iter < guard; ++iter) {
        ++res.iterations;

        // Step 1: smallest blocked stage on the current path.
        unsigned i = from;
        topo::LinkKind kind = topo::LinkKind::Straight;
        for (; i < n; ++i) {
            path.traceStage(i);
            kind = path.kindAt(i);
            if (faults.isBlocked(i, path.sw[i], kind))
                break;
        }
        const Label state = path.state;
        if (i == n) {
            tag = TsdtTag(n, dest, state);
            return true;
        }

        Label next = state;
        BacktrackStats work;
        bool ok = true;
        const bool backtracked =
            kind == topo::LinkKind::Straight ||
            faults.isBlocked(i, path.sw[i], topo::oppositeKind(kind));
        if (!backtracked) {
            // Step 2 / Corollary 4.1: complement one state bit.
            next ^= Label{1} << i;
            ++res.corollary41;
        } else {
            // Step 3: straight or double-nonstraight blockage.
            ok = backtrack(faults, path, i,
                           kind == topo::LinkKind::Straight
                               ? fault::BlockageKind::Straight
                               : fault::BlockageKind::DoubleNonstraight,
                           next, work);
            ++res.backtracks;
            res.backtrackStats.iterations += work.iterations;
            res.backtrackStats.stagesVisited += work.stagesVisited;
            res.backtrackStats.bitsChanged += work.bitsChanged;
        }
        if (observer != nullptr)
            observer->repaired({path, i, kind, backtracked, work, ok,
                                TsdtTag(n, dest, next)});
        if (!ok) {
            tag = TsdtTag(n, dest, state);
            return false;
        }

#if IADM_TRACE
        // A simulator running REROUTE on a packet's behalf parks the
        // packet identity in the thread-local bridge; outside that
        // window the sink is null and this is a dead branch.
        if (const obs::RouteTraceContext &ctx =
                obs::routeTraceContext();
            ctx.sink != nullptr) {
            ctx.sink->record(obs::EventKind::Reroute, ctx.packet,
                             ctx.cycle, i, path.sw[i],
                             static_cast<std::uint8_t>(kind),
                             backtracked ? work.bitsChanged : 1u, dest,
                             next);
        }
#endif

        // Step 4: adopt the rerouting path and iterate.
        from = std::min<unsigned>(
            static_cast<unsigned>(std::countr_zero(state ^ next)), i);
        path.state = next;
    }
    IADM_PANIC("REROUTE failed to converge within ", guard,
               " iterations (src=", src, ", dest=", dest, ")");
}

/**
 * REROUTE's step 1 on the initial tag alone: test each link of the
 * all-state-C path from @p src and report whether none is blocked.
 * When none is, the kernel above would stop at its first scan and
 * return initialTag(n, dest) with no repair.
 *
 * In state C a nonstraight link sets bit i to d_i without a carry
 * (+2^i iff j_i = 0), so the path is the ICube path: stage i's
 * switch is d_{0/i-1} s_{i/n-1}.  Each stage's switch comes straight
 * from (src, dest) rather than from tsdtStep() on the previous one,
 * so the n tests do not wait on each other.
 */
template <class Faults>
bool
initialClear(const Faults &faults, unsigned n, Label src, Label dest)
{
    const Label diff = src ^ dest;
    Label bit = 1; // 2^i, stepped rather than shifted by i
    for (unsigned i = 0; i < n; ++i, bit <<= 1) {
        const Label j = src ^ (diff & (bit - 1));
        // tsdtKindOf(j, i, dest, 0), with j_i = s_i.
        const unsigned ns = (diff & bit) != 0;
        const unsigned minus = (src & bit) != 0;
        const auto kind = static_cast<topo::LinkKind>(ns + (ns & minus));
        if (faults.isBlocked(i, j, kind))
            return false;
    }
    return true;
}

template <class Faults>
CompactRoute
compactRoute(const topo::IadmTopology &topo, const Faults &faults,
             Label src, Label dest)
{
    const unsigned n = topo.stages();
    RerouteWork work;
    TsdtTag tag = initialTag(n, dest);
    TsdtPath path;

    CompactRoute res;
    res.ok = rerouteKernel(faults, n, 0, src, tag, work, path, nullptr);
    res.tag = tag;
    res.reroutes = work.corollary41 + work.backtrackStats.bitsChanged;
#ifdef IADM_SANITIZE_BUILD
    // The delta encoding must be lossless: the path REROUTE settled
    // on — traced piecewise, each scan resuming below its repair —
    // is exactly what decodeDelta() reconstructs from the tag.
    if (res.ok) {
        std::uint16_t sw[17];
        IADM_ASSERT(n + 1 <= 17, "decode scratch too small");
        decodeDelta(src, dest, tag.stateBits(), n, sw);
        for (unsigned i = 0; i <= n; ++i)
            IADM_ASSERT(sw[i] == path.sw[i],
                        "delta decode diverged from REROUTE path at "
                        "stage ",
                        i, " for ", src, "->", dest);
    }
#endif
    return res;
}

template <class Faults>
std::optional<TsdtTag>
fromSwitch(const topo::IadmTopology &topo, const Faults &faults,
           unsigned stage, Label j, const TsdtTag &tag)
{
    const unsigned n = topo.stages();
    IADM_ASSERT(stage < n, "rerouteFromSwitch past the last stage");
    IADM_ASSERT(((j ^ tag.destination()) & lowMask(stage)) == 0,
                "switch ", j, " is not on a path to ",
                tag.destination(), " at stage ", stage);
    RerouteWork work;
    TsdtTag out = tag;
    TsdtPath path;
    if (!rerouteKernel(faults, n, stage, j, out, work, path, nullptr))
        return std::nullopt;
    return out;
}

} // namespace

RerouteResult
reroute(const topo::IadmTopology &topo, const fault::FaultSet &faults,
        Label src, const TsdtTag &initial, RerouteObserver *observer)
{
    RerouteResult res;
    TsdtTag tag = initial;
    TsdtPath path;
    res.ok = rerouteKernel(faults, topo.stages(), 0, src, tag, res,
                           path, observer);
    res.tag = tag;
    res.path = tsdtTrace(src, tag, topo.size());
    return res;
}

RerouteResult
universalRoute(const topo::IadmTopology &topo,
               const fault::FaultSet &faults, Label src, Label dest)
{
    return reroute(topo, faults, src, initialTag(topo.stages(), dest));
}

CompactRoute
universalRouteCompact(const topo::IadmTopology &topo,
                      const fault::FaultSet &faults, Label src,
                      Label dest)
{
    return compactRoute(topo, faults, src, dest);
}

CompactRoute
universalRouteCompact(const topo::IadmTopology &topo,
                      const fault::FaultView &faults, Label src,
                      Label dest)
{
    return compactRoute(topo, faults, src, dest);
}

bool
initialPathClear(const topo::IadmTopology &topo,
                 const fault::FaultSet &faults, Label src, Label dest)
{
    return initialClear(faults, topo.stages(), src, dest);
}

bool
initialPathClear(const topo::IadmTopology &topo,
                 const fault::FaultView &faults, Label src, Label dest)
{
    return initialClear(faults, topo.stages(), src, dest);
}

void
auditRoute([[maybe_unused]] const CompactRoute &got,
           [[maybe_unused]] const topo::IadmTopology &topo,
           [[maybe_unused]] const fault::FaultSet &faults,
           [[maybe_unused]] Label src, [[maybe_unused]] Label dest)
{
#ifdef IADM_SANITIZE_BUILD
    // Allocation-free like the fills it audits, so sanitize builds
    // keep step()'s no-allocation guarantee.  Silent too: a trace
    // bridge parked for the audited fill must not record its
    // repairs twice.
    obs::RouteTraceContext &ctx = obs::routeTraceContext();
    obs::TraceSink *const sink = ctx.sink;
    ctx.sink = nullptr;
    const CompactRoute fresh = compactRoute(topo, faults, src, dest);
    ctx.sink = sink;
    IADM_ASSERT(fresh.ok == got.ok, "route diverged (ok) for ", src,
                "->", dest);
    IADM_ASSERT(fresh.tag == got.tag, "route diverged (tag) for ", src,
                "->", dest);
    IADM_ASSERT(fresh.reroutes == got.reroutes,
                "route diverged (reroutes) for ", src, "->", dest);
    if (got.ok) {
        // decode o encode = identity, checked against tsdtNext()'s
        // per-stage walk rather than decodeDelta's own step.
        const unsigned n = topo.stages();
        std::uint16_t sw[17];
        IADM_ASSERT(n + 1 <= 17, "decode scratch too small");
        decodeDelta(src, dest, got.tag.stateBits(), n, sw);
        Label j = src;
        for (unsigned i = 0; i <= n; ++i) {
            IADM_ASSERT(sw[i] == j, "route diverged (decoded path) for ",
                        src, "->", dest, " at stage ", i);
            if (i < n)
                j = tsdtNext(j, i, got.tag, topo.size());
        }
    }
#endif
}

unsigned
decodeDelta(Label src, Label dest, Label state_bits,
            unsigned n_stages, std::uint16_t *path_sw) noexcept
{
    const Label n_size = Label{1} << n_stages;
    Label j = src;
    path_sw[0] = static_cast<std::uint16_t>(j);
    for (unsigned i = 0; i < n_stages; ++i) {
        j = tsdtStep(j, i, dest, state_bits, n_size);
        path_sw[i + 1] = static_cast<std::uint16_t>(j);
    }
    return n_stages + 1;
}

std::optional<TsdtTag>
rerouteFromSwitch(const topo::IadmTopology &topo,
                  const fault::FaultSet &faults, unsigned stage,
                  Label j, const TsdtTag &tag)
{
    return fromSwitch(topo, faults, stage, j, tag);
}

std::optional<TsdtTag>
rerouteFromSwitch(const topo::IadmTopology &topo,
                  const fault::FaultView &faults, unsigned stage,
                  Label j, const TsdtTag &tag)
{
    return fromSwitch(topo, faults, stage, j, tag);
}

std::string
explainReroute(const topo::IadmTopology &topo,
               const fault::FaultSet &faults, Label src, Label dest)
{
    // A narration of REROUTE's own kernel: the observer prints each
    // repair as the loop applies it.
    struct Narrator final : RerouteObserver
    {
        const topo::IadmTopology &topo;
        Label src;
        std::ostringstream os;

        Narrator(const topo::IadmTopology &t, Label s) : topo(t), src(s)
        {
        }

        void
        repaired(const RerouteStep &st) override
        {
            const Label from = st.path.sw[st.stage];
            os << "  blocked: "
               << topo::Link{st.stage, from, st.path.sw[st.stage + 1],
                             st.kind}
                      .str()
               << "\n";
            if (!st.backtracked) {
                os << "    corollary 4.1: complement state bit b_"
                   << topo.stages() + st.stage << " -> tag "
                   << st.tag.str() << "\n";
            } else {
                os << "    BACKTRACK ("
                   << fault::blockageKindName(
                          st.kind == topo::LinkKind::Straight
                              ? fault::BlockageKind::Straight
                              : fault::BlockageKind::DoubleNonstraight)
                   << "): ";
                if (st.ok) {
                    os << "walked " << st.work.stagesVisited
                       << " stage(s) back over " << st.work.iterations
                       << " iteration(s), rewrote "
                       << st.work.bitsChanged << " state bit(s) -> tag "
                       << st.tag.str() << "\n";
                } else {
                    os << "FAIL — no blockage-free path exists\n";
                }
            }
            if (st.ok)
                os << "    new path : "
                   << tsdtTrace(src, st.tag, topo.size()).str() << "\n";
        }
    };

    const TsdtTag initial = initialTag(topo.stages(), dest);
    Narrator narrator(topo, src);
    narrator.os << "route " << src << " -> " << dest
                << " (N=" << topo.size() << ")\n";
    narrator.os << "  initial tag " << initial.str() << " : "
                << tsdtTrace(src, initial, topo.size()).str() << "\n";
    const RerouteResult res =
        reroute(topo, faults, src, initial, &narrator);
    if (res.ok)
        narrator.os << "  => blockage-free; final tag " << res.tag.str()
                    << "\n";
    return narrator.os.str();
}

} // namespace iadm::core
