/**
 * @file
 * Algorithm BACKTRACK (Section 5).
 *
 * Given the current routing path P, the stage q of a straight or
 * double-nonstraight link blockage, and the state bits of P's tag,
 * BACKTRACK performs iterated backtracking along P (steps 0-10 of
 * the paper) and returns updated state bits specifying a rerouting
 * path that is blockage-free from stage 0 through stage q — or FAIL
 * (nullopt) exactly when the blockages make source-destination
 * communication impossible (proved via the pivot lemmas A2.1-A2.3).
 *
 * The steps are written once, over a stack path (TsdtPath) and a
 * blockage test isBlocked(stage, switch, kind), and instantiated
 * for the authoritative fault::FaultSet and for its bitset
 * fault::FaultView.
 */

#ifndef IADM_CORE_BACKTRACK_HPP
#define IADM_CORE_BACKTRACK_HPP

#include <optional>

#include "core/tsdt.hpp"
#include "fault/fault_set.hpp"
#include "fault/fault_view.hpp"
#include "topology/iadm.hpp"

namespace iadm::core {

/** Instrumentation of one BACKTRACK invocation. */
struct BacktrackStats
{
    unsigned iterations = 0;    //!< backtracking iterations executed
    unsigned stagesVisited = 0; //!< total stages walked backwards
    unsigned bitsChanged = 0;   //!< state bits rewritten
};

/**
 * A TSDT path held on the stack: the switch of every stage under
 * the tag (dest, state) that drives it.  Link kinds are not stored
 * — Lemma A1.1 reads them off each switch and the tag — so tracing
 * a stage is one tsdtStep() and neither tracing nor BACKTRACK's
 * reads of the path touch the heap.
 */
struct TsdtPath
{
    /** Largest stage count a TsdtTag holds. */
    static constexpr unsigned kMaxStages = 31;

    unsigned n = 0;  //!< link stages
    Label dest = 0;  //!< destination bits (= the destination)
    Label state = 0; //!< state bits of the tag driving the path
    Label sw[kMaxStages + 1] = {}; //!< switch at stage i

    /** Kind of the link taken at stage @p i. */
    topo::LinkKind
    kindAt(unsigned i) const
    {
        return tsdtKindOf(sw[i], i, dest, state);
    }

    /**
     * Largest stage r < @p before whose link is nonstraight, or -1
     * (Path::lastNonstraightBefore; steps 1 and 8 of BACKTRACK).
     */
    int
    lastNonstraightBefore(unsigned before) const
    {
        for (unsigned r = before; r-- > 0;)
            if (bit(dest ^ sw[r], r) != 0)
                return static_cast<int>(r);
        return -1;
    }

    /** Trace stage @p i: writes sw[i+1] from sw[i]. */
    void
    traceStage(unsigned i)
    {
        sw[i + 1] = tsdtStep(sw[i], i, dest, state, Label{1} << n);
    }

    /**
     * The path whose switches @p switches already lists in
     * Packet::pathSw form under (@p dest, @p state), copied.
     */
    static TsdtPath
    of(const std::uint16_t *switches, unsigned n_stages, Label dest,
       Label state)
    {
        TsdtPath p;
        p.n = n_stages;
        p.dest = dest;
        p.state = state;
        for (unsigned i = 0; i <= n_stages; ++i)
            p.sw[i] = switches[i];
        return p;
    }
};

/**
 * Run algorithm BACKTRACK on a stack path: the kernel every entry
 * point shares.
 *
 * @param faults      blockage test: FaultSet or FaultView
 * @param path        current routing path P, traced through stage
 *                    @p block_stage
 * @param block_stage stage q of the blockage on P
 * @param block_kind  Straight or DoubleNonstraight
 * @param state       in: the state bits specifying P (b' in the
 *                    paper); out: the rerouting path's, when the
 *                    call returns true (untouched on FAIL)
 * @param stats       accumulates this invocation's work (also on
 *                    FAIL)
 * @return false on FAIL
 */
template <class Faults>
bool backtrack(const Faults &faults, const TsdtPath &path,
               unsigned block_stage, fault::BlockageKind block_kind,
               Label &state, BacktrackStats &stats);

extern template bool backtrack<fault::FaultSet>(
    const fault::FaultSet &, const TsdtPath &, unsigned,
    fault::BlockageKind, Label &, BacktrackStats &);
extern template bool backtrack<fault::FaultView>(
    const fault::FaultView &, const TsdtPath &, unsigned,
    fault::BlockageKind, Label &, BacktrackStats &);

/**
 * Run algorithm BACKTRACK on a heap Path.
 *
 * @param topo        the IADM network
 * @param faults      global blockage map (the paper's network
 *                    controller knowledge)
 * @param path        current routing path P
 * @param block_stage stage q of the blockage on P
 * @param block_kind  Straight or DoubleNonstraight (the two cases
 *                    the algorithm handles; a repairable
 *                    single-nonstraight blockage is Corollary 4.1's
 *                    job, not BACKTRACK's)
 * @param tag         the tag specifying P (b' in the paper)
 * @param stats       optional instrumentation sink
 * @return the rerouting tag, or nullopt (FAIL)
 */
std::optional<TsdtTag> backtrack(const topo::IadmTopology &topo,
                                 const fault::FaultSet &faults,
                                 const Path &path, unsigned block_stage,
                                 fault::BlockageKind block_kind,
                                 TsdtTag tag,
                                 BacktrackStats *stats = nullptr);

} // namespace iadm::core

#endif // IADM_CORE_BACKTRACK_HPP
