/**
 * @file
 * Algorithm REROUTE (Section 5): the universal rerouting algorithm.
 *
 * REROUTE iterates from the lowest-stage blockage upward, applying
 * Corollary 4.1 for repairable nonstraight blockages and algorithm
 * BACKTRACK for straight / double-nonstraight blockages, until the
 * current path is blockage-free or a FAIL proves that no
 * blockage-free path exists for the pair.
 */

#ifndef IADM_CORE_REROUTE_HPP
#define IADM_CORE_REROUTE_HPP

#include <optional>
#include <string>

#include "core/backtrack.hpp"
#include "core/tsdt.hpp"

namespace iadm::core {

/** The work counters of one REROUTE run. */
struct RerouteWork
{
    unsigned iterations = 0;   //!< outer-loop iterations
    unsigned corollary41 = 0;  //!< O(1) nonstraight reroutes applied
    unsigned backtracks = 0;   //!< BACKTRACK invocations
    BacktrackStats backtrackStats; //!< accumulated BACKTRACK work
};

/** Outcome of algorithm REROUTE. */
struct RerouteResult : RerouteWork
{
    bool ok = false;           //!< a blockage-free path was found
    TsdtTag tag;               //!< its TSDT tag (valid when ok)
    Path path;                 //!< the blockage-free path (when ok)
};

/**
 * One repair REROUTE applied to its current path, as reported to a
 * RerouteObserver: the smallest blocked stage, the repair tried and
 * its outcome.
 */
struct RerouteStep
{
    const TsdtPath &path;  //!< the blocked path, traced to stage+1
    unsigned stage;        //!< its smallest blocked stage
    topo::LinkKind kind;   //!< kind of the blocked link
    bool backtracked;      //!< BACKTRACK ran (else Corollary 4.1)
    BacktrackStats work;   //!< that BACKTRACK's work (else zero)
    bool ok;               //!< the repair succeeded (false = FAIL)
    TsdtTag tag;           //!< the repaired tag (when ok)
};

/**
 * Per-repair callback of REROUTE's kernel: how the narration
 * (explainReroute) and the dynamic walk's cost model
 * (distributedRoute) follow the one REROUTE loop instead of
 * re-implementing it.  Called once per repair, FAIL included.
 */
class RerouteObserver
{
  public:
    virtual void repaired(const RerouteStep &step) = 0;

  protected:
    ~RerouteObserver() = default;
};

/**
 * Run algorithm REROUTE starting from routing tag @p initial.
 *
 * @param topo     the IADM network
 * @param faults   global blockage map
 * @param src      source switch (stage 0)
 * @param initial  tag of the original routing path (e.g.
 *                 initialTag(n, dest))
 * @param observer optional per-repair callback
 */
RerouteResult reroute(const topo::IadmTopology &topo,
                      const fault::FaultSet &faults, Label src,
                      const TsdtTag &initial,
                      RerouteObserver *observer = nullptr);

/**
 * Compact REROUTE outcome for route caching: everything a cached
 * route needs to be *replayed* later without re-running the path
 * search — the final tag and the simulator's per-packet reroute
 * count.  No Path payload, no allocation in the result.
 *
 * The tag is also the route's *compressed path encoding*.  The
 * switch visited at each stage is a pure function of
 * (src, destination bits, state bits) under Lemma A1.1, so the n
 * state bits of the final tag are exactly the delta word that
 * distinguishes the rerouted path from the all-state-C base path —
 * a set bit at stage i means "the complement choice at stage i".
 * decodeDelta() expands the word back into explicit switch labels;
 * the inverse property decode(encode(path)) == path is pinned by
 * tests/route_cache_test.cpp against the state model and the
 * reachability oracle.
 */
struct CompactRoute
{
    bool ok = false;        //!< a blockage-free path was found
    TsdtTag tag;            //!< its TSDT tag (valid when ok)
    /**
     * Corollary-4.1 flips plus BACKTRACK state bits changed — the
     * value the simulator charges a sender-routed packet as
     * Packet::reroutes.
     */
    unsigned reroutes = 0;
};

/**
 * Algorithm REROUTE for hot callers (the fault-epoch route cache):
 * identical decisions to universalRoute(), but the result carries
 * no Path — the final tag's state bits are the compressed path
 * (see CompactRoute).  Allocation-free: the kernel traces its path
 * on the stack.
 */
CompactRoute universalRouteCompact(const topo::IadmTopology &topo,
                                   const fault::FaultSet &faults,
                                   Label src, Label dest);

/**
 * The same kernel over a bitset view of the fault set (the
 * simulator's and the daemon's fills): one word test per stage
 * instead of a hash probe.  @p faults must be refreshed from the
 * FaultSet it mirrors; the result is then identical to the
 * FaultSet overload's.
 */
CompactRoute universalRouteCompact(const topo::IadmTopology &topo,
                                   const fault::FaultView &faults,
                                   Label src, Label dest);

/**
 * REROUTE's step 1 for the initial tag: true iff the all-state-C
 * path from @p src to @p dest is blockage-free, in which case
 * REROUTE returns initialTag(n, dest) with no repair (Theorem 3.1:
 * the destination bits deliver in any switch state, so nothing
 * else needs checking).  n blockage tests, no allocation.  The
 * route cache runs it before every probe and stores only the pairs
 * it rejects.
 */
bool initialPathClear(const topo::IadmTopology &topo,
                      const fault::FaultSet &faults, Label src,
                      Label dest);

/** The same scan over a refreshed bitset view: same answer. */
bool initialPathClear(const topo::IadmTopology &topo,
                      const fault::FaultView &faults, Label src,
                      Label dest);

/**
 * IADM_SANITIZE audit of a route computed elsewhere (a view-based
 * fill, or a cached replay of one): re-runs REROUTE over the
 * authoritative @p faults and asserts that the ok bit, the tag, the
 * reroute count and the decoded path all equal @p got's.  A no-op
 * in regular builds.
 */
void auditRoute(const CompactRoute &got,
                const topo::IadmTopology &topo,
                const fault::FaultSet &faults, Label src, Label dest);

/**
 * Expand a compressed path delta back into explicit switch labels:
 * writes the n+1 switches the TSDT path from @p src visits under
 * destination bits @p dest and state bits @p state_bits into
 * @p path_sw (packet-embedded Packet::pathSw form, path_sw[0] =
 * src) and returns n+1.
 *
 * This is tsdtTrace() re-derived from Lemma A1.1 in branch-light
 * form: one tsdtStep() per stage.
 *
 * No table loads, no branches in the loop body: decoding a cached
 * route costs ~n integer ops, which is what lets a route-cache
 * entry drop the explicit per-stage switch list entirely.
 */
unsigned decodeDelta(Label src, Label dest, Label state_bits,
                     unsigned n_stages,
                     std::uint16_t *path_sw) noexcept;

/**
 * Convenience wrapper: route @p src -> @p dest through @p faults,
 * starting from the canonical all-state-C path.
 */
RerouteResult universalRoute(const topo::IadmTopology &topo,
                             const fault::FaultSet &faults, Label src,
                             Label dest);

/**
 * Mid-flight REROUTE: find state bits for stages >= @p stage such
 * that the TSDT path continuing from switch @p j of stage @p stage
 * is blockage-free, keeping @p tag's destination and the state bits
 * of the stages already traversed.
 *
 * This is the repair a stalled FIFO head needs when the blockage map
 * changed after its sender computed the tag: the packet cannot
 * revisit earlier stages, but any assignment of the remaining state
 * bits still delivers to tag.destination() (Theorem 3.1).  It is
 * REROUTE's own kernel started at (@p stage, @p j): the stages
 * ahead form an IADM network of size N / 2^stage, and BACKTRACK
 * never walks below @p stage.  Returns nullopt exactly when every
 * continuation is blocked.  @p j must be a switch a path to the
 * destination can reach at @p stage (its low @p stage bits equal
 * the destination's).
 *
 * Cost: REROUTE's loop over the n - stage stages ahead, each repair
 * one Corollary 4.1 flip (O(1)) or one BACKTRACK (Corollary 4.2's
 * O(k), k the stages walked back); no heap allocation.
 */
std::optional<TsdtTag>
rerouteFromSwitch(const topo::IadmTopology &topo,
                  const fault::FaultSet &faults, unsigned stage,
                  Label j, const TsdtTag &tag);

/** The same repair over a refreshed bitset view: same answer. */
std::optional<TsdtTag>
rerouteFromSwitch(const topo::IadmTopology &topo,
                  const fault::FaultView &faults, unsigned stage,
                  Label j, const TsdtTag &tag);

/**
 * Human-readable narration of a REROUTE run: the initial path, each
 * blockage encountered, the repair applied (Corollary 4.1 flip or
 * BACKTRACK rewrite with its range) and the final outcome.  Useful
 * for teaching and debugging (iadm_tool route prints it with -v).
 */
std::string explainReroute(const topo::IadmTopology &topo,
                           const fault::FaultSet &faults, Label src,
                           Label dest);

} // namespace iadm::core

#endif // IADM_CORE_REROUTE_HPP
