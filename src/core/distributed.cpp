#include "core/distributed.hpp"

#include "common/logging.hpp"

namespace iadm::core {

DistributedResult
distributedRoute(const topo::IadmTopology &topo,
                 const fault::FaultSet &faults, Label src,
                 const TsdtTag &initial)
{
    // The message executes REROUTE's own loop as it walks; the
    // observer charges each repair's movement and signaling.
    struct Walk final : RerouteObserver
    {
        DistributedResult res;
        unsigned at = 0; // stage the message currently occupies

        void
        repaired(const RerouteStep &st) override
        {
            // Walk forward along the current path until a blocked
            // output port is probed.
            IADM_ASSERT(st.stage >= at, "walk resumed past a blockage");
            res.forwardHops += st.stage - at;
            at = st.stage;
            ++res.probes; // the blocked port
            if (st.kind != topo::LinkKind::Straight)
                ++res.probes; // the spare port
            if (!st.backtracked) {
                // Corollary 4.1: flip in place, no movement.
                ++res.flips;
                return;
            }
            if (!st.ok) {
                res.failedStage = static_cast<int>(st.stage);
                return;
            }
            // Straight or double-nonstraight blockage: the blockage
            // signal propagates backward and the message walks back
            // to the rewrite stage (Corollary 4.2 / BACKTRACK).
            ++res.rewrites;
            // The message walks backward over every stage the
            // backtracking visited, and the reroute-side probes of
            // steps 4-6 are status signals from neighboring
            // switches.
            res.backtrackHops += st.work.stagesVisited;
            res.probes += st.work.stagesVisited + 2 * st.work.iterations;
            IADM_ASSERT(st.work.stagesVisited <= at,
                        "backtracked past the input column");
            at -= st.work.stagesVisited;
        }
    };

    Walk walk;
    RerouteResult route = reroute(topo, faults, src, initial, &walk);
    DistributedResult &res = walk.res;
    if (route.ok) {
        res.forwardHops += topo.stages() - walk.at;
        res.delivered = true;
    }
    res.path = std::move(route.path);
    res.tag = route.tag;
    return res;
}

DistributedResult
distributedRoute(const topo::IadmTopology &topo,
                 const fault::FaultSet &faults, Label src, Label dest)
{
    return distributedRoute(topo, faults, src,
                            initialTag(topo.stages(), dest));
}

} // namespace iadm::core
