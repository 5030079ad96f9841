/**
 * @file
 * Brute-force oracles used to verify the routing theory.
 *
 * Every stage-respecting path from an input switch to an output
 * switch of the IADM network is a legal routing path (it results
 * from some network state, per the discussion under Theorem 3.1), so
 * plain graph search over the layered graph — with blocked links
 * removed — decides reachability exactly.  The REROUTE algorithm's
 * "finds a path iff one exists" claim is tested against these
 * oracles.
 */

#ifndef IADM_CORE_ORACLE_HPP
#define IADM_CORE_ORACLE_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "core/path.hpp"
#include "fault/fault_set.hpp"
#include "topology/iadm.hpp"
#include "topology/icube.hpp"

namespace iadm::core {

/**
 * True iff an unblocked path src -> dest exists (BFS), starting at
 * switch @p src of stage @p stage: a packet already there can still
 * reach @p dest.
 */
bool oracleReachable(const topo::IadmTopology &topo,
                     const fault::FaultSet &faults, Label src,
                     Label dest, unsigned stage = 0);

/**
 * Some unblocked path src -> dest, or nullopt (BFS with parents),
 * starting at switch @p src of stage @p stage; the stages below hold
 * @p src on straight links, unchecked.
 */
std::optional<Path> oracleFindPath(const topo::IadmTopology &topo,
                                   const fault::FaultSet &faults,
                                   Label src, Label dest,
                                   unsigned stage = 0);

/**
 * Every routing path src -> dest in the fault-free network, in
 * lexicographic link-kind order.  Exponential in the worst case; use
 * for small N.  Cross-checks the Parker-Raghavendra redundant
 * number representation enumeration.
 */
std::vector<Path> oracleAllPaths(const topo::IadmTopology &topo,
                                 Label src, Label dest);

/** Number of routing paths src -> dest (64-bit DP count). */
std::uint64_t oracleCountPaths(const topo::IadmTopology &topo,
                               Label src, Label dest);

/**
 * Destination-tag routing through a bare ICube network: each pair
 * has exactly ONE path, so any blockage on it is fatal.  Returns
 * the path, or nullopt when a link of it is blocked.  This is the
 * contrast that makes the IADM "a fault-tolerant ICube network"
 * (Section 1).
 */
std::optional<Path> icubeRoute(const topo::ICubeTopology &topo,
                               const fault::FaultSet &faults,
                               Label src, Label dest);

/**
 * Layered BFS reachability for ANY multistage topology (ADM,
 * Gamma, Omega, ...): true iff an unblocked stage-respecting path
 * joins input @p src to output @p dest.
 */
bool genericReachable(const topo::MultistageTopology &topo,
                      const fault::FaultSet &faults, Label src,
                      Label dest);

} // namespace iadm::core

#endif // IADM_CORE_ORACLE_HPP
