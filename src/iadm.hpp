/**
 * @file
 * Umbrella header: the complete public API of the IADM routing
 * library.  Include this for exploratory use; production code
 * should include the specific module headers it needs.
 */

#ifndef IADM_IADM_HPP
#define IADM_IADM_HPP

// Substrate
#include "common/bits.hpp"
#include "common/logging.hpp"
#include "common/modmath.hpp"
#include "common/rng.hpp"

// Topologies
#include "topology/cube_family.hpp"
#include "topology/equivalence.hpp"
#include "topology/iadm.hpp"
#include "topology/icube.hpp"
#include "topology/render.hpp"
#include "topology/topology.hpp"

// Blockage model
#include "fault/fault_set.hpp"
#include "fault/injection.hpp"

// The paper's contribution
#include "core/backtrack.hpp"
#include "core/controller.hpp"
#include "core/distributed.hpp"
#include "core/multicast.hpp"
#include "core/oracle.hpp"
#include "core/path.hpp"
#include "core/pivot.hpp"
#include "core/reroute.hpp"
#include "core/ssdt.hpp"
#include "core/state_model.hpp"
#include "core/tsdt.hpp"

// Section 6: cube subgraphs
#include "subgraph/cube_subgraph.hpp"
#include "subgraph/enumeration.hpp"
#include "subgraph/reconfigure.hpp"

// Prior schemes
#include "baselines/adm_routing.hpp"
#include "baselines/distance_tag.hpp"
#include "baselines/dynamic_reroute.hpp"
#include "baselines/local_control.hpp"
#include "baselines/lookahead.hpp"
#include "baselines/redundant_number.hpp"

// Permutation routing
#include "perm/admissibility.hpp"
#include "perm/multipass.hpp"
#include "perm/one_pass.hpp"
#include "perm/perm_router.hpp"
#include "perm/permutation.hpp"

// Hardware cost model
#include "hw/adder.hpp"
#include "hw/gates.hpp"
#include "hw/switch_logic.hpp"

// Packet-switched simulation
#include "sim/metrics.hpp"
#include "sim/network_sim.hpp"
#include "sim/packet.hpp"
#include "sim/switch_model.hpp"
#include "sim/traffic.hpp"

#endif // IADM_IADM_HPP
