/**
 * @file
 * Flat precomputed routing data for the simulator hot path.
 *
 * The paper's whole premise is that the link a switch takes is a
 * pure function of (switch parity, state, tag bit) — so the
 * simulator should never re-derive link endpoints with modular
 * arithmetic, or touch the topology object at all, while packets
 * are moving.  LinkTable freezes the entire IADM link graph into
 * one contiguous [stage][switch][kind] array of destination labels
 * at construction, over the flat index fault::FaultView
 * (fault/fault_view.hpp) shares, so the per-hop blockage test is
 * one word load at the same index.
 */

#ifndef IADM_SIM_LINK_TABLE_HPP
#define IADM_SIM_LINK_TABLE_HPP

#include <cstdint>
#include <vector>

#include "fault/fault_view.hpp"
#include "topology/iadm.hpp"

namespace iadm::sim {

/**
 * Contiguous [stage][switch][kind] table of IADM link destinations.
 *
 * Flat index: fault::linkIndex(), (stage * N + j) * 3 + kind.
 */
class LinkTable
{
  public:
    explicit LinkTable(const topo::IadmTopology &topo);

    unsigned stages() const { return stages_; }
    Label size() const { return n_; }

    /** Flat index of link (stage, j, kind) (fault::linkIndex). */
    std::size_t
    index(unsigned stage, Label j, topo::LinkKind kind) const
    {
        return fault::linkIndex(stage, j, kind, n_);
    }

    /** Destination label of the link at flat index @p idx. */
    Label to(std::size_t idx) const { return to_[idx]; }

    /** Destination label of link (stage, j, kind). */
    Label
    to(unsigned stage, Label j, topo::LinkKind kind) const
    {
        return to(index(stage, j, kind));
    }

  private:
    unsigned stages_;
    Label n_;
    std::vector<Label> to_; //!< [(stage * N + j) * 3 + kind]
};

} // namespace iadm::sim

#endif // IADM_SIM_LINK_TABLE_HPP
