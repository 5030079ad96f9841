/**
 * @file
 * Blockage model for multistage networks (Section 3 of the paper).
 *
 * A blockage is a link that is faulty or busy; the routing theory
 * treats both identically.  A switch blockage "has the same effect
 * as blocking all of the switch's input links and can be transformed
 * into a link blockage problem accordingly" — blockSwitch() performs
 * exactly that transformation.
 */

#ifndef IADM_FAULT_FAULT_SET_HPP
#define IADM_FAULT_FAULT_SET_HPP

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "topology/topology.hpp"

namespace iadm::fault {

/**
 * Classification of the blockage situation at one switch for one
 * routing problem (Section 3): the participating output links of a
 * switch are either its straight link or both nonstraight links,
 * never all three, so exactly these cases can affect a path.
 */
enum class BlockageKind : std::uint8_t
{
    None,               //!< link on the path is not blocked
    Nonstraight,        //!< one nonstraight output link blocked
    Straight,           //!< the straight output link blocked
    DoubleNonstraight,  //!< both nonstraight output links blocked
};

/** Human-readable name for a BlockageKind. */
const char *blockageKindName(BlockageKind k);

/**
 * A set of blocked links, with switch blockage support.
 *
 * Blockages are refcounted: independent sources of blockage (a
 * static fault, an overlapping transient window, a churn process)
 * each call blockLink() and later unblockLink(), and the link stays
 * blocked until every source has released it.  An unblockLink() with
 * no matching blockLink() is a no-op, so releasing a blockage can
 * never erase someone else's.
 */
class FaultSet
{
  public:
    FaultSet() = default;

    /** Add one blockage claim on a link (faulty or busy). */
    void blockLink(const topo::Link &l);

    /**
     * Release one blockage claim; the link unblocks only when the
     * last claim is released.  No-op if the link is not blocked.
     */
    void unblockLink(const topo::Link &l);

    /**
     * Block a switch: blocks all input links of switch @p j of
     * stage @p stage in @p topo (the paper's transformation).
     */
    void blockSwitch(const topo::MultistageTopology &topo,
                     unsigned stage, Label j);

    /** True iff the link is blocked. */
    bool isBlocked(const topo::Link &l) const;

    /**
     * True iff link (stage, from, kind) is blocked: the blockage
     * test REROUTE's kernel calls, with the signature FaultView
     * shares.
     */
    bool
    isBlocked(unsigned stage, Label from, topo::LinkKind kind) const
    {
        return blocked.count(topo::Link::keyOf(stage, from, kind)) != 0;
    }

    /** Remove all blockages. */
    void clear();

    /** Add every blockage claim of @p other to this set. */
    void merge(const FaultSet &other);

    /** Number of blocked links (not claims). */
    std::size_t count() const { return blocked.size(); }

    bool empty() const { return blocked.empty(); }

    /**
     * Mutation counter, bumped by every block/unblock/clear/merge.
     * Cached views of the set (FaultView, fault_view.hpp) compare
     * it to decide when to refresh.
     */
    std::uint64_t version() const { return version_; }

    /** Outstanding claims on link @p l (0 when unblocked). */
    std::uint32_t refcount(const topo::Link &l) const;

    /**
     * The blocked links as stored keys (stage/from/kind encoded),
     * mapped to their outstanding claim counts.
     */
    const std::unordered_map<std::uint64_t, std::uint32_t> &
    keys() const
    {
        return blocked;
    }

    /** Render as a sorted list of link keys for diagnostics. */
    std::string str() const;

  private:
    std::unordered_map<std::uint64_t, std::uint32_t> blocked;
    std::uint64_t version_ = 0;
};

} // namespace iadm::fault

#endif // IADM_FAULT_FAULT_SET_HPP
