/**
 * @file
 * The network state model of Section 2.
 *
 * Every switch of the IADM network is statically an even_i or odd_i
 * switch (bit i of its label) and dynamically in one of two states:
 *
 *   state C    - routing follows C_i(j, t)    = j + deltaC_i(j, t)
 *   state Cbar - routing follows Cbar_i(j, t) = j + deltaCbar_i(j, t)
 *
 * with (paper, Section 2):
 *
 *   deltaC_i(j, t) = 0      if (even_i and t=0) or (odd_i and t=1)
 *                    -2^i   if odd_i and t=0
 *                    +2^i   if even_i and t=1
 *   deltaCbar_i(j, t) = -deltaC_i(j, t)
 *
 * Lemma 2.1: C_i(j,t) sets bit i of j to t and leaves every other
 * bit unchanged; Cbar_i(j,t) also sets bit i to t but alters some
 * higher-order bits through carry/borrow propagation.  Consequently
 * (Theorem 3.1) the destination address is the unique n-bit
 * destination tag regardless of the network state.
 */

#ifndef IADM_CORE_STATE_MODEL_HPP
#define IADM_CORE_STATE_MODEL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/modmath.hpp"
#include "topology/topology.hpp"

namespace iadm::core {

/** The two routing states of an IADM switch. */
enum class SwitchState : std::uint8_t
{
    C = 0,     //!< route per C_i(j, t)
    Cbar = 1,  //!< route per Cbar_i(j, t)
};

/** The opposite state. */
constexpr SwitchState
flipped(SwitchState s)
{
    return s == SwitchState::C ? SwitchState::Cbar : SwitchState::C;
}

/** True iff switch @p j is an odd_i switch at stage @p i. */
constexpr bool
isOddSwitch(Label j, unsigned i)
{
    return bit(j, i) == 1;
}

/** deltaC_i(j, t): the signed offset of the state-C link. */
constexpr std::int64_t
deltaC(Label j, unsigned t, unsigned i)
{
    if (bit(j, i) == (t & 1u))
        return 0;
    return isOddSwitch(j, i) ? -(std::int64_t{1} << i)
                             : (std::int64_t{1} << i);
}

/** deltaCbar_i(j, t) = -deltaC_i(j, t). */
constexpr std::int64_t
deltaCbar(Label j, unsigned t, unsigned i)
{
    return -deltaC(j, t, i);
}

/** C_i(j, t) = j + deltaC_i(j, t) (mod N). */
constexpr Label
applyC(Label j, unsigned t, unsigned i, Label n_size)
{
    return modAdd(j, deltaC(j, t, i), n_size);
}

/** Cbar_i(j, t) = j + deltaCbar_i(j, t) (mod N). */
constexpr Label
applyCbar(Label j, unsigned t, unsigned i, Label n_size)
{
    return modAdd(j, deltaCbar(j, t, i), n_size);
}

/** The offset chosen by a switch in state @p st for tag bit @p t. */
constexpr std::int64_t
deltaFor(Label j, unsigned t, unsigned i, SwitchState st)
{
    return st == SwitchState::C ? deltaC(j, t, i)
                                : deltaCbar(j, t, i);
}

/** Next-stage switch for state @p st and tag bit @p t. */
constexpr Label
applyState(Label j, unsigned t, unsigned i, Label n_size,
           SwitchState st)
{
    return modAdd(j, deltaFor(j, t, i, st), n_size);
}

// The link-kind formulas below (and tsdtKindOf in core/tsdt.hpp)
// compute a kind's enum value arithmetically.
static_assert(static_cast<unsigned>(topo::LinkKind::Straight) == 0 &&
              static_cast<unsigned>(topo::LinkKind::Plus) == 1 &&
              static_cast<unsigned>(topo::LinkKind::Minus) == 2);
static_assert(static_cast<unsigned>(SwitchState::C) == 0 &&
              static_cast<unsigned>(SwitchState::Cbar) == 1);

/**
 * The physical kind of the link a switch in state @p st takes for
 * tag bit @p t: Straight when t equals bit i of j, otherwise the
 * nonstraight link whose sign depends on parity and state.  Branch
 * free: with ns = j_i ^ t, kind = ns * (1 + (j_i ^ st)) — deltaC's
 * nonstraight link is +2^i on an even_i switch and -2^i on an odd_i
 * one, and state Cbar swaps the two.
 */
constexpr topo::LinkKind
linkKindFor(Label j, unsigned t, unsigned i, SwitchState st)
{
    const unsigned j_i = bit(j, i);
    const unsigned ns = j_i ^ (t & 1u);
    const unsigned minus = j_i ^ static_cast<unsigned>(st);
    return static_cast<topo::LinkKind>(ns + (ns & minus));
}

/**
 * A complete assignment of states to the switches of link stages
 * 0..n-1 ("the state of the network").  The default state is C
 * everywhere, in which the IADM network behaves exactly like the
 * embedded ICube network.
 */
class NetworkState
{
  public:
    /** All switches in state @p init (default C). */
    NetworkState(Label n_size, SwitchState init = SwitchState::C);

    Label size() const { return netSize; }
    unsigned stages() const { return numStages; }

    /**
     * State of switch @p j at stage @p i.  Inline: the simulator
     * reads it once per serviced packet per cycle.
     */
    SwitchState
    get(unsigned i, Label j) const
    {
        return states[static_cast<std::size_t>(i) * netSize + j];
    }

    /** Set the state of one switch. */
    void
    set(unsigned i, Label j, SwitchState st)
    {
        states[static_cast<std::size_t>(i) * netSize + j] = st;
    }

    /** Flip the state of one switch. */
    void
    flip(unsigned i, Label j)
    {
        set(i, j, flipped(get(i, j)));
    }

    /** Reset all switches to @p st. */
    void fill(SwitchState st);

    /**
     * The switch reached at each stage when a message with
     * destination tag @p dest enters at switch @p src: returns the
     * n+1 switch labels of the traversed path (Theorem 3.1
     * guarantees the last one equals @p dest).
     */
    std::vector<Label> trace(Label src, Label dest) const;

    /** Compact per-stage rendering for diagnostics. */
    std::string str() const;

  private:
    Label netSize;
    unsigned numStages;
    std::vector<SwitchState> states; //!< [stage * N + j]
};

} // namespace iadm::core

#endif // IADM_CORE_STATE_MODEL_HPP
