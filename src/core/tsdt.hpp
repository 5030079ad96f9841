/**
 * @file
 * The Two-Bit State-Based Destination Tag (TSDT) scheme (Section 4).
 *
 * A TSDT routing tag has 2n bits: destination bits b_0..b_{n-1}
 * (always equal to the destination address) and state bits
 * b_n..b_{2n-1} (b_{n+i} = 0 puts stage i's switch in state C,
 * b_{n+i} = 1 in state Cbar).  Per the paper's switching table:
 *
 *   even_i switch: b_i b_{n+i} = 00,01 -> straight;
 *                  10 -> +2^i; 11 -> -2^i
 *   odd_i  switch: b_i b_{n+i} = 10,11 -> straight;
 *                  01 -> +2^i; 00 -> -2^i
 *
 * equivalently: straight iff b_i == j_i, else Plus iff b_{n+i} == j_i
 * (Lemma A1.1).
 *
 * Corollary 4.1: a nonstraight blockage at stage i is bypassed by
 * complementing state bit b_{n+i} (O(1)).
 * Corollary 4.2: a straight or double-nonstraight blockage at stage
 * i is bypassed by rewriting state bits b_{n+(i-k)}..b_{n+i-1},
 * where i-k is the nearest preceding stage with a nonstraight link
 * on the path (O(k)).
 */

#ifndef IADM_CORE_TSDT_HPP
#define IADM_CORE_TSDT_HPP

#include <optional>
#include <string>

#include "common/bits.hpp"
#include "core/path.hpp"
#include "core/state_model.hpp"

namespace iadm::core {

/** A 2n-bit TSDT routing tag. */
class TsdtTag
{
  public:
    TsdtTag() = default;

    /**
     * @param n_stages  n = log2 N
     * @param dest      destination bits b_0..b_{n-1}
     * @param state_bits state bits b_n..b_{2n-1} (bit i = stage i)
     */
    TsdtTag(unsigned n_stages, Label dest, Label state_bits = 0)
        : n_(n_stages), dest_(dest), state_(state_bits)
    {
        // Inline with one range test: the simulator builds a tag
        // per injected packet.  The diagnostic is out of line.
        if (n_ < 1 || n_ > 31 || ((dest_ | state_) >> n_) != 0)
            rejectRange(n_stages, dest, state_bits);
    }

    unsigned stages() const { return n_; }

    /** The destination address (= destination bits, Theorem 3.1). */
    Label destination() const { return dest_; }

    /** All n state bits, bit i = b_{n+i}. */
    Label stateBits() const { return state_; }

    /** State bit b_{n+i}. */
    unsigned stateBit(unsigned i) const;

    /** Destination bit b_i. */
    unsigned destBit(unsigned i) const;

    /** The switch state stage @p i is put into. */
    SwitchState stateAt(unsigned i) const;

    /** Overwrite state bit b_{n+i}. */
    void setStateBit(unsigned i, unsigned v);

    /** Complement state bit b_{n+i} (Corollary 4.1's operation). */
    void flipStateBit(unsigned i);

    /** The full 2n-bit word b_0..b_{2n-1} (LSB = b_0). */
    std::uint64_t encoded() const;

    /** Decode a 2n-bit word. */
    static TsdtTag decode(unsigned n_stages, std::uint64_t word);

    /** Paper-style rendering: "b0..b_{2n-1}" LSB first. */
    std::string str() const;

    friend bool
    operator==(const TsdtTag &a, const TsdtTag &b)
    {
        return a.n_ == b.n_ && a.dest_ == b.dest_ &&
               a.state_ == b.state_;
    }

  private:
    /** Panic naming which of (n, dest, state) is out of range. */
    [[noreturn, gnu::cold]] static void rejectRange(unsigned n_stages,
                                                   Label dest,
                                                   Label state_bits);

    unsigned n_ = 0;
    Label dest_ = 0;
    Label state_ = 0;
};

/**
 * Link kind chosen by switch @p j at stage @p i under @p tag:
 * tsdtKindOf() on the tag's words, after a stage range check.
 */
topo::LinkKind tsdtLinkKind(Label j, unsigned i, const TsdtTag &tag);

/** Next-stage switch chosen by @p j at stage @p i under @p tag. */
Label tsdtNext(Label j, unsigned i, const TsdtTag &tag, Label n_size);

/**
 * Trace the full path a message takes from @p src under @p tag.
 * By Theorem 3.1 the path always ends at tag.destination().
 */
Path tsdtTrace(Label src, const TsdtTag &tag, Label n_size);

/**
 * One stage of a TSDT path in branch-free form: the switch reached
 * from switch @p j of stage @p i under destination bits @p dest and
 * state bits @p state, in a network of @p n_size = 2^n switches.
 * Lemma A1.1 with step = 2^i: the link is straight iff b_i == j_i,
 * else +2^i iff b_{n+i} == j_i, else -2^i — and -2^i mod N is
 * N - 2^i, so both nonstraight offsets fold into one select on
 * all-ones masks, with no branch and no multiply.  decodeDelta()
 * and REROUTE's stack path (TsdtPath) both trace with it.
 */
constexpr Label
tsdtStep(Label j, unsigned i, Label dest, Label state, Label n_size)
{
    const Label step = Label{1} << i;
    const Label ns = 0u - (((dest ^ j) >> i) & 1u);
    const Label minus = 0u - (((state ^ j) >> i) & 1u);
    const Label offset = step ^ (minus & (step ^ (n_size - step)));
    return (j + (ns & offset)) & (n_size - 1);
}

/**
 * The TSDT link kind on raw tag words, branch free: Straight (0),
 * Plus (1) or Minus (2).  It is linkKindFor()'s formula with tag bit
 * b_i and state bit b_{n+i}: ns + (ns & minus) = ns * (1 + minus).
 */
constexpr topo::LinkKind
tsdtKindOf(Label j, unsigned i, Label dest, Label state)
{
    const Label ns = ((dest ^ j) >> i) & 1u;
    const Label minus = ((state ^ j) >> i) & 1u;
    return static_cast<topo::LinkKind>(ns + (ns & minus));
}

/**
 * The canonical initial tag for (src, dest): destination bits = dest,
 * all state bits 0 (every switch in state C), under which the IADM
 * network emulates the ICube network and the path visits
 * d_{0/i-1} s_{i/n-1} at stage i.
 */
inline TsdtTag
initialTag(unsigned n_stages, Label dest)
{
    return {n_stages, dest, 0};
}

/**
 * Reconstruct a tag that drives a message along @p path
 * (Lemma A1.1).  State bits of straight-link stages are set to 0.
 */
TsdtTag tagForPath(const Path &path, unsigned n_stages);

/**
 * Corollary 4.1: the rerouting tag that bypasses a nonstraight
 * blockage at stage @p i by using the oppositely-signed nonstraight
 * link of the same switch.
 */
TsdtTag rerouteNonstraight(const TsdtTag &tag, unsigned i);

/**
 * Corollary 4.2: the rerouting tag that bypasses a straight or
 * double-nonstraight blockage at stage @p i of @p path by
 * backtracking to the nearest preceding nonstraight link.  Returns
 * nullopt when the path is all-straight below stage i, in which
 * case no alternate path exists (Theorems 3.3/3.4, "only if").
 *
 * State bits at stages >= i are left unchanged (the corollary allows
 * them to be arbitrary).
 */
std::optional<TsdtTag> rerouteBacktrack(const TsdtTag &tag,
                                        const Path &path, unsigned i);

} // namespace iadm::core

#endif // IADM_CORE_TSDT_HPP
