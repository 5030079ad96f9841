/**
 * @file
 * Graph framework for multistage interconnection networks.
 *
 * Networks are modeled per Section 2 of the paper: a column of N
 * switches per stage, stages 0..n-1 of links, plus an output column
 * S_n.  A link lives "at stage i" and joins a switch of S_i to a
 * switch of S_{i+1}.  Switches are nodes; links are edges (the
 * paper's first graph model, which it uses for the IADM network and,
 * via its second model, for the ICube network).
 */

#ifndef IADM_TOPOLOGY_TOPOLOGY_HPP
#define IADM_TOPOLOGY_TOPOLOGY_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bits.hpp"

namespace iadm::topo {

/** Identifies a switch: column (stage) 0..n and row (label) 0..N-1. */
struct SwitchId
{
    unsigned stage;
    Label index;

    friend bool
    operator==(const SwitchId &a, const SwitchId &b)
    {
        return a.stage == b.stage && a.index == b.index;
    }
    friend auto operator<=>(const SwitchId &, const SwitchId &) = default;
};

/**
 * The kind of a link leaving a switch at stage i.
 *
 * In the IADM network, Straight joins j to j, Plus is the +2^i link
 * and Minus is the -2^i link.  At stage n-1, Plus and Minus reach the
 * same switch (+2^{n-1} == -2^{n-1} mod N) but remain physically
 * distinct links: the paper counts 3N links at every stage and
 * Theorem 6.1 relies on the choice between them.
 *
 * Exchange is used by 2-output cube-type networks whose nonstraight
 * link complements bit i (possibly with carry-free semantics); for
 * the ICube embedded in the IADM, the exchange link *is* the Plus
 * link of an even_i switch or the Minus link of an odd_i switch, and
 * we expose it as such so the subgraph relation is literal.
 */
enum class LinkKind : std::uint8_t
{
    Straight = 0,
    Plus = 1,
    Minus = 2,
    Exchange = 3,
};

/** Short human-readable name of a link kind. */
const char *linkKindName(LinkKind k);

/** The oppositely-signed nonstraight kind (Theorem 3.2's spare). */
constexpr LinkKind
oppositeKind(LinkKind kind)
{
    return kind == LinkKind::Plus ? LinkKind::Minus : LinkKind::Plus;
}

/** A directed link from stage @p stage to stage+1. */
struct Link
{
    unsigned stage;   //!< stage of the source switch
    Label from;       //!< source switch label
    Label to;         //!< destination switch label (stage+1)
    LinkKind kind;    //!< physical kind of the link

    /**
     * Encode to a unique 64-bit key.  Identity of a link is
     * (stage, from, kind): the paper treats the two +-2^{n-1} links
     * as distinct even though their endpoints coincide.
     */
    std::uint64_t key() const { return keyOf(stage, from, kind); }

    /** key() of the link (stage, from, kind), without its endpoint. */
    static constexpr std::uint64_t
    keyOf(unsigned stage, Label from, LinkKind kind)
    {
        return (static_cast<std::uint64_t>(stage) << 40) |
               (static_cast<std::uint64_t>(from) << 8) |
               static_cast<std::uint64_t>(kind);
    }

    friend bool
    operator==(const Link &a, const Link &b)
    {
        return a.key() == b.key();
    }
    friend bool
    operator<(const Link &a, const Link &b)
    {
        return a.key() < b.key();
    }

    /** "S2: 3 -(+4)-> 7" style rendering. */
    std::string str() const;
};

/**
 * Abstract multistage network of size N = 2^n.
 *
 * Concrete topologies implement outLinks(); everything else (input
 * links, full link lists, validation, DOT export) derives from it.
 */
class MultistageTopology
{
  public:
    /** @param n_size network size N; must be a power of two >= 2. */
    explicit MultistageTopology(Label n_size);
    virtual ~MultistageTopology() = default;

    /** Network size N. */
    Label size() const { return netSize; }

    /** Number of link stages n = log2 N. */
    unsigned stages() const { return numStages; }

    /** Human-readable topology name. */
    virtual std::string name() const = 0;

    /**
     * Output links of switch @p j at stage @p stage.
     * @pre stage < stages(), j < size().
     */
    virtual std::vector<Link> outLinks(unsigned stage, Label j) const = 0;

    /** Input links of switch @p j of stage @p stage (1 <= stage <= n). */
    std::vector<Link> inLinks(unsigned stage, Label j) const;

    /** All links of one stage, ordered by (from, kind). */
    std::vector<Link> stageLinks(unsigned stage) const;

    /** All links of the network. */
    std::vector<Link> allLinks() const;

    /** Number of links per stage (e.g. 3N for the IADM network). */
    std::size_t linksPerStage() const;

    /**
     * Structural self-check: every link lands inside the next
     * column, per-stage link counts are uniform, and in/out degrees
     * are consistent.  Panics on violation (a topology bug).
     */
    void validate() const;

    /** Graphviz DOT rendering of the whole network. */
    std::string toDot() const;

  private:
    Label netSize;
    unsigned numStages;
};

/** Iterate over every (stage, switch) pair of the link stages. */
void forEachSwitch(const MultistageTopology &topo,
                   const std::function<void(unsigned, Label)> &fn);

} // namespace iadm::topo

#endif // IADM_TOPOLOGY_TOPOLOGY_HPP
