/**
 * @file
 * Bitset view of a FaultSet for hot blockage tests.
 *
 * FaultSet is the authoritative, refcounted blockage map, and a
 * lookup in it hashes a link key.  FaultView mirrors the set into
 * one bit per IADM link over the flat [stage][switch][kind] index
 * the simulator's LinkTable also uses, so "is this link blocked" is
 * one word load.  Its owner re-calls refresh() whenever
 * FaultSet::version() moves.  REROUTE's kernel (core/reroute.hpp)
 * runs over either type through the same isBlocked(stage, j, kind)
 * test; the simulator and the route daemon pass their view.
 */

#ifndef IADM_FAULT_FAULT_VIEW_HPP
#define IADM_FAULT_FAULT_VIEW_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fault/fault_set.hpp"

namespace iadm::fault {

/**
 * Flat index of IADM link (stage, j, kind) in an @p n_size-switch
 * network: (stage * N + j) * 3 + kind, with kind in
 * {Straight = 0, Plus = 1, Minus = 2} (the only IADM link kinds).
 */
constexpr std::size_t
linkIndex(unsigned stage, Label j, topo::LinkKind kind, Label n_size)
{
    return (static_cast<std::size_t>(stage) * n_size + j) * 3 +
           static_cast<std::size_t>(kind);
}

/** Bitset-backed O(1) view of a FaultSet, indexed by linkIndex(). */
class FaultView
{
  public:
    FaultView(unsigned stages, Label n_size)
        : stages_(stages), n_(n_size),
          words_((static_cast<std::size_t>(stages) * n_size * 3 +
                  63) /
                 64)
    {
    }

    /**
     * Rebuild the bitset from @p faults (O(faults + words)): decodes
     * the set's stored link keys (topo::Link::keyOf) and skips any
     * that are not IADM links of this network.
     */
    void
    refresh(const FaultSet &faults)
    {
        std::fill(words_.begin(), words_.end(), 0);
        any_ = false;
        for (const auto &[key, refs] : faults.keys()) {
            const auto stage = static_cast<unsigned>(key >> 40);
            const auto from =
                static_cast<Label>((key >> 8) & 0xffffffffu);
            const auto kind = static_cast<unsigned>(key & 0xffu);
            if (stage >= stages_ || from >= n_ || kind > 2)
                continue;
            const std::size_t idx = linkIndex(
                stage, from, static_cast<topo::LinkKind>(kind), n_);
            words_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
            any_ = true;
        }
    }

    /** True iff the link at flat index @p idx is blocked. */
    bool
    isBlocked(std::size_t idx) const
    {
        return (words_[idx >> 6] >> (idx & 63)) & 1u;
    }

    /** True iff link (stage, j, kind) is blocked (FaultSet's test). */
    bool
    isBlocked(unsigned stage, Label j, topo::LinkKind kind) const
    {
        return isBlocked(linkIndex(stage, j, kind, n_));
    }

    /** False iff the whole view is known blockage-free. */
    bool anyBlocked() const { return any_; }

  private:
    unsigned stages_;
    Label n_;
    std::vector<std::uint64_t> words_;
    bool any_ = false;
};

} // namespace iadm::fault

#endif // IADM_FAULT_FAULT_VIEW_HPP
