#include "core/tsdt.hpp"

#include "common/logging.hpp"

namespace iadm::core {

void
TsdtTag::rejectRange(unsigned n_stages, Label dest, Label state_bits)
{
    IADM_ASSERT(n_stages >= 1 && n_stages <= 31, "bad stage count ",
                n_stages);
    IADM_ASSERT(dest < (Label{1} << n_stages),
                "destination out of range");
    IADM_ASSERT(state_bits < (Label{1} << n_stages),
                "state bits out of range");
    IADM_PANIC("TSDT tag out of range");
}

unsigned
TsdtTag::stateBit(unsigned i) const
{
    IADM_ASSERT(i < n_, "stage out of range");
    return bit(state_, i);
}

unsigned
TsdtTag::destBit(unsigned i) const
{
    IADM_ASSERT(i < n_, "stage out of range");
    return bit(dest_, i);
}

SwitchState
TsdtTag::stateAt(unsigned i) const
{
    return stateBit(i) ? SwitchState::Cbar : SwitchState::C;
}

void
TsdtTag::setStateBit(unsigned i, unsigned v)
{
    IADM_ASSERT(i < n_, "stage out of range");
    state_ = static_cast<Label>(withBit(state_, i, v));
}

void
TsdtTag::flipStateBit(unsigned i)
{
    IADM_ASSERT(i < n_, "stage out of range");
    state_ = static_cast<Label>(flipBit(state_, i));
}

std::uint64_t
TsdtTag::encoded() const
{
    return static_cast<std::uint64_t>(dest_) |
           (static_cast<std::uint64_t>(state_) << n_);
}

TsdtTag
TsdtTag::decode(unsigned n_stages, std::uint64_t word)
{
    const auto dest = static_cast<Label>(word & lowMask(n_stages));
    const auto state =
        static_cast<Label>((word >> n_stages) & lowMask(n_stages));
    return {n_stages, dest, state};
}

std::string
TsdtTag::str() const
{
    return toLsbFirstString(encoded(), 2 * n_);
}

topo::LinkKind
tsdtLinkKind(Label j, unsigned i, const TsdtTag &tag)
{
    IADM_ASSERT(i < tag.stages(), "stage out of range");
    return tsdtKindOf(j, i, tag.destination(), tag.stateBits());
}

Label
tsdtNext(Label j, unsigned i, const TsdtTag &tag, Label n_size)
{
    switch (tsdtLinkKind(j, i, tag)) {
      case topo::LinkKind::Straight:
        return j;
      case topo::LinkKind::Plus:
        return modAdd(j, std::int64_t{1} << i, n_size);
      case topo::LinkKind::Minus:
        return modAdd(j, -(std::int64_t{1} << i), n_size);
      default:
        IADM_PANIC("unreachable");
    }
}

Path
tsdtTrace(Label src, const TsdtTag &tag, Label n_size)
{
    const unsigned n = tag.stages();
    IADM_ASSERT((Label{1} << n) == n_size, "tag/network size mismatch");
    std::vector<Label> sw;
    std::vector<topo::LinkKind> kinds;
    sw.reserve(n + 1);
    kinds.reserve(n);
    Label j = src;
    sw.push_back(j);
    for (unsigned i = 0; i < n; ++i) {
        kinds.push_back(tsdtLinkKind(j, i, tag));
        j = tsdtNext(j, i, tag, n_size);
        sw.push_back(j);
    }
    return {std::move(sw), std::move(kinds)};
}

TsdtTag
tagForPath(const Path &path, unsigned n_stages)
{
    IADM_ASSERT(path.length() == n_stages, "path/stage mismatch");
    const Label dest = path.destination();
    Label state = 0;
    for (unsigned i = 0; i < n_stages; ++i) {
        const Label j = path.switchAt(i);
        const unsigned ji = bit(j, i);
        switch (path.kindAt(i)) {
          case topo::LinkKind::Straight:
            IADM_ASSERT(bit(dest, i) == ji,
                        "straight hop inconsistent with destination");
            break;
          case topo::LinkKind::Plus:
            // Lemma A1.1: +2^i selected by b_i b_{n+i} = ~j_i j_i.
            IADM_ASSERT(bit(dest, i) != ji,
                        "nonstraight hop inconsistent with destination");
            state = static_cast<Label>(withBit(state, i, ji));
            break;
          case topo::LinkKind::Minus:
            // Lemma A1.1: -2^i selected by b_i b_{n+i} = ~j_i ~j_i.
            IADM_ASSERT(bit(dest, i) != ji,
                        "nonstraight hop inconsistent with destination");
            state = static_cast<Label>(withBit(state, i, ji ^ 1u));
            break;
          default:
            IADM_PANIC("exchange link in an IADM path");
        }
    }
    return {n_stages, dest, state};
}

TsdtTag
rerouteNonstraight(const TsdtTag &tag, unsigned i)
{
    TsdtTag out = tag;
    out.flipStateBit(i);
    return out;
}

std::optional<TsdtTag>
rerouteBacktrack(const TsdtTag &tag, const Path &path, unsigned i)
{
    const int r = path.lastNonstraightBefore(i);
    if (r < 0)
        return std::nullopt;

    // Corollary 4.2: if the nonstraight link at stage r is -2^r the
    // rerouting path climbs on +2^l links (state bits ~d_l, Lemma
    // A1.2(i)); if it is +2^r the rerouting path descends on -2^l
    // links (state bits d_l, Lemma A1.2(ii)).
    const bool found_minus =
        path.kindAt(static_cast<unsigned>(r)) == topo::LinkKind::Minus;
    TsdtTag out = tag;
    for (unsigned l = static_cast<unsigned>(r); l < i; ++l) {
        const unsigned dl = tag.destBit(l);
        out.setStateBit(l, found_minus ? (dl ^ 1u) : dl);
    }
    return out;
}

} // namespace iadm::core
