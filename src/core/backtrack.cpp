#include "core/backtrack.hpp"

#include "common/logging.hpp"

namespace iadm::core {

namespace {

/**
 * Lemma A1.1: the state bit value that makes switch @p j at stage
 * @p i take its nonstraight link of kind @p kind (Plus needs
 * b_{n+i} = j_i, Minus needs b_{n+i} = ~j_i).
 */
unsigned
stateBitForKind(Label j, unsigned i, topo::LinkKind kind)
{
    const unsigned ji = bit(j, i);
    IADM_ASSERT(kind == topo::LinkKind::Plus ||
                kind == topo::LinkKind::Minus,
                "state bit only disambiguates nonstraight links");
    return kind == topo::LinkKind::Plus ? ji : (ji ^ 1u);
}

} // namespace

template <class Faults>
bool
backtrack(const Faults &faults, const TsdtPath &path,
          unsigned block_stage, fault::BlockageKind block_kind,
          Label &state, BacktrackStats &st)
{
    IADM_ASSERT(block_kind == fault::BlockageKind::Straight ||
                block_kind == fault::BlockageKind::DoubleNonstraight,
                "BACKTRACK handles straight and double-nonstraight "
                "blockages only");
    const Label mask = (Label{1} << path.n) - 1;
    const Label dest = path.dest;
    Label bits = state;

    // Step 0: q is the blockage stage, j the blocked switch on P.
    unsigned q = block_stage;
    Label j = path.sw[q];

    // Step 1: backtrack on P for the nearest nonstraight link.
    int r = path.lastNonstraightBefore(q);
    if (r < 0)
        return false; // FAIL: Theorems 3.3/3.4 "only if".
    st.stagesVisited += q - static_cast<unsigned>(r);

    // Step 2: linkfound.  sigma is the sign of the rerouting side:
    // a -2^r link on P (linkfound = 1) reroutes via +2^l links and
    // vice versa (Figure 5 / Corollary 4.2).
    const topo::LinkKind found = path.kindAt(static_cast<unsigned>(r));
    const bool up = found != topo::LinkKind::Plus; // sigma = +1
    const topo::LinkKind side_kind =
        up ? topo::LinkKind::Plus : topo::LinkKind::Minus;

    // The switch of the rerouting path at stage l in (r, q]:
    // j + sigma * 2^l (mod N).
    const auto reroute_switch = [&](Label base, unsigned l) {
        const Label step = Label{1} << l;
        return (up ? base + step : base - step) & mask;
    };

    // Step 3 (and step 10 in later iterations): state bits of
    // stages r..q-1 select the sigma-signed links (Lemma A1.2).
    const auto set_state_range = [&](unsigned lo, unsigned hi) {
        for (unsigned l = lo; l < hi; ++l) {
            const unsigned dl = bit(dest, l);
            bits = static_cast<Label>(
                withBit(bits, l, up ? (dl ^ 1u) : dl));
            ++st.bitsChanged;
        }
    };
    set_state_range(static_cast<unsigned>(r), q);

    bool first_iteration = true;
    while (true) {
        ++st.iterations;
        const Label jq = reroute_switch(j, q);

        if (first_iteration &&
            block_kind == fault::BlockageKind::Straight) {
            // Step 4a: the rerouting link at stage q is one of jq's
            // two nonstraight links; default to the sigma-signed one
            // (continuing away from the blocked column), fall back
            // to the other, FAIL if both are blocked (both pivots of
            // stage q are then closed).
            topo::LinkKind use = side_kind;
            if (faults.isBlocked(q, jq, use)) {
                use = topo::oppositeKind(side_kind);
                if (faults.isBlocked(q, jq, use))
                    return false; // FAIL
            }
            bits = static_cast<Label>(
                withBit(bits, q, stateBitForKind(jq, q, use)));
            ++st.bitsChanged;
        } else {
            // Step 4b: the rerouting path must use jq's straight
            // link at stage q; if it is blocked both pivots of
            // stage q are closed.
            if (faults.isBlocked(q, jq, topo::LinkKind::Straight))
                return false; // FAIL
            // The tag selects the straight link automatically:
            // bit q of jq equals d_q here.
            IADM_ASSERT(bit(jq, q) == bit(dest, q),
                        "rerouting switch must match destination "
                        "bit at stage ", q);
        }

        // Step 5: blockages strictly inside the climb
        // (j+sigma*2^{r+1} ... j+sigma*2^q) close the path for good.
        for (unsigned l = static_cast<unsigned>(r) + 1; l < q; ++l) {
            if (faults.isBlocked(l, reroute_switch(j, l), side_kind))
                return false; // FAIL
        }

        // Step 6: the stage-r link of the rerouting path leaves P's
        // switch at stage r on the sigma side.
        if (!faults.isBlocked(static_cast<unsigned>(r),
                              path.sw[r], side_kind)) {
            state = bits;
            return true;
        }

        // Step 7: the switch j+sigma*2^r is now closed; iterate.
        j = reroute_switch(j, static_cast<unsigned>(r));
        q = static_cast<unsigned>(r);

        // Step 8: continue backtracking along P.
        r = path.lastNonstraightBefore(q);
        if (r < 0)
            return false; // FAIL
        st.stagesVisited += q - static_cast<unsigned>(r);

        // Step 9: the sign of every later-found nonstraight link
        // must match the first; otherwise no blockage-free path
        // exists (Figure 9).
        if (path.kindAt(static_cast<unsigned>(r)) != found)
            return false; // FAIL

        // Step 10: rewrite the new range, then re-enter at step 4b.
        set_state_range(static_cast<unsigned>(r), q);
        first_iteration = false;
    }
}

template bool backtrack<fault::FaultSet>(const fault::FaultSet &,
                                         const TsdtPath &, unsigned,
                                         fault::BlockageKind, Label &,
                                         BacktrackStats &);
template bool backtrack<fault::FaultView>(const fault::FaultView &,
                                          const TsdtPath &, unsigned,
                                          fault::BlockageKind, Label &,
                                          BacktrackStats &);

std::optional<TsdtTag>
backtrack(const topo::IadmTopology &topo, const fault::FaultSet &faults,
          const Path &path, unsigned block_stage,
          fault::BlockageKind block_kind, TsdtTag tag,
          BacktrackStats *stats)
{
    IADM_ASSERT(path.length() == topo.stages(),
                "path/network size mismatch");
    // The stack form of P under the state bits that drive it, from
    // which Lemma A1.1 re-derives P's kinds; the rewrite starts from
    // @p tag's own state bits.
    TsdtPath p;
    p.n = path.length();
    p.dest = path.destination();
    p.state = tagForPath(path, p.n).stateBits();
    for (unsigned i = 0; i <= p.n; ++i)
        p.sw[i] = path.switchAt(i);
    BacktrackStats local;
    Label state = tag.stateBits();
    if (!backtrack(faults, p, block_stage, block_kind, state,
                   stats != nullptr ? *stats : local))
        return std::nullopt;
    return TsdtTag(tag.stages(), tag.destination(), state);
}

} // namespace iadm::core
