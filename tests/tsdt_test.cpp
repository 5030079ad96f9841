/**
 * @file
 * TSDT scheme tests: the 2n-bit tag semantics, Lemma A1.1/A1.2,
 * Corollaries 4.1 and 4.2, and the paper's worked Figure 7 examples.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/oracle.hpp"
#include "core/tsdt.hpp"
#include "topology/iadm.hpp"

namespace iadm {
namespace {

using core::initialTag;
using core::Path;
using core::rerouteBacktrack;
using core::rerouteNonstraight;
using core::tagForPath;
using core::TsdtTag;
using core::tsdtLinkKind;
using core::tsdtTrace;
using topo::IadmTopology;
using topo::LinkKind;

TEST(TsdtTag, EncodeDecodeRoundTrip)
{
    for (unsigned n = 1; n <= 8; ++n) {
        Rng rng(n);
        for (int trial = 0; trial < 50; ++trial) {
            const auto dest =
                static_cast<Label>(rng.uniform(Label{1} << n));
            const auto state =
                static_cast<Label>(rng.uniform(Label{1} << n));
            const TsdtTag tag(n, dest, state);
            EXPECT_EQ(TsdtTag::decode(n, tag.encoded()), tag);
        }
    }
}

TEST(TsdtTag, BitAccessors)
{
    TsdtTag tag(3, 0b101, 0b010);
    EXPECT_EQ(tag.destBit(0), 1u);
    EXPECT_EQ(tag.destBit(1), 0u);
    EXPECT_EQ(tag.destBit(2), 1u);
    EXPECT_EQ(tag.stateBit(0), 0u);
    EXPECT_EQ(tag.stateBit(1), 1u);
    EXPECT_EQ(tag.stateAt(1), core::SwitchState::Cbar);
    tag.flipStateBit(0);
    EXPECT_EQ(tag.stateBit(0), 1u);
    tag.setStateBit(0, 0);
    EXPECT_EQ(tag.stateBit(0), 0u);
}

TEST(TsdtTag, PaperSwitchingTable)
{
    // Paper, Section 4: for an even_i switch b_i b_{n+i} = 00,01 ->
    // straight, 10 -> +2^i, 11 -> -2^i; for an odd_i switch 10,11 ->
    // straight, 01 -> +2^i, 00 -> -2^i.  Indexed [j_i][b_i][b_{n+i}].
    constexpr LinkKind kTable[2][2][2] = {
        {{LinkKind::Straight, LinkKind::Straight},
         {LinkKind::Plus, LinkKind::Minus}},
        {{LinkKind::Minus, LinkKind::Plus},
         {LinkKind::Straight, LinkKind::Straight}},
    };

    // Every stage and switch (both parities) of N = 1024, with the
    // tag's other bits random: only b_i, b_{n+i} and j_i may matter,
    // and tsdtLinkKind and tsdtKindOf must both read the table.
    const unsigned n = 10;
    const Label n_size = Label{1} << n;
    Rng rng(58);
    for (unsigned i = 0; i < n; ++i) {
        for (Label j = 0; j < n_size; ++j) {
            for (unsigned bi = 0; bi < 2; ++bi) {
                for (unsigned bni = 0; bni < 2; ++bni) {
                    const auto dest = static_cast<Label>(
                        withBit(rng.uniform(n_size), i, bi));
                    const auto state = static_cast<Label>(
                        withBit(rng.uniform(n_size), i, bni));
                    const LinkKind want = kTable[bit(j, i)][bi][bni];
                    ASSERT_EQ(tsdtLinkKind(j, i, TsdtTag(n, dest, state)),
                              want)
                        << "stage " << i << " switch " << j
                        << " b_i=" << bi << " b_n+i=" << bni;
                    ASSERT_EQ(core::tsdtKindOf(j, i, dest, state), want)
                        << "stage " << i << " switch " << j
                        << " b_i=" << bi << " b_n+i=" << bni;
                }
            }
        }
    }
}

class TsdtP : public ::testing::TestWithParam<Label>
{
};

TEST_P(TsdtP, AnyTagReachesItsDestinationBits)
{
    // Theorem 3.1 in TSDT form: arbitrary state bits never change
    // the destination.
    const Label n_size = GetParam();
    const unsigned n = log2Floor(n_size);
    Rng rng(7 * n_size + 1);
    for (int trial = 0; trial < 200; ++trial) {
        const auto s = static_cast<Label>(rng.uniform(n_size));
        const auto d = static_cast<Label>(rng.uniform(n_size));
        const auto st = static_cast<Label>(rng.uniform(n_size));
        const TsdtTag tag(n, d, st);
        const Path p = tsdtTrace(s, tag, n_size);
        EXPECT_EQ(p.destination(), d);
        IadmTopology topo(n_size);
        p.validate(topo);
    }
}

TEST_P(TsdtP, TagForPathRoundTrip)
{
    // Lemma A1.1: reconstructing a tag from a traced path and
    // retracing yields the same path.
    const Label n_size = GetParam();
    const unsigned n = log2Floor(n_size);
    Rng rng(13 * n_size + 5);
    for (int trial = 0; trial < 200; ++trial) {
        const auto s = static_cast<Label>(rng.uniform(n_size));
        const auto d = static_cast<Label>(rng.uniform(n_size));
        const auto st = static_cast<Label>(rng.uniform(n_size));
        const Path p = tsdtTrace(s, TsdtTag(n, d, st), n_size);
        const TsdtTag rebuilt = tagForPath(p, n);
        EXPECT_EQ(tsdtTrace(s, rebuilt, n_size), p);
    }
}

TEST_P(TsdtP, EveryOraclePathIsTsdtRealizable)
{
    // Every routing path of the network corresponds to some tag
    // (the "given a path ... there is at least one network state"
    // remark under Theorem 3.1).
    const Label n_size = GetParam();
    if (n_size > 16)
        GTEST_SKIP() << "path enumeration too large";
    const unsigned n = log2Floor(n_size);
    IadmTopology topo(n_size);
    for (Label s = 0; s < n_size; ++s) {
        for (Label d = 0; d < n_size; ++d) {
            for (const Path &p : core::oracleAllPaths(topo, s, d)) {
                const TsdtTag tag = tagForPath(p, n);
                EXPECT_EQ(tsdtTrace(s, tag, n_size), p);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TsdtP,
                         ::testing::Values(4, 8, 16, 64, 256));

TEST(Corollary41, FlipsToOppositeNonstraightLink)
{
    // A nonstraight hop at stage i is replaced by the oppositely
    // signed hop of the same switch; the path below stage i is
    // unchanged and the destination is preserved.
    const Label n_size = 16;
    const unsigned n = 4;
    Rng rng(21);
    for (int trial = 0; trial < 500; ++trial) {
        const auto s = static_cast<Label>(rng.uniform(n_size));
        const auto d = static_cast<Label>(rng.uniform(n_size));
        const auto st = static_cast<Label>(rng.uniform(n_size));
        const TsdtTag tag(n, d, st);
        const Path p = tsdtTrace(s, tag, n_size);
        for (unsigned i = 0; i < n; ++i) {
            if (p.kindAt(i) == LinkKind::Straight)
                continue;
            const TsdtTag re = rerouteNonstraight(tag, i);
            const Path q = tsdtTrace(s, re, n_size);
            EXPECT_EQ(q.destination(), d);
            for (unsigned k = 0; k <= i; ++k)
                EXPECT_EQ(q.switchAt(k), p.switchAt(k));
            EXPECT_NE(q.kindAt(i), p.kindAt(i));
            EXPECT_NE(q.kindAt(i), LinkKind::Straight);
        }
    }
}

TEST(Corollary41, StraightHopUnchangedByFlip)
{
    // Theorem 3.2 "only if": flipping the state bit of a straight
    // hop leaves the hop (not necessarily the whole path) alone.
    const Label n_size = 16;
    const unsigned n = 4;
    Rng rng(22);
    for (int trial = 0; trial < 200; ++trial) {
        const auto s = static_cast<Label>(rng.uniform(n_size));
        const auto d = static_cast<Label>(rng.uniform(n_size));
        const TsdtTag tag(n, d,
                          static_cast<Label>(rng.uniform(n_size)));
        const Path p = tsdtTrace(s, tag, n_size);
        for (unsigned i = 0; i < n; ++i) {
            if (p.kindAt(i) != LinkKind::Straight)
                continue;
            const Path q =
                tsdtTrace(s, rerouteNonstraight(tag, i), n_size);
            EXPECT_EQ(q.switchAt(i + 1), p.switchAt(i + 1));
            EXPECT_EQ(q.kindAt(i), LinkKind::Straight);
        }
    }
}

TEST(Corollary42, ReroutesAroundStraightStages)
{
    // For each path with a nonstraight link at stage r followed by
    // straight links, rerouting from a blockage at stage i > r must
    // produce a path that differs at stages r..i-1 and still reaches
    // the destination.
    const Label n_size = 32;
    const unsigned n = 5;
    Rng rng(31);
    for (int trial = 0; trial < 500; ++trial) {
        const auto s = static_cast<Label>(rng.uniform(n_size));
        const auto d = static_cast<Label>(rng.uniform(n_size));
        const TsdtTag tag(n, d,
                          static_cast<Label>(rng.uniform(n_size)));
        const Path p = tsdtTrace(s, tag, n_size);
        for (unsigned i = 1; i < n; ++i) {
            const int r = p.lastNonstraightBefore(i);
            const auto re = rerouteBacktrack(tag, p, i);
            if (r < 0) {
                EXPECT_FALSE(re.has_value());
                continue;
            }
            ASSERT_TRUE(re.has_value());
            const Path q = tsdtTrace(s, *re, n_size);
            EXPECT_EQ(q.destination(), d);
            // Unchanged strictly below stage r.
            for (int k = 0; k <= r; ++k)
                EXPECT_EQ(q.switchAt(k), p.switchAt(k));
            // The rerouting path leaves the original at stage r and
            // avoids the original switch at stage i (where the
            // blockage was).
            EXPECT_NE(q.switchAt(r + 1), p.switchAt(r + 1));
            EXPECT_NE(q.switchAt(i), p.switchAt(i));
        }
    }
}

TEST(Figure7, OriginalTagPath)
{
    // Figure 7 example: s=1, d=0, N=8; tag b_{0/5} = 000000
    // specifies (1 in S0, 0 in S1, 0 in S2, 0 in S3).
    const Label n_size = 8;
    const TsdtTag tag = TsdtTag::decode(3, 0b000000);
    const Path p = tsdtTrace(1, tag, n_size);
    EXPECT_EQ(p.switchAt(0), 1u);
    EXPECT_EQ(p.switchAt(1), 0u);
    EXPECT_EQ(p.switchAt(2), 0u);
    EXPECT_EQ(p.switchAt(3), 0u);
}

TEST(Figure7, RerouteNonstraightAtStage0)
{
    // If (1 in S0, 0 in S1) is blocked, complementing b_3 gives
    // 000100 and the path (1, 2, 0, 0).
    const TsdtTag tag = TsdtTag::decode(3, 0b000000);
    const TsdtTag re = rerouteNonstraight(tag, 0);
    EXPECT_EQ(re.encoded(), 0b001000u); // b_3 set (LSB-first: 000100)
    const Path p = tsdtTrace(1, re, 8);
    EXPECT_EQ(p.switchAt(1), 2u);
    EXPECT_EQ(p.switchAt(2), 0u);
    EXPECT_EQ(p.switchAt(3), 0u);
}

TEST(Figure7, SecondRerouteAtStage1)
{
    // If (2 in S1, 0 in S2) is also blocked, complementing b_4 gives
    // 000110 and the path (1, 2, 4, 0).
    TsdtTag re = TsdtTag::decode(3, 0b001000);
    re = rerouteNonstraight(re, 1);
    EXPECT_EQ(re.str(), "000110");
    const Path p = tsdtTrace(1, re, 8);
    EXPECT_EQ(p.switchAt(1), 2u);
    EXPECT_EQ(p.switchAt(2), 4u);
    EXPECT_EQ(p.switchAt(3), 0u);
}

TEST(Figure7, StraightBlockageBacktrack)
{
    // Section 4 example (a): tag 000000, straight link
    // (0 in S1, 0 in S2) blocked; 000110 (and 000100) are valid
    // rerouting tags.
    const Label n_size = 8;
    const TsdtTag tag = TsdtTag::decode(3, 0b000000);
    const Path p = tsdtTrace(1, tag, n_size);
    const auto re = rerouteBacktrack(tag, p, 1);
    ASSERT_TRUE(re.has_value());
    const Path q = tsdtTrace(1, *re, n_size);
    // The paper's rerouting path: (1, 2, 0 or 4, 0).
    EXPECT_EQ(q.switchAt(0), 1u);
    EXPECT_EQ(q.switchAt(1), 2u);
    EXPECT_EQ(q.switchAt(3), 0u);
    // State bit b_3 must have been complemented to d0-bar = 1.
    EXPECT_EQ(re->stateBit(0), 1u);
}

TEST(Figure7, DoubleNonstraightBacktrack)
{
    // Section 4 example (b): tag 000110 specifies (1,2,4,0); if both
    // nonstraight outputs of 4 in S2 are blocked, 000100 (and
    // 000101) reroute via (1,2,0,0).
    const Label n_size = 8;
    const TsdtTag tag = TsdtTag::decode(3, 0b011000);
    const Path p = tsdtTrace(1, tag, n_size);
    ASSERT_EQ(p.switchAt(2), 4u);
    const auto re = rerouteBacktrack(tag, p, 2);
    ASSERT_TRUE(re.has_value());
    const Path q = tsdtTrace(1, *re, n_size);
    EXPECT_EQ(q.switchAt(1), 2u);
    EXPECT_EQ(q.switchAt(2), 0u);
    EXPECT_EQ(q.switchAt(3), 0u);
}

TEST(TsdtTagDeathTest, RejectsOutOfRangeFields)
{
    EXPECT_DEATH(TsdtTag(3, 8, 0), "destination out of range");
    EXPECT_DEATH(TsdtTag(3, 0, 8), "state bits out of range");
    TsdtTag ok(3, 1, 1);
    EXPECT_DEATH((void)ok.stateBit(3), "stage out of range");
    EXPECT_DEATH(ok.setStateBit(5, 1), "stage out of range");
}

TEST(TsdtTagDeathTest, TraceRejectsSizeMismatch)
{
    const TsdtTag tag(3, 0, 0);
    EXPECT_DEATH((void)tsdtTrace(0, tag, 16),
                 "tag/network size mismatch");
}

TEST(TsdtTag, StrIsLsbFirst)
{
    // d = 0, state bits b_3 b_4 b_5 = 1 1 0 -> "000110".
    const TsdtTag tag(3, 0, 0b011);
    EXPECT_EQ(tag.str(), "000110");
}

} // namespace
} // namespace iadm
