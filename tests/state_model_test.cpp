/**
 * @file
 * Tests of the Section 2 state model: the delta functions, Lemma
 * 2.1, Theorem 3.1 (destination tags valid in any network state) and
 * Theorem 3.2 (state changes matter iff a nonstraight link is used).
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/state_model.hpp"
#include "topology/iadm.hpp"

namespace iadm {
namespace {

using core::NetworkState;
using core::SwitchState;

TEST(StateModel, DeltaCMatchesPaperTable)
{
    // Paper, Section 2 (N = 8, so offsets are +-2^i).
    // even_i switch, t=0 -> 0; odd_i, t=1 -> 0;
    // odd_i, t=0 -> -2^i; even_i, t=1 -> +2^i.
    for (unsigned i = 0; i < 3; ++i) {
        for (Label j = 0; j < 8; ++j) {
            const bool odd = bit(j, i) == 1;
            EXPECT_EQ(core::deltaC(j, odd ? 1 : 0, i), 0);
            EXPECT_EQ(core::deltaC(j, odd ? 0 : 1, i),
                      odd ? -(1 << i) : (1 << i));
        }
    }
}

TEST(StateModel, DeltaCbarIsNegatedDeltaC)
{
    for (unsigned i = 0; i < 5; ++i)
        for (Label j = 0; j < 32; ++j)
            for (unsigned t = 0; t < 2; ++t)
                EXPECT_EQ(core::deltaCbar(j, t, i),
                          -core::deltaC(j, t, i));
}

TEST(StateModel, Lemma21_CSetsBitIWithoutCarry)
{
    // Lemma 2.1: C_i(j,t) = j_{0/i-1} t j_{i+1/n-1}.
    const Label n_size = 64;
    for (unsigned i = 0; i < 6; ++i) {
        for (Label j = 0; j < n_size; ++j) {
            for (unsigned t = 0; t < 2; ++t) {
                const Label c = core::applyC(j, t, i, n_size);
                EXPECT_EQ(c, static_cast<Label>(withBit(j, i, t)));
            }
        }
    }
}

TEST(StateModel, Lemma21_CbarSetsBitIKeepsLowBits)
{
    // Cbar_i(j,t) = j_{0/i-1} t q_{i+1/n-1} for some q: bit i equals
    // t and bits below i are untouched; higher bits may change.
    const Label n_size = 64;
    for (unsigned i = 0; i < 6; ++i) {
        for (Label j = 0; j < n_size; ++j) {
            for (unsigned t = 0; t < 2; ++t) {
                const Label c = core::applyCbar(j, t, i, n_size);
                EXPECT_EQ(bit(c, i), t);
                EXPECT_EQ(c & lowMask(i), j & lowMask(i));
            }
        }
    }
}

TEST(StateModel, CAndCbarAgreeExactlyOnStraight)
{
    // Theorem 3.2's kernel: deltaC == 0 iff deltaCbar == 0, and
    // otherwise the two deltas are the two opposite nonstraight
    // offsets.
    for (unsigned i = 0; i < 5; ++i) {
        for (Label j = 0; j < 32; ++j) {
            for (unsigned t = 0; t < 2; ++t) {
                const auto dc = core::deltaC(j, t, i);
                const auto db = core::deltaCbar(j, t, i);
                if (dc == 0)
                    EXPECT_EQ(db, 0);
                else
                    EXPECT_EQ(db, -dc);
            }
        }
    }
}

TEST(StateModel, LastStageCEqualsCbarModN)
{
    // +2^{n-1} == -2^{n-1} mod N: the state of a stage n-1 switch is
    // irrelevant (Section 6).
    const Label n_size = 32;
    const unsigned last = 4;
    for (Label j = 0; j < n_size; ++j)
        for (unsigned t = 0; t < 2; ++t)
            EXPECT_EQ(core::applyC(j, t, last, n_size),
                      core::applyCbar(j, t, last, n_size));
}

TEST(StateModel, LinkKindForMatchesDelta)
{
    // linkKindFor's branch-free formula against the sign of the
    // state model's offset, at every stage and switch of N = 2..1024.
    for (unsigned n = 1; n <= 10; ++n) {
        const Label n_size = Label{1} << n;
        for (unsigned i = 0; i < n; ++i) {
            for (Label j = 0; j < n_size; ++j) {
                for (unsigned t = 0; t < 2; ++t) {
                    for (auto st :
                         {SwitchState::C, SwitchState::Cbar}) {
                        const auto d = core::deltaFor(j, t, i, st);
                        const auto want =
                            d == 0 ? topo::LinkKind::Straight
                            : d > 0 ? topo::LinkKind::Plus
                                    : topo::LinkKind::Minus;
                        ASSERT_EQ(core::linkKindFor(j, t, i, st), want)
                            << "N=" << n_size << " stage " << i
                            << " switch " << j << " t=" << t
                            << " state " << static_cast<int>(st);
                    }
                }
            }
        }
    }
}

class Theorem31P : public ::testing::TestWithParam<Label>
{
};

TEST_P(Theorem31P, DestinationTagValidInAnyState)
{
    // Theorem 3.1: with tag t = d, the message reaches d regardless
    // of the network state.  Randomize states heavily.
    const Label n_size = GetParam();
    Rng rng(0xabcdef + n_size);
    NetworkState state(n_size);
    for (int trial = 0; trial < 60; ++trial) {
        for (unsigned i = 0; i < state.stages(); ++i)
            for (Label j = 0; j < n_size; ++j)
                state.set(i, j,
                          rng.chance(0.5) ? SwitchState::C
                                          : SwitchState::Cbar);
        for (Label s = 0; s < n_size; ++s) {
            const Label d = static_cast<Label>(rng.uniform(n_size));
            const auto sw = state.trace(s, d);
            EXPECT_EQ(sw.back(), d);
        }
    }
}

TEST_P(Theorem31P, TagUniqueness)
{
    // Theorem 3.1 also proves uniqueness: any tag f routes to f, so
    // no tag other than d can reach d.
    const Label n_size = GetParam();
    Rng rng(99 + n_size);
    NetworkState state(n_size);
    for (unsigned i = 0; i < state.stages(); ++i)
        for (Label j = 0; j < n_size; ++j)
            state.set(i, j,
                      rng.chance(0.5) ? SwitchState::C
                                      : SwitchState::Cbar);
    for (Label s = 0; s < n_size; ++s)
        for (Label f = 0; f < n_size; ++f)
            EXPECT_EQ(state.trace(s, f).back(), f);
}

TEST_P(Theorem31P, AllCStateEmulatesICube)
{
    // With every switch in state C the IADM behaves as an ICube:
    // the stage-i switch on the path is d_{0/i-1} s_{i/n-1}.
    const Label n_size = GetParam();
    const unsigned n = log2Floor(n_size);
    NetworkState state(n_size, SwitchState::C);
    for (Label s = 0; s < n_size; ++s) {
        for (Label d = 0; d < n_size; ++d) {
            const auto sw = state.trace(s, d);
            for (unsigned i = 0; i <= n; ++i) {
                const Label expect = static_cast<Label>(
                    (d & lowMask(i)) | (s & ~lowMask(i) & (n_size - 1)));
                EXPECT_EQ(sw[i], expect);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, Theorem31P,
                         ::testing::Values(2, 4, 8, 16, 64, 256));

TEST(Theorem32, StateChangeMattersIffNonstraight)
{
    // Flip one switch's state: the path changes iff that switch used
    // a nonstraight link, and then the opposite nonstraight link is
    // used instead.
    const Label n_size = 16;
    Rng rng(123);
    for (int trial = 0; trial < 500; ++trial) {
        NetworkState state(n_size);
        for (unsigned i = 0; i < state.stages(); ++i)
            for (Label j = 0; j < n_size; ++j)
                state.set(i, j,
                          rng.chance(0.5) ? SwitchState::C
                                          : SwitchState::Cbar);
        const Label s = static_cast<Label>(rng.uniform(n_size));
        const Label d = static_cast<Label>(rng.uniform(n_size));
        const auto before = state.trace(s, d);

        const unsigned i =
            static_cast<unsigned>(rng.uniform(state.stages()));
        const Label j = before[i]; // a switch ON the path
        const auto delta_before = core::deltaFor(
            j, bit(d, i), i, state.get(i, j));
        state.flip(i, j);
        const auto after = state.trace(s, d);

        if (delta_before == 0) {
            EXPECT_EQ(before, after);
        } else {
            EXPECT_EQ(after[i + 1],
                      modAdd(j, -delta_before, n_size));
            // Prefixes agree.
            for (unsigned k = 0; k <= i; ++k)
                EXPECT_EQ(before[k], after[k]);
        }
    }
}

TEST(NetworkState, FillAndStr)
{
    NetworkState st(4);
    EXPECT_EQ(st.get(0, 0), SwitchState::C);
    st.fill(SwitchState::Cbar);
    EXPECT_EQ(st.get(1, 3), SwitchState::Cbar);
    EXPECT_NE(st.str().find("S0:"), std::string::npos);
}

} // namespace
} // namespace iadm
