/**
 * @file
 * Algorithm REROUTE tests — the paper's central claim (Section 5):
 * for ANY combination of multiple link blockages, REROUTE finds a
 * blockage-free path when one exists and reports FAIL when none
 * does.  Verified exhaustively against the BFS oracle over every
 * subset of participating links for small networks, and over
 * randomized multi-blockage sets for larger ones.
 */

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/oracle.hpp"
#include "core/pivot.hpp"
#include "core/reroute.hpp"
#include "fault/fault_view.hpp"
#include "fault/injection.hpp"
#include "common/rng.hpp"

namespace iadm {
namespace {

using core::CompactRoute;
using core::oracleReachable;
using core::RerouteResult;
using core::universalRoute;
using fault::FaultSet;
using topo::IadmTopology;

/** How REROUTE settled one pair. */
enum class Outcome
{
    ClearPath,   //!< the initial path was blockage-free
    Corollary41, //!< repaired by state-bit flips only
    Backtrack,   //!< repaired with BACKTRACK
    Fail,        //!< no blockage-free path exists
};

/**
 * Check REROUTE against the oracle for one (s, d, faults) instance,
 * and its FaultView instantiation against its FaultSet one.
 */
Outcome
checkAgainstOracle(const IadmTopology &topo, const FaultSet &faults,
                   Label s, Label d)
{
    const bool reachable = oracleReachable(topo, faults, s, d);
    const RerouteResult res = universalRoute(topo, faults, s, d);
    EXPECT_EQ(res.ok, reachable)
        << "s=" << s << " d=" << d << " N=" << topo.size()
        << " faults=" << faults.str()
        << (reachable ? " (path exists but REROUTE failed)"
                      : " (REROUTE claimed a path where none exists)");
    if (res.ok) {
        res.path.validate(topo);
        EXPECT_EQ(res.path.source(), s);
        EXPECT_EQ(res.path.destination(), d);
        EXPECT_TRUE(res.path.isBlockageFree(faults))
            << "s=" << s << " d=" << d
            << " path=" << res.path.str()
            << " faults=" << faults.str();
    }

    // The bitset instantiation must settle every pair exactly as the
    // FaultSet one does: ok bit, tag (the compressed path) and the
    // reroute count the simulator charges.
    fault::FaultView view(topo.stages(), topo.size());
    view.refresh(faults);
    const CompactRoute by_set =
        core::universalRouteCompact(topo, faults, s, d);
    const CompactRoute by_view =
        core::universalRouteCompact(topo, view, s, d);
    EXPECT_EQ(by_view.ok, by_set.ok) << "s=" << s << " d=" << d;
    EXPECT_EQ(by_view.tag, by_set.tag) << "s=" << s << " d=" << d;
    EXPECT_EQ(by_view.reroutes, by_set.reroutes)
        << "s=" << s << " d=" << d;
    EXPECT_EQ(by_set.ok, res.ok);
    EXPECT_EQ(by_set.tag, res.tag);

    if (!res.ok)
        return Outcome::Fail;
    if (res.backtracks != 0)
        return Outcome::Backtrack;
    return res.corollary41 != 0 ? Outcome::Corollary41
                                : Outcome::ClearPath;
}

TEST(Reroute, NoFaultsReturnsCanonicalPath)
{
    IadmTopology topo(16);
    FaultSet none;
    for (Label s = 0; s < 16; ++s) {
        for (Label d = 0; d < 16; ++d) {
            const auto res = universalRoute(topo, none, s, d);
            ASSERT_TRUE(res.ok);
            EXPECT_EQ(res.iterations, 1u);
            EXPECT_EQ(res.tag.stateBits(), 0u);
        }
    }
}

class RerouteExhaustiveP
    : public ::testing::TestWithParam<Label>
{
};

TEST_P(RerouteExhaustiveP, EverySubsetOfParticipatingLinks)
{
    // Exhaustive: for every pair, block every subset of the pair's
    // participating links (links off every routing path are
    // irrelevant by definition) and compare with the oracle.
    const Label n_size = GetParam();
    IadmTopology topo(n_size);
    for (Label s = 0; s < n_size; ++s) {
        for (Label d = 0; d < n_size; ++d) {
            const auto part = core::participatingLinks(topo, s, d);
            ASSERT_LE(part.size(), 20u);
            const std::uint64_t subsets = std::uint64_t{1}
                                          << part.size();
            for (std::uint64_t mask = 0; mask < subsets; ++mask) {
                FaultSet fs;
                for (std::size_t b = 0; b < part.size(); ++b)
                    if ((mask >> b) & 1u)
                        fs.blockLink(part[b]);
                checkAgainstOracle(topo, fs, s, d);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RerouteExhaustiveP,
                         ::testing::Values(2, 4, 8));

TEST(Reroute, NonParticipatingBlockagesAreIgnored)
{
    // Blocking links off every routing path must not disturb
    // REROUTE.
    IadmTopology topo(16);
    Rng rng(3);
    for (int trial = 0; trial < 200; ++trial) {
        const auto s = static_cast<Label>(rng.uniform(16));
        const auto d = static_cast<Label>(rng.uniform(16));
        std::set<std::uint64_t> part;
        for (const topo::Link &l :
             core::participatingLinks(topo, s, d))
            part.insert(l.key());
        FaultSet fs;
        auto all = topo.allLinks();
        for (int k = 0; k < 30; ++k) {
            const auto &l = all[rng.uniform(all.size())];
            if (!part.count(l.key()))
                fs.blockLink(l);
        }
        const auto res = universalRoute(topo, fs, s, d);
        ASSERT_TRUE(res.ok);
        EXPECT_TRUE(res.path.isBlockageFree(fs));
    }
}

class RerouteRandomP
    : public ::testing::TestWithParam<std::pair<Label, std::size_t>>
{
};

TEST_P(RerouteRandomP, MatchesOracleUnderRandomBlockages)
{
    const auto [n_size, fault_count] = GetParam();
    IadmTopology topo(n_size);
    Rng rng(1000 + n_size * 7 + fault_count);
    std::array<unsigned, 4> seen{};
    for (int trial = 0; trial < 300; ++trial) {
        const auto fs =
            fault::randomLinkFaults(topo, fault_count, rng);
        for (int pair = 0; pair < 8; ++pair) {
            const auto s = static_cast<Label>(rng.uniform(n_size));
            const auto d = static_cast<Label>(rng.uniform(n_size));
            ++seen[static_cast<std::size_t>(
                checkAgainstOracle(topo, fs, s, d))];
        }
    }
    // Every branch of REROUTE ran: the comparisons above covered the
    // clear path, Corollary 4.1, BACKTRACK and FAIL.
    EXPECT_GT(seen[0], 0u) << "no clear-path pair";
    EXPECT_GT(seen[1], 0u) << "no Corollary 4.1 repair";
    EXPECT_GT(seen[2], 0u) << "no BACKTRACK repair";
    EXPECT_GT(seen[3], 0u) << "no FAIL";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RerouteRandomP,
    ::testing::Values(std::pair<Label, std::size_t>{8, 3},
                      std::pair<Label, std::size_t>{8, 8},
                      std::pair<Label, std::size_t>{16, 6},
                      std::pair<Label, std::size_t>{16, 20},
                      std::pair<Label, std::size_t>{32, 12},
                      std::pair<Label, std::size_t>{32, 48},
                      std::pair<Label, std::size_t>{64, 40},
                      std::pair<Label, std::size_t>{128, 100},
                      // The churn benchmark's peak density: N=1024,
                      // 96 static links plus a 16-link burst (over
                      // 200k sampled pairs, 96.4% clear,
                      // 1.7% repaired by Corollary 4.1 alone, 1.5%
                      // with BACKTRACK, 0.4% FAIL).
                      std::pair<Label, std::size_t>{1024, 112},
                      // Dense: FAIL is common.
                      std::pair<Label, std::size_t>{64, 400}));

/**
 * The repair REROUTE makes from switch @p j of stage @p stage when
 * every blockage ahead on @p tag's path is a single nonstraight one:
 * Corollary 4.1 flips alone, stage by stage.  nullopt when some
 * blockage ahead is straight or double-nonstraight, which REROUTE
 * hands to BACKTRACK.
 */
std::optional<core::TsdtTag>
flipsAlone(const IadmTopology &topo, const FaultSet &faults,
           unsigned stage, Label j, core::TsdtTag tag)
{
    for (unsigned i = stage; i < topo.stages(); ++i) {
        const topo::LinkKind kind = core::tsdtLinkKind(j, i, tag);
        if (faults.isBlocked(i, j, kind)) {
            if (kind == topo::LinkKind::Straight ||
                faults.isBlocked(i, j, topo::oppositeKind(kind)))
                return std::nullopt;
            tag.flipStateBit(i);
        }
        j = core::tsdtNext(j, i, tag, topo.size());
    }
    return tag;
}

class RerouteFromSwitchP
    : public ::testing::TestWithParam<std::pair<Label, std::size_t>>
{
};

TEST_P(RerouteFromSwitchP, MatchesOracleFromMidPath)
{
    // The simulator's in-flight repair: a packet at switch j of
    // stage `stage` on its tag's path finds the tag's own link there
    // blocked.  REROUTE started at (stage, j) must succeed exactly
    // when the oracle finds a continuation from there, in both
    // instantiations, keep the bits the packet has already spent,
    // and return a blockage-free continuation to the destination.
    const auto [n_size, fault_count] = GetParam();
    const IadmTopology topo(n_size);
    const unsigned n = topo.stages();
    fault::FaultView view(n, n_size);
    Rng rng(2000 + n_size * 7 + fault_count);
    std::array<unsigned, 4> seen{};
    for (int trial = 0; trial < 200; ++trial) {
        const FaultSet fs =
            fault::randomLinkFaults(topo, fault_count, rng);
        view.refresh(fs);
        for (int sample = 0; sample < 8; ++sample) {
            const auto s = static_cast<Label>(rng.uniform(n_size));
            const auto d = static_cast<Label>(rng.uniform(n_size));
            const core::TsdtTag tag(
                n, d, static_cast<Label>(rng.uniform(n_size)));
            // The stages where the tag's own link is blocked, with
            // the tag's switch there; start at a random one.
            std::vector<std::pair<unsigned, Label>> blocked;
            Label j = s;
            for (unsigned i = 0; i < n; ++i) {
                if (fs.isBlocked(i, j, core::tsdtLinkKind(j, i, tag)))
                    blocked.emplace_back(i, j);
                j = core::tsdtNext(j, i, tag, n_size);
            }
            if (blocked.empty())
                continue;
            const auto [stage, at] =
                blocked[rng.uniform(blocked.size())];

            const auto by_set =
                core::rerouteFromSwitch(topo, fs, stage, at, tag);
            const auto by_view =
                core::rerouteFromSwitch(topo, view, stage, at, tag);
            const bool reachable =
                oracleReachable(topo, fs, at, d, stage);
            ASSERT_EQ(by_set.has_value(), reachable)
                << "N=" << n_size << " stage=" << stage
                << " switch=" << at << " tag=" << tag.str()
                << " faults=" << fs.str();
            ASSERT_EQ(by_view.has_value(), by_set.has_value());
            if (!by_set) {
                ++seen[static_cast<std::size_t>(Outcome::Fail)];
                continue;
            }
            EXPECT_EQ(*by_view, *by_set);
            EXPECT_EQ(by_set->destination(), d);
            EXPECT_EQ((by_set->stateBits() ^ tag.stateBits()) &
                          lowMask(stage),
                      0u)
                << "a state bit the packet spent was rewritten";
            Label k = at;
            for (unsigned i = stage; i < n; ++i) {
                EXPECT_FALSE(fs.isBlocked(
                    i, k, core::tsdtLinkKind(k, i, *by_set)))
                    << "continuation blocked at stage " << i;
                k = core::tsdtNext(k, i, *by_set, n_size);
            }
            EXPECT_EQ(k, d);
            // REROUTE repairs single nonstraight blockages with
            // Corollary 4.1 alone, in stage order.
            const auto flips = flipsAlone(topo, fs, stage, at, tag);
            if (flips) {
                EXPECT_EQ(*by_set, *flips);
            }
            ++seen[static_cast<std::size_t>(
                flips ? Outcome::Corollary41 : Outcome::Backtrack)];
        }
    }
    EXPECT_GT(seen[1], 0u) << "no Corollary 4.1 repair";
    EXPECT_GT(seen[2], 0u) << "no BACKTRACK repair";
    EXPECT_GT(seen[3], 0u) << "no FAIL";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RerouteFromSwitchP,
    ::testing::Values(std::pair<Label, std::size_t>{8, 28},
                      std::pair<Label, std::size_t>{16, 30},
                      std::pair<Label, std::size_t>{64, 150},
                      std::pair<Label, std::size_t>{256, 800},
                      std::pair<Label, std::size_t>{1024, 3000}));

TEST(Reroute, SwitchBlockages)
{
    // Switch blockages transform into link blockages; REROUTE must
    // agree with the oracle on them too.
    IadmTopology topo(16);
    Rng rng(77);
    for (int trial = 0; trial < 200; ++trial) {
        const auto fs = fault::randomSwitchFaults(
            topo, 1 + rng.uniform(4), rng);
        for (int pair = 0; pair < 8; ++pair) {
            const auto s = static_cast<Label>(rng.uniform(16));
            const auto d = static_cast<Label>(rng.uniform(16));
            checkAgainstOracle(topo, fs, s, d);
        }
    }
}

TEST(Reroute, DoubleNonstraightHeavy)
{
    // Stress the Theorem 3.4 / step-4b machinery specifically.
    IadmTopology topo(32);
    Rng rng(78);
    for (int trial = 0; trial < 200; ++trial) {
        const auto fs = fault::randomDoubleNonstraightFaults(
            topo, 1 + rng.uniform(8), rng);
        for (int pair = 0; pair < 8; ++pair) {
            const auto s = static_cast<Label>(rng.uniform(32));
            const auto d = static_cast<Label>(rng.uniform(32));
            checkAgainstOracle(topo, fs, s, d);
        }
    }
}

TEST(Reroute, BernoulliBlockageSweep)
{
    // Mixed random blockage densities from sparse to dense.
    IadmTopology topo(16);
    Rng rng(79);
    for (double p : {0.02, 0.08, 0.2, 0.5}) {
        for (int trial = 0; trial < 60; ++trial) {
            const auto fs = fault::bernoulliLinkFaults(topo, p, rng);
            for (int pair = 0; pair < 6; ++pair) {
                const auto s =
                    static_cast<Label>(rng.uniform(16));
                const auto d =
                    static_cast<Label>(rng.uniform(16));
                checkAgainstOracle(topo, fs, s, d);
            }
        }
    }
}

TEST(Reroute, ReportsCorollary41AndBacktrackUsage)
{
    IadmTopology topo(16);
    // A single nonstraight blockage on the canonical path: exactly
    // one Corollary 4.1 application, no backtracking.
    FaultSet fs;
    fs.blockLink(topo.minusLink(0, 1)); // canonical 1 -> 0 hop
    auto res = universalRoute(topo, fs, 1, 0);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.corollary41, 1u);
    EXPECT_EQ(res.backtracks, 0u);

    // A straight blockage forces BACKTRACK.
    fs.clear();
    fs.blockLink(topo.straightLink(2, 0));
    res = universalRoute(topo, fs, 1, 0);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.backtracks, 1u);
}

TEST(Reroute, ProgressIsMonotone)
{
    // The outer loop runs at most ~n+1 times (each iteration clears
    // a strictly higher stage).
    IadmTopology topo(64);
    Rng rng(80);
    for (int trial = 0; trial < 300; ++trial) {
        const auto fs = fault::randomLinkFaults(
            topo, 5 + rng.uniform(40), rng);
        const auto s = static_cast<Label>(rng.uniform(64));
        const auto d = static_cast<Label>(rng.uniform(64));
        const auto res = universalRoute(topo, fs, s, d);
        EXPECT_LE(res.iterations, topo.stages() + 1);
    }
}

TEST(Reroute, ExplainNarratesRepairsAndAgreesWithReroute)
{
    IadmTopology topo(16);
    fault::FaultSet fs;
    fs.blockLink(topo.minusLink(0, 1));   // Cor 4.1 case
    fs.blockLink(topo.straightLink(2, 0)); // BACKTRACK case
    const auto text = core::explainReroute(topo, fs, 1, 0);
    EXPECT_NE(text.find("corollary 4.1"), std::string::npos);
    EXPECT_NE(text.find("BACKTRACK"), std::string::npos);
    EXPECT_NE(text.find("blockage-free"), std::string::npos);

    // FAIL narration.
    fault::FaultSet cut;
    cut.blockLink(topo.straightLink(1, 5));
    const auto fail_text = core::explainReroute(topo, cut, 5, 5);
    EXPECT_NE(fail_text.find("FAIL"), std::string::npos);

    // Narration on random instances never diverges (the function
    // asserts agreement internally).
    Rng rng(88);
    for (int trial = 0; trial < 100; ++trial) {
        const auto faults =
            fault::randomLinkFaults(topo, rng.uniform(20), rng);
        const auto s = static_cast<Label>(rng.uniform(16));
        const auto d = static_cast<Label>(rng.uniform(16));
        EXPECT_FALSE(
            core::explainReroute(topo, faults, s, d).empty());
    }
}

TEST(Reroute, AdversarialCutsAlwaysFail)
{
    // cutPair disconnects the pair by construction; REROUTE must
    // report FAIL even with extra noise faults layered on top.
    IadmTopology topo(32);
    Rng rng(81);
    for (int trial = 0; trial < 150; ++trial) {
        const auto s = static_cast<Label>(rng.uniform(32));
        const auto d = static_cast<Label>(rng.uniform(32));
        auto fs = core::cutPair(topo, s, d);
        fs.merge(fault::randomLinkFaults(topo, rng.uniform(10), rng));
        EXPECT_FALSE(universalRoute(topo, fs, s, d).ok);
        EXPECT_FALSE(oracleReachable(topo, fs, s, d));
    }
}

TEST(Reroute, SourceEqualsDestination)
{
    IadmTopology topo(8);
    FaultSet fs;
    EXPECT_TRUE(universalRoute(topo, fs, 3, 3).ok);
    fs.blockLink(topo.straightLink(1, 3));
    const auto res = universalRoute(topo, fs, 3, 3);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(oracleReachable(topo, fs, 3, 3));
}

} // namespace
} // namespace iadm
