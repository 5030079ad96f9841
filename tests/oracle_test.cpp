/**
 * @file
 * Oracle tests: BFS reachability/path search and exhaustive path
 * enumeration, cross-checked against the Parker-Raghavendra
 * representation count and the paper's Figure 7.
 */

#include <gtest/gtest.h>

#include <set>

#include "baselines/redundant_number.hpp"
#include "common/modmath.hpp"
#include "core/oracle.hpp"
#include "fault/injection.hpp"
#include "topology/iadm.hpp"

namespace iadm {
namespace {

using core::oracleAllPaths;
using core::oracleCountPaths;
using core::oracleFindPath;
using core::oracleReachable;
using topo::IadmTopology;

TEST(Oracle, FaultFreeAlwaysReachable)
{
    IadmTopology topo(16);
    fault::FaultSet none;
    for (Label s = 0; s < 16; ++s)
        for (Label d = 0; d < 16; ++d)
            EXPECT_TRUE(oracleReachable(topo, none, s, d));
}

TEST(Oracle, FoundPathIsValidAndClear)
{
    IadmTopology topo(16);
    Rng rng(8);
    for (int trial = 0; trial < 200; ++trial) {
        const auto faults = fault::randomLinkFaults(topo, 12, rng);
        const auto s = static_cast<Label>(rng.uniform(16));
        const auto d = static_cast<Label>(rng.uniform(16));
        const auto p = oracleFindPath(topo, faults, s, d);
        if (p) {
            p->validate(topo);
            EXPECT_EQ(p->source(), s);
            EXPECT_EQ(p->destination(), d);
            EXPECT_TRUE(p->isBlockageFree(faults));
        }
    }
}

TEST(Oracle, StartStageSearchesOnlyTheContinuation)
{
    // Every switch on a clear path can still reach the destination
    // from its own stage, and the continuation found from there is
    // a valid path whose links from that stage on are clear.  Below
    // the start stage the result holds the start switch on straight
    // links, which the search never looks at: blocking one of them
    // changes nothing.
    IadmTopology topo(16);
    Rng rng(9);
    for (int trial = 0; trial < 200; ++trial) {
        auto faults = fault::randomLinkFaults(topo, 12, rng);
        const auto s = static_cast<Label>(rng.uniform(16));
        const auto d = static_cast<Label>(rng.uniform(16));
        const auto full = oracleFindPath(topo, faults, s, d);
        if (!full)
            continue;
        for (unsigned stage = 1; stage <= topo.stages(); ++stage) {
            const Label j = full->switchAt(stage);
            faults.blockLink(topo.straightLink(stage - 1, j));
            const auto p = oracleFindPath(topo, faults, j, d, stage);
            faults.unblockLink(topo.straightLink(stage - 1, j));
            ASSERT_TRUE(p) << "stage " << stage << " switch " << j;
            p->validate(topo);
            EXPECT_EQ(p->switchAt(stage), j);
            EXPECT_EQ(p->destination(), d);
            for (unsigned i = 0; i < stage; ++i)
                EXPECT_EQ(p->kindAt(i), topo::LinkKind::Straight);
            for (unsigned i = stage; i < topo.stages(); ++i)
                EXPECT_FALSE(faults.isBlocked(p->linkAt(i)));
        }
    }
}

TEST(Oracle, Figure7HasFourPaths)
{
    // Figure 7: all routing paths from 1 to 0 in an N=8 IADM
    // network; the distance D = 7 has four signed-digit
    // representations: -1, (+1,-2), (+1,+2,+4), (+1,+2,-4).
    IadmTopology topo(8);
    const auto paths = oracleAllPaths(topo, 1, 0);
    EXPECT_EQ(paths.size(), 4u);
    std::set<std::vector<Label>> visited;
    for (const core::Path &p : paths) {
        std::vector<Label> sw;
        for (unsigned i = 0; i <= 3; ++i)
            sw.push_back(p.switchAt(i));
        visited.insert(sw);
    }
    EXPECT_TRUE(visited.count({1, 0, 0, 0}));
    EXPECT_TRUE(visited.count({1, 2, 0, 0}));
    EXPECT_TRUE(visited.count({1, 2, 4, 0}));
    // The fourth path uses the other physical +-4 link (1,2,4,0
    // again with the Plus link); switch sequences repeat.
    EXPECT_EQ(visited.size(), 3u);
}

TEST(Oracle, CountMatchesEnumeration)
{
    IadmTopology topo(16);
    for (Label s = 0; s < 16; ++s) {
        for (Label d = 0; d < 16; ++d) {
            EXPECT_EQ(oracleCountPaths(topo, s, d),
                      oracleAllPaths(topo, s, d).size());
        }
    }
}

TEST(Oracle, CountMatchesRedundantRepresentations)
{
    // Paths correspond 1:1 to signed-digit representations [13].
    for (Label n_size : {4u, 8u, 16u, 32u}) {
        IadmTopology topo(n_size);
        const unsigned n = topo.stages();
        for (Label s = 0; s < n_size; ++s) {
            for (Label d = 0; d < n_size; ++d) {
                const Label dist = distance(s, d, n_size);
                EXPECT_EQ(oracleCountPaths(topo, s, d),
                          baselines::countRepresentations(n, dist))
                    << "s=" << s << " d=" << d << " N=" << n_size;
            }
        }
    }
}

TEST(Oracle, IdentityPairHasOnePath)
{
    IadmTopology topo(32);
    for (Label s = 0; s < 32; ++s)
        EXPECT_EQ(oracleCountPaths(topo, s, s), 1u);
}

TEST(Oracle, AllPathsAreDistinctAndValid)
{
    IadmTopology topo(16);
    for (Label s : {0u, 3u, 7u, 12u}) {
        for (Label d = 0; d < 16; ++d) {
            const auto paths = oracleAllPaths(topo, s, d);
            std::set<std::uint64_t> keys;
            for (const core::Path &p : paths) {
                p.validate(topo);
                EXPECT_EQ(p.source(), s);
                EXPECT_EQ(p.destination(), d);
                // Identity = the multiset of link keys.
                std::uint64_t h = 1469598103934665603ull;
                for (const topo::Link &l : p.links()) {
                    h ^= l.key();
                    h *= 1099511628211ull;
                }
                EXPECT_TRUE(keys.insert(h).second)
                    << "duplicate path " << p.str();
            }
        }
    }
}

TEST(Oracle, StraightPrefixBlockageKillsReachability)
{
    // s == d: the unique path is all-straight; block any straight
    // link on it and the pair is disconnected.
    IadmTopology topo(16);
    for (unsigned i = 0; i < topo.stages(); ++i) {
        fault::FaultSet fs;
        fs.blockLink(topo.straightLink(i, 5));
        EXPECT_FALSE(oracleReachable(topo, fs, 5, 5));
        EXPECT_TRUE(oracleReachable(topo, fs, 5, 6));
    }
}

TEST(Oracle, LastStageParallelLinksAreRedundant)
{
    // Block one of the two +-2^{n-1} links: still reachable via the
    // other.
    IadmTopology topo(8);
    fault::FaultSet fs;
    fs.blockLink(topo.plusLink(2, 1));
    // 1 -> 5 requires distance 4 = +-2^2 at stage 2.
    EXPECT_TRUE(oracleReachable(topo, fs, 1, 5));
    fs.blockLink(topo.minusLink(2, 1));
    EXPECT_FALSE(oracleReachable(topo, fs, 1, 5));
}

TEST(Oracle, AlternatingBitDistanceMaximizesPathCount)
{
    // Path multiplicity equals the number of signed-digit
    // representations of D; the alternating pattern 0b010101 (= 21
    // for N = 64) maximizes it, not the all-ones distance.
    IadmTopology topo(64);
    std::uint64_t best = 0;
    Label best_d = 0;
    for (Label d = 0; d < 64; ++d) {
        const auto c = oracleCountPaths(topo, 0, d);
        if (c > best) {
            best = c;
            best_d = d;
        }
    }
    EXPECT_EQ(best_d, 21u);
    EXPECT_GT(best, oracleCountPaths(topo, 0, 63));
    // D and -D (mod N) are sign-symmetric: identical multiplicity.
    EXPECT_EQ(oracleCountPaths(topo, 0, 63),
              oracleCountPaths(topo, 0, 1));
    // A unit distance has n+1 representations: +1 at stage k after
    // k wrap-around -1 digits, 0 <= k <= n.
    EXPECT_EQ(oracleCountPaths(topo, 0, 1), 7u);
}

} // namespace
} // namespace iadm
