/**
 * @file
 * Fault-epoch route cache tests (the routing daemon's cache):
 * probe/fill/invalidation mechanics, FAIL-bit memoization, eviction
 * behaviour under adversarial load, and the clear-path scan that
 * keeps unrepaired pairs out of the table.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/oracle.hpp"
#include "core/reroute.hpp"
#include "core/tsdt.hpp"
#include "fault/fault_set.hpp"
#include "fault/fault_view.hpp"
#include "fault/injection.hpp"
#include "sim/route_cache.hpp"
#include "topology/iadm.hpp"

namespace iadm {
namespace {

using namespace sim;
using fault::FaultSet;
using topo::IadmTopology;

/** Every (src, dst) whose initial (all-state-C) path is blocked. */
std::vector<std::pair<Label, Label>>
blockedPairs(const IadmTopology &topo, const FaultSet &faults)
{
    std::vector<std::pair<Label, Label>> out;
    for (Label s = 0; s < topo.size(); ++s)
        for (Label d = 0; d < topo.size(); ++d)
            if (!core::initialPathClear(topo, faults, s, d))
                out.emplace_back(s, d);
    return out;
}

TEST(RouteCache, MissThenHitThenEpochInvalidation)
{
    const IadmTopology topo(16);
    FaultSet faults;
    // 2 -> 9's initial path takes minus(1, 3); Corollary 4.1 repairs
    // it, so the pair is stored.  (A clear pair never misses.)
    faults.blockLink(topo.minusLink(1, 3));
    ASSERT_FALSE(core::initialPathClear(topo, faults, 2, 9));
    RouteCache cache(16);

    const auto [e1, hit1] = cache.resolveUniversal(topo, faults, 2, 9);
    EXPECT_FALSE(hit1);
    ASSERT_TRUE(e1->ok());

    const auto [e2, hit2] = cache.resolveUniversal(topo, faults, 2, 9);
    EXPECT_TRUE(hit2);
    EXPECT_EQ(e1, e2);
    EXPECT_EQ(e1->tagFor(topo.stages()), e2->tagFor(topo.stages()));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);

    // Any fault mutation moves version(): every entry is stale at
    // once, with no table walk.
    faults.blockLink(topo.minusLink(2, 5));
    const auto [e3, hit3] = cache.resolveUniversal(topo, faults, 2, 9);
    EXPECT_FALSE(hit3);
    EXPECT_EQ(cache.stats().misses, 2u);

    // Unblocking is a mutation too — even though the fault set is
    // back to its earlier contents, the version keeps moving, so
    // correctness never depends on comparing blockage maps.
    faults.unblockLink(topo.minusLink(2, 5));
    const auto [e4, hit4] = cache.resolveUniversal(topo, faults, 2, 9);
    EXPECT_FALSE(hit4);
    EXPECT_EQ(e4->tagFor(topo.stages()),
              core::universalRoute(topo, faults, 2, 9).tag);
}

TEST(RouteCache, CachedEntriesMatchFreshRerouteEverywhere)
{
    const IadmTopology topo(16);
    FaultSet faults;
    faults.blockLink(topo.straightLink(1, 6));
    faults.blockLink(topo.plusLink(2, 11));
    faults.blockLink(topo.minusLink(0, 4));
    RouteCache cache(16);
    // The same resolution with fills over the bitset view (what the
    // simulator and the daemon run): FaultSet and FaultView
    // instantiations must store identical entries.
    fault::FaultView view(topo.stages(), topo.size());
    view.refresh(faults);
    RouteCache by_view(16);

    for (int round = 0; round < 2; ++round) {
        for (Label s = 0; s < 16; ++s) {
            for (Label d = 0; d < 16; ++d) {
                // A clear pair hits from the first round on.
                const bool clear =
                    core::initialPathClear(topo, faults, s, d);
                const auto [e, hit] =
                    cache.resolveUniversal(topo, faults, s, d);
                EXPECT_EQ(hit, round == 1 || clear);
                const auto [v, vhit] =
                    by_view.resolveUniversal(topo, faults, view, s, d);
                EXPECT_EQ(vhit, round == 1 || clear);
                EXPECT_EQ(v->ok(), e->ok()) << s << "->" << d;
                EXPECT_EQ(v->delta, e->delta) << s << "->" << d;
                EXPECT_EQ(v->reroutes, e->reroutes) << s << "->" << d;
                const auto cv =
                    core::universalRouteCompact(topo, view, s, d);
                const auto cs =
                    core::universalRouteCompact(topo, faults, s, d);
                EXPECT_EQ(cv.ok, cs.ok) << s << "->" << d;
                EXPECT_EQ(cv.tag, cs.tag) << s << "->" << d;
                EXPECT_EQ(cv.reroutes, cs.reroutes) << s << "->" << d;
                const auto fresh =
                    core::universalRoute(topo, faults, s, d);
                ASSERT_EQ(e->ok(), fresh.ok)
                    << s << "->" << d << " round " << round;
                if (!fresh.ok)
                    continue;
                EXPECT_EQ(e->tagFor(topo.stages()), fresh.tag);
                EXPECT_EQ(e->reroutes,
                          fresh.corollary41 +
                              fresh.backtrackStats.bitsChanged);
                // The entry stores no explicit path any more: the
                // 16-bit delta word must decode to the REROUTE path
                // in packet-embedded form.
                std::uint16_t sw[RouteCache::kMaxPathSw];
                core::decodeDelta(s, d, e->delta, topo.stages(), sw);
                for (unsigned i = 0; i <= topo.stages(); ++i)
                    EXPECT_EQ(sw[i], fresh.path.switchAt(i));
            }
        }
    }
}

/**
 * decode(encode(path)) == path for one (topo, faults) instance:
 * REROUTE's compact result must reconstruct the exact path of the
 * full result via decodeDelta, agree with the reachability oracle on
 * ok, and land on the destination (Theorem 3.1).
 */
void
expectDeltaRoundTrip(const IadmTopology &topo,
                     const FaultSet &faults, Label s, Label d)
{
    const auto compact =
        core::universalRouteCompact(topo, faults, s, d);
    const auto fresh = core::universalRoute(topo, faults, s, d);
    ASSERT_EQ(compact.ok, fresh.ok) << s << "->" << d;
    ASSERT_EQ(compact.ok, core::oracleReachable(topo, faults, s, d))
        << s << "->" << d;
    if (!compact.ok)
        return;
    EXPECT_EQ(compact.tag, fresh.tag) << s << "->" << d;
    std::uint16_t sw[RouteCache::kMaxPathSw];
    const unsigned len = core::decodeDelta(
        s, d, compact.tag.stateBits(), topo.stages(), sw);
    ASSERT_EQ(len, topo.stages() + 1);
    EXPECT_EQ(sw[0], s);
    EXPECT_EQ(sw[topo.stages()], d) << "Theorem 3.1 violated";
    for (unsigned i = 0; i <= topo.stages(); ++i)
        ASSERT_EQ(sw[i], fresh.path.switchAt(i))
            << s << "->" << d << " stage " << i;
    // And the decode agrees with the state model's own trace of the
    // same tag, not just with REROUTE's bookkeeping.
    const core::Path trace =
        core::tsdtTrace(s, compact.tag, topo.size());
    for (unsigned i = 0; i <= topo.stages(); ++i)
        ASSERT_EQ(sw[i], trace.switchAt(i))
            << s << "->" << d << " stage " << i;
}

TEST(RouteCache, DeltaRoundTripExhaustiveN64)
{
    // All 4096 pairs under escalating fault sets, fault-free
    // included: the compressed encoding must be exact everywhere the
    // oracle says a path exists, and must report FAIL exactly where
    // it says none does.
    const IadmTopology topo(64);
    Rng rng(20260808);
    const FaultSet fault_sets[] = {
        FaultSet{},
        fault::randomLinkFaults(topo, 8, rng),
        fault::randomLinkFaults(topo, 48, rng),
        fault::randomSwitchFaults(topo, 6, rng),
    };
    for (const FaultSet &faults : fault_sets)
        for (Label s = 0; s < 64; ++s)
            for (Label d = 0; d < 64; ++d)
                expectDeltaRoundTrip(topo, faults, s, d);
}

TEST(RouteCache, DeltaRoundTripRandomizedN1024)
{
    // The large-network rung: random pairs at N=1024 (10 stages, so
    // deltas use bits the exhaustive rung never touches) under
    // random fault sets of growing weight.
    const IadmTopology topo(1024);
    Rng rng(424242);
    for (const std::size_t weight : {0u, 32u, 256u, 1024u}) {
        const FaultSet faults =
            fault::randomLinkFaults(topo, weight, rng);
        for (int trial = 0; trial < 256; ++trial) {
            const auto s = static_cast<Label>(rng.uniform(1024));
            const auto d = static_cast<Label>(rng.uniform(1024));
            expectDeltaRoundTrip(topo, faults, s, d);
        }
    }
}

TEST(RouteCache, TruncatedVersionHighWordNeverAliases)
{
    // Entries store 32-bit truncated stamps.  Two full versions that
    // share a low word must never be confused: the table clears
    // itself when the high word moves.
    const IadmTopology topo(16);
    FaultSet faults;
    faults.blockLink(topo.straightLink(0, 3)); // 3 -> 11's first link
    ASSERT_FALSE(core::initialPathClear(topo, faults, 3, 11));
    RouteCache cache(16);
    const std::uint64_t low = 7;
    const auto [e1, hit1] = cache.acquire(topo, faults, 3, 11, low);
    EXPECT_FALSE(hit1);
    e1->flags |= RouteCache::Entry::kOk;

    const auto [e2, hit2] = cache.acquire(topo, faults, 3, 11, low);
    EXPECT_TRUE(hit2);

    // Same low word, different high word: a stale entry under
    // truncation-blind matching, so it must miss.
    const std::uint64_t aliased = (std::uint64_t{1} << 32) | low;
    const auto [e3, hit3] = cache.acquire(topo, faults, 3, 11, aliased);
    EXPECT_FALSE(hit3);
    e3->flags |= RouteCache::Entry::kOk;
    const auto [e4, hit4] = cache.acquire(topo, faults, 3, 11, aliased);
    EXPECT_TRUE(hit4);
}

TEST(RouteCache, FailOutcomesAreCachedToo)
{
    const IadmTopology topo(16);
    FaultSet faults;
    // Seal source 5 in: all three stage-0 output links blocked means
    // no destination is reachable (REROUTE reports FAIL for all).
    faults.blockLink(topo.straightLink(0, 5));
    faults.blockLink(topo.plusLink(0, 5));
    faults.blockLink(topo.minusLink(0, 5));
    RouteCache cache(16);

    const auto [e1, hit1] =
        cache.resolveUniversal(topo, faults, 5, 12);
    EXPECT_FALSE(hit1);
    EXPECT_FALSE(e1->ok());

    // The second unroutable packet replays the FAIL bit instead of
    // re-running the (worst-case) path search.
    const auto [e2, hit2] =
        cache.resolveUniversal(topo, faults, 5, 12);
    EXPECT_TRUE(hit2);
    EXPECT_FALSE(e2->ok());
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(RouteCache, TinyCapacityEvictsButNeverLies)
{
    // A one-slot table is the adversarial extreme: every blocked
    // pair collides, every insert after the first evicts.  Answers
    // must still be exactly the fresh REROUTE answers.
    const IadmTopology topo(16);
    FaultSet faults;
    faults.blockLink(topo.minusLink(1, 3));
    faults.blockLink(topo.straightLink(2, 6));
    const auto blocked = blockedPairs(topo, faults);
    ASSERT_GT(blocked.size(), 1u);
    RouteCache cache(16, 1);
    ASSERT_EQ(cache.capacity(), 1u);

    for (Label s = 0; s < 16; ++s) {
        for (Label d = 0; d < 16; ++d) {
            const auto [e, hit] =
                cache.resolveUniversal(topo, faults, s, d);
            EXPECT_EQ(hit, core::initialPathClear(topo, faults, s, d));
            const auto fresh =
                core::universalRoute(topo, faults, s, d);
            ASSERT_EQ(e->ok(), fresh.ok);
            if (fresh.ok) {
                EXPECT_EQ(e->tagFor(topo.stages()), fresh.tag);
            }
        }
    }
    EXPECT_EQ(cache.stats().hits, 256u - blocked.size());
    EXPECT_EQ(cache.stats().misses, blocked.size());
    // One miss per blocked pair into one slot: all but the very
    // first claim evicted a live entry.
    EXPECT_EQ(cache.stats().evictions, blocked.size() - 1);

    // A repeated blocked pair still hits while it survives.
    const auto [s_last, d_last] = blocked.back();
    const auto [e_last, hit_again] =
        cache.resolveUniversal(topo, faults, s_last, d_last);
    EXPECT_TRUE(hit_again);
    EXPECT_EQ(e_last->ok(),
              core::universalRoute(topo, faults, s_last, d_last).ok);
}

TEST(RouteCache, CapacityAboveBoundIsFatal)
{
    // `serve --cache-capacity` rejects these; API callers get the
    // same bound as a fatal error.  Unbounded, a capacity above 2^63
    // would wrap the power-of-two rounding to 0 and spin forever.
    for (const std::size_t cap :
         {RouteCache::kMaxCapacity + 1, ~std::size_t{0}}) {
        EXPECT_EXIT(RouteCache(64, cap), ::testing::ExitedWithCode(1),
                    "route cache capacity " + std::to_string(cap) +
                        " above " +
                        std::to_string(RouteCache::kMaxCapacity));
    }
}

TEST(RouteCache, HighLoadFactorKeepsRepeatsHitting)
{
    const IadmTopology topo(64);
    FaultSet faults;
    // Every stage-1 plus link: the quarter of the pairs whose
    // initial path takes one needs a Corollary 4.1 flip.
    for (Label j = 0; j < 64; ++j)
        faults.blockLink(topo.plusLink(1, j));
    const std::size_t blocked = blockedPairs(topo, faults).size();
    ASSERT_EQ(blocked, 1024u);
    // 1024 repairs into 256 slots: a 4x oversubscription.
    RouteCache cache(64, 256);

    for (Label s = 0; s < 64; ++s)
        for (Label d = 0; d < 64; ++d)
            (void)cache.resolveUniversal(topo, faults, s, d);
    const auto first_pass = cache.stats();
    EXPECT_EQ(first_pass.misses, blocked);
    EXPECT_GT(first_pass.evictions, 0u);

    // Re-resolving a pair immediately after its fill must hit: the
    // claim-priority rules never leave a key shadowed by a stale
    // duplicate in its own probe window.
    cache.resetStats();
    for (Label s = 0; s < 64; ++s) {
        for (Label d = 0; d < 64; ++d) {
            (void)cache.resolveUniversal(topo, faults, s, d);
            const auto [e, hit] =
                cache.resolveUniversal(topo, faults, s, d);
            EXPECT_TRUE(hit) << s << "->" << d;
            EXPECT_EQ(e->ok(),
                      core::universalRoute(topo, faults, s, d).ok);
        }
    }
}

TEST(RouteCache, ClearDropsEntriesAndKeepsStats)
{
    const IadmTopology topo(16);
    FaultSet faults;
    faults.blockLink(topo.minusLink(0, 1)); // 1 -> 2's first link
    ASSERT_FALSE(core::initialPathClear(topo, faults, 1, 2));
    RouteCache cache(16);
    (void)cache.resolveUniversal(topo, faults, 1, 2);
    (void)cache.resolveUniversal(topo, faults, 1, 2);
    EXPECT_EQ(cache.stats().hits, 1u);
    cache.clear();
    const auto [e_after, hit] =
        cache.resolveUniversal(topo, faults, 1, 2);
    EXPECT_FALSE(hit);
    EXPECT_TRUE(e_after->ok());
    EXPECT_EQ(cache.stats().hits, 1u); // preserved across clear()
}

/**
 * Resolve each of @p pairs (distinct) once through both resolver
 * overloads: every answer must equal REROUTE's, both overloads must
 * count it alike, clear pairs must claim no slot, and the table
 * must end up holding exactly the pairs whose initial path is
 * blocked.
 */
void
expectOnlyRepairsStored(const IadmTopology &topo, const FaultSet &faults,
                        const std::vector<std::pair<Label, Label>> &pairs)
{
    fault::FaultView view(topo.stages(), topo.size());
    view.refresh(faults);
    RouteCache by_set(topo.size());
    RouteCache by_view(topo.size());
    RouteCache clear_only(topo.size());
    std::size_t blocked = 0;
    for (const auto &[s, d] : pairs) {
        const bool clear = core::initialPathClear(topo, faults, s, d);
        ASSERT_EQ(core::initialPathClear(topo, view, s, d), clear)
            << s << "->" << d;
        blocked += !clear;
        const core::CompactRoute want =
            core::universalRouteCompact(topo, faults, s, d);
        // REROUTE's own trace agrees: clear iff it repaired nothing.
        EXPECT_EQ(want.ok && want.reroutes == 0, clear)
            << s << "->" << d;
        const auto [e, hit] = by_set.resolveUniversal(topo, faults, s, d);
        const auto [v, vhit] =
            by_view.resolveUniversal(topo, faults, view, s, d);
        EXPECT_EQ(hit, clear) << s << "->" << d;
        EXPECT_EQ(vhit, hit) << s << "->" << d;
        for (const RouteCache::Entry *got : {e, v}) {
            EXPECT_EQ(got->ok(), want.ok) << s << "->" << d;
            EXPECT_EQ(got->tagFor(topo.stages()), want.tag)
                << s << "->" << d;
            EXPECT_EQ(got->reroutes, want.reroutes) << s << "->" << d;
        }
        if (clear)
            (void)clear_only.resolveUniversal(topo, faults, view, s, d);
    }
    ASSERT_GT(blocked, 0u);
    ASSERT_LT(blocked, pairs.size());
    for (const RouteCache *c : {&by_set, &by_view}) {
        ASSERT_EQ(c->stats().evictions, 0u);
        EXPECT_EQ(c->occupied(), blocked);
        EXPECT_EQ(c->stats().misses, blocked);
        EXPECT_EQ(c->stats().hits, pairs.size() - blocked);
    }
    EXPECT_EQ(clear_only.occupied(), 0u);
    EXPECT_EQ(clear_only.stats().misses, 0u);
}

/** @p weight random link faults plus four random straight ones. */
FaultSet
faultsWithStraights(const IadmTopology &topo, std::size_t weight,
                    Rng &rng)
{
    FaultSet faults = fault::randomLinkFaults(topo, weight, rng);
    for (int k = 0; k < 4; ++k)
        faults.blockLink(topo.straightLink(
            static_cast<unsigned>(rng.uniform(topo.stages())),
            static_cast<Label>(rng.uniform(topo.size()))));
    return faults;
}

TEST(RouteCache, StoresOnlyRepairedPairs)
{
    Rng rng(20261017);
    {
        const IadmTopology topo(64);
        std::vector<std::pair<Label, Label>> all;
        for (Label s = 0; s < 64; ++s)
            for (Label d = 0; d < 64; ++d)
                all.emplace_back(s, d);
        for (const std::size_t weight : {8u, 48u}) {
            SCOPED_TRACE("N=64, " + std::to_string(weight) + " links");
            expectOnlyRepairsStored(
                topo, faultsWithStraights(topo, weight, rng), all);
        }
    }
    const IadmTopology topo(1024);
    for (const std::size_t weight : {96u, 512u}) {
        SCOPED_TRACE("N=1024, " + std::to_string(weight) + " links");
        const FaultSet faults = faultsWithStraights(topo, weight, rng);
        std::set<std::pair<Label, Label>> seen;
        std::vector<std::pair<Label, Label>> sample;
        while (sample.size() < 4096) {
            const auto s = static_cast<Label>(rng.uniform(1024));
            const auto d = static_cast<Label>(rng.uniform(1024));
            if (seen.emplace(s, d).second)
                sample.emplace_back(s, d);
        }
        expectOnlyRepairsStored(topo, faults, sample);
    }
}

} // namespace
} // namespace iadm
