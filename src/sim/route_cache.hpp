/**
 * @file
 * Fault-epoch route cache: memoized REROUTE repairs keyed by
 * (source, destination) and stamped with the fault set's mutation
 * version.  The routing daemon (serve::ServerCore) resolves its
 * route requests through it; the simulator keeps no table and runs
 * the same clear scan and kernel per attempt (docs/SIMULATOR.md).
 *
 * Algorithm REROUTE is a pure function of (topology, fault set,
 * src, dst), and the daemon's fault set changes only when a client
 * injects or clears a fault.  Most pairs need no search at all:
 * REROUTE's step 1 proves a pair's initial tag (every switch in
 * state C) blockage-free with n bit tests, and by Theorem 3.1 that
 * tag delivers.  So every probe runs that scan first
 * (core::initialPathClear), and a clear pair takes the initial tag
 * without touching the table.  Only pairs whose initial path is
 * blocked are looked up, and only their repairs are stored:
 * Corollary 4.1 flips, BACKTRACK results and FAIL verdicts, the one
 * part of a resolution that cannot be recomputed cheaply.
 *
 * A resolution that runs no REROUTE fill is a hit, whether its
 * path was clear or a stored repair was replayed; a fill is a miss.
 * Hits plus misses therefore count resolutions.  The simulator's
 * route_cache_hits/misses counters keep the same meaning without a
 * table: a clear initial path, or a kernel run.
 *
 * An entry stores everything a replay needs in 16 bytes: the key,
 * the epoch stamp, the per-packet reroute count, a FAIL bit so
 * unreachable pairs are not re-searched every cycle — and the
 * route itself as a *compressed path delta* rather than an explicit
 * per-stage switch list.  The final tag's destination bits are the
 * key's own dst (Theorem 3.1: REROUTE never changes them), and its
 * n state bits pin down the full path under Lemma A1.1, so the
 * 16-bit delta word IS the path; core::decodeDelta() expands it
 * back into Packet::pathSw in ~n integer ops on a hit.  This is the
 * Hari/Niesen/Wilfong observation (PAPERS.md) that forwarding state
 * compresses far below an explicit path, specialized to the IADM
 * state model where it is exact and lossless (docs/SIMULATOR.md).
 *
 * Invalidation is O(1) for the whole table: entries carry the
 * FaultSet::version() they were computed under, and a lookup under
 * any other version is a miss (the slot is then reusable).  Stamps
 * are stored truncated to 32 bits; the table tracks the last-seen
 * high word and clears itself whenever it moves (at most once per
 * 2^32 mutations), so truncated equality always implies full
 * equality.  The table is open-addressing with linear probing over
 * a bounded probe window of four cache lines; when the window is
 * full of live entries the first-probed slot is evicted — a wrong
 * answer is impossible, an evicted pair is merely recomputed.
 *
 * Under IADM_SANITIZE builds every resolveUniversal() answer, hit
 * (clear paths included) or fill, is cross-checked against REROUTE
 * re-run over the FaultSet (core::auditRoute).
 */

#ifndef IADM_SIM_ROUTE_CACHE_HPP
#define IADM_SIM_ROUTE_CACHE_HPP

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <utility>

#include "core/reroute.hpp"
#include "sim/packet.hpp"

namespace iadm::sim {

/** Memoized per-(src, dst) routing outcomes for one fault epoch. */
class RouteCache
{
  public:
    /**
     * Decode-buffer slots a cached path expands into (mirrors
     * Packet::pathSw).
     */
    static constexpr unsigned kMaxPathSw =
        Packet::kMaxTracedStages + 1;

    /** Slots inspected per probe before evicting (4 cache lines). */
    static constexpr unsigned kMaxProbe = 16;

    /**
     * One cached route, compressed to a quarter cache line: the
     * explicit pathSw[] of the 64-byte layout is replaced by the
     * 16-bit state-bit delta that decodeDelta() expands on demand.
     */
    struct Entry
    {
        std::uint32_t key = 0;      //!< (src << 16) | dst
        std::uint32_t version = 0;  //!< truncated FaultSet::version()
        std::uint16_t delta = 0;    //!< final-tag state bits (path)
        std::uint16_t reroutes = 0; //!< Packet::reroutes to charge
        std::uint8_t flags = 0;     //!< kOccupied | kOk

        static constexpr std::uint8_t kOccupied = 1;
        static constexpr std::uint8_t kOk = 2; //!< FAIL bit inverse

        bool occupied() const { return flags & kOccupied; }
        bool ok() const { return flags & kOk; }

        /** Pack (src, dst) into the stored key form. */
        static std::uint32_t
        packKey(Label src, Label dst)
        {
            return (src << 16) | dst;
        }

        Label dstLabel() const { return key & 0xffffu; }
        Label srcLabel() const { return key >> 16; }

        /**
         * Reconstruct the entry's final TsdtTag.  Valid because
         * REROUTE never changes the destination bits (Theorem 3.1),
         * so the key's dst stands in for them.
         */
        core::TsdtTag
        tagFor(unsigned n_stages) const
        {
            return {n_stages, dstLabel(), delta};
        }
    };
    static_assert(sizeof(Entry) <= 16,
                  "RouteCache::Entry must stay within a quarter "
                  "cache line — the compressed-path memory-wall fix "
                  "rests on it");
    // The compressed layout leans on the 16-bit packing twice over:
    // labels must fit the key halves, and n <= 16 state bits must
    // fit the delta word.  Both reduce to net_size <= 65536, which
    // the constructor enforces at runtime with a clear error.
    static_assert(sizeof(Label) * 8 >= 32,
                  "Entry::key packs two 16-bit labels into a Label-"
                  "sized word");
    static_assert(Packet::kMaxTracedStages >= 16,
                  "a 16-bit delta word encodes up to n = 16 stages; "
                  "the packet path buffer must hold that decode");

    /** Cumulative counters (not reset by the owner's warmup). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0; //!< live entries overwritten
    };

    /** Empty cache: capacity() == 0, must not be probed. */
    RouteCache() = default;

    /**
     * Largest explicit capacity: 2^24 entries, a 256 MiB table.  A
     * bound keeps the power-of-two rounding from wrapping to 0 (a
     * hang) for capacities above 2^63.
     */
    static constexpr std::size_t kMaxCapacity = std::size_t{1} << 24;

    /**
     * @param n_size   network size (keys pack two 16-bit labels, so
     *                 n_size must be <= 65536)
     * @param capacity table entries, at most kMaxCapacity (fatal
     *                 otherwise); 0 picks autoCapacity(n_size).
     *                 Rounded up to a power of two.
     */
    explicit RouteCache(Label n_size, std::size_t capacity = 0);

    /**
     * Default sizing: two slots per (src, dst) pair, capped at 2^16
     * entries.  The table holds only repairs, a few percent of the
     * pairs, so 1 MiB of 16-byte entries stays within L2 at every N.
     */
    static std::size_t autoCapacity(Label n_size);

    /**
     * Probe (src, dst) under fault version @p version.  REROUTE's
     * step 1 runs first (core::initialPathClear over @p faults): a
     * clear pair is a hit answered by the initial tag, and no slot
     * is touched — the entry returned is a scratch copy.  Otherwise
     * the pair is looked up and a slot claimed on miss.  Returns
     * (entry, hit): on a hit the entry is valid and must not be
     * written; on a miss it has key/version set and is otherwise
     * blank, and the caller must fill delta / reroutes and the kOk
     * flag before the next acquire.  Either entry may be overwritten
     * by the next acquire.  Stats are updated.
     */
    std::pair<Entry *, bool> acquire(const topo::IadmTopology &topo,
                                     const fault::FaultSet &faults,
                                     Label src, Label dst,
                                     std::uint64_t version);

    /** The same probe with the clear scan over a FaultView. */
    std::pair<Entry *, bool> acquire(const topo::IadmTopology &topo,
                                     const fault::FaultView &faults,
                                     Label src, Label dst,
                                     std::uint64_t version);

    /**
     * Resolution through universalRouteCompact(): probe (clear scan
     * first), fill on miss, and (under IADM_SANITIZE builds)
     * cross-check the answer (core::auditRoute).  Returns (entry,
     * hit); the entry is always filled (check ok()) and valid until
     * the next probe.
     */
    std::pair<const Entry *, bool>
    resolveUniversal(const topo::IadmTopology &topo,
                     const fault::FaultSet &faults, Label src,
                     Label dst);

    /**
     * resolveUniversal() that fills misses over @p view, a bitset
     * FaultView refreshed from @p faults (the daemon's resolution).
     * Entries are stamped with @p faults' version and audited
     * against it under IADM_SANITIZE, so the answers are those of
     * the FaultSet overload.
     */
    std::pair<const Entry *, bool>
    resolveUniversal(const topo::IadmTopology &topo,
                     const fault::FaultSet &faults,
                     const fault::FaultView &view, Label src,
                     Label dst);

    std::size_t capacity() const { return table_ ? mask_ + 1 : 0; }

    /** Live entries (O(capacity) scan — a cold path). */
    std::size_t occupied() const;

    const Stats &stats() const { return stats_; }
    void resetStats() { stats_ = Stats{}; }

    /** Drop every entry (and keep the stats). */
    void clear();

  private:
    struct Free
    {
        void operator()(Entry *p) const { std::free(p); }
    };
    /**
     * calloc'd, so pages stay untouched until a repair lands in
     * them (Entry is an aggregate, and all-zero bytes are a vacant
     * slot).
     */
    std::unique_ptr<Entry[], Free> table_;
    std::size_t mask_ = 0;
    Stats stats_;
    Entry clear_; //!< the last clear pair's answer (acquire())
    /**
     * High word of the last version acquire() saw.  Entries store
     * 32-bit truncated stamps; whenever the high word moves the
     * whole table is cleared, so two equal truncated stamps can
     * never belong to different full versions.
     */
    std::uint32_t versionHigh_ = 0;

    static std::uint32_t
    keyOf(Label src, Label dst)
    {
        return Entry::packKey(src, dst);
    }

    /** acquire() after the clear scan: the table probe itself. */
    std::pair<Entry *, bool> probe(bool path_clear, Label src, Label dst,
                                   std::uint64_t version);

    /** First probe slot of (src, dst): a splitmix64-mixed key. */
    std::size_t
    slotOf(Label src, Label dst) const
    {
        std::uint64_t z = keyOf(src, dst) + 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return (z ^ (z >> 31)) & mask_;
    }
};

} // namespace iadm::sim

#endif // IADM_SIM_ROUTE_CACHE_HPP
