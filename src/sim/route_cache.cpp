#include "sim/route_cache.hpp"

#include <algorithm>
#include <new>

#include "common/logging.hpp"

namespace iadm::sim {

namespace {

/** Smallest power of two >= max(v, 1). */
std::size_t
pow2At(std::size_t v)
{
    std::size_t s = 1;
    while (s < v)
        s <<= 1;
    return s;
}

} // namespace

RouteCache::RouteCache(Label n_size, std::size_t capacity)
{
    // The compressed entry packs (src << 16) | dst keys AND a
    // 16-bit state-bit delta word, so networks beyond 2^16 nodes
    // cannot use this cache at all — fail loudly instead of
    // aliasing keys or truncating deltas.
    IADM_ASSERT(n_size <= (Label{1} << 16),
                "RouteCache supports net_size <= 65536 (16-bit key "
                "halves and a 16-bit path-delta word); N=", n_size,
                " does not fit");
    if (capacity > kMaxCapacity)
        IADM_FATAL("route cache capacity ", capacity, " above ",
                   kMaxCapacity, " entries");
    if (capacity == 0)
        capacity = autoCapacity(n_size);
    const std::size_t slots = pow2At(capacity);
    table_.reset(
        static_cast<Entry *>(std::calloc(slots, sizeof(Entry))));
    if (!table_)
        throw std::bad_alloc();
    mask_ = slots - 1;
}

std::size_t
RouteCache::autoCapacity(Label n_size)
{
    const std::size_t pairs =
        static_cast<std::size_t>(n_size) * n_size;
    return std::min<std::size_t>(pairs * 2, std::size_t{1} << 16);
}

void
RouteCache::clear()
{
    for (std::size_t i = 0; i < capacity(); ++i)
        table_[i].flags = 0;
}

std::size_t
RouteCache::occupied() const
{
    std::size_t live = 0;
    for (std::size_t i = 0; i < capacity(); ++i)
        live += table_[i].occupied();
    return live;
}

std::pair<RouteCache::Entry *, bool>
RouteCache::acquire(const topo::IadmTopology &topo,
                    const fault::FaultSet &faults, Label src,
                    Label dst, std::uint64_t version)
{
    return probe(core::initialPathClear(topo, faults, src, dst), src,
                 dst, version);
}

std::pair<RouteCache::Entry *, bool>
RouteCache::acquire(const topo::IadmTopology &topo,
                    const fault::FaultView &faults, Label src,
                    Label dst, std::uint64_t version)
{
    return probe(core::initialPathClear(topo, faults, src, dst), src,
                 dst, version);
}

std::pair<RouteCache::Entry *, bool>
RouteCache::probe(bool path_clear, Label src, Label dst,
                  std::uint64_t version)
{
    if (path_clear) {
        // REROUTE would return the initial tag untouched (delta 0,
        // no reroutes): answer with it and leave the table to the
        // pairs that need a repair.
        ++stats_.hits;
        clear_ = {keyOf(src, dst), static_cast<std::uint32_t>(version),
                  0, 0, Entry::kOk};
        return {&clear_, true};
    }

    // Entries hold 32-bit truncated stamps.  The full 64-bit stream
    // is monotone per owner, so the high word moves at most once per
    // 2^32 mutations; clearing the table there makes truncated
    // equality equivalent to full equality for everything that
    // remains.
    const auto high = static_cast<std::uint32_t>(version >> 32);
    if (high != versionHigh_) {
        clear();
        versionHigh_ = high;
    }
    const auto v32 = static_cast<std::uint32_t>(version);

    const std::uint32_t key = keyOf(src, dst);
    const std::size_t base = slotOf(src, dst);

    // One pass over the probe window: a current-version key match
    // is a hit; otherwise remember the best slot to claim — the
    // key's own (stale) slot if present, else the first vacant or
    // stale slot.  Claims never leave holes (occupied slots stay
    // occupied), so stopping the scan at a vacant slot is safe.
    Entry *claim = nullptr;
    bool evicting = false;
    for (unsigned i = 0; i < kMaxProbe; ++i) {
        Entry &e = table_[(base + i) & mask_];
        if (!e.occupied()) {
            if (claim == nullptr)
                claim = &e;
            break;
        }
        if (e.key == key) {
            if (e.version == v32) {
                ++stats_.hits;
                return {&e, true};
            }
            // The pair's previous-epoch entry: always reuse it so a
            // key never occupies two slots of the window.
            claim = &e;
            continue;
        }
        if (claim == nullptr && e.version != v32)
            claim = &e; // stale foreign entry: free to overwrite
    }
    if (claim == nullptr) {
        // Window full of live current-epoch entries: evict the
        // first-probed slot (deterministic, direct-mapped flavor).
        claim = &table_[base];
        evicting = true;
    }
    ++stats_.misses;
    if (evicting)
        ++stats_.evictions;
    claim->key = key;
    claim->version = v32;
    claim->flags = Entry::kOccupied;
    return {claim, false};
}

namespace {

/** Write REROUTE's outcome @p cr into a claimed entry. */
void
store(RouteCache::Entry &e, const core::CompactRoute &cr)
{
    // The state bits ARE the compressed path; the destination bits
    // are recoverable from the key (Theorem 3.1), so nothing else
    // of the route needs storing.
    e.delta = static_cast<std::uint16_t>(cr.tag.stateBits());
    IADM_ASSERT(cr.reroutes <= 0xffffu,
                "reroute count ", cr.reroutes,
                " overflows the compressed entry (bound is ~4n^2)");
    e.reroutes = static_cast<std::uint16_t>(cr.reroutes);
    if (cr.ok)
        e.flags |= RouteCache::Entry::kOk;
}

/**
 * Probe with the clear scan over @p scan, fill a miss with the
 * kernel over the same fault structure, and audit the answer
 * against @p faults (a hit's replay and a view fill alike).
 */
template <class Faults>
std::pair<const RouteCache::Entry *, bool>
resolveWith(RouteCache &cache, const topo::IadmTopology &topo,
            const fault::FaultSet &faults, const Faults &scan,
            Label src, Label dst)
{
    const auto [e, hit] =
        cache.acquire(topo, scan, src, dst, faults.version());
    if (!hit)
        store(*e, core::universalRouteCompact(topo, scan, src, dst));
    core::auditRoute({e->ok(), e->tagFor(topo.stages()), e->reroutes},
                     topo, faults, src, dst);
    return {e, hit};
}

} // namespace

std::pair<const RouteCache::Entry *, bool>
RouteCache::resolveUniversal(const topo::IadmTopology &topo,
                             const fault::FaultSet &faults, Label src,
                             Label dst)
{
    return resolveWith(*this, topo, faults, faults, src, dst);
}

std::pair<const RouteCache::Entry *, bool>
RouteCache::resolveUniversal(const topo::IadmTopology &topo,
                             const fault::FaultSet &faults,
                             const fault::FaultView &view, Label src,
                             Label dst)
{
    return resolveWith(*this, topo, faults, view, src, dst);
}

} // namespace iadm::sim
