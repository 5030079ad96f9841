#include "core/oracle.hpp"

#include <algorithm>
#include <queue>

#include "common/logging.hpp"

namespace iadm::core {

namespace {

/** Flat node id for (stage, switch). */
std::size_t
nodeId(const topo::IadmTopology &topo, unsigned stage, Label j)
{
    return static_cast<std::size_t>(stage) * topo.size() + j;
}

} // namespace

bool
oracleReachable(const topo::IadmTopology &topo,
                const fault::FaultSet &faults, Label src, Label dest,
                unsigned stage)
{
    return oracleFindPath(topo, faults, src, dest, stage).has_value();
}

std::optional<Path>
oracleFindPath(const topo::IadmTopology &topo,
               const fault::FaultSet &faults, Label src, Label dest,
               unsigned first)
{
    const unsigned n = topo.stages();
    const Label n_size = topo.size();
    IADM_ASSERT(src < n_size && dest < n_size, "bad address");
    IADM_ASSERT(first <= n, "start stage past the output column");

    const std::size_t nodes =
        static_cast<std::size_t>(n + 1) * n_size;
    // parent[v] = link taken into v; parentValid marks visited.
    std::vector<topo::Link> parent(nodes);
    std::vector<bool> visited(nodes, false);

    std::queue<std::pair<unsigned, Label>> q;
    visited[nodeId(topo, first, src)] = true;
    q.push({first, src});
    while (!q.empty()) {
        auto [stage, j] = q.front();
        q.pop();
        if (stage == n)
            continue;
        for (const topo::Link &l : topo.outLinks(stage, j)) {
            if (faults.isBlocked(l))
                continue;
            const std::size_t v = nodeId(topo, stage + 1, l.to);
            if (visited[v])
                continue;
            visited[v] = true;
            parent[v] = l;
            q.push({stage + 1, l.to});
        }
    }

    if (!visited[nodeId(topo, n, dest)])
        return std::nullopt;

    std::vector<Label> sw(n + 1, src);
    std::vector<topo::LinkKind> kinds(n, topo::LinkKind::Straight);
    sw[n] = dest;
    for (unsigned stage = n; stage > first; --stage) {
        const topo::Link &l = parent[nodeId(topo, stage, sw[stage])];
        kinds[stage - 1] = l.kind;
        sw[stage - 1] = l.from;
    }
    IADM_ASSERT(sw[first] == src, "BFS parent chain broken");
    return Path(std::move(sw), std::move(kinds));
}

std::vector<Path>
oracleAllPaths(const topo::IadmTopology &topo, Label src, Label dest)
{
    const unsigned n = topo.stages();
    std::vector<Path> out;
    std::vector<Label> sw{src};
    std::vector<topo::LinkKind> kinds;

    // Iterative DFS over link choices, lexicographic in
    // (Straight, Plus, Minus) order.
    struct Frame { unsigned next_choice; };
    std::vector<Frame> stack{{0}};
    static constexpr topo::LinkKind order[3] = {
        topo::LinkKind::Straight, topo::LinkKind::Plus,
        topo::LinkKind::Minus};

    while (!stack.empty()) {
        const unsigned stage =
            static_cast<unsigned>(stack.size()) - 1;
        Frame &f = stack.back();
        if (stage == n) {
            if (sw.back() == dest)
                out.emplace_back(sw, kinds);
            stack.pop_back();
            if (!kinds.empty()) {
                sw.pop_back();
                kinds.pop_back();
            }
            continue;
        }
        if (f.next_choice >= 3) {
            stack.pop_back();
            if (!kinds.empty()) {
                sw.pop_back();
                kinds.pop_back();
            }
            continue;
        }
        const topo::LinkKind kind = order[f.next_choice++];
        const topo::Link l = topo.link(stage, sw.back(), kind);
        // Prune: after stage i, bits 0..i of the label must match
        // the destination (Lemma 2.1), or the path cannot end at d.
        if ((l.to & lowMask(stage + 1)) !=
            (dest & lowMask(stage + 1)))
            continue;
        sw.push_back(l.to);
        kinds.push_back(kind);
        stack.push_back({0});
    }
    return out;
}

bool
genericReachable(const topo::MultistageTopology &topo,
                 const fault::FaultSet &faults, Label src, Label dest)
{
    const unsigned n = topo.stages();
    const Label n_size = topo.size();
    IADM_ASSERT(src < n_size && dest < n_size, "bad address");
    std::vector<bool> cur(n_size, false), next(n_size, false);
    cur[src] = true;
    for (unsigned stage = 0; stage < n; ++stage) {
        std::fill(next.begin(), next.end(), false);
        for (Label j = 0; j < n_size; ++j) {
            if (!cur[j])
                continue;
            for (const topo::Link &l : topo.outLinks(stage, j))
                if (!faults.isBlocked(l))
                    next[l.to] = true;
        }
        std::swap(cur, next);
    }
    return cur[dest];
}

std::optional<Path>
icubeRoute(const topo::ICubeTopology &topo,
           const fault::FaultSet &faults, Label src, Label dest)
{
    const unsigned n = topo.stages();
    std::vector<Label> sw{src};
    std::vector<topo::LinkKind> kinds;
    Label j = src;
    for (unsigned i = 0; i < n; ++i) {
        const Label next = topo.nextHop(i, j, dest);
        const topo::Link link =
            next == j ? topo.outLinks(i, j)[0] : topo.cubeLink(i, j);
        if (faults.isBlocked(link))
            return std::nullopt;
        kinds.push_back(link.kind);
        j = next;
        sw.push_back(j);
    }
    IADM_ASSERT(j == dest, "ICube tag routing missed destination");
    return Path(std::move(sw), std::move(kinds));
}

std::uint64_t
oracleCountPaths(const topo::IadmTopology &topo, Label src, Label dest)
{
    const unsigned n = topo.stages();
    const Label n_size = topo.size();
    std::vector<std::uint64_t> cur(n_size, 0), next(n_size, 0);
    cur[src] = 1;
    for (unsigned stage = 0; stage < n; ++stage) {
        std::fill(next.begin(), next.end(), 0);
        for (Label j = 0; j < n_size; ++j) {
            if (!cur[j])
                continue;
            for (const topo::Link &l : topo.outLinks(stage, j))
                next[l.to] += cur[j];
        }
        std::swap(cur, next);
    }
    return cur[dest];
}

} // namespace iadm::core
