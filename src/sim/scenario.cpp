#include "sim/scenario.hpp"

#include <algorithm>

#include "common/json_writer.hpp"
#include "common/logging.hpp"
#include "common/parse.hpp"
#include "core/multicast.hpp"
#include "core/tsdt.hpp"
#include "fault/fault_set.hpp"
#include "topology/iadm.hpp"

namespace iadm::sim {

namespace {

/** Salt for the deterministic multicast group membership draws:
 *  groups depend only on (N, groups, fanout, group index), never on
 *  the replicate seed, so every replicate of a cell storms the same
 *  destination sets. */
constexpr std::uint64_t kMcastSalt = 0x3ca57a6e5eed5ull;

unsigned
labelBits(Label n_size)
{
    unsigned n = 0;
    while ((Label{1} << n) < n_size)
        ++n;
    return n;
}

// --- destination sources ------------------------------------------

/**
 * Multicast storm: sources are partitioned into @p groups round-robin
 * (group of src = src mod groups); each group has a fixed set of
 * @p fanout destinations, derived deterministically from
 * (N, groups, fanout, group) alone.  Every source walks its group's
 * destinations cyclically in the *delivery order of the multicast
 * tree rooted at that source* (core::buildMulticastTree against the
 * fault-free network) — the unicast-packet approximation of the
 * switch-replicated storm, preserving the tree's output ordering.
 * pick() draws no randomness and advances a per-source cursor, which
 * is safe because the simulator only calls pick() from the serial
 * injection draw phase (see traffic.hpp).
 */
class McastTraffic : public TrafficPattern
{
  public:
    McastTraffic(Label n_size, std::uint32_t groups,
                 std::uint32_t fanout)
        : groups_(groups), cursor_(n_size, 0)
    {
        const topo::IadmTopology topo(n_size);
        const fault::FaultSet no_faults;
        std::vector<std::vector<Label>> dests(groups);
        for (std::uint32_t g = 0; g < groups; ++g) {
            // Rejection-sample a distinct destination set from a
            // group-salted stream: deterministic, replicate- and
            // seed-independent.
            Rng grng(kMcastSalt ^
                     (std::uint64_t{g} * 0x9e3779b97f4a7c15ull) ^
                     (std::uint64_t{n_size} << 32) ^ fanout);
            std::vector<char> taken(n_size, 0);
            while (dests[g].size() < fanout) {
                const auto d =
                    static_cast<Label>(grng.uniform(n_size));
                if (taken[d])
                    continue;
                taken[d] = 1;
                dests[g].push_back(d);
            }
            std::sort(dests[g].begin(), dests[g].end());
        }
        order_.resize(n_size);
        for (Label src = 0; src < n_size; ++src) {
            const auto &gd = dests[src % groups];
            const auto tree = core::buildMulticastTree(
                topo, no_faults, src, gd);
            if (tree && !tree->links.empty()) {
                // Delivery order = the output order of the tree's
                // last-stage links.
                for (const topo::Link &l : tree->links.back())
                    order_[src].push_back(l.to);
            }
            // Fault-free trees always exist, but stay total anyway:
            // append anything the walk missed, in label order.
            for (const Label d : gd) {
                if (std::find(order_[src].begin(),
                              order_[src].end(),
                              d) == order_[src].end())
                    order_[src].push_back(d);
            }
        }
    }

    Label
    pick(Label src, Rng &) override
    {
        const auto &ord = order_[src];
        const Label d = ord[cursor_[src]];
        cursor_[src] = (cursor_[src] + 1) % ord.size();
        return d;
    }

    bool gated() const override { return false; }

  private:
    std::uint32_t groups_;
    std::vector<std::vector<Label>> order_; //!< [src] dest cycle
    std::vector<std::uint32_t> cursor_;     //!< [src] next index
};

// --- the composed pattern -----------------------------------------

/**
 * Destination source wrapped in the spec's shaper stack.  Gates run
 * in clause order and every gate runs every cycle (no short-circuit)
 * with a state-independent draw count, pinning the RNG stream; see
 * the concurrency contract in traffic.hpp.
 */
class ScenarioTraffic : public TrafficPattern
{
  public:
    ScenarioTraffic(const std::vector<ShaperSpec> &shapers,
                    Label n_size, std::unique_ptr<TrafficPattern> base)
        : base_(std::move(base))
    {
        st_.reserve(shapers.size());
        for (const ShaperSpec &sh : shapers) {
            ShaperState s;
            s.spec = sh;
            switch (sh.kind) {
              case ShaperSpec::Kind::Bursty:
                s.pOnToOff = 1.0 / sh.burstLen;
                s.pOffToOn = 1.0 / sh.idleLen;
                s.on.assign(n_size, 0);
                break;
              case ShaperSpec::Kind::Ramp:
                s.cur = sh.rampFrom;
                break;
              case ShaperSpec::Kind::Closed:
                s.out.assign(n_size, 0);
                closed_ = true;
                break;
            }
            st_.push_back(std::move(s));
        }
    }

    Label
    pick(Label src, Rng &rng) override
    {
        return base_->pick(src, rng);
    }

    bool
    gate(Label src, Rng &rng) override
    {
        bool open = true;
        for (ShaperState &s : st_) {
            bool g = true;
            switch (s.spec.kind) {
              case ShaperSpec::Kind::Bursty: {
                // Exactly one draw on both branches, so the draw
                // count per (cycle, source) never depends on the
                // chain state.
                const bool was_on = s.on[src] != 0;
                if (was_on) {
                    if (rng.chance(s.pOnToOff))
                        s.on[src] = 0;
                } else if (rng.chance(s.pOffToOn)) {
                    s.on[src] = 1;
                }
                g = was_on;
                break;
              }
              case ShaperSpec::Kind::Ramp:
                g = rng.chance(s.cur); // one draw, factor thinning
                break;
              case ShaperSpec::Kind::Closed:
                g = s.out[src] < s.spec.window; // no draws
                break;
            }
            open = open && g;
        }
        return open;
    }

    bool gated() const override { return true; }

    void
    beginCycle(Cycle now) override
    {
        for (ShaperState &s : st_) {
            if (s.spec.kind != ShaperSpec::Kind::Ramp)
                continue;
            const double t =
                s.spec.rampCycles == 0
                    ? 1.0
                    : std::min(1.0, static_cast<double>(now) /
                                        static_cast<double>(
                                            s.spec.rampCycles));
            s.cur = s.spec.rampFrom +
                    (s.spec.rampTo - s.spec.rampFrom) * t;
        }
    }

    bool closedLoop() const override { return closed_; }

    void
    onInject(Label src) override
    {
        for (ShaperState &s : st_) {
            if (s.spec.kind == ShaperSpec::Kind::Closed)
                ++s.out[src];
        }
    }

    void
    onRetire(Label src) override
    {
        for (ShaperState &s : st_) {
            if (s.spec.kind != ShaperSpec::Kind::Closed)
                continue;
            IADM_ASSERT(s.out[src] > 0,
                        "closed-loop retire underflow at source ",
                        src);
            --s.out[src];
        }
    }

  private:
    struct ShaperState
    {
        ShaperSpec spec;
        double pOnToOff = 0.0, pOffToOn = 0.0; //!< bursty
        std::vector<std::uint8_t> on;          //!< bursty, per-source
        double cur = 1.0;                      //!< ramp factor
        std::vector<std::uint32_t> out; //!< closed, per-source count
    };

    std::unique_ptr<TrafficPattern> base_;
    std::vector<ShaperState> st_;
    bool closed_ = false;
};

// --- parsing helpers ----------------------------------------------

bool
parseHotNodes(const std::string &s, std::vector<Label> &out)
{
    out.clear();
    for (const auto &piece : splitOn(s, '+')) {
        Label node = 0;
        if (!parseUnsigned(piece, node))
            return false;
        if (std::find(out.begin(), out.end(), node) != out.end())
            return false; // duplicate hot node
        out.push_back(node);
    }
    return !out.empty();
}

/** Parse a dst clause body (role prefix already stripped). */
bool
parseDst(const std::vector<std::string> &p, DstSpec &d)
{
    if (p.empty())
        return false;
    if (p[0] == "uniform") {
        d.kind = DstSpec::Kind::Uniform;
        return p.size() == 1;
    }
    if (p[0] == "hotspot") {
        d.kind = DstSpec::Kind::Hotspot;
        if (p.size() > 3)
            return false;
        if (p.size() >= 2 && !parseHotNodes(p[1], d.hotNodes))
            return false;
        if (p.size() == 1)
            d.hotNodes = {0};
        if (p.size() >= 3 &&
            (!parseDouble(p[2], d.hotFraction) ||
             d.hotFraction < 0.0 || d.hotFraction > 1.0))
            return false;
        return true;
    }
    if (p[0] == "bitrev" || p[0] == "transpose") {
        d.kind = DstSpec::Kind::Perm;
        d.perm = p[0] == "bitrev" ? DstSpec::PermFamily::BitReversal
                                  : DstSpec::PermFamily::Transpose;
        return p.size() == 1;
    }
    if (p[0] == "shift") {
        d.kind = DstSpec::Kind::Perm;
        d.perm = DstSpec::PermFamily::Shift;
        return p.size() == 2 && parseUnsigned(p[1], d.permArg) &&
               d.permArg != 0;
    }
    if (p[0] == "perm") {
        d.kind = DstSpec::Kind::Perm;
        if (p.size() < 2)
            return false;
        const std::string &fam = p[1];
        if (fam == "shift" || fam == "complement" ||
            fam == "exchange") {
            d.perm = fam == "shift"
                         ? DstSpec::PermFamily::Shift
                         : fam == "complement"
                               ? DstSpec::PermFamily::Complement
                               : DstSpec::PermFamily::Exchange;
            if (p.size() != 3 || !parseUnsigned(p[2], d.permArg))
                return false;
            // shift 0 / mask 0 = identity typo
            return d.perm == DstSpec::PermFamily::Exchange ||
                   d.permArg != 0;
        }
        if (p.size() != 2)
            return false;
        if (fam == "bitrev")
            d.perm = DstSpec::PermFamily::BitReversal;
        else if (fam == "transpose")
            d.perm = DstSpec::PermFamily::Transpose;
        else if (fam == "shuffle")
            d.perm = DstSpec::PermFamily::Shuffle;
        else
            return false;
        return true;
    }
    if (p[0] == "adversarial") {
        d.kind = DstSpec::Kind::Adversarial;
        return p.size() == 1;
    }
    if (p[0] == "mcast") {
        d.kind = DstSpec::Kind::Multicast;
        return p.size() == 3 && parseUnsigned(p[1], d.groups) &&
               parseUnsigned(p[2], d.fanout) && d.groups != 0 &&
               d.fanout >= 2;
    }
    return false;
}

/** Parse a shaper clause body (role prefix already stripped). */
bool
parseShaper(const std::vector<std::string> &p, ShaperSpec &s)
{
    if (p.empty())
        return false;
    if (p[0] == "bursty") {
        s.kind = ShaperSpec::Kind::Bursty;
        return p.size() == 3 && parseDouble(p[1], s.burstLen) &&
               parseDouble(p[2], s.idleLen) && s.burstLen >= 1.0 &&
               s.idleLen >= 1.0;
    }
    if (p[0] == "ramp") {
        s.kind = ShaperSpec::Kind::Ramp;
        if (p.size() != 4 || !parseDouble(p[1], s.rampFrom) ||
            !parseDouble(p[2], s.rampTo) ||
            !parseUnsigned(p[3], s.rampCycles))
            return false;
        return s.rampFrom >= 0.0 && s.rampFrom <= 1.0 &&
               s.rampTo >= 0.0 && s.rampTo <= 1.0 &&
               s.rampCycles >= 1;
    }
    if (p[0] == "closed") {
        s.kind = ShaperSpec::Kind::Closed;
        return p.size() == 2 && parseUnsigned(p[1], s.window) &&
               s.window != 0;
    }
    return false;
}

/**
 * The destination clause.  @p bare (an unshaped spec) drops the
 * `dst:` and `perm:` prefixes from the four destinations that
 * predate the grammar, so they print their legacy report names —
 * "uniform", "hotspot:N:F" (one hot node), "bitrev", "transpose" —
 * which the golden fixtures freeze.
 */
std::string
dstName(const DstSpec &d, bool bare)
{
    switch (d.kind) {
      case DstSpec::Kind::Uniform:
        return bare ? "uniform" : "dst:uniform";
      case DstSpec::Kind::Hotspot: {
        std::string nodes;
        for (std::size_t i = 0; i < d.hotNodes.size(); ++i) {
            if (i != 0)
                nodes += '+';
            nodes += std::to_string(d.hotNodes[i]);
        }
        const bool legacy = bare && d.hotNodes.size() == 1;
        return (legacy ? "hotspot:" : "dst:hotspot:") + nodes + ":" +
               jsonNumber(d.hotFraction);
      }
      case DstSpec::Kind::Perm:
        switch (d.perm) {
          case DstSpec::PermFamily::Shift:
            return "dst:perm:shift:" + std::to_string(d.permArg);
          case DstSpec::PermFamily::BitReversal:
            return bare ? "bitrev" : "dst:perm:bitrev";
          case DstSpec::PermFamily::Transpose:
            return bare ? "transpose" : "dst:perm:transpose";
          case DstSpec::PermFamily::Complement:
            return "dst:perm:complement:" +
                   std::to_string(d.permArg);
          case DstSpec::PermFamily::Shuffle:
            return "dst:perm:shuffle";
          case DstSpec::PermFamily::Exchange:
            return "dst:perm:exchange:" + std::to_string(d.permArg);
        }
        return "?";
      case DstSpec::Kind::Adversarial:
        return "dst:adversarial";
      case DstSpec::Kind::Multicast:
        return "dst:mcast:" + std::to_string(d.groups) + ":" +
               std::to_string(d.fanout);
    }
    return "?";
}

std::string
shaperName(const ShaperSpec &s, bool first)
{
    std::string out = first ? "shape:" : "over:";
    switch (s.kind) {
      case ShaperSpec::Kind::Bursty:
        return out + "bursty:" + jsonNumber(s.burstLen) + ":" +
               jsonNumber(s.idleLen);
      case ShaperSpec::Kind::Ramp:
        return out + "ramp:" + jsonNumber(s.rampFrom) + ":" +
               jsonNumber(s.rampTo) + ":" +
               std::to_string(s.rampCycles);
      case ShaperSpec::Kind::Closed:
        return out + "closed:" + std::to_string(s.window);
    }
    return "?";
}

perm::Permutation
dstPerm(const DstSpec &d, Label n_size)
{
    switch (d.perm) {
      case DstSpec::PermFamily::Shift:
        return perm::shiftPerm(n_size, d.permArg);
      case DstSpec::PermFamily::BitReversal:
        return perm::bitReversalPerm(n_size);
      case DstSpec::PermFamily::Transpose:
        return perm::transposePerm(n_size);
      case DstSpec::PermFamily::Complement:
        return perm::bitComplementPerm(n_size, d.permArg);
      case DstSpec::PermFamily::Shuffle:
        return perm::perfectShufflePerm(n_size);
      case DstSpec::PermFamily::Exchange:
        return perm::exchangePerm(n_size,
                                  static_cast<unsigned>(d.permArg));
    }
    IADM_PANIC("unreachable perm family");
}

std::unique_ptr<TrafficPattern>
makeDst(const DstSpec &d, Label n_size)
{
    switch (d.kind) {
      case DstSpec::Kind::Uniform:
        return std::make_unique<UniformTraffic>(n_size);
      case DstSpec::Kind::Hotspot:
        return std::make_unique<HotspotTraffic>(n_size, d.hotNodes,
                                                d.hotFraction);
      case DstSpec::Kind::Perm:
        return std::make_unique<PermutationTraffic>(
            dstPerm(d, n_size));
      case DstSpec::Kind::Adversarial:
        return std::make_unique<PermutationTraffic>(
            adversarialPerm(n_size));
      case DstSpec::Kind::Multicast:
        return std::make_unique<McastTraffic>(n_size, d.groups,
                                              d.fanout);
    }
    IADM_PANIC("unreachable dst kind");
}

} // namespace

// --- ScenarioSpec --------------------------------------------------

std::string
ScenarioSpec::name() const
{
    std::string out;
    for (std::size_t i = 0; i < shapers.size(); ++i) {
        out += shaperName(shapers[i], i == 0);
        out += '/';
    }
    out += dstName(dst, shapers.empty());
    return out;
}

std::optional<ScenarioSpec>
ScenarioSpec::parse(const std::string &spec)
{
    if (spec.empty())
        return std::nullopt;
    ScenarioSpec s;
    bool have_dst = false;
    for (const std::string &clause : splitOn(spec, '/')) {
        const auto parts = splitOn(clause, ':');
        const std::string &role = parts[0];
        if (role == "dst") {
            if (have_dst)
                return std::nullopt; // one destination source only
            if (!parseDst({parts.begin() + 1, parts.end()}, s.dst))
                return std::nullopt;
            have_dst = true;
            continue;
        }
        if (role == "shape" || role == "over") {
            ShaperSpec sh;
            if (!parseShaper({parts.begin() + 1, parts.end()}, sh))
                return std::nullopt;
            s.shapers.push_back(sh);
            continue;
        }
        // Role-free sugar: "bursty:B:I" is a shaper atom (the
        // legacy short form); everything else is a destination atom
        // ("uniform", "hotspot:0:0.2", "shift:4", "mcast:4:8", ...).
        if (role == "bursty") {
            ShaperSpec sh;
            if (!parseShaper(parts, sh))
                return std::nullopt;
            s.shapers.push_back(sh);
            continue;
        }
        if (have_dst)
            return std::nullopt;
        if (!parseDst(parts, s.dst))
            return std::nullopt;
        have_dst = true;
    }
    return s;
}

std::optional<std::string>
ScenarioSpec::validate(Label n_size) const
{
    const unsigned bits = labelBits(n_size);
    switch (dst.kind) {
      case DstSpec::Kind::Uniform:
      case DstSpec::Kind::Adversarial:
        break;
      case DstSpec::Kind::Hotspot:
        for (const Label h : dst.hotNodes) {
            if (h >= n_size)
                return "hotspot node " + std::to_string(h) +
                       " out of range for N=" +
                       std::to_string(n_size);
        }
        break;
      case DstSpec::Kind::Perm:
        switch (dst.perm) {
          case DstSpec::PermFamily::Shift:
            if (dst.permArg >= n_size)
                return "shift distance " +
                       std::to_string(dst.permArg) +
                       " out of range for N=" +
                       std::to_string(n_size);
            break;
          case DstSpec::PermFamily::Transpose:
            if (bits % 2 != 0)
                return "transpose needs an even number of label "
                       "bits (N=" +
                       std::to_string(n_size) + " has " +
                       std::to_string(bits) + ")";
            break;
          case DstSpec::PermFamily::Complement:
            if (dst.permArg >= n_size)
                return "complement mask " +
                       std::to_string(dst.permArg) +
                       " out of range for N=" +
                       std::to_string(n_size);
            break;
          case DstSpec::PermFamily::Exchange:
            if (dst.permArg >= bits)
                return "exchange dimension " +
                       std::to_string(dst.permArg) +
                       " out of range for N=" +
                       std::to_string(n_size) + " (" +
                       std::to_string(bits) + " bits)";
            break;
          default:
            break;
        }
        break;
      case DstSpec::Kind::Multicast:
        if (dst.fanout > n_size)
            return "multicast fanout " +
                   std::to_string(dst.fanout) +
                   " exceeds N=" + std::to_string(n_size);
        if (dst.groups > n_size)
            return "multicast group count " +
                   std::to_string(dst.groups) +
                   " exceeds N=" + std::to_string(n_size);
        break;
    }
    return std::nullopt;
}

std::unique_ptr<TrafficPattern>
ScenarioSpec::make(Label n_size) const
{
    if (const auto err = validate(n_size))
        IADM_FATAL("invalid scenario '", name(), "': ", *err);
    auto base = makeDst(dst, n_size);
    if (shapers.empty())
        return base;
    return std::make_unique<ScenarioTraffic>(shapers, n_size,
                                             std::move(base));
}

perm::Permutation
adversarialPerm(Label n_size)
{
    // Greedy link-overlap maximization: visit sources in ascending
    // order and give each the unused destination whose initial-tag
    // path shares the most already-loaded switch visits (stages
    // 1..n), first-best on ties.  O(N^2) path traces, paid once per
    // pattern construction; deterministic by construction.
    const unsigned n = labelBits(n_size);
    std::vector<std::vector<std::uint32_t>> load(
        n + 1, std::vector<std::uint32_t>(n_size, 0));
    std::vector<Label> images(n_size, 0);
    std::vector<char> used(n_size, 0);
    for (Label src = 0; src < n_size; ++src) {
        Label best = 0;
        std::int64_t best_score = -1;
        for (Label dst = 0; dst < n_size; ++dst) {
            if (used[dst])
                continue;
            const auto path = core::tsdtTrace(
                src, core::initialTag(n, dst), n_size);
            std::int64_t score = 0;
            for (unsigned st = 1; st <= n; ++st)
                score += load[st][path.switchAt(st)];
            if (score > best_score) {
                best_score = score;
                best = dst;
            }
        }
        used[best] = 1;
        images[src] = best;
        const auto path = core::tsdtTrace(
            src, core::initialTag(n, best), n_size);
        for (unsigned st = 1; st <= n; ++st)
            ++load[st][path.switchAt(st)];
    }
    return perm::Permutation(std::move(images));
}

} // namespace iadm::sim
