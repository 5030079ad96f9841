#include "sim/network_sim.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hpp"
#include "core/reroute.hpp"

namespace iadm::sim {

namespace {

/** @p capacity, or a fatal error when the arena cannot hold it. */
std::size_t
checkedQueueCapacity(std::size_t capacity)
{
    if (capacity < 1 || capacity > QueueArena::kMaxCapacity)
        IADM_FATAL("queue capacity ", capacity, " outside [1, ",
                   QueueArena::kMaxCapacity, "]");
    return capacity;
}

/**
 * @p n_size, or a fatal error above 2^Packet::kMaxTracedStages: the
 * in-packet path (Packet::pathSw), the trace record's tag words and
 * the daemon's route cache all hold 16-bit labels.
 */
Label
checkedNetSize(Label n_size)
{
    if (n_size > (Label{1} << Packet::kMaxTracedStages))
        IADM_FATAL("network size ", n_size, " above the simulator's ",
                   Label{1} << Packet::kMaxTracedStages, " nodes");
    return n_size;
}

/**
 * Run @p search — a REROUTE on packet @p id's behalf — with the
 * packet's identity parked in the thread-local trace bridge, so
 * reroute.cpp can emit its Reroute events into @p sink.
 */
template <class Search>
inline void
withRouteTrace([[maybe_unused]] obs::TraceSink *sink,
               [[maybe_unused]] std::uint64_t id,
               [[maybe_unused]] Cycle now, Search &&search)
{
#if IADM_TRACE
    if (__builtin_expect(sink != nullptr, 0)) {
        obs::routeTraceContext() = {sink, id, now};
        search();
        obs::routeTraceContext().sink = nullptr;
        return;
    }
#endif
    search();
}

} // namespace

const char *
routingSchemeName(RoutingScheme s)
{
    switch (s) {
      case RoutingScheme::SsdtStatic: return "ssdt";
      case RoutingScheme::SsdtBalanced: return "ssdt-balanced";
      case RoutingScheme::TsdtSender: return "tsdt";
      case RoutingScheme::DistanceTag: return "distance-tag";
      case RoutingScheme::TsdtDynamic: return "tsdt-dynamic";
    }
    return "?";
}

std::optional<RoutingScheme>
parseRoutingScheme(const std::string &name)
{
    for (const auto s :
         {RoutingScheme::SsdtStatic, RoutingScheme::SsdtBalanced,
          RoutingScheme::TsdtSender, RoutingScheme::DistanceTag,
          RoutingScheme::TsdtDynamic}) {
        if (name == routingSchemeName(s))
            return s;
    }
    return std::nullopt;
}

NetworkSim::NetworkSim(const SimConfig &cfg,
                       std::unique_ptr<TrafficPattern> traffic,
                       fault::FaultSet static_faults)
    : cfg_(cfg), topo_(checkedNetSize(cfg.netSize)),
      faults_(std::move(static_faults)),
      traffic_(std::move(traffic)), rng_(cfg.seed),
      metrics_(cfg.netSize, topo_.stages()),
      ssdtState_(cfg.netSize, core::SwitchState::C), ltab_(topo_),
      fview_(topo_.stages(), cfg.netSize),
      queues_(topo_.stages(), cfg.netSize,
              checkedQueueCapacity(cfg.queueCapacity)),
      stageSize_(topo_.stages(), 0),
      stageOccupied_(topo_.stages(), 0),
      occWordsPerStage_((cfg.netSize + 63) / 64),
      serviceList_(cfg.netSize, 0), accepted_(cfg.netSize, 0),
      mask_(cfg.netSize - 1)
{
    IADM_ASSERT(traffic_ != nullptr, "traffic pattern required");
    occWords_.assign(
        static_cast<std::size_t>(topo_.stages()) * occWordsPerStage_,
        0);
    gated_ = traffic_->gated();
    feedback_ = traffic_->closedLoop();
    refreshFaultView();
}

void
NetworkSim::resetMetrics()
{
    metrics_ = Metrics(cfg_.netSize, topo_.stages());
}

std::size_t
NetworkSim::inFlight() const
{
#ifdef IADM_SANITIZE_BUILD
    IADM_ASSERT(inFlight_ == queues_.totalSize(),
                "inFlight counter drift: ", inFlight_,
                " != ", queues_.totalSize());
    IADM_ASSERT(queues_.liveHandles() == inFlight_,
                "packet handle leak: ", queues_.liveHandles(),
                " live for ", inFlight_, " in flight");
#endif
    return inFlight_;
}

void
NetworkSim::refreshFaultView()
{
    fview_.refresh(faults_);
    faultsVersion_ = faults_.version();
}

void
NetworkSim::recordFaultTransition([[maybe_unused]] Cycle cycle,
                                  [[maybe_unused]] const topo::Link &link,
                                  bool down)
{
    metrics_.recordFaultTransition(down);
    IADM_TRACE_EVENT(trace_,
                     down ? obs::EventKind::FaultDown
                          : obs::EventKind::FaultUp,
                     0, cycle, link.stage, link.from,
                     static_cast<std::uint8_t>(link.kind), link.to, 0,
                     0);
}

void
NetworkSim::scheduleTransientBlockage(const topo::Link &link,
                                      Cycle from, Cycle until)
{
    // Each window holds exactly one blockage claim: the restore
    // releases only this window's claim, so overlap with a static
    // fault, another window or a churn process composes instead of
    // clobbering (the FaultSet refcounts claims per link).
    windows_.addWindow(link, from, until);
    churnNext_ = std::min<Cycle>(churnNext_, windows_.nextTransition());
}

void
NetworkSim::addFaultProcess(std::unique_ptr<fault::FaultProcess> p)
{
    IADM_ASSERT(p != nullptr, "null fault process");
    churnNext_ = std::min<Cycle>(churnNext_, p->nextTransition());
    churn_.push_back(std::move(p));
}

void
NetworkSim::runChurn()
{
    const fault::FaultProcess::Observer obs =
        [this](std::uint64_t cycle, const topo::Link &link,
               bool down) {
            recordFaultTransition(cycle, link, down);
        };
    Cycle next = fault::FaultProcess::kNever;
    for (const auto &p : churn_) {
        if (p->nextTransition() <= now_)
            p->runUntil(now_, faults_, obs);
        next = std::min<Cycle>(next, p->nextTransition());
    }
    // Windows after churn: a cycle's churn transitions always apply
    // before its windows.
    windows_.runUntil(now_, faults_, obs);
    churnNext_ = std::min<Cycle>(next, windows_.nextTransition());
}

void
NetworkSim::cachePath(Packet &p) const
{
    // The tag's state bits are the path (Lemma A1.1): decode them.
    core::decodeDelta(p.src, p.tag.destination(), p.tag.stateBits(),
                      ltab_.stages(), p.pathSw);
}

void
NetworkSim::inject()
{
    // Fault-free sender tags and every dynamic packet's tag are the
    // plain initial tags, with nothing to search.
    const bool resolve =
        cfg_.scheme == RoutingScheme::TsdtSender && !faults_.empty();
    const unsigned n = ltab_.stages();
    if (gated_)
        traffic_->beginCycle(now_);
    // One pass over the sources, each finished before the next draws:
    // gate, chance and destination pick in that order, a packet id,
    // the tag, then refusal or the stage-0 build.  Sources are
    // distinct within a cycle and traffic hooks keep per-source state
    // (traffic.hpp), so a source's onInject cannot change a later
    // source's gate.
    for (Label src = 0; src < cfg_.netSize; ++src) {
        const bool open = gated_ ? traffic_->gate(src, rng_) : true;
        if (!rng_.chance(cfg_.injectionRate) || !open)
            continue;
        const Label dst = traffic_->pick(src, rng_);
        // Every attempt consumes an id, routable or not.
        const std::uint64_t id = nextPacketId_++;
        core::CompactRoute cr{true, core::initialTag(n, dst), 0};
        if (resolve) {
            // The sender computes a blockage-avoiding tag against the
            // global blockage map.  REROUTE's step 1 comes first: a
            // clear all-state-C path delivers on the initial tag
            // (Theorem 3.1) after n bit tests and counts as a hit;
            // only a blocked one runs the kernel, a miss.
            const bool blocked =
                !core::initialPathClear(topo_, fview_, src, dst);
            if (blocked) {
                withRouteTrace(trace_, id, now_, [&] {
                    cr = core::universalRouteCompact(topo_, fview_, src,
                                                     dst);
                });
                metrics_.recordRouteCacheMiss();
            } else {
                metrics_.recordRouteCacheHit();
            }
            core::auditRoute(cr, topo_, faults_, src, dst);
            IADM_TRACE_EVENT(trace_,
                             blocked ? obs::EventKind::CacheMiss
                                     : obs::EventKind::CacheHit,
                             id, now_, 0, src, obs::TraceEvent::kNoLink,
                             dst, dst, 0);
        }
        if (!cr.ok) {
            metrics_.recordUnroutable();
            IADM_TRACE_EVENT(trace_, obs::EventKind::Drop, id, now_, 0,
                             src, obs::TraceEvent::kNoLink, dst, dst, 0,
                             obs::TraceEvent::kFlagNotEnqueued |
                                 obs::TraceEvent::kFlagUnroutable);
            continue;
        }
        const std::size_t q = queues_.qid(0, src);
        if (queues_.full(q)) {
            metrics_.recordThrottled();
            IADM_TRACE_EVENT(trace_, obs::EventKind::Drop, id, now_, 0,
                             src, obs::TraceEvent::kNoLink, dst, dst, 0,
                             obs::TraceEvent::kFlagNotEnqueued);
            continue;
        }
        IADM_TRACE_EVENT(trace_, obs::EventKind::Inject, id, now_, 0,
                         src, obs::TraceEvent::kNoLink, dst,
                         static_cast<Label>(cr.tag.destination()),
                         static_cast<Label>(cr.tag.stateBits()));
        // Build the packet in place at the queue's tail; every live
        // field of the stale packet is overwritten (pathSw is read
        // only by the dynamic scheme, which decodes it here).
        const bool was_empty = queues_.empty(q);
        Packet &p = queues_.emplaceBack(q);
        p.id = id;
        p.injected = now_;
        p.movedAt = ~Cycle{0};
        p.tag = cr.tag;
        p.src = src;
        p.dst = dst;
        p.reroutes = cr.reroutes;
        p.resumeStage = 0;
        // A sender tag was resolved against the current fault epoch:
        // in-flight re-resolution triggers only once the version
        // moves past this stamp.
        p.lastEpoch = static_cast<std::uint16_t>(faults_.version());
        p.goingBack = false;
        p.undeliverable = false;
        if (cfg_.scheme == RoutingScheme::TsdtDynamic)
            cachePath(p); // decodeDelta(src, dst, 0): the C-state path
        ++stageSize_[0];
        noteFilled(0, src, was_empty);
        ++inFlight_;
        if (feedback_)
            traffic_->onInject(src);
        metrics_.recordInjected();
    }
}

template <RoutingScheme S>
topo::LinkKind
NetworkSim::headKind(unsigned stage, Label j, const Packet &h) const
{
    if constexpr (S == RoutingScheme::SsdtStatic ||
                  S == RoutingScheme::SsdtBalanced) {
        return core::linkKindFor(j, bit(h.dst, stage), stage,
                                 ssdtState_.get(stage, j));
    } else if constexpr (S == RoutingScheme::DistanceTag) {
        // Both dominant digits zero: straight; otherwise the Plus
        // link first (chooseLink falls back to Minus).
        return static_cast<topo::LinkKind>(
            ((h.dst - j) & lowMask(stage + 1)) != 0);
    } else {
        return core::tsdtKindOf(j, stage, h.tag.destination(),
                                h.tag.stateBits());
    }
}

template <RoutingScheme S, bool Traced>
std::optional<topo::Link>
NetworkSim::chooseLink(unsigned stage, Label j, Packet &p)
{
    // Constant null when untraced: every hook below folds away and
    // this instantiation matches a trace-off build's code exactly.
    [[maybe_unused]] obs::TraceSink *const trace =
        Traced ? trace_ : nullptr;
    // Open link first: the head's kind comes from its scheme's bit
    // formula, and an open link is taken as is, except that the
    // balanced scheme weighs its two nonstraight links.  Only
    // blocked links and balanced nonstraight hops go further.
    const topo::LinkKind kind = headKind<S>(stage, j, p);
    if (!fview_.isBlocked(ltab_.index(stage, j, kind))) {
        if (S != RoutingScheme::SsdtBalanced ||
            kind == topo::LinkKind::Straight)
            return ltab_.link(stage, j, kind);
    }
    if constexpr (S == RoutingScheme::SsdtStatic ||
                  S == RoutingScheme::SsdtBalanced) {
        if (kind == topo::LinkKind::Straight)
            return std::nullopt; // blocked: SSDT cannot route around
        const topo::LinkKind spare_kind = topo::oppositeKind(kind);
        const bool link_ok =
            !fview_.isBlocked(ltab_.index(stage, j, kind));
        const bool spare_ok =
            !fview_.isBlocked(ltab_.index(stage, j, spare_kind));
        if (!link_ok && !spare_ok)
            return std::nullopt;
        bool flip = !link_ok;
        if (S == RoutingScheme::SsdtBalanced && link_ok && spare_ok &&
            stage + 1 < ltab_.stages()) {
            // Balance message load: prefer the emptier queue.
            const std::size_t via_spare = queues_.size(
                queues_.qid(stage + 1, ltab_.to(stage, j, spare_kind)));
            const std::size_t via_link = queues_.size(
                queues_.qid(stage + 1, ltab_.to(stage, j, kind)));
            if (via_spare < via_link)
                flip = true;
        }
        if (flip) {
            ssdtState_.flip(stage, j);
            ++p.reroutes;
            metrics_.recordReroute(stage);
            IADM_TRACE_EVENT(
                trace, obs::EventKind::StateFlip, p.id, now_, stage,
                j, static_cast<std::uint8_t>(spare_kind),
                static_cast<std::uint32_t>(ssdtState_.get(stage, j)),
                p.dst, 0);
            return ltab_.link(stage, j, spare_kind);
        }
        return ltab_.link(stage, j, kind);
    } else if constexpr (S == RoutingScheme::TsdtSender) {
        // Sender-computed tags do not adapt in flight, so a blocked
        // link here means the fault map changed after the tag was
        // resolved.  Rather than wedging this FIFO forever, the head
        // re-runs REROUTE from its current switch — at most once per
        // fault epoch (the lastEpoch stamp suppresses re-searching
        // an unchanged map).
        const auto ep = static_cast<std::uint16_t>(faults_.version());
        if (p.lastEpoch == ep)
            return std::nullopt;
        p.lastEpoch = ep;
        const auto re =
            core::rerouteFromSwitch(topo_, fview_, stage, j, p.tag);
#ifdef IADM_SANITIZE_BUILD
        // Audit the view's answer against the authoritative set, as
        // auditRoute does for fills; allocation-free like the repair.
        const auto by_set =
            core::rerouteFromSwitch(topo_, faults_, stage, j, p.tag);
        IADM_ASSERT(by_set.has_value() == re.has_value(),
                    "in-flight repair diverged (ok) at stage ", stage,
                    " switch ", j);
        IADM_ASSERT(!re || *by_set == *re,
                    "in-flight repair diverged (tag) at stage ", stage,
                    " switch ", j);
#endif
        if (!re)
            return std::nullopt;
        metrics_.recordRecovery(
            now_ - (p.movedAt == ~Cycle{0} ? p.injected : p.movedAt));
        p.tag = *re;
        ++p.reroutes;
        metrics_.recordReroute(stage);
        IADM_TRACE_EVENT(trace, obs::EventKind::Reroute, p.id, now_,
                         stage, j, obs::TraceEvent::kNoLink, 1,
                         static_cast<Label>(p.tag.destination()),
                         static_cast<Label>(p.tag.stateBits()));
        // The repaired tag's stage link is unblocked by construction.
        return ltab_.link(stage, j, headKind<S>(stage, j, p));
    } else if constexpr (S == RoutingScheme::TsdtDynamic) {
        if (kind != topo::LinkKind::Straight) {
            const topo::LinkKind spare_kind =
                topo::oppositeKind(kind);
            if (!fview_.isBlocked(
                    ltab_.index(stage, j, spare_kind))) {
                // Corollary 4.1 applied by the switch: complement
                // the tag's state bit in flight.
                p.tag.flipStateBit(stage);
                cachePath(p);
                ++p.reroutes;
                metrics_.recordReroute(stage);
                IADM_TRACE_EVENT(
                    trace, obs::EventKind::Reroute, p.id, now_,
                    stage, j, static_cast<std::uint8_t>(spare_kind),
                    1, static_cast<Label>(p.tag.destination()),
                    static_cast<Label>(p.tag.stateBits()));
                return ltab_.link(stage, j, spare_kind);
            }
        }
        // Straight or double-nonstraight blockage: rewrite the tag
        // (Corollary 4.2 / BACKTRACK) and turn the packet around.
        // Failure leaves the packet to be dropped by the caller.
        // BACKTRACK reads the packet's own path.
        const unsigned n = ltab_.stages();
        const Label dest = p.tag.destination();
        Label state = p.tag.stateBits();
        const core::TsdtPath path =
            core::TsdtPath::of(p.pathSw, n, dest, state);
        core::BacktrackStats stats;
        const bool ok = core::backtrack(
            fview_, path, stage,
            kind == topo::LinkKind::Straight
                ? fault::BlockageKind::Straight
                : fault::BlockageKind::DoubleNonstraight,
            state, stats);
        if (!ok) {
            // FAIL is a verdict about the *current* fault map: stamp
            // the epoch so the caller can park the packet and retry
            // only after the map changes.
            p.undeliverable = true;
            p.lastEpoch = static_cast<std::uint16_t>(faults_.version());
            return std::nullopt;
        }
        p.tag = core::TsdtTag(n, dest, state);
        cachePath(p);
        ++p.reroutes;
        metrics_.recordReroute(stage);
        IADM_TRACE_EVENT(trace, obs::EventKind::Reroute, p.id, now_,
                         stage, j, obs::TraceEvent::kNoLink,
                         stats.bitsChanged,
                         static_cast<Label>(p.tag.destination()),
                         static_cast<Label>(p.tag.stateBits()));
        p.goingBack = stats.stagesVisited > 0;
        p.resumeStage = stage - stats.stagesVisited;
        return std::nullopt; // no forward move this cycle
    } else {
        static_assert(S == RoutingScheme::DistanceTag);
        // Extra-tag-bit dominant-tag scheme of [9]: both dominant
        // digits are simultaneously zero or of opposite signs.  A
        // blocked straight link stalls; a blocked Plus link falls
        // back to Minus.
        if (kind == topo::LinkKind::Straight)
            return std::nullopt;
        if (!fview_.isBlocked(
                ltab_.index(stage, j, topo::LinkKind::Minus))) {
            ++p.reroutes;
            metrics_.recordReroute(stage);
            IADM_TRACE_EVENT(
                trace, obs::EventKind::Reroute, p.id, now_, stage,
                j,
                static_cast<std::uint8_t>(topo::LinkKind::Minus), 1,
                p.dst, 0);
            return ltab_.link(stage, j, topo::LinkKind::Minus);
        }
        return std::nullopt;
    }
}

unsigned
NetworkSim::gatherOccupied(unsigned stage, Label offset)
{
    const std::uint64_t *words =
        &occWords_[static_cast<std::size_t>(stage) *
                   occWordsPerStage_];
    Label *list = serviceList_.data();
    unsigned cnt = 0;
    // Emit the set bits of [lo, hi) in ascending order.
    const auto emitRange = [&](Label lo, Label hi) {
        if (lo >= hi)
            return;
        unsigned wi = lo >> 6;
        const unsigned w_last = (hi - 1) >> 6;
        std::uint64_t word =
            words[wi] & (~std::uint64_t{0} << (lo & 63));
        for (;;) {
            if (wi == w_last && (hi & 63) != 0)
                word &= (std::uint64_t{1} << (hi & 63)) - 1;
            while (word != 0) {
                const auto b =
                    static_cast<unsigned>(std::countr_zero(word));
                word &= word - 1;
                list[cnt++] = static_cast<Label>((wi << 6) | b);
            }
            if (wi == w_last)
                break;
            word = words[++wi];
        }
    };
    // Rotated service order: offset..N-1, then 0..offset-1.
    emitRange(offset, cfg_.netSize);
    emitRange(0, offset);
    return cnt;
}

#ifdef IADM_SANITIZE_BUILD
void
NetworkSim::auditOccupancy() const
{
    for (unsigned stage = 0; stage < ltab_.stages(); ++stage) {
        const std::uint64_t *words =
            &occWords_[static_cast<std::size_t>(stage) *
                       occWordsPerStage_];
        std::size_t packets = 0;
        unsigned nonempty = 0;
        for (Label j = 0; j < cfg_.netSize; ++j) {
            const std::size_t q = queues_.qid(stage, j);
            const bool set = (words[j >> 6] >> (j & 63)) & 1u;
            IADM_ASSERT(set == !queues_.empty(q),
                        "occupancy bit drift at stage ", stage,
                        " switch ", j, ": bit ", set, ", ",
                        queues_.size(q), " packets");
            nonempty += set;
            packets += queues_.size(q);
        }
        unsigned bits = 0;
        for (unsigned w = 0; w < occWordsPerStage_; ++w)
            bits += static_cast<unsigned>(std::popcount(words[w]));
        IADM_ASSERT(stageOccupied_[stage] == bits && bits == nonempty,
                    "stage ", stage, " occupancy drift: count ",
                    stageOccupied_[stage], ", popcount ", bits, ", ",
                    nonempty, " nonempty queues");
        IADM_ASSERT(stageSize_[stage] == packets, "stage ", stage,
                    " size drift: ", stageSize_[stage], " != ",
                    packets);
    }
}
#endif

template <RoutingScheme S, bool Traced>
void
NetworkSim::advanceStageImpl(unsigned stage)
{
    const unsigned n = ltab_.stages();
    const bool deliver = stage + 1 == n;
    const unsigned accept_limit = cfg_.crossbarSwitches ? 3 : 1;
    // Constant null when untraced (see the header comment): the
    // hook branches below fold away instead of running once per
    // serviced packet.
    [[maybe_unused]] obs::TraceSink *const trace =
        Traced ? trace_ : nullptr;

    // One aggregate depth sample per switch: while this stage is
    // being serviced nothing is pushed into its queues, so the sum
    // of per-switch depths at visit time equals the stage total now.
    metrics_.sampleStageDepths(stage, stageSize_[stage],
                               cfg_.netSize);
    if (stageOccupied_[stage] == 0)
        return;

    // Rotate the service order so no switch is systematically
    // favored under contention.  The gathered list is stable for
    // the whole scan: servicing this stage never fills another
    // queue of the same stage.
    const auto offset = static_cast<Label>(now_ & mask_);
    const unsigned cnt = gatherOccupied(stage, offset);
    const Label *list = serviceList_.data();

    constexpr unsigned kPrefetch = 8;
    for (unsigned i = 0; i < cnt && i < kPrefetch; ++i)
        queues_.prefetchFront(queues_.qid(stage, list[i]));

    // Guess the landing ring word of the head packet a few queues
    // ahead of processing and prefetch it: the exact prefetchTail
    // issued at move time fires nanoseconds before the handle write
    // and cannot cover a miss.  The guess ignores blockage and the
    // balanced-queue flip; a wrong guess costs one spare line
    // fetch, a right one turns the landing-slot miss into a hit.
    constexpr unsigned kGuess = 4;
    const auto prefetchDestGuess = [&](Label j2) {
        const Packet &h = queues_.front(queues_.qid(stage, j2));
        if (h.movedAt == now_)
            return;
        if (h.goingBack) {
            if (stage > h.resumeStage)
                queues_.prefetchTail(
                    queues_.qid(stage - 1, h.pathSw[stage - 1]));
            return;
        }
        const Label to = ltab_.to(stage, j2, headKind<S>(stage, j2, h));
        queues_.prefetchTail(queues_.qid(stage + 1, to));
    };

    // What becomes of a head that cannot move this cycle, written
    // once for every wait class.  A stall records where it waits
    // (link kind and aux label, trace only); a drop retires the
    // packet, and its Drop event carries kFlagUnroutable for a FAIL
    // verdict.
    const auto aged = [&](const Packet &h) {
        return cfg_.maxPacketAge != 0 &&
               now_ - h.injected >= cfg_.maxPacketAge;
    };
    const auto stall = [&]([[maybe_unused]] Label j,
                           [[maybe_unused]] const Packet &h,
                           [[maybe_unused]] std::uint8_t link,
                           [[maybe_unused]] Label aux) {
        metrics_.recordStall(stage);
        IADM_TRACE_EVENT(trace, obs::EventKind::Stall, h.id, now_,
                         stage, j, link, aux,
                         static_cast<Label>(h.tag.destination()),
                         static_cast<Label>(h.tag.stateBits()));
    };
    const auto drop = [&](Label j, const Packet &h, DropReason reason) {
        metrics_.recordDropped(stage, reason);
        IADM_TRACE_EVENT(trace, obs::EventKind::Drop, h.id, now_, stage,
                         j, obs::TraceEvent::kNoLink, h.dst,
                         static_cast<Label>(h.tag.destination()),
                         static_cast<Label>(h.tag.stateBits()),
                         reason == DropReason::Unroutable
                             ? obs::TraceEvent::kFlagUnroutable
                             : std::uint8_t{0});
        dropAt(stage, j);
        --inFlight_;
        if (feedback_)
            traffic_->onRetire(h.src);
    };
    // Every wait class ages out, or wait-for cycles through it
    // wedge until churn happens to break them: a stall past
    // cfg_.maxPacketAge is an Expired drop (a route may yet open,
    // so it is not proven unroutable).
    const auto stallOrExpire = [&](Label j, const Packet &h,
                                   std::uint8_t link, Label aux) {
        if (aged(h))
            drop(j, h, DropReason::Expired);
        else
            stall(j, h, link, aux);
    };
    // Disposition of a head whose REROUTE/BACKTRACK returned FAIL:
    // in a dynamic environment (a pending window or an attached
    // churn process) the verdict only holds until the fault map
    // changes, so the packet parks and retries after the next
    // FaultSet::version() bump.  It is dropped outright when nothing
    // can ever change, or once it ages past cfg_.maxPacketAge.
    [[maybe_unused]] const auto parkOrDrop = [&](Label j,
                                                 const Packet &h) {
        const bool dynamic_env =
            windows_.pending() != 0 || !churn_.empty();
        if (dynamic_env && !aged(h))
            stall(j, h, obs::TraceEvent::kNoLink, h.dst);
        else
            drop(j, h, DropReason::Unroutable);
    };

    for (unsigned i = 0; i < cnt; ++i) {
        if (i + kPrefetch < cnt)
            queues_.prefetchFront(
                queues_.qid(stage, list[i + kPrefetch]));
        if (i + kGuess < cnt) {
            metrics_.prefetchHopCounters(stage, list[i + kGuess]);
            if (!deliver)
                prefetchDestGuess(list[i + kGuess]);
        }
        const Label j = list[i];
        const std::size_t q = queues_.qid(stage, j);
        Packet &head = queues_.front(q);
        if (head.movedAt == now_)
            continue; // one hop per packet per cycle

        // Only the dynamic scheme can carry a FAIL verdict (the
        // undeliverable flag comes from in-network BACKTRACK), so
        // the whole retry protocol folds away for every other
        // scheme's service loop.
        [[maybe_unused]] bool retried = false;
        if constexpr (S == RoutingScheme::TsdtDynamic) {
            if (head.undeliverable) {
                const auto ep =
                    static_cast<std::uint16_t>(faults_.version());
                if (head.lastEpoch == ep) {
                    // Fault map unchanged since the FAIL verdict; a
                    // new search would reach the same dead ends.
                    parkOrDrop(j, head);
                    continue;
                }
                // The map changed: clear the verdict and re-run the
                // route search from this switch.
                head.undeliverable = false;
                retried = true;
            }
        }

        if (head.goingBack) {
            if (stage > head.resumeStage) {
                // Walk one stage backward along the (rewritten)
                // path; below the rewrite stage old and new paths
                // coincide, so the previous switch is the new
                // path's stage-1 switch.
                const Label down_j = head.pathSw[stage - 1];
                if (queues_.full(queues_.qid(stage - 1, down_j))) {
                    // A backward walker stalled on a full queue can
                    // be one arc of a wait-for cycle (the queue's
                    // own head waiting forward on this one);
                    // HealthMonitor found such cycles wedged.
                    stallOrExpire(j, head, obs::TraceEvent::kNoLink,
                                  down_j);
                    continue;
                }
                head.movedAt = now_;
                if (stage - 1 == head.resumeStage)
                    head.goingBack = false;
                metrics_.recordBacktrackHop();
                IADM_TRACE_EVENT(
                    trace, obs::EventKind::BacktrackHop, head.id,
                    now_, stage, j, obs::TraceEvent::kNoLink, down_j,
                    static_cast<Label>(head.tag.destination()),
                    static_cast<Label>(head.tag.stateBits()));
                moveAt(stage, j, stage - 1, down_j);
                continue;
            }
            head.goingBack = false;
        }

        const auto link = chooseLink<S, Traced>(stage, j, head);
        if constexpr (S == RoutingScheme::TsdtDynamic) {
            if (retried && !head.undeliverable)
                metrics_.recordRecovery(
                    now_ - (head.movedAt == ~Cycle{0}
                                ? head.injected
                                : head.movedAt));
        }
        if (!link) {
            if constexpr (S == RoutingScheme::TsdtDynamic) {
                if (head.undeliverable) {
                    // Fresh FAIL verdict this cycle (chooseLink
                    // stamped the epoch): park or drop.
                    parkOrDrop(j, head);
                    continue;
                }
            }
            stallOrExpire(j, head, obs::TraceEvent::kNoLink, head.dst);
            continue;
        }
        if (!deliver) {
            const Label to = link->to;
            const std::size_t next = queues_.qid(stage + 1, to);
            queues_.prefetchTail(next); // landing slot of the move
            const std::uint64_t v = accepted_[to];
            const std::uint64_t acc =
                (v >> 8) == epoch_ ? (v & 0xff) : 0;
            if (queues_.full(next) || acc >= accept_limit) {
                // Space-stalled heads age out exactly like
                // link-blocked ones: without this, a forward head
                // waiting on a queue whose backward-walking head
                // waits on *this* queue is a two-cycle deadlock no
                // recovery mechanism can reach.
                stallOrExpire(j, head,
                              static_cast<std::uint8_t>(link->kind), to);
                continue;
            }
            accepted_[to] = (epoch_ << 8) | (acc + 1);
            head.movedAt = now_;
            metrics_.recordHop(*link);
            IADM_TRACE_EVENT(
                trace, obs::EventKind::Hop, head.id, now_, stage, j,
                static_cast<std::uint8_t>(link->kind), to,
                static_cast<Label>(head.tag.destination()),
                static_cast<Label>(head.tag.stateBits()));
            moveAt(stage, j, stage + 1, to);
        } else {
            --inFlight_;
            if (feedback_)
                traffic_->onRetire(head.src);
            metrics_.recordHop(*link);
            IADM_ASSERT(link->to == head.dst,
                        "delivery at wrong output: ", link->to,
                        " != ", head.dst);
            metrics_.recordDelivered(head, now_ + 1);
            if (fview_.anyBlocked())
                metrics_.recordFaultedDelivery();
            IADM_TRACE_EVENT(
                trace, obs::EventKind::Deliver, head.id, now_,
                stage, j, static_cast<std::uint8_t>(link->kind),
                head.dst,
                static_cast<Label>(head.tag.destination()),
                static_cast<Label>(head.tag.stateBits()));
            dropAt(stage, j);
        }
    }
}

void
NetworkSim::advanceStage(unsigned stage)
{
    // One traced-or-not test per stage call selects the loop body;
    // the untraced instantiations carry no hook code at all.
    const bool traced = obs::traceCompiledIn() && trace_ != nullptr;
    switch (cfg_.scheme) {
      case RoutingScheme::SsdtStatic:
        return traced
                   ? advanceStageImpl<RoutingScheme::SsdtStatic,
                                      true>(stage)
                   : advanceStageImpl<RoutingScheme::SsdtStatic,
                                      false>(stage);
      case RoutingScheme::SsdtBalanced:
        return traced
                   ? advanceStageImpl<RoutingScheme::SsdtBalanced,
                                      true>(stage)
                   : advanceStageImpl<RoutingScheme::SsdtBalanced,
                                      false>(stage);
      case RoutingScheme::TsdtSender:
        return traced
                   ? advanceStageImpl<RoutingScheme::TsdtSender,
                                      true>(stage)
                   : advanceStageImpl<RoutingScheme::TsdtSender,
                                      false>(stage);
      case RoutingScheme::DistanceTag:
        return traced
                   ? advanceStageImpl<RoutingScheme::DistanceTag,
                                      true>(stage)
                   : advanceStageImpl<RoutingScheme::DistanceTag,
                                      false>(stage);
      case RoutingScheme::TsdtDynamic:
        return traced
                   ? advanceStageImpl<RoutingScheme::TsdtDynamic,
                                      true>(stage)
                   : advanceStageImpl<RoutingScheme::TsdtDynamic,
                                      false>(stage);
    }
    IADM_PANIC("unreachable scheme");
}

void
NetworkSim::setHealthMonitor(obs::HealthMonitor *m)
{
    health_ = m;
    if (m == nullptr)
        return;
    const auto &hc = m->config();
    healthNextScan_ = now_ + hc.checkInterval;
    healthWinStart_ = now_;
    healthWinDelivered_ = metrics_.delivered();
    healthWinLatSum_ = metrics_.latencySum();
}

std::size_t
NetworkSim::healthNextQueue(unsigned stage, Label j,
                            const Packet &h) const
{
    // Backward walks wait purely on queue space (the mover checks
    // only fullness, never the fault view).
    if (h.goingBack && stage > h.resumeStage)
        return queues_.qid(stage - 1, h.pathSw[stage - 1]);
    if (stage + 1 == ltab_.stages())
        return kHealthNoQueue; // delivery never waits on a queue
    // A head parked on a FAIL verdict or a downed link is waiting on
    // the fault map, not on space — that wait class is bounded by
    // the age cap / churn repair and must not feed the wait-for
    // graph (a reroute may also move it somewhere else entirely).
    if (h.undeliverable)
        return kHealthNoQueue;
    topo::LinkKind kind;
    switch (cfg_.scheme) {
      case RoutingScheme::SsdtStatic:
      case RoutingScheme::SsdtBalanced:
        kind = headKind<RoutingScheme::SsdtStatic>(stage, j, h);
        break;
      case RoutingScheme::DistanceTag:
        kind = headKind<RoutingScheme::DistanceTag>(stage, j, h);
        break;
      default:
        kind = headKind<RoutingScheme::TsdtSender>(stage, j, h);
    }
    if (fview_.isBlocked(ltab_.index(stage, j, kind)))
        return kHealthNoQueue;
    return queues_.qid(stage + 1, ltab_.to(stage, j, kind));
}

void
NetworkSim::healthScan()
{
    obs::HealthMonitor &hm = *health_;
    const unsigned n = ltab_.stages();
    const auto queue_count =
        static_cast<std::uint32_t>(std::size_t{n} * cfg_.netSize);
    hm.beginScan(now_, queue_count);
    for (unsigned stage = 0; stage < n; ++stage) {
        const std::uint64_t *words =
            occWords_.data() +
            std::size_t{stage} * occWordsPerStage_;
        for (unsigned w = 0; w < occWordsPerStage_; ++w) {
            std::uint64_t word = words[w];
            while (word != 0) {
                const auto b = static_cast<unsigned>(
                    std::countr_zero(word));
                word &= word - 1;
                const auto j = static_cast<Label>((w << 6) | b);
                const std::size_t q = queues_.qid(stage, j);
                const Packet &h = queues_.front(q);
                // A head that moved this cycle is progressing, not
                // waiting — it contributes neither stall nor edge.
                if (h.movedAt == now_)
                    continue;
                const Cycle last = h.movedAt == ~Cycle{0}
                                       ? h.injected
                                       : h.movedAt;
                hm.headStuck(static_cast<std::uint32_t>(q),
                             now_ > last ? now_ - last : 0);
                if (!queues_.full(q))
                    continue;
                const std::size_t next =
                    healthNextQueue(stage, j, h);
                // The edge stamp is (packet id, last-move cycle):
                // the cycle signature then survives scan-to-scan
                // only while these exact heads stay frozen, which is
                // the deadlock condition — recurring congestion
                // among the same queues yields fresh signatures.
                if (next != kHealthNoQueue && queues_.full(next))
                    hm.waitEdge(static_cast<std::uint32_t>(q),
                                static_cast<std::uint32_t>(next),
                                h.id ^ (last *
                                        0x9e3779b97f4a7c15ull));
            }
        }
    }
    hm.endScan();
}

void
NetworkSim::healthTick()
{
    obs::HealthMonitor &hm = *health_;
    const auto &hc = hm.config();
    const Cycle done = now_ + 1; // cycles completed incl. this one
    if (hc.windowCycles != 0 &&
        done - healthWinStart_ >= hc.windowCycles) {
        const std::uint64_t d = metrics_.delivered();
        const std::uint64_t ls = metrics_.latencySum();
        const std::uint64_t dd = d - healthWinDelivered_;
        const std::uint64_t dl = ls - healthWinLatSum_;
        hm.steadyState().addWindow(
            static_cast<double>(dd) /
                static_cast<double>(done - healthWinStart_),
            dd != 0 ? static_cast<double>(dl) /
                          static_cast<double>(dd)
                    : 0.0);
        hm.noteDelivered(done, d);
        healthWinDelivered_ = d;
        healthWinLatSum_ = ls;
        healthWinStart_ = done;
    }
    if (done >= healthNextScan_) {
        healthScan();
        hm.noteDelivered(done, metrics_.delivered());
        healthNextScan_ = done + hc.checkInterval;
    }
}

void
NetworkSim::step()
{
    if (now_ >= churnNext_)
        runChurn();
    if (faults_.version() != faultsVersion_)
        refreshFaultView();
    inject();
    for (unsigned stage = ltab_.stages(); stage-- > 0;) {
        ++epoch_; // resets every acceptance count to zero, O(1)
        advanceStage(stage);
    }
    if (__builtin_expect(health_ != nullptr, 0))
        healthTick();
#ifdef IADM_SANITIZE_BUILD
    auditOccupancy();
#endif
    ++now_;
}

void
NetworkSim::run(Cycle cycles)
{
    for (Cycle c = 0; c < cycles; ++c)
        step();
}

} // namespace iadm::sim
