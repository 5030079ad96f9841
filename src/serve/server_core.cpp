#include "serve/server_core.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include "baselines/distance_tag.hpp"
#include "common/modmath.hpp"
#include "core/distributed.hpp"
#include "core/reroute.hpp"
#include "serve/snapshot.hpp"

namespace iadm::serve {

ServerCore::ServerCore(const ServeConfig &cfg,
                       fault::FaultSet static_faults)
    : cfg_(cfg), topo_(cfg.netSize),
      faults_(std::move(static_faults)),
      fview_(topo_.stages(), cfg.netSize),
      rcache_(cfg.netSize, cfg.cacheCapacity), ssdt_(topo_)
{
    if (cfg_.churn.kind != sim::ChurnSpec::Kind::None) {
        // Same seed-stream split the sweep runner uses, so a served
        // churn trajectory is comparable to a simulated one.
        auto p = cfg_.churn.make(topo_, cfg_.seed ^ 0xc402d5eed5ull);
        if (p)
            churn_.push_back(std::move(p));
    }
}

const fault::FaultView &
ServerCore::faultView()
{
    if (viewVersion_ != faults_.version()) {
        fview_.refresh(faults_);
        viewVersion_ = faults_.version();
    }
    return fview_;
}

ServerCore::BatchOutcome
ServerCore::resolveBatch(const Request *reqs, std::size_t n,
                         std::string &out,
                         std::vector<Extent> *extents)
{
    BatchOutcome bo;
    if (n == 0)
        return bo;

    const auto t0 = std::chrono::steady_clock::now();

    EpochGuard guard(mu_, faults_);

    stats_.batches += 1;
    stats_.requests += n;
    stats_.maxBatch = std::max<std::uint64_t>(stats_.maxBatch, n);

    for (std::size_t i = 0; i < n; ++i) {
        // The torn-snapshot invariant: between requests of one
        // batch the fault version may move only through this
        // batch's own inject/clear-fault handling (which repins).
        stats_.epochTorn = guard.tornObserved() > 0
                               ? stats_.epochTorn + 1
                               : stats_.epochTorn;

        const std::size_t off = out.size();
        const Request &r = reqs[i];
        if (r.op == Request::Op::InjectFault ||
            r.op == Request::Op::ClearFault) {
            topo::Link l{};
            if (!parseLinkSpec(topo_, r.link, l)) {
                ++stats_.errors;
                ResponseWriter w(out, r.id);
                w.field("error",
                        std::string("bad link spec '") + r.link +
                            "'");
                w.finish();
            } else {
                if (r.op == Request::Op::InjectFault)
                    faults_.blockLink(l);
                else
                    faults_.unblockLink(l);
                guard.repin();
                ResponseWriter w(out, r.id);
                w.field("op", std::string_view(opName(r.op)));
                w.field("epoch", guard.epoch());
                w.field("ok", true);
                w.field("link", r.link);
                w.field("faults",
                        static_cast<std::uint64_t>(faults_.count()));
                w.finish();
            }
        } else {
            resolveOne(r, guard.epoch(), bo, out);
        }
        ++bo.served;
        if (extents)
            extents->push_back({off, out.size() - off});
    }

    // Batch-amortized daemon-side service time: two clock reads per
    // batch, each request charged the per-request average.  Batched
    // and unbatched modes fill the same histogram, so BENCH_serve
    // can put daemon-side p50/p99 next to the client-side numbers.
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    const std::uint64_t per_req = ns / n;
    const unsigned bucket =
        per_req == 0
            ? 0
            : std::min<unsigned>(std::bit_width(per_req),
                                 kServiceBuckets - 1);
    stats_.serviceHist[bucket] += n;
    stats_.serviceSamples += n;

    // The liveness breadcrumb: a wedged daemon's last-progress epoch
    // freezes while the churn clock keeps moving.
    stats_.lastProgressEpoch = guard.epoch();
    return bo;
}

void
ServerCore::resolveOne(const Request &r, std::uint64_t epoch,
                       BatchOutcome &bo, std::string &out)
{
    switch (r.op) {
      case Request::Op::Route:
        answerRoute(r, epoch, /*want_path=*/false, out);
        return;
      case Request::Op::Trace:
        answerRoute(r, epoch, /*want_path=*/true, out);
        return;
      case Request::Op::Stats:
        answerStats(r, epoch, out);
        return;
      case Request::Op::Health:
        answerHealth(r, epoch, out);
        return;
      case Request::Op::Shutdown: {
        bo.shutdown = true;
        ResponseWriter w(out, r.id);
        w.field("op", std::string_view("shutdown"));
        w.field("epoch", epoch);
        w.field("ok", true);
        w.finish();
        return;
      }
      case Request::Op::InjectFault:
      case Request::Op::ClearFault:
        break; // handled inline by resolveBatch (repin)
      case Request::Op::Bad: {
        ++stats_.errors;
        ResponseWriter w(out, r.id);
        w.field("error", r.error);
        w.finish();
        return;
      }
    }
}

void
ServerCore::answerRoute(const Request &r, std::uint64_t epoch,
                        bool want_path, std::string &out)
{
    const Label n_size = topo_.size();
    const unsigned n = topo_.stages();
    if (r.src >= n_size || r.dst >= n_size) {
        ++stats_.errors;
        ResponseWriter w(out, r.id);
        w.field("error",
                std::string_view("src/dst out of range for this "
                                 "network"));
        w.finish();
        return;
    }

    ResponseWriter w(out, r.id);
    w.field("op",
            std::string_view(want_path ? "trace" : "route"));
    w.field("epoch", epoch);

    switch (cfg_.scheme) {
      case sim::RoutingScheme::TsdtSender: {
        core::TsdtTag tag;
        unsigned reroutes = 0;
        bool ok;
        if (faults_.empty()) {
            // Fault-free REROUTE returns the initial tag untouched
            // (NetworkSim::inject() takes the same shortcut).
            tag = core::initialTag(n, r.dst);
            reroutes = 0;
            ok = true;
        } else {
            const auto [e, hit] = rcache_.resolveUniversal(
                topo_, faults_, faultView(), r.src, r.dst);
            if (hit)
                ++stats_.routeHits;
            else
                ++stats_.routeMisses;
            ok = e->ok();
            if (ok) {
                tag = e->tagFor(n);
                reroutes = e->reroutes;
            }
        }
        w.field("ok", ok);
        if (ok) {
            w.field("tag", tag.str());
            w.field("reroutes",
                    static_cast<std::uint64_t>(reroutes));
            if (want_path) {
                std::uint16_t sw[sim::RouteCache::kMaxPathSw];
                const unsigned cnt = core::decodeDelta(
                    r.src, r.dst, tag.stateBits(), n, sw);
                w.beginArray("path");
                for (unsigned i = 0; i < cnt; ++i)
                    w.element(sw[i]);
                w.endArray();
            }
        } else {
            ++stats_.unroutable;
        }
        break;
      }
      case sim::RoutingScheme::TsdtDynamic: {
        const auto d =
            core::distributedRoute(topo_, faults_, r.src, r.dst);
        if (!d.delivered)
            ++stats_.unroutable;
        w.field("ok", d.delivered);
        w.field("hops",
                static_cast<std::uint64_t>(d.totalHops()));
        w.field("backtracks",
                static_cast<std::uint64_t>(d.backtrackHops));
        w.field("probes", static_cast<std::uint64_t>(d.probes));
        w.field("flips", static_cast<std::uint64_t>(d.flips));
        w.field("rewrites",
                static_cast<std::uint64_t>(d.rewrites));
        if (want_path && d.delivered) {
            w.beginArray("path");
            for (unsigned i = 0; i <= d.path.length(); ++i)
                w.element(d.path.switchAt(i));
            w.endArray();
        }
        break;
      }
      case sim::RoutingScheme::SsdtStatic:
      case sim::RoutingScheme::SsdtBalanced: {
        // Queue-occupancy balancing has no meaning for a single
        // served query (there are no queues), so both SSDT variants
        // answer with the plain self-repairing walk; the persistent
        // switch-state repairs accumulate across requests exactly
        // like latched hardware states (docs/SERVING.md).
        const auto s = ssdt_.route(r.src, r.dst, faults_);
        if (!s.delivered)
            ++stats_.unroutable;
        w.field("ok", s.delivered);
        w.field("flips",
                static_cast<std::uint64_t>(s.stateFlips));
        if (want_path && s.delivered) {
            w.beginArray("path");
            for (unsigned i = 0; i <= s.path.length(); ++i)
                w.element(s.path.switchAt(i));
            w.endArray();
        }
        break;
      }
      case sim::RoutingScheme::DistanceTag: {
        baselines::OpCount ops;
        const Label dist = modSub(r.dst, r.src, n_size);
        const auto tag = baselines::SignedDigitTag::positiveDominant(
            n, dist, ops);
        const auto path =
            baselines::distanceTagTrace(topo_, r.src, tag);
        const bool ok = path.isBlockageFree(faults_);
        if (!ok)
            ++stats_.unroutable;
        w.field("ok", ok);
        w.field("tag", tag.str());
        w.field("ops", ops.ops);
        if (want_path && ok) {
            w.beginArray("path");
            for (unsigned i = 0; i <= path.length(); ++i)
                w.element(path.switchAt(i));
            w.endArray();
        }
        break;
      }
    }
    w.finish();
}

void
ServerCore::answerStats(const Request &r, std::uint64_t epoch,
                        std::string &out)
{
    ResponseWriter w(out, r.id);
    w.field("op", std::string_view("stats"));
    w.field("epoch", epoch);
    w.field("scheme",
            std::string_view(sim::routingSchemeName(cfg_.scheme)));
    w.field("net_size", static_cast<std::uint64_t>(cfg_.netSize));
    w.field("faults", static_cast<std::uint64_t>(faults_.count()));
    w.field("requests", stats_.requests);
    w.field("batches", stats_.batches);
    w.field("max_batch", stats_.maxBatch);
    w.field("cache_hits", stats_.routeHits);
    w.field("cache_misses", stats_.routeMisses);
    w.field("unroutable", stats_.unroutable);
    w.field("errors", stats_.errors);
    w.field("epoch_torn", stats_.epochTorn);
    w.field("churn_ticks", stats_.churnTicks);
    w.field("fault_downs", stats_.faultDowns);
    w.field("fault_ups", stats_.faultUps);
    w.field("service_samples", stats_.serviceSamples);
    w.field("service_p50_us", stats_.servicePercentileUs(0.5));
    w.field("service_p99_us", stats_.servicePercentileUs(0.99));
    // Sparse log-bucket histogram, [upper_bound_ns, count] pairs —
    // the sweep report's latency_hist convention.
    w.beginArray("service_hist_ns");
    for (unsigned b = 0; b < kServiceBuckets; ++b) {
        if (stats_.serviceHist[b] == 0)
            continue;
        w.pairElement(b == 0 ? 0 : std::uint64_t{1} << b,
                      stats_.serviceHist[b]);
    }
    w.endArray();
    w.finish();
}

double
ServerCore::Stats::servicePercentileUs(double q) const
{
    if (serviceSamples == 0)
        return 0;
    auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(serviceSamples));
    if (target == 0)
        target = 1;
    // Bucket b's upper bound is 2^b ns (0 for bucket 0).
    const auto upper_us = [](unsigned b) {
        return b == 0 ? 0.0
                      : static_cast<double>(std::uint64_t{1} << b) / 1e3;
    };
    std::uint64_t cum = 0;
    for (unsigned b = 0; b < kServiceBuckets; ++b) {
        cum += serviceHist[b];
        if (cum >= target)
            return upper_us(b);
    }
    return upper_us(kServiceBuckets - 1);
}

void
ServerCore::answerHealth(const Request &r, std::uint64_t epoch,
                         std::string &out)
{
    // Running at all under the serving mutex is itself the liveness
    // statement a client cares about most; the watchdog counters
    // report what happened while no client was looking.
    const std::uint64_t missed_run =
        wdMissedRun_.load(std::memory_order_relaxed);
    ResponseWriter w(out, r.id);
    w.field("op", std::string_view("health"));
    w.field("status",
            std::string_view(missed_run >= kWatchdogStallRun
                                 ? "stalled"
                                 : "ok"));
    w.field("epoch", epoch);
    w.field("epoch_torn", stats_.epochTorn);
    w.field("last_progress_epoch", stats_.lastProgressEpoch);
    w.field("requests", stats_.requests);
    w.field("batches", stats_.batches);
    w.field("churn_ticks", stats_.churnTicks);
    w.field("watchdog_ticks",
            wdTicks_.load(std::memory_order_relaxed));
    w.field("watchdog_missed",
            wdMissed_.load(std::memory_order_relaxed));
    w.field("watchdog_missed_run", missed_run);
    w.field("watchdog_max_missed_run",
            wdMaxMissedRun_.load(std::memory_order_relaxed));
    // Requests served per completed uptime window (kTicksPerWindow
    // heartbeats each), oldest first: a stall shows up as zeroed
    // windows even after the daemon recovers.
    w.beginArray("uptime_windows");
    const auto filled = static_cast<unsigned>(
        std::min<std::uint64_t>(wdWindowFilled_, kUptimeWindows));
    for (unsigned i = 0; i < filled; ++i) {
        const unsigned idx =
            (wdWindowPos_ + kUptimeWindows - filled + i) %
            kUptimeWindows;
        w.element(wdWindowReq_[idx]);
    }
    w.endArray();
    w.finish();
}

void
ServerCore::heartbeat()
{
    wdTicks_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    if (!lock.owns_lock()) {
        // The serving mutex is held — by a batch in flight (fine) or
        // a wedged resolution (what the run-length exposes).
        wdMissed_.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t run =
            wdMissedRun_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (run > wdMaxMissedRun_.load(std::memory_order_relaxed))
            wdMaxMissedRun_.store(run, std::memory_order_relaxed);
        return;
    }
    wdMissedRun_.store(0, std::memory_order_relaxed);
    if (++wdWindowTicks_ >= kTicksPerWindow) {
        wdWindowTicks_ = 0;
        wdWindowReq_[wdWindowPos_] =
            stats_.requests - wdLastRequests_;
        wdLastRequests_ = stats_.requests;
        wdWindowPos_ = (wdWindowPos_ + 1) % kUptimeWindows;
        if (wdWindowFilled_ < kUptimeWindows)
            ++wdWindowFilled_;
    }
}

void
ServerCore::tickChurn()
{
    if (churn_.empty())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    ++churnCycle_;
    ++stats_.churnTicks;
    for (auto &p : churn_) {
        if (p->nextTransition() > churnCycle_)
            continue;
        p->runUntil(churnCycle_, faults_,
                    [this](std::uint64_t, const topo::Link &,
                           bool down) {
                        if (down)
                            ++stats_.faultDowns;
                        else
                            ++stats_.faultUps;
                    });
    }
}

std::uint64_t
ServerCore::epoch() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return faults_.version();
}

ServerCore::Stats
ServerCore::statsSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

bool
ServerCore::parseFaultArg(const topo::IadmTopology &net,
                          const std::string &spec,
                          std::uint64_t seed, fault::FaultSet &out,
                          std::string &err)
{
    if (spec.empty() || spec == "none")
        return true;
    if (const auto sc = sim::FaultScenario::parse(spec)) {
        if (const auto bad = sc->validate(net.size())) {
            err = *bad;
            return false;
        }
        Rng rng(seed ^ 0x5eedfa17ull);
        out.merge(sc->make(net, rng));
        return true;
    }
    // Fall back to explicit comma-separated link specs.
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const auto comma = spec.find(',', pos);
        const std::string one =
            spec.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        topo::Link l{};
        if (!parseLinkSpec(net, one, l)) {
            err = "bad fault spec '" + one +
                  "' (want a scenario like links:4 or a "
                  "stage:from:kind list)";
            return false;
        }
        out.blockLink(l);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return true;
}

} // namespace iadm::serve
