#include "sim/metrics.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "common/logging.hpp"
#include "obs/stats.hpp"

namespace iadm::sim {

const char *
dropReasonName(DropReason r)
{
    switch (r) {
      case DropReason::Unroutable: return "unroutable";
      case DropReason::Expired: return "expired";
      case DropReason::Legacy: return "legacy";
    }
    return "?";
}

Metrics::Metrics(Label n_size, unsigned n_stages)
    : nSize_(n_size), nStages_(n_stages),
      dropsByStage_(n_stages, 0), stalls_(n_stages, 0),
      reroutes_(n_stages, 0),
      hopsByLink_(static_cast<std::size_t>(n_stages) * n_size * 3, 0),
      depthSum_(n_stages, 0), depthSamples_(n_stages, 0)
{
    // Reserved once, so the simulator's own Metrics grows its
    // histogram without allocating; copies carry only the used
    // prefix.
    latencyHist_.reserve(kLatencyCap + 1);
}

std::size_t
Metrics::growLatencyHistogram(Cycle lat)
{
    const std::size_t bucket = std::min<Cycle>(lat, kLatencyCap);
    if (bucket >= latencyHist_.size())
        latencyHist_.resize(bucket + 1);
    if (lat > kLatencyCap && !latencyCapped_) {
        latencyCapped_ = true;
        // Formatted on the stack: this runs inside step(), which
        // never allocates (docs/PERF.md).
        char msg[192];
        std::snprintf(msg, sizeof msg,
                      "latency %" PRIu64 " exceeds the histogram cap "
                      "of %zu cycles; high percentiles are now lower "
                      "bounds (latency_capped will be set in reports)",
                      lat, kLatencyCap);
        detail::warnImpl(msg);
    }
    return bucket;
}

std::uint64_t
Metrics::totalReroutes() const
{
    return std::accumulate(reroutes_.begin(), reroutes_.end(),
                           std::uint64_t{0});
}

std::uint64_t
Metrics::totalStalls() const
{
    return std::accumulate(stalls_.begin(), stalls_.end(),
                           std::uint64_t{0});
}

std::uint64_t
Metrics::totalHops() const
{
    return std::accumulate(hopsByLink_.begin(), hopsByLink_.end(),
                           std::uint64_t{0});
}

double
Metrics::avgRecoveryWait() const
{
    return recoveries_ == 0
               ? 0.0
               : static_cast<double>(recoveryWaitSum_) /
                     static_cast<double>(recoveries_);
}

double
Metrics::avgLatency() const
{
    return delivered_ == 0
               ? 0.0
               : static_cast<double>(latencySum_) /
                     static_cast<double>(delivered_);
}

Cycle
Metrics::latencyPercentile(double q) const
{
    IADM_ASSERT(q >= 0.0 && q <= 1.0, "percentile out of range");
    if (delivered_ == 0)
        return 0;
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(delivered_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t lat = 0; lat < latencyHist_.size(); ++lat) {
        seen += latencyHist_[lat];
        if (seen > rank)
            return lat;
    }
    return maxLatency_;
}

double
Metrics::throughput(Cycle cycles) const
{
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(delivered_) /
           (static_cast<double>(cycles) * nSize_);
}

double
Metrics::linkUtilization(unsigned stage, Cycle cycles) const
{
    if (cycles == 0)
        return 0.0;
    std::uint64_t used = 0;
    for (Label j = 0; j < nSize_; ++j)
        for (unsigned k = 0; k < 3; ++k)
            used += hopsByLink_[linkIndex(
                stage, j, static_cast<topo::LinkKind>(k))];
    return static_cast<double>(used) /
           (static_cast<double>(cycles) * nSize_ * 3);
}

double
Metrics::nonstraightImbalance(unsigned stage) const
{
    double sum = 0.0;
    unsigned counted = 0;
    for (Label j = 0; j < nSize_; ++j) {
        const auto plus = static_cast<double>(
            hopsByLink_[linkIndex(stage, j, topo::LinkKind::Plus)]);
        const auto minus = static_cast<double>(
            hopsByLink_[linkIndex(stage, j, topo::LinkKind::Minus)]);
        if (plus + minus == 0)
            continue;
        sum += std::abs(plus - minus) / (plus + minus);
        ++counted;
    }
    return counted == 0 ? 0.0 : sum / counted;
}

double
Metrics::avgQueueDepth(unsigned stage) const
{
    return depthSamples_[stage] == 0
               ? 0.0
               : static_cast<double>(depthSum_[stage]) /
                     static_cast<double>(depthSamples_[stage]);
}

void
Metrics::exportStats(obs::StatsRegistry &reg, Cycle cycles) const
{
    reg.counter("sim.injected", injected_);
    reg.counter("sim.delivered", delivered_);
    reg.counter("sim.throttled", throttled_);
    reg.counter("sim.unroutable", unroutable_);
    reg.counter("sim.dropped", dropped_);
    for (unsigned r = 0; r < kDropReasons; ++r)
        reg.counter(std::string("sim.dropped_") +
                        dropReasonName(static_cast<DropReason>(r)),
                    dropsByReason_[r]);
    reg.vector("sim.drops_by_stage", dropsByStage_);
    reg.counter("sim.fault_downs", faultDowns_);
    reg.counter("sim.fault_ups", faultUps_);
    reg.counter("sim.delivered_during_faults",
                deliveredDuringFaults_);
    reg.counter("sim.reroute_recoveries", recoveries_);
    reg.scalar("sim.avg_recovery_wait", avgRecoveryWait());
    reg.counter("sim.hops", totalHops());
    reg.counter("sim.backtrack_hops", backtrackHops_);
    reg.counter("sim.reroutes", totalReroutes());
    reg.counter("sim.stalls", totalStalls());
    reg.scalar("sim.avg_latency", avgLatency());
    reg.counter("sim.max_latency", maxLatency_);
    reg.counter("sim.latency_capped", latencyCapped_ ? 1 : 0);
    reg.scalar("sim.throughput", throughput(cycles));
    reg.vector("sim.stalls_by_stage", stalls_);
    reg.vector("sim.reroutes_by_stage", reroutes_);
    reg.histogram("sim.latency_hist", latencyHist_);
}

std::string
Metrics::summary(Cycle cycles) const
{
    std::ostringstream os;
    os << "injected=" << injected_ << " delivered=" << delivered_
       << " throttled=" << throttled_
       << " avg_latency=" << avgLatency()
       << " max_latency=" << maxLatency_
       << " throughput=" << throughput(cycles)
       << " reroutes=" << totalReroutes()
       << " stalls=" << totalStalls()
       << " dropped=" << dropped_
       << " unroutable=" << unroutable_;
    return os.str();
}

} // namespace iadm::sim
