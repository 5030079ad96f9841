/**
 * @file
 * Unit tests for the observability subsystem (src/obs/): the
 * TraceSink ring buffer, the StatsRegistry, both trace exporters,
 * the snapshot reconstructor, and the non-perturbation guarantees
 * the golden sweep fixtures rely on (attaching a sink must never
 * change simulation results; the stats / latency_capped report
 * fields must stay absent by default).
 */

#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json_writer.hpp"
#include "obs/inspector.hpp"
#include "obs/stats.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_sink.hpp"
#include "sim/metrics.hpp"
#include "sim/network_sim.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace iadm;
using obs::EventKind;
using obs::TraceEvent;
using obs::TraceSink;

TEST(TraceSink, LayoutIsPinned)
{
    // The hot record() is a 24-byte store; growth dilates the ring.
    EXPECT_EQ(sizeof(TraceEvent), 24u);
    EXPECT_TRUE(std::is_trivially_copyable_v<TraceEvent>);
}

TEST(TraceSink, RecordAndSnapshot)
{
    TraceSink sink(8);
    EXPECT_EQ(sink.capacity(), 8u);
    EXPECT_EQ(sink.size(), 0u);

    for (std::uint64_t k = 0; k < 5; ++k)
        sink.record(EventKind::Hop, /*packet=*/k, /*cycle=*/k * 2,
                    /*stage=*/1, /*sw=*/3, /*link=*/0, /*aux=*/4,
                    /*tag_dest=*/7, /*tag_state=*/1);
    EXPECT_EQ(sink.size(), 5u);
    EXPECT_EQ(sink.recorded(), 5u);
    EXPECT_EQ(sink.droppedOldest(), 0u);

    const auto events = sink.snapshot();
    ASSERT_EQ(events.size(), 5u);
    for (std::uint64_t k = 0; k < 5; ++k) {
        EXPECT_EQ(events[k].packet, k);
        EXPECT_EQ(events[k].cycle, k * 2);
        EXPECT_EQ(events[k].kind, EventKind::Hop);
        EXPECT_EQ(events[k].sw, 3u);
        EXPECT_EQ(events[k].aux, 4u);
        EXPECT_EQ(events[k].tagDest, 7u);
        EXPECT_EQ(events[k].tagState, 1u);
    }
}

TEST(TraceSink, WrapDropsOldestKeepsNewest)
{
    TraceSink sink(4);
    for (std::uint64_t k = 0; k < 11; ++k)
        sink.record(EventKind::Inject, k, k, 0, 0,
                    TraceEvent::kNoLink, 0, 0, 0);
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.recorded(), 11u);
    EXPECT_EQ(sink.droppedOldest(), 7u);

    // The retained window is the newest events, oldest first.
    const auto events = sink.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (std::uint64_t k = 0; k < 4; ++k)
        EXPECT_EQ(events[k].packet, 7 + k);
}

TEST(TraceSink, CapacityRoundsUpToPowerOfTwo)
{
    TraceSink sink(5);
    EXPECT_EQ(sink.capacity(), 8u);
}

TEST(TraceSink, ClearForgetsEventsKeepsCapacity)
{
    TraceSink sink(8);
    sink.record(EventKind::Hop, 1, 1, 0, 0, 0, 0, 0, 0);
    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.capacity(), 8u);
    EXPECT_TRUE(sink.snapshot().empty());
}

TEST(StatsRegistry, RegistrationOrderAndLookup)
{
    obs::StatsRegistry reg;
    reg.counter("sim.delivered", 42);
    reg.scalar("sim.avg_latency", 4.5);
    reg.vector("sim.stalls_by_stage", {1, 2, 3});
    reg.histogram("sim.latency_hist", {0, 0, 5, 1});

    ASSERT_EQ(reg.size(), 4u);
    EXPECT_EQ(reg.entries()[0].name, "sim.delivered");
    EXPECT_EQ(reg.entries()[3].name, "sim.latency_hist");

    const auto *e = reg.find("sim.delivered");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->counter, 42u);
    EXPECT_EQ(reg.find("no.such.stat"), nullptr);
}

TEST(StatsRegistry, TextAndJsonRenderings)
{
    obs::StatsRegistry reg;
    reg.counter("a.count", 7);
    reg.scalar("a.rate", 0.5);
    reg.vector("a.vec", {4, 5});
    reg.histogram("a.hist", {0, 3, 0, 2});

    const std::string text = reg.str();
    EXPECT_NE(text.find("a.count 7"), std::string::npos);
    EXPECT_NE(text.find("a.vec 4 5"), std::string::npos);
    // Histograms render sparsely: zero buckets are skipped.
    EXPECT_NE(text.find("a.hist 1:3 3:2"), std::string::npos);

    std::ostringstream os;
    {
        JsonWriter w(os);
        reg.writeJson(w);
    }
    const std::string json = os.str();
    EXPECT_NE(json.find("\"a.count\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"a.rate\": 0.5"), std::string::npos);
    EXPECT_NE(json.find("\"a.vec\": ["), std::string::npos);
    // Histogram pairs are sparse: buckets 1 and 3, never 0 or 2.
    EXPECT_NE(json.find("\"a.hist\": ["), std::string::npos);
    const std::size_t hist_at = json.find("\"a.hist\"");
    EXPECT_EQ(json.find("0,", hist_at), std::string::npos);
}

/** Fill a sink with a deterministic mixed-kind event sequence. */
void
fillSample(TraceSink &sink)
{
    sink.record(EventKind::Inject, 1, 0, 0, 5, TraceEvent::kNoLink,
                0, 12, 1);
    sink.record(EventKind::Hop, 1, 1, 0, 5, 1, 6, 12, 1);
    sink.record(EventKind::Stall, 2, 1, 0, 3, 0, 3, 9, 0);
    sink.record(EventKind::Reroute, 1, 1, 1, 6, 2, 1, 12, 3);
    sink.record(EventKind::Deliver, 1, 4, 3, 12, 0, 12, 12, 1);
}

TEST(TraceExport, ChromeDocumentShape)
{
    TraceSink sink(16);
    fillSample(sink);

    std::ostringstream os;
    obs::writeChromeTrace(os, sink, {16, 4, "tsdt"});
    const std::string doc = os.str();

    // Structural sanity a Chrome/Perfetto loader requires.
    EXPECT_EQ(doc.front(), '{');
    for (const char *needle :
         {"\"traceEvents\"", "\"displayTimeUnit\"",
          "\"ph\": \"X\"", "\"ph\": \"i\"", "\"pid\": 1",
          "\"name\": \"inject\"", "\"name\": \"deliver\"",
          "\"cat\": \"stage0\"", "\"cat\": \"stage3\"",
          "\"iadm-trace-chrome-v1\""})
        EXPECT_NE(doc.find(needle), std::string::npos)
            << "missing " << needle;

    // Balanced braces/brackets => no truncated emission.
    long depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        const char c = doc[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            --depth;
            ASSERT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

TEST(TraceExport, BinaryRoundTrip)
{
    TraceSink sink(16);
    fillSample(sink);

    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    obs::writeBinaryTrace(ss, sink, {16, 4, "tsdt"});

    const auto back = obs::readBinaryTrace(ss);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->meta.netSize, 16u);
    EXPECT_EQ(back->meta.stages, 4u);
    EXPECT_EQ(back->meta.scheme, "tsdt");

    const auto orig = sink.snapshot();
    ASSERT_EQ(back->events.size(), orig.size());
    for (std::size_t k = 0; k < orig.size(); ++k) {
        EXPECT_EQ(back->events[k].packet, orig[k].packet);
        EXPECT_EQ(back->events[k].cycle, orig[k].cycle);
        EXPECT_EQ(back->events[k].kind, orig[k].kind);
        EXPECT_EQ(back->events[k].sw, orig[k].sw);
        EXPECT_EQ(back->events[k].link, orig[k].link);
    }
}

TEST(TraceExport, BinaryRejectsCorruption)
{
    TraceSink sink(16);
    fillSample(sink);
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    obs::writeBinaryTrace(ss, sink, {16, 4, "tsdt"});
    std::string doc = ss.str();

    // Bad magic.
    std::string bad = doc;
    bad[0] ^= 0x5a;
    std::istringstream is1(bad);
    EXPECT_FALSE(obs::readBinaryTrace(is1).has_value());

    // Truncated mid-event.
    std::istringstream is2(doc.substr(0, doc.size() - 7));
    EXPECT_FALSE(obs::readBinaryTrace(is2).has_value());
}

TEST(Inspector, SnapshotReconstructsOccupancy)
{
    TraceSink sink(64);
    // Packet 1: injected at stage-0 switch 5 on cycle 0, then one
    // hop per cycle 5 -> 4 -> 4 -> 12, delivered on cycle 4.
    // Packet 2: injected at switch 3 on cycle 1, still queued at
    // stage 0 afterwards.  Packet 3: throttled (never enqueued).
    sink.record(EventKind::Inject, 1, 0, 0, 5, TraceEvent::kNoLink,
                0, 12, 0);
    sink.record(EventKind::Hop, 1, 1, 0, 5, 2, 4, 12, 0);
    sink.record(EventKind::StateFlip, 1, 1, 1, 4, 1, 1, 12, 2);
    sink.record(EventKind::Inject, 2, 1, 0, 3, TraceEvent::kNoLink,
                0, 9, 0);
    sink.record(EventKind::Drop, 3, 1, 0, 7, TraceEvent::kNoLink, 0,
                1, 0, TraceEvent::kFlagNotEnqueued);
    // Future events: must not affect a cycle-1 snapshot.
    sink.record(EventKind::Hop, 1, 2, 1, 4, 0, 4, 12, 0);
    sink.record(EventKind::Hop, 1, 3, 2, 4, 1, 12, 12, 0);
    sink.record(EventKind::Deliver, 1, 4, 3, 12, 1, 12, 12, 0);

    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    obs::writeBinaryTrace(ss, sink, {16, 4, "tsdt"});
    const auto trace = obs::readBinaryTrace(ss);
    ASSERT_TRUE(trace.has_value());

    const auto snap = obs::queueSnapshot(*trace, 1);
    EXPECT_EQ(snap.cycle, 1u);
    EXPECT_EQ(snap.netSize, 16u);
    ASSERT_EQ(snap.depth.size(), 4u);
    EXPECT_EQ(snap.inFlight, 2u); // packets 1 and 2
    EXPECT_EQ(snap.depth[0][5], 0u); // packet 1 left stage 0
    EXPECT_EQ(snap.depth[1][4], 1u); // ... and arrived at stage 1
    EXPECT_EQ(snap.depth[0][3], 1u); // packet 2 still queued
    EXPECT_EQ(snap.depth[0][7], 0u); // packet 3 was never enqueued
    EXPECT_EQ(snap.state[1][4], 1);  // StateFlip left Cbar
    EXPECT_EQ(snap.state[0][5], -1); // untouched => unknown

    // The rendering mentions the heatmap rows.
    const std::string text = obs::printSnapshot(snap);
    EXPECT_NE(text.find("S0"), std::string::npos);
    EXPECT_NE(text.find("in-flight=2"), std::string::npos);

    // After the deliver event the packet leaves the network.
    EXPECT_EQ(obs::queueSnapshot(*trace, 4).inFlight, 1u);
}

TEST(Metrics, LatencyCapSetsHonestyFlag)
{
    sim::Metrics m(16, 4);
    sim::Packet p;
    p.injected = 0;

    m.recordDelivered(p, 10);
    EXPECT_FALSE(m.latencyCapped());

    m.recordDelivered(p, sim::Metrics::latencyCap() + 50);
    EXPECT_TRUE(m.latencyCapped());
    // The overflow bucket clamps the percentile to the cap, and the
    // histogram stops growing there.
    EXPECT_EQ(m.latencyPercentile(1.0), sim::Metrics::latencyCap());
    EXPECT_EQ(m.latencyHistogram().size(),
              sim::Metrics::latencyCap() + 1);
    m.recordDelivered(p, 3 * sim::Metrics::latencyCap());
    EXPECT_EQ(m.latencyHistogram().size(),
              sim::Metrics::latencyCap() + 1);
    EXPECT_EQ(m.latencyHistogram().back(), 2u);
}

TEST(Metrics, LatencyHistogramHoldsOnlyItsUsedPrefix)
{
    // Sized by content: buckets 0..highest latency, so a copy (a
    // sweep's ReplicateResult) carries no trailing zeros.
    sim::Metrics m(16, 4);
    EXPECT_TRUE(m.latencyHistogram().empty());
    sim::Packet p;
    p.injected = 0;
    for (const sim::Cycle lat : {3, 10, 7})
        m.recordDelivered(p, lat);
    ASSERT_EQ(m.latencyHistogram().size(), 11u);
    EXPECT_EQ(m.latencyHistogram()[10], 1u);

    sim::Metrics copy = m;
    EXPECT_EQ(copy.latencyHistogram(), m.latencyHistogram());
    EXPECT_EQ(copy.latencyPercentile(1.0), 10u);

    // A copy keeps no spare capacity to grow into, and still grows.
    copy.recordDelivered(p, 40);
    ASSERT_EQ(copy.latencyHistogram().size(), 41u);
    EXPECT_EQ(copy.latencyHistogram()[40], 1u);
    EXPECT_EQ(copy.latencyPercentile(1.0), 40u);
    EXPECT_EQ(m.latencyHistogram().size(), 11u);
    EXPECT_FALSE(copy.latencyCapped());
}

TEST(Metrics, ZeroSampleGuardsOnPartialData)
{
    // A metrics object with traffic on some stages but none on
    // others: the untouched stages must read 0, not NaN/UB.
    sim::Metrics m(16, 4);
    m.recordHop(fault::linkIndex(0, 1, topo::LinkKind::Plus, 16));
    m.sampleStageDepths(0, 3, 1);

    EXPECT_GT(m.nonstraightImbalance(0), 0.0);
    EXPECT_DOUBLE_EQ(m.avgQueueDepth(0), 3.0);
    for (unsigned s = 1; s < 4; ++s) {
        EXPECT_DOUBLE_EQ(m.nonstraightImbalance(s), 0.0);
        EXPECT_DOUBLE_EQ(m.avgQueueDepth(s), 0.0);
    }
    EXPECT_DOUBLE_EQ(m.avgLatency(), 0.0); // nothing delivered
    EXPECT_EQ(m.latencyPercentile(0.99), 0u);
}

TEST(Metrics, ExportStatsRegistersSimNames)
{
    sim::Metrics m(16, 4);
    sim::Packet p;
    p.injected = 2;
    m.recordInjected();
    m.recordDelivered(p, 6);
    m.recordStall(1);

    obs::StatsRegistry reg;
    m.exportStats(reg, 100);
    const auto *delivered = reg.find("sim.delivered");
    ASSERT_NE(delivered, nullptr);
    EXPECT_EQ(delivered->counter, 1u);
    ASSERT_NE(reg.find("sim.stalls_by_stage"), nullptr);
    EXPECT_EQ(reg.find("sim.stalls_by_stage")->values[1], 1u);
    ASSERT_NE(reg.find("sim.latency_hist"), nullptr);
    EXPECT_EQ(reg.find("sim.latency_hist")->values[4], 1u);
    ASSERT_NE(reg.find("sim.latency_capped"), nullptr);
    EXPECT_EQ(reg.find("sim.latency_capped")->counter, 0u);
}

/** One small deterministic sweep, optionally with sinks attached. */
std::string
sweepReport(std::size_t trace_capacity, bool include_stats)
{
    sim::SweepGrid grid;
    grid.netSizes = {16};
    grid.schemes = {sim::RoutingScheme::TsdtDynamic};
    grid.injectionRates = {0.3};
    grid.faults = {
        *sim::FaultScenario::parse("links:3"),
    };
    grid.replicates = 2;
    grid.warmupCycles = 50;
    grid.measureCycles = 300;
    grid.masterSeed = 7;

    sim::SweepOptions opts;
    opts.traceCapacity = trace_capacity;
    std::uint64_t traced_events = 0;
    if (trace_capacity != 0) {
        opts.onReplicateTrace = [&traced_events](
                                    const sim::SweepCell &, unsigned,
                                    const obs::TraceSink &sink,
                                    const sim::NetworkSim &) {
            traced_events += sink.recorded();
        };
    }
    const auto results = sim::runSweep(grid, opts);
    sim::ReportOptions ropts;
    ropts.includeStats = include_stats;
    const std::string doc =
        sim::sweepReportJson(grid, results, ropts);
    if (trace_capacity != 0 && obs::traceCompiledIn()) {
        EXPECT_GT(traced_events, 0u);
    }
    return doc;
}

TEST(SweepObservability, AttachedSinkDoesNotPerturbResults)
{
    // The golden-fixture guarantee: tracing is an observer.  The
    // report with per-replicate sinks attached is byte-identical to
    // the report without them.
    const std::string plain = sweepReport(0, false);
    const std::string traced = sweepReport(1 << 14, false);
    EXPECT_EQ(plain, traced);

    // And the default document never contains the optional keys.
    EXPECT_EQ(plain.find("\"stats\""), std::string::npos);
    EXPECT_EQ(plain.find("\"latency_capped\""), std::string::npos);
}

TEST(SweepObservability, StatsSectionIsAdditive)
{
    const std::string plain = sweepReport(0, false);
    const std::string with_stats = sweepReport(0, true);
    EXPECT_NE(with_stats.find("\"stats\""), std::string::npos);
    EXPECT_NE(with_stats.find("\"sim.delivered\""),
              std::string::npos);

    // Removing every stats object (from the comma before its key to
    // its matching close brace) yields the plain document: the
    // section is purely additive.
    std::string stripped = with_stats;
    for (std::size_t at = stripped.find("\"stats\"");
         at != std::string::npos;
         at = stripped.find("\"stats\"", at)) {
        const std::size_t comma = stripped.rfind(',', at);
        ASSERT_NE(comma, std::string::npos);
        std::size_t end = stripped.find('{', at);
        ASSERT_NE(end, std::string::npos);
        for (long depth = 1; depth != 0;) {
            ++end;
            ASSERT_LT(end, stripped.size());
            if (stripped[end] == '{')
                ++depth;
            else if (stripped[end] == '}')
                --depth;
        }
        stripped.erase(comma, end - comma + 1);
        at = comma;
    }
    EXPECT_EQ(stripped, plain);
}

} // namespace
