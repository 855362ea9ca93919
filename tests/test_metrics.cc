/**
 * @file
 * Stall-attribution metrics tests: registry counting and snapshots,
 * publishing through a Probe, the top-down bottleneck classifier on
 * hand-built deltas, per-lane node filtering, phase detection and
 * its energy rollup over synthetic exporter windows, and two
 * synthetic workloads on the real machine with a known dominant
 * stall (one DRAM-bound, one NoC-bound).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/neurocube.hh"
#include "trace/counters.hh"
#include "trace/phase_detector.hh"
#include "trace/probe.hh"
#include "trace/timeseries_exporter.hh"

namespace neurocube
{
namespace
{

/** A counter table of @p n routers, PEs and vaults, all sections on. */
CounterRegistry
registryOf(unsigned n)
{
    TraceTopology topology;
    topology.numRouters = n;
    topology.numPes = n;
    topology.numVaults = n;
    CounterRegistry registry;
    registry.configure(topology, TraceConfig{});
    return registry;
}

/** Shorthand for charging @p n cycles of one class to an instance. */
void
charge(CounterRegistry &registry, TraceComponent component,
       unsigned instance, StallClass cls, uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        registry.cycle(component, instance, cls);
}

/** Stall totals of the registry's whole table. */
StallTotals
totalsOf(const CounterRegistry &registry)
{
    return registry.stallTotals(registry.snapshot());
}

TEST(MetricsRegistry, CountsPerInstanceAndClass)
{
    CounterRegistry registry = registryOf(2);

    charge(registry, TraceComponent::Pe, 0, StallClass::Busy, 10);
    charge(registry, TraceComponent::Pe, 0, StallClass::Idle, 5);
    charge(registry, TraceComponent::Pe, 1, StallClass::StallCache, 3);
    charge(registry, TraceComponent::Vault, 1, StallClass::StallDram,
           7);

    const CounterSnapshot snap = registry.snapshot();
    const StallBreakdown pe0 =
        registry.stalls(snap, TraceComponent::Pe, 0);
    EXPECT_EQ(pe0[StallClass::Busy], 10u);
    EXPECT_EQ(pe0[StallClass::Idle], 5u);
    EXPECT_EQ(pe0.total(), 15u);
    EXPECT_EQ(registry.stalls(snap, TraceComponent::Pe,
                              1)[StallClass::StallCache],
              3u);
    EXPECT_EQ(registry.stalls(snap, TraceComponent::Vault,
                              1)[StallClass::StallDram],
              7u);

    registry.reset();
    EXPECT_EQ(totalsOf(registry)[size_t(TraceComponent::Pe)].total(),
              0u);
    // The layout survives a reset.
    charge(registry, TraceComponent::Pe, 1, StallClass::Busy, 1);
    EXPECT_EQ(registry.stalls(registry.snapshot(), TraceComponent::Pe,
                              1)[StallClass::Busy],
              1u);
}

TEST(MetricsRegistry, OutOfRangeInstanceIsDropped)
{
    CounterRegistry registry = registryOf(1);
    registry.cycle(TraceComponent::Router, 99, StallClass::Busy);
    for (uint64_t slot : registry.snapshot().slots)
        EXPECT_EQ(slot, 0u);
}

TEST(MetricsRegistry, SnapshotDeltaIsolatesAnInterval)
{
    CounterRegistry registry = registryOf(1);
    charge(registry, TraceComponent::Pe, 0, StallClass::Busy, 4);

    CounterSnapshot before = registry.snapshot();
    charge(registry, TraceComponent::Pe, 0, StallClass::Busy, 6);
    charge(registry, TraceComponent::Pe, 0, StallClass::StallInject,
           2);

    CounterSnapshot delta = registry.snapshot().delta(before);
    const StallBreakdown pe =
        registry.stalls(delta, TraceComponent::Pe, 0);
    EXPECT_EQ(pe[StallClass::Busy], 6u);
    EXPECT_EQ(pe[StallClass::StallInject], 2u);
    EXPECT_EQ(pe.total(), 8u);
}

TEST(MetricsRegistry, DisabledSectionDropsItsCounts)
{
    // With metrics off the stall blocks are sized 0: cycles drop
    // through the row bound check and the report stays invalid.
    TraceTopology topology;
    TraceConfig config;
    config.metrics = false;
    CounterRegistry registry;
    registry.configure(topology, config);
    registry.cycle(TraceComponent::Pe, 0, StallClass::Busy);
    EXPECT_FALSE(registry.metricsOn());
    EXPECT_FALSE(buildBottleneckReport(totalsOf(registry)).valid);
    EXPECT_EQ(registry.stalls(registry.snapshot(), TraceComponent::Pe,
                              0)
                  .total(),
              0u);
}

#if NEUROCUBE_TRACE_ENABLED
TEST(MetricsRegistry, ProbePublishesToItsRegistry)
{
    // An empty probe must be a safe no-op.
    Probe{}.cycle(TraceComponent::Pe, 0, StallClass::Busy);

    CounterRegistry registry = registryOf(1);
    Probe probe;
    probe.counters = &registry;
    probe.cycle(TraceComponent::Pe, 0, StallClass::Busy);
    probe.cycles(TraceComponent::Vault, 0, StallClass::StallDram, 3);
    Probe{}.cycle(TraceComponent::Pe, 0, StallClass::Busy);

    const CounterSnapshot snap = registry.snapshot();
    EXPECT_EQ(registry.stalls(snap, TraceComponent::Pe,
                              0)[StallClass::Busy],
              1u);
    EXPECT_EQ(registry.stalls(snap, TraceComponent::Vault,
                              0)[StallClass::StallDram],
              3u);
}
#endif

/** Sum of a report's machine-level fractions. */
double
fractionSum(const BottleneckReport &report)
{
    double sum = 0.0;
    for (double f : report.fractions)
        sum += f;
    return sum;
}

TEST(BottleneckReport, EmptyDeltaIsInvalid)
{
    CounterRegistry registry = registryOf(1);
    BottleneckReport report = buildBottleneckReport(totalsOf(registry));
    EXPECT_FALSE(report.valid);
    EXPECT_EQ(report.countedTicks, 0u);
}

TEST(BottleneckReport, MacBoundDeltaLabelsMac)
{
    CounterRegistry registry = registryOf(1);
    charge(registry, TraceComponent::Pe, 0, StallClass::Busy, 80);
    charge(registry, TraceComponent::Pe, 0, StallClass::Idle, 20);
    charge(registry, TraceComponent::Router, 0, StallClass::Busy, 100);
    charge(registry, TraceComponent::Vault, 0, StallClass::Busy, 100);

    BottleneckReport report = buildBottleneckReport(totalsOf(registry));
    ASSERT_TRUE(report.valid);
    EXPECT_STREQ(report.label, "mac");
    EXPECT_NEAR(report.peBusy, 0.8, 1e-9);
    EXPECT_NEAR(fractionSum(report), 1.0, 1e-9);
    EXPECT_EQ(report.countedTicks, 300u);
}

TEST(BottleneckReport, NocBlockingOutranksInjectAndDram)
{
    CounterRegistry registry = registryOf(1);
    // PE mostly starved, router heavily blocked, PNG can't inject,
    // vault stalled: head-of-line blocking explains the rest.
    charge(registry, TraceComponent::Pe, 0, StallClass::StallInject,
           90);
    charge(registry, TraceComponent::Pe, 0, StallClass::Busy, 10);
    charge(registry, TraceComponent::Router, 0,
           StallClass::StallNocCredit, 40);
    charge(registry, TraceComponent::Router, 0, StallClass::Busy, 60);
    charge(registry, TraceComponent::Png, 0, StallClass::StallInject,
           50);
    charge(registry, TraceComponent::Png, 0, StallClass::Busy, 50);
    charge(registry, TraceComponent::Vault, 0, StallClass::StallDram,
           50);
    charge(registry, TraceComponent::Vault, 0, StallClass::Busy, 50);

    BottleneckReport report = buildBottleneckReport(totalsOf(registry));
    ASSERT_TRUE(report.valid);
    EXPECT_STREQ(report.label, "noc");
    EXPECT_NEAR(report.routerBlocked, 0.4, 1e-9);
    EXPECT_NEAR(fractionSum(report), 1.0, 1e-9);
}

TEST(BottleneckReport, DramBoundDeltaLabelsDram)
{
    CounterRegistry registry = registryOf(1);
    charge(registry, TraceComponent::Pe, 0, StallClass::StallInject,
           80);
    charge(registry, TraceComponent::Pe, 0, StallClass::Busy, 20);
    charge(registry, TraceComponent::Router, 0, StallClass::Idle, 100);
    charge(registry, TraceComponent::Png, 0, StallClass::StallDram,
           90);
    charge(registry, TraceComponent::Png, 0, StallClass::Busy, 10);
    charge(registry, TraceComponent::Vault, 0, StallClass::StallDram,
           70);
    charge(registry, TraceComponent::Vault, 0, StallClass::Busy, 30);

    BottleneckReport report = buildBottleneckReport(totalsOf(registry));
    ASSERT_TRUE(report.valid);
    EXPECT_STREQ(report.label, "dram");
    EXPECT_NEAR(report.dramPressure, 1.0, 1e-9);
    EXPECT_NEAR(fractionSum(report), 1.0, 1e-9);
}

TEST(BottleneckReport, NodeFilterAttributesPerLane)
{
    CounterRegistry registry = registryOf(2);
    // Node 0 is compute-bound, node 1 is NoC-bound.
    charge(registry, TraceComponent::Pe, 0, StallClass::Busy, 100);
    charge(registry, TraceComponent::Pe, 1, StallClass::StallInject,
           100);
    charge(registry, TraceComponent::Router, 1,
           StallClass::StallNocCredit, 100);

    const std::vector<unsigned> lane0{0};
    const std::vector<unsigned> lane1{1};
    CounterSnapshot delta = registry.snapshot();

    BottleneckReport r0 = buildBottleneckReport(
        registry.stallTotals(registry.onNodes(delta, lane0)));
    ASSERT_TRUE(r0.valid);
    EXPECT_STREQ(r0.label, "mac");
    EXPECT_EQ(r0.countedTicks, 100u);

    BottleneckReport r1 = buildBottleneckReport(
        registry.stallTotals(registry.onNodes(delta, lane1)));
    ASSERT_TRUE(r1.valid);
    EXPECT_STREQ(r1.label, "noc");
    EXPECT_EQ(r1.countedTicks, 200u);
}

// ---------------------------------------------------------------
// Phase detection on synthetic windows, driven through the
// time-series exporter that keeps the segments.
// ---------------------------------------------------------------

/** A 2-PE, 2-router, 2-vault machine (window 100 below). */
TraceTopology
smallTopology()
{
    TraceTopology topology;
    topology.numRouters = 2;
    topology.numPes = 2;
    topology.numVaults = 2;
    return topology;
}

/** Feed @p count copies of one event at @p tick into @p sink. */
void
feed(TraceSink &sink, Tick tick, TraceComponent component,
     TraceEventType type, uint64_t value = 0, unsigned count = 1,
     uint32_t arg = 0)
{
    TraceEvent event;
    event.tick = tick;
    event.component = component;
    event.type = type;
    event.arg = arg;
    event.value = value;
    for (unsigned i = 0; i < count; ++i)
        sink.consume(&event, 1);
}

/**
 * One window's signals at @p tick: PE busy ticks (of 200 PE-ticks)
 * and the PNG, router and vault stall ticks (of 200 each).
 */
void
feedWindow(TraceSink &sink, Tick tick, uint64_t macTicks,
           unsigned pngStalls, unsigned nocBlocked, unsigned dramStalls)
{
    feed(sink, tick, TraceComponent::Pe, TraceEventType::MacBusy,
         macTicks);
    feed(sink, tick, TraceComponent::Png,
         TraceEventType::PngInjectStall, 0, pngStalls);
    feed(sink, tick, TraceComponent::Router,
         TraceEventType::FlitBlocked, 0, nocBlocked);
    feed(sink, tick, TraceComponent::Vault, TraceEventType::DramStall,
         0, dramStalls);
}

TEST(PhaseDetector, ClassifiesAndMergesWindows)
{
    std::ostringstream os;
    TimeSeriesCsvExporter exporter(os, smallTopology(), 100);
    // Two compute windows (merge), one dram-bound, one inject-bound,
    // one noc-bound; the last window is still open.
    feedWindow(exporter, 0, 160, 0, 0, 0);
    feedWindow(exporter, 100, 150, 0, 0, 0);
    feedWindow(exporter, 200, 10, 0, 0, 120);
    feedWindow(exporter, 300, 10, 90, 0, 0);
    feedWindow(exporter, 400, 10, 0, 150, 0);

    auto segments = exporter.phases();
    ASSERT_EQ(segments.size(), 4u);
    EXPECT_EQ(segments[0].kind, PhaseKind::Compute);
    EXPECT_EQ(segments[0].startTick, Tick(0));
    EXPECT_EQ(segments[0].endTick, Tick(200));
    EXPECT_EQ(segments[0].windows, 2u);
    EXPECT_EQ(segments[1].kind, PhaseKind::DramBound);
    EXPECT_EQ(segments[2].kind, PhaseKind::InjectBound);
    EXPECT_EQ(segments[3].kind, PhaseKind::NocBound);
    EXPECT_EQ(segments[3].endTick, Tick(500));

    // Reading the open window flushed nothing (header + 4 rows);
    // finishing writes its row and changes no segment.
    auto lines = [&os] {
        const std::string csv = os.str();
        return std::count(csv.begin(), csv.end(), '\n');
    };
    EXPECT_EQ(lines(), 5);
    exporter.finish();
    EXPECT_EQ(lines(), 6);
    auto finished = exporter.phases();
    ASSERT_EQ(finished.size(), segments.size());
    for (size_t i = 0; i < finished.size(); ++i) {
        EXPECT_EQ(finished[i].kind, segments[i].kind);
        EXPECT_EQ(finished[i].startTick, segments[i].startTick);
        EXPECT_EQ(finished[i].endTick, segments[i].endTick);
        EXPECT_EQ(finished[i].windows, segments[i].windows);
    }
}

TEST(PhaseDetector, ReinstatesSkippedWindowsAsQuiescent)
{
    // The exporter writes no row for [100, 300), which saw no event,
    // as during a parked batch lane or between layers.
    std::ostringstream os;
    TimeSeriesCsvExporter exporter(os, smallTopology(), 100);
    feedWindow(exporter, 0, 160, 0, 0, 0);
    feedWindow(exporter, 300, 10, 0, 0, 130);
    exporter.finish();

    auto segments = exporter.phases();
    ASSERT_EQ(segments.size(), 3u);
    EXPECT_EQ(segments[0].kind, PhaseKind::Compute);
    EXPECT_EQ(segments[1].kind, PhaseKind::Quiescent);
    EXPECT_EQ(segments[1].startTick, Tick(100));
    EXPECT_EQ(segments[1].endTick, Tick(300));
    EXPECT_EQ(segments[1].windows, 2u);
    EXPECT_EQ(segments[1].joules, 0.0);
    EXPECT_EQ(segments[2].kind, PhaseKind::DramBound);
}

#if NEUROCUBE_TRACE_ENABLED
TEST(PhaseDetector, SampledOutWindowsBridgeTheirSegment)
{
    // Every window is compute-bound, but at period 4 the recorder
    // keeps the PE events of 1 window in 4; the exempt EngineSkip
    // events still land in the other 3, which must not read as
    // quiescent.
    TraceConfig config;
    config.enabled = true;
    config.timeseriesCsvPath = "/dev/null";
    config.windowTicks = 100;
    config.samplePeriod = 4;
    TraceSession session(config, smallTopology());
    const Probe probe = session.probe();
    for (Tick w = 0; w < 16; ++w) {
        probe.tick(w * 100 + 10);
        probe.event(TraceComponent::Pe, 0, TraceEventType::MacBusy, 16,
                    160);
        probe.event(TraceComponent::Sim, 0, TraceEventType::EngineSkip,
                    0, 5);
    }

    auto segments = session.phases();
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].kind, PhaseKind::Compute);
    EXPECT_EQ(segments[0].startTick, Tick(0));
    // Window 12 is the last sampled one; the three after it have no
    // sampled window to bridge to.
    EXPECT_EQ(segments[0].endTick, Tick(1300));
    EXPECT_EQ(segments[0].windows, 13u);
    EXPECT_NE(phaseEnergyJson(segments, 100, 4).find(
                  "\"sample_period\": 4"),
              std::string::npos);
}
#endif

TEST(PhaseDetector, EnergyRollupSumsWindowEnergy)
{
    // Energy-bearing events in four windows: two compute windows that
    // merge, a gap, then a DRAM-bound window.
    EnergyPrices prices;
    std::ostringstream os;
    TimeSeriesCsvExporter exporter(os, smallTopology(), 100, prices);
    feed(exporter, 10, TraceComponent::Pe, TraceEventType::MacBusy,
         160, 1, 16);
    feed(exporter, 150, TraceComponent::Pe, TraceEventType::MacBusy,
         120, 1, 12);
    feed(exporter, 160, TraceComponent::Vault,
         TraceEventType::DramWord, 128, 3);
    feedWindow(exporter, 400, 0, 0, 0, 150);
    feed(exporter, 420, TraceComponent::Vault,
         TraceEventType::DramWord, 256, 2);
    exporter.finish();

    const double bit_pj =
        prices.dramPjPerBit + prices.vaultLogicPjPerBit;
    const double total_j =
        1e-12
        * (28.0 * prices.macOpPj
           + 3.0 * (128.0 * bit_pj + prices.vaultXactPj)
           + 2.0 * (256.0 * bit_pj + prices.vaultXactPj));

    auto segments = exporter.phases();
    ASSERT_EQ(segments.size(), 3u);
    EXPECT_EQ(segments[0].kind, PhaseKind::Compute);
    EXPECT_EQ(segments[1].kind, PhaseKind::Quiescent);
    EXPECT_EQ(segments[2].kind, PhaseKind::DramBound);
    double sum_j = 0.0;
    for (const PhaseSegment &s : segments)
        sum_j += s.joules;
    EXPECT_GT(segments[0].joules, 0.0);
    EXPECT_EQ(segments[1].joules, 0.0);
    EXPECT_NEAR(sum_j, total_j, 1e-12 * total_j);

    // The JSON rollup carries each segment's joules and its mean power
    // over the segment's own duration.
    const std::string json = phaseEnergyJson(segments, 100, 1);
    const std::regex entry(
        "\"ticks\": ([0-9]+), \"windows\": [0-9]+, "
        "\"joules\": ([0-9.eE+-]+), \"avg_power_w\": ([0-9.eE+-]+)");
    size_t entries = 0;
    for (auto it = std::sregex_iterator(json.begin(), json.end(), entry);
         it != std::sregex_iterator(); ++it, ++entries) {
        ASSERT_LT(entries, segments.size());
        const double ticks = std::stod((*it)[1]);
        const double joules = std::stod((*it)[2]);
        const double watts = std::stod((*it)[3]);
        EXPECT_NEAR(joules, segments[entries].joules,
                    1e-11 * total_j);
        EXPECT_NEAR(watts, joules / (ticks / referenceClockHz),
                    1e-11 * std::abs(watts));
    }
    EXPECT_EQ(entries, segments.size());
}

#if NEUROCUBE_TRACE_ENABLED
// ---------------------------------------------------------------
// Synthetic workloads with a known dominant stall (acceptance
// criterion: the classifier recognises a DRAM-starved and a
// NoC-saturated machine from the real simulator's counters).
// ---------------------------------------------------------------

/** Run one network with metrics on and return layer 0's report. */
BottleneckReport
runWithMetrics(NeurocubeConfig config, const NetworkDesc &net)
{
    config.trace.enabled = true;
    config.trace.metrics = true;

    NetworkData data = NetworkData::randomized(net, 11);
    Tensor input(net.inputMaps(), net.inputHeight(),
                 net.inputWidth());
    Rng rng(12);
    input.randomize(rng);

    Neurocube cube(config);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    RunResult run = cube.runForward();
    return run.layers.at(0).bottleneck;
}

TEST(SyntheticWorkload, BandwidthStarvedConvIsDramBound)
{
    // Duplicated conv on a machine with ~3% of the HMC's per-vault
    // bandwidth: every component waits on DRAM words.
    NeurocubeConfig config;
    config.dram.peakBandwidthGBps = 0.3;
    config.mapping.duplicateConvHalo = true;

    BottleneckReport report =
        runWithMetrics(config, singleConvNetwork(32, 24, 5, 1));
    ASSERT_TRUE(report.valid);
    EXPECT_STREQ(report.label, "dram");
    EXPECT_NEAR(fractionSum(report), 1.0, 1e-9);
    EXPECT_GE(report.fractions[size_t(StallClass::StallDram)], 0.10);
}

TEST(SyntheticWorkload, PartitionedFcOnShallowMeshIsNocBound)
{
    // Non-duplicated FC layer: every PE gathers operands from every
    // other node, and shallow router FIFOs saturate the mesh while
    // DRAM has bandwidth to spare.
    NeurocubeConfig config;
    config.mapping.duplicateFcInput = false;
    config.noc.bufferDepth = 4;
    config.dram.peakBandwidthGBps = 40.0;

    BottleneckReport report =
        runWithMetrics(config, threeLayerMlp(512, 256, 16));
    ASSERT_TRUE(report.valid);
    EXPECT_STREQ(report.label, "noc");
    EXPECT_NEAR(fractionSum(report), 1.0, 1e-9);
    EXPECT_GE(report.fractions[size_t(StallClass::StallNocCredit)],
              0.05);
}

TEST(SyntheticWorkload, HistogramSummariesArePopulated)
{
    NeurocubeConfig config;
    BottleneckReport report =
        runWithMetrics(config, singleConvNetwork(32, 24, 3, 1));
    ASSERT_TRUE(report.valid);
    // The conv moves real traffic, so every distribution has samples.
    EXPECT_GT(report.nocLatency.count, 0u);
    EXPECT_GT(report.dramQueueResidency.count, 0u);
    EXPECT_GT(report.peCacheOccupancy.count, 0u);
    EXPECT_GT(report.pngOutQueueDepth.count, 0u);
    EXPECT_GE(report.nocLatency.p99, report.nocLatency.p50);
    EXPECT_GE(double(report.nocLatency.max), report.nocLatency.p99);
}

TEST(SyntheticWorkload, MetricsJsonCarriesBottlenecks)
{
    NeurocubeConfig config;
    config.trace.enabled = true;

    NetworkDesc net = singleConvNetwork(32, 24, 3, 1);
    NetworkData data = NetworkData::randomized(net, 11);
    Tensor input(net.inputMaps(), net.inputHeight(),
                 net.inputWidth());
    Rng rng(12);
    input.randomize(rng);

    Neurocube cube(config);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    RunResult run = cube.runForward();

    std::string json = run.metricsJson();
    EXPECT_NE(json.find("\"bottleneck\": {"), std::string::npos);
    EXPECT_NE(json.find("\"fractions\""), std::string::npos);
    EXPECT_NE(json.find("\"noc_latency\""), std::string::npos);
    EXPECT_EQ(json.find("\"bottleneck\": null"), std::string::npos);
}
#endif // NEUROCUBE_TRACE_ENABLED

TEST(MetricsJson, InvalidReportSerializesAsNull)
{
    RunResult run;
    LayerResult layer;
    layer.name = "conv";
    layer.cycles = 10;
    layer.ops = 100;
    run.layers.push_back(layer);
    std::string json = run.metricsJson();
    EXPECT_NE(json.find("\"bottleneck\": null"), std::string::npos);
}

} // namespace
} // namespace neurocube
