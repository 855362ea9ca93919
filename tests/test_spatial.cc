/**
 * @file
 * Spatial observability tests: the spatial counter plumbing,
 * the conservation invariants tying the per-instance heatmap counters
 * to the aggregate statistics the rest of the stack already reports,
 * the observational-only guarantee (cycles identical with spatial
 * accounting on and off), roofline attribution sanity, and the
 * byte-determinism of the spatialJson / HTML report exports.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/neurocube.hh"
#include "nn/network.hh"
#include "trace/counters.hh"
#include "trace/report.hh"

namespace neurocube
{
namespace
{

/** Conv + FC pipeline: DRAM traffic, lateral NoC traffic, MACs. */
NetworkDesc
convFcNet()
{
    NetworkDesc net;
    net.name = "spatial-conv-fc";
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = "conv";
    conv.inWidth = 20;
    conv.inHeight = 16;
    conv.inMaps = 2;
    conv.outMaps = 4;
    conv.kernel = 3;
    conv.channelwise = true;
    conv.activation = ActivationKind::Tanh;
    net.layers.push_back(conv);

    LayerDesc fc = nextLayerTemplate(conv);
    fc.type = LayerType::FullyConnected;
    fc.name = "fc";
    fc.outMaps = 32;
    fc.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc);
    net.validate();
    return net;
}

Tensor
netInput(const NetworkDesc &net, uint64_t seed)
{
    Tensor input(net.inputMaps(), net.inputHeight(), net.inputWidth());
    Rng rng(seed);
    input.randomize(rng);
    return input;
}

NeurocubeConfig
tracedConfig()
{
    NeurocubeConfig config;
    config.trace.enabled = true;
    return config;
}

/** A counter table of 4 nodes (vault i on node i), all sections on. */
CounterRegistry
fourNodeRegistry()
{
    TraceTopology topology;
    topology.numRouters = 4;
    topology.numPes = 4;
    topology.numVaults = 4;
    topology.vaultNode = {0, 1, 2, 3};
    CounterRegistry reg;
    reg.configure(topology, TraceConfig{});
    return reg;
}

TEST(SpatialRegistryTest, CountsSnapshotsAndDeltas)
{
    CounterRegistry reg = fourNodeRegistry();
    reg.configureFabric(2, {{0, 1}, {1, 0}}, nullptr, nullptr);
    // Per-PE MACs and per-vault bytes are views of the energy block.
    reg.addEnergy(EnergyEventKind::MacOp, 0, 10);
    reg.addEnergy(EnergyEventKind::MacOp, 0, 5);
    reg.addEnergy(EnergyEventKind::DramBit, 3, 8 * 256);
    reg.addSpatial(SpatialCounter::LinkFlit, 1, 7);
    // Out-of-range instances are dropped, never UB.
    reg.addEnergy(EnergyEventKind::MacOp, 4, 1000);
    reg.addSpatial(SpatialCounter::LinkFlit, 2, 1000);

    CounterSnapshot before = reg.snapshot();
    SpatialSnapshot whole = reg.spatialSnapshot(before);
    EXPECT_EQ(whole.totalPeMacOps(), 15u);
    EXPECT_EQ(whole.totalVaultBytes(), 256u);
    EXPECT_EQ(whole.totalLinkFlits(), 7u);
    EXPECT_TRUE(whole.valid());

    reg.addEnergy(EnergyEventKind::MacOp, 1, 8);
    SpatialSnapshot delta =
        reg.spatialSnapshot(reg.snapshot().delta(before));
    EXPECT_EQ(delta.totalPeMacOps(), 8u);
    EXPECT_EQ(delta.totalVaultBytes(), 0u);

    EXPECT_FALSE(SpatialSnapshot{}.valid());
}

TEST(SpatialRegistryTest, FilterToNodesPartitionsSumBack)
{
    CounterRegistry reg = fourNodeRegistry();
    // Intra-partition links only: {0,1} and {2,3}. The node
    // injection counters stay with the fabric; snapshots fold them in.
    const std::vector<uint64_t> lateral{1, 2, 3, 4};
    const std::vector<uint64_t> local{5, 6, 7, 8};
    reg.configureFabric(2, {{0, 1}, {2, 3}}, &lateral, &local);
    for (unsigned i = 0; i < 4; ++i) {
        reg.addEnergy(EnergyEventKind::MacOp, i, 10 + i);
        reg.addEnergy(EnergyEventKind::DramBit, i, 8 * (100 + i));
        reg.addSpatial(SpatialCounter::VaultQueue, i, 1);
    }
    reg.addSpatial(SpatialCounter::LinkFlit, 0, 5);
    reg.addSpatial(SpatialCounter::LinkFlit, 1, 9);

    const CounterSnapshot snap = reg.snapshot();
    SpatialSnapshot whole = reg.spatialSnapshot(snap);
    SpatialSnapshot lo = reg.spatialSnapshot(reg.onNodes(snap, {0, 1}));
    SpatialSnapshot hi = reg.spatialSnapshot(reg.onNodes(snap, {2, 3}));
    // Sizes are kept, entries outside the set are zeroed.
    ASSERT_EQ(lo.peMacOps.size(), whole.peMacOps.size());
    EXPECT_EQ(lo.totalPeMacOps(), 21u);
    EXPECT_EQ(hi.totalPeMacOps(), 25u);
    EXPECT_EQ(lo.totalLinkFlits(), 5u);
    EXPECT_EQ(hi.totalLinkFlits(), 9u);
    EXPECT_EQ(lo.nodeLateral, (std::vector<uint64_t>{1, 2, 0, 0}));
    EXPECT_EQ(hi.nodeLocal, (std::vector<uint64_t>{0, 0, 7, 8}));

    SpatialSnapshot sum = lo;
    sum += hi;
    EXPECT_EQ(sum.totalPeMacOps(), whole.totalPeMacOps());
    EXPECT_EQ(sum.totalVaultBytes(), whole.totalVaultBytes());
    EXPECT_EQ(sum.totalLinkFlits(), whole.totalLinkFlits());
    EXPECT_EQ(sum.vaultQueueTicks, whole.vaultQueueTicks);
    EXPECT_EQ(sum.nodeLateral, lateral);
}

#if NEUROCUBE_TRACE_ENABLED

TEST(SpatialConservationTest, CountersMatchAggregateStatistics)
{
    NetworkDesc net = convFcNet();
    NeurocubeConfig config = tracedConfig();
    Neurocube cube(config);
    cube.loadNetwork(net, NetworkData::randomized(net, 3));
    cube.setInput(netInput(net, 4));
    RunResult run = cube.runForward();

    SpatialSnapshot snap = cube.spatialSnapshot();
    ASSERT_TRUE(snap.valid());

    // Per-link flits sum to the fabric's aggregate flit counter.
    EXPECT_EQ(snap.totalLinkFlits(), cube.fabric().linkFlits());

    // Per-node injection counters sum to the fabric's aggregates.
    uint64_t lateral = 0, local = 0;
    for (uint64_t v : snap.nodeLateral)
        lateral += v;
    for (uint64_t v : snap.nodeLocal)
        local += v;
    EXPECT_EQ(lateral, cube.fabric().lateralPackets());
    EXPECT_EQ(local, cube.fabric().localPackets());

    // Per-vault bytes and per-PE MACs are views of the energy
    // counters; both agree with the components' own statistics (the
    // channels' bit counts and the op accounting, 2 ops per MAC).
    uint64_t dram_bits = 0;
    for (const LayerResult &l : run.layers)
        dram_bits += l.dramBits;
    EXPECT_EQ(snap.totalVaultBytes() * 8, dram_bits);
    EXPECT_EQ(snap.totalPeMacOps() * 2, run.totalOps());

    // The per-layer snapshots sum to the whole-run snapshot.
    SpatialSnapshot layers = run.spatialSnapshot();
    EXPECT_EQ(layers.totalLinkFlits(), snap.totalLinkFlits());
    EXPECT_EQ(layers.totalVaultBytes(), snap.totalVaultBytes());
    EXPECT_EQ(layers.totalPeMacOps(), snap.totalPeMacOps());
}

#endif // NEUROCUBE_TRACE_ENABLED

/**
 * A probe publishes only to the registry it holds, and an empty probe
 * is a safe no-op. Notrace builds compile the publish out: even a
 * populated probe counts nothing.
 */
TEST(SpatialConservationTest, ProbePublishesToItsRegistry)
{
    CounterRegistry reg = fourNodeRegistry();
    reg.configureFabric(2, {{0, 1}}, nullptr, nullptr);
    Probe{}.addSpatial(SpatialCounter::LinkFlit, 0, 7);
    Probe probe;
    probe.counters = &reg;
    probe.addSpatial(SpatialCounter::LinkFlit, 0, 5);
    EXPECT_EQ(reg.spatialSnapshot(reg.snapshot()).totalLinkFlits(),
              NEUROCUBE_TRACE_ENABLED ? 5u : 0u);
}

TEST(SpatialConservationTest, ObservationalOnly)
{
    NetworkDesc net = convFcNet();

    auto cycles = [&net](bool spatial) {
        NeurocubeConfig config;
        config.trace.enabled = true;
        config.trace.spatial = spatial;
        Neurocube cube(config);
        cube.loadNetwork(net, NetworkData::randomized(net, 3));
        cube.setInput(netInput(net, 4));
        return cube.runForward().totalCycles();
    };
    EXPECT_EQ(cycles(true), cycles(false));

    // And with tracing off entirely, the registry is absent but the
    // cycle count still matches.
    NeurocubeConfig off;
    Neurocube cube(off);
    cube.loadNetwork(net, NetworkData::randomized(net, 3));
    cube.setInput(netInput(net, 4));
    EXPECT_EQ(cube.probe().counters, nullptr);
    EXPECT_EQ(cube.runForward().totalCycles(), cycles(true));
    EXPECT_FALSE(cube.spatialSnapshot().valid());
}

TEST(SpatialRooflineTest, LayerPointsAreUnderTheCeilings)
{
    NetworkDesc net = convFcNet();
    NeurocubeConfig config = tracedConfig();
    Neurocube cube(config);
    cube.loadNetwork(net, NetworkData::randomized(net, 3));
    cube.setInput(netInput(net, 4));
    RunResult run = cube.runForward();

    ASSERT_EQ(run.layers.size(), 2u);
    for (const LayerResult &l : run.layers) {
        const RooflinePoint &p = l.roofline;
        ASSERT_TRUE(p.valid) << l.name;
        EXPECT_GT(p.macPerCycle, 0.0) << l.name;
        EXPECT_LE(p.macPerCycle, p.macCeiling * 1.0001) << l.name;
        EXPECT_GT(p.bytesPerCycle, 0.0) << l.name;
        EXPECT_GT(p.intensity(), 0.0) << l.name;
        EXPECT_TRUE(p.bound == "dram" || p.bound == "eject"
                    || p.bound == "noc" || p.bound == "mac")
            << l.name << ": " << p.bound;
    }
}

TEST(SpatialJsonTest, DeterministicAndGateSafe)
{
    NetworkDesc net = convFcNet();

    auto exportJson = [&net]() {
        Neurocube cube(tracedConfig());
        cube.loadNetwork(net, NetworkData::randomized(net, 3));
        cube.setInput(netInput(net, 4));
        return cube.runForward().spatialJson();
    };
    std::string a = exportJson();
    std::string b = exportJson();
    EXPECT_EQ(a, b);

    EXPECT_NE(a.find("\"aggregate\""), std::string::npos);
    EXPECT_NE(a.find("\"layers\""), std::string::npos);
    EXPECT_NE(a.find("\"links\""), std::string::npos);
    EXPECT_NE(a.find("\"roofline\""), std::string::npos);

    // scripts/bench.sh greps these key names for its baseline gates;
    // the spatial document must never introduce them.
    EXPECT_EQ(a.find("total_cycles"), std::string::npos);
    EXPECT_EQ(a.find("\"served\""), std::string::npos);
    EXPECT_EQ(a.find("wall_ms"), std::string::npos);
}

TEST(ReportTest, RendersSelfContainedDeterministicHtml)
{
    NetworkDesc net = convFcNet();
    Neurocube cube(tracedConfig());
    cube.loadNetwork(net, NetworkData::randomized(net, 3));
    cube.setInput(netInput(net, 4));
    RunResult run = cube.runForward();

    auto render = [&run]() {
        ReportRun section;
        section.name = "unit";
        section.metricsJson = run.metricsJson();
        section.energyJson = run.energyJson();
        section.spatialJson = run.spatialJson();
        return renderRunReport("spatial unit report", {section});
    };
    std::string html = render();
    EXPECT_EQ(html, render());

    EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
    EXPECT_NE(html.find("</html>"), std::string::npos);
    EXPECT_NE(html.find("id=\"nc-data\""), std::string::npos);
    EXPECT_NE(html.find("spatial unit report"), std::string::npos);
    // Self-contained: no external fetches of any kind (the SVG
    // namespace URI in createElementNS is an identifier, not a URL).
    EXPECT_EQ(html.find("src="), std::string::npos);
    EXPECT_EQ(html.find("<link"), std::string::npos);
    EXPECT_EQ(html.find("@import"), std::string::npos);
    EXPECT_EQ(html.find("fetch("), std::string::npos);
    EXPECT_EQ(html.find("XMLHttpRequest"), std::string::npos);
}

TEST(ReportTest, EscapesHostileNamesAndTitles)
{
    ReportRun section;
    section.name = "a\"b\\c</script>d";
    std::string html = renderRunReport("<title> & co", {section});
    // The embedded JSON block still parses (no premature close tag),
    // and the title's markup is escaped.
    EXPECT_EQ(html.find("</script>d"), std::string::npos);
    EXPECT_NE(html.find("&lt;title&gt; &amp; co"), std::string::npos);

    // Empty documents render as null sections, not broken JSON.
    EXPECT_NE(html.find("\"manifest\":null"), std::string::npos);
    EXPECT_NE(html.find("\"spatial\":null"), std::string::npos);
}

} // namespace
} // namespace neurocube
