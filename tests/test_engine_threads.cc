/**
 * @file
 * Thread-safety tests for the event engine's threaded batch passes.
 * These run under the tsan preset (scripts/check.sh, CI): each
 * batched pass with more than one active lane spawns one worker per
 * active lane, and the per-lane schedulers must never touch shared
 * state (the fabric counts everything per node).
 * The checks themselves are determinism checks — a data race that
 * corrupts counters shows up as a cross-engine mismatch even when
 * tsan is not watching. The last two tests keep two traced machines
 * alive in one process, in turn and on two threads: each must
 * report exactly the telemetry it reports alone.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "core/neurocube.hh"
#include "nn/reference.hh"

namespace neurocube
{
namespace
{

NetworkDesc
convFcNet()
{
    NetworkDesc net;
    net.name = "threads-conv-fc";
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

NeurocubeConfig
threadedConfig(unsigned lanes)
{
    NeurocubeConfig config;
    config.batch.lanes = lanes;
#if NEUROCUBE_TRACE_ENABLED
    // Metrics + energy on: the per-(component, instance) counter
    // writes are exactly the shared arrays tsan must vet.
    config.trace.enabled = true;
    config.trace.metrics = true;
    config.trace.energy = true;
#endif
    return config;
}

std::vector<Tensor>
laneInputs(const NetworkDesc &net, unsigned count, uint64_t seed)
{
    std::vector<Tensor> inputs;
    for (unsigned l = 0; l < count; ++l) {
        Tensor in(net.inputMaps(), net.inputHeight(),
                  net.inputWidth());
        Rng rng(seed + l);
        in.randomize(rng);
        inputs.push_back(std::move(in));
    }
    return inputs;
}

TEST(EngineThreads, FourLanesMatchReferenceUnderThreads)
{
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 21);
    std::vector<Tensor> inputs = laneInputs(net, 4, 2100);

    Neurocube cube(threadedConfig(4));
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);

    ASSERT_EQ(run.lanes.size(), 4u);
    for (unsigned l = 0; l < 4; ++l) {
        auto expect = referenceForward(net, data, inputs[l]);
        for (size_t i = 0; i < net.layers.size(); ++i) {
            const Tensor &got = cube.batchLayerOutput(l, i);
            ASSERT_EQ(got.flat(), expect[i].flat())
                << "lane " << l << " layer " << i;
        }
    }
    EXPECT_EQ(cube.fabric().crossLanePackets(), 0u);
}

TEST(EngineThreads, ThreadedMatchesLegacy)
{
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 22);
    std::vector<Tensor> inputs = laneInputs(net, 4, 2200);

    auto run_with = [&](SimEngine engine) {
        NeurocubeConfig config = threadedConfig(4);
        config.engine = engine;
        Neurocube cube(config);
        cube.loadNetwork(net, data);
        BatchRunResult run = cube.runForwardBatch(inputs);
        std::vector<Tick> cycles{run.cycles};
        std::vector<EnergyCounts> energy;
        for (const RunResult &lane : run.lanes) {
            cycles.push_back(lane.totalCycles());
            energy.push_back(lane.energyCounts());
        }
        return std::make_pair(cycles, energy);
    };

    auto legacy = run_with(SimEngine::Legacy);
    auto threaded = run_with(SimEngine::Event);
    EXPECT_EQ(legacy.first, threaded.first);
    ASSERT_EQ(legacy.second.size(), threaded.second.size());
    for (size_t l = 0; l < legacy.second.size(); ++l) {
        EXPECT_EQ(legacy.second[l].n, threaded.second[l].n)
            << "lane " << l;
    }
}

TEST(EngineThreads, RepeatedBatchesAndReconfiguresAreStable)
{
    // Online lane reconfiguration with worker threads in the mix:
    // the serving scheduler's pattern. Warm state (caches, row
    // buffers) may make later runs faster than the cold first, but
    // two fresh machines driven through the same sequence must
    // report identical cycle counts — any cross-thread
    // nondeterminism shows up as a mismatch here.
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 23);
    std::vector<Tensor> inputs = laneInputs(net, 4, 2300);

    auto sequence = [&]() {
        Neurocube cube(threadedConfig(4));
        cube.loadNetwork(net, data);
        const unsigned lane_counts[] = {4, 2, 4, 1, 4};
        std::vector<Tick> cycles;
        for (unsigned lanes : lane_counts) {
            cube.setBatchLanes(lanes);
            std::vector<Tensor> batch(inputs.begin(),
                                      inputs.begin() + lanes);
            cycles.push_back(cube.runForwardBatch(batch).cycles);
        }
        return cycles;
    };
    std::vector<Tick> a = sequence();
    std::vector<Tick> b = sequence();
    EXPECT_EQ(a, b);
    for (Tick c : a)
        EXPECT_GT(c, 0u);
}

TEST(EngineThreads, PartialBatchParksTrailingLanesThreaded)
{
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 24);
    std::vector<Tensor> inputs = laneInputs(net, 2, 2400);

    Neurocube cube(threadedConfig(4));
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);

    ASSERT_EQ(run.lanes.size(), 2u);
    for (unsigned l = 0; l < 2; ++l) {
        auto expect = referenceForward(net, data, inputs[l]);
        for (size_t i = 0; i < net.layers.size(); ++i) {
            ASSERT_EQ(cube.batchLayerOutput(l, i).flat(),
                      expect[i].flat())
                << "lane " << l << " layer " << i;
        }
    }
    EXPECT_EQ(cube.fabric().crossLanePackets(), 0u);
}

/** A single-lane machine with every telemetry registry live. */
NeurocubeConfig
telemetryConfig()
{
    NeurocubeConfig config;
#if NEUROCUBE_TRACE_ENABLED
    config.trace.enabled = true;
    config.trace.metrics = true;
    config.trace.energy = true;
    config.trace.spatial = true;
#endif
    return config;
}

/** What one forward run reports through the machine's registries. */
struct Telemetry
{
    Tick cycles = 0;
    std::string metrics;
    std::string energy;
    std::string spatial;
};

Telemetry
forwardTelemetry(Neurocube &cube)
{
    RunResult run = cube.runForward();
    return {run.totalCycles(), run.metricsJson(), run.energyJson(),
            run.spatialJson()};
}

void
expectSameTelemetry(const Telemetry &got, const Telemetry &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.metrics, want.metrics);
    EXPECT_EQ(got.energy, want.energy);
    EXPECT_EQ(got.spatial, want.spatial);
}

/** Two machines on one net, fed different inputs. */
struct MachinePair
{
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 25);
    std::vector<Tensor> inputs = laneInputs(net, 2, 2500);

    /** A fresh machine loaded with input @p which. */
    std::unique_ptr<Neurocube>
    machine(unsigned which) const
    {
        auto cube = std::make_unique<Neurocube>(telemetryConfig());
        cube->loadNetwork(net, data);
        cube->setInput(inputs[which]);
        return cube;
    }

    /** @p runs forward runs of machine @p which, alone in the process. */
    std::vector<Telemetry>
    solo(unsigned which, unsigned runs) const
    {
        std::unique_ptr<Neurocube> cube = machine(which);
        std::vector<Telemetry> out;
        for (unsigned r = 0; r < runs; ++r)
            out.push_back(forwardTelemetry(*cube));
        return out;
    }
};

TEST(EngineThreads, TwoLiveMachinesKeepTheirOwnTelemetry)
{
    MachinePair pair;
    std::vector<Telemetry> solo_a = pair.solo(0, 2);
    std::vector<Telemetry> solo_b = pair.solo(1, 1);

    // Both alive at once, run A, B, A: every run publishes to its
    // own machine's registries only.
    std::unique_ptr<Neurocube> a = pair.machine(0);
    std::unique_ptr<Neurocube> b = pair.machine(1);
    Telemetry a1 = forwardTelemetry(*a);
    Telemetry b1 = forwardTelemetry(*b);
    Telemetry a2 = forwardTelemetry(*a);
    expectSameTelemetry(a1, solo_a[0]);
    expectSameTelemetry(b1, solo_b[0]);
    expectSameTelemetry(a2, solo_a[1]);
#if NEUROCUBE_TRACE_ENABLED
    EXPECT_NE(a1.metrics.find("\"fractions\""), std::string::npos);
#endif
}

TEST(EngineThreads, TwoMachinesOnTwoThreadsKeepTheirOwnTelemetry)
{
    MachinePair pair;
    std::vector<Telemetry> solo_a = pair.solo(0, 1);
    std::vector<Telemetry> solo_b = pair.solo(1, 1);

    std::unique_ptr<Neurocube> a = pair.machine(0);
    std::unique_ptr<Neurocube> b = pair.machine(1);
    Telemetry got_a;
    Telemetry got_b;
    std::thread worker([&] { got_b = forwardTelemetry(*b); });
    got_a = forwardTelemetry(*a);
    worker.join();
    expectSameTelemetry(got_a, solo_a[0]);
    expectSameTelemetry(got_b, solo_b[0]);
}

} // namespace
} // namespace neurocube
