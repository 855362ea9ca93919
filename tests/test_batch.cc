/**
 * @file
 * Batched multi-lane execution tests: runForwardBatch shards the
 * machine into vault groups and must stay bit-identical to the
 * sequential reference model on every lane, keep every packet inside
 * its lane's sub-mesh, and beat running the same inputs sequentially
 * on the whole machine (the lanes fill the 16-MAC groups that
 * whole-machine FC mapping leaves mostly idle).
 */

#include <gtest/gtest.h>

#include "core/neurocube.hh"
#include "nn/reference.hh"

namespace neurocube
{
namespace
{

/** Compare two tensors bit-for-bit; report the first mismatch. */
::testing::AssertionResult
tensorsEqual(const Tensor &a, const Tensor &b)
{
    if (a.maps() != b.maps() || a.height() != b.height()
        || a.width() != b.width()) {
        return ::testing::AssertionFailure()
            << "shape " << a.maps() << "x" << a.height() << "x"
            << a.width() << " vs " << b.maps() << "x" << b.height()
            << "x" << b.width();
    }
    for (unsigned m = 0; m < a.maps(); ++m) {
        for (unsigned y = 0; y < a.height(); ++y) {
            for (unsigned x = 0; x < a.width(); ++x) {
                if (!(a.at(m, y, x) == b.at(m, y, x))) {
                    return ::testing::AssertionFailure()
                        << "mismatch at (" << m << "," << y << ","
                        << x << "): " << a.at(m, y, x).toDouble()
                        << " vs " << b.at(m, y, x).toDouble();
                }
            }
        }
    }
    return ::testing::AssertionSuccess();
}

/** Conv + FC pipeline exercising both batched layer mappings. */
NetworkDesc
convFcNet()
{
    NetworkDesc net;
    net.name = "batch-conv-fc";
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

/** Single FC layer for the throughput acceptance check. */
NetworkDesc
fcNet(unsigned in, unsigned out)
{
    NetworkDesc net;
    net.name = "batch-fc";
    LayerDesc fc;
    fc.type = LayerType::FullyConnected;
    fc.name = "fc";
    fc.inWidth = in;
    fc.inHeight = 1;
    fc.inMaps = 1;
    fc.outMaps = out;
    fc.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc);
    net.validate();
    return net;
}

/** A distinct randomized input per lane. */
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

/** Sum of sequential whole-machine runs over the same inputs. */
Tick
sequentialCycles(const NeurocubeConfig &config, const NetworkDesc &net,
                 const NetworkData &data,
                 const std::vector<Tensor> &inputs)
{
    Tick total = 0;
    for (const Tensor &in : inputs) {
        Neurocube cube(config);
        cube.loadNetwork(net, data);
        cube.setInput(in);
        total += cube.runForward().totalCycles();
    }
    return total;
}

class BatchDifferential : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BatchDifferential, EveryLaneMatchesReference)
{
    const unsigned lanes = GetParam();
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 1);
    std::vector<Tensor> inputs = laneInputs(net, lanes, 100);

    NeurocubeConfig config;
    config.batch.lanes = lanes;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);

    ASSERT_EQ(run.lanes.size(), lanes);
    ASSERT_EQ(cube.lanePartition().size(), lanes);
    for (unsigned l = 0; l < lanes; ++l) {
        auto expect = referenceForward(net, data, inputs[l]);
        ASSERT_EQ(run.lanes[l].layers.size(), net.layers.size());
        for (size_t i = 0; i < net.layers.size(); ++i) {
            EXPECT_TRUE(
                tensorsEqual(cube.batchLayerOutput(l, i), expect[i]))
                << "lane " << l << " layer " << i;
        }
    }
    // The fabric's lane checker ran for the whole batch: nothing may
    // have left its vault group.
    EXPECT_EQ(cube.fabric().crossLanePackets(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Lanes, BatchDifferential,
                         ::testing::Values(1u, 2u, 4u));

TEST(Batch, PartialBatchLeavesTrailingLanesIdle)
{
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 2);
    std::vector<Tensor> inputs = laneInputs(net, 2, 200);

    NeurocubeConfig config;
    config.batch.lanes = 4;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);

    ASSERT_EQ(run.lanes.size(), 2u);
    for (unsigned l = 0; l < 2; ++l) {
        auto expect = referenceForward(net, data, inputs[l]);
        for (size_t i = 0; i < net.layers.size(); ++i) {
            EXPECT_TRUE(
                tensorsEqual(cube.batchLayerOutput(l, i), expect[i]))
                << "lane " << l << " layer " << i;
        }
    }
    EXPECT_EQ(cube.fabric().crossLanePackets(), 0u);
}

TEST(Batch, AggregateBeatsSequentialOnConvFc)
{
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 3);
    std::vector<Tensor> inputs = laneInputs(net, 4, 300);

    NeurocubeConfig config;
    config.batch.lanes = 4;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);

    Tick sequential = sequentialCycles(NeurocubeConfig{}, net, data,
                                       inputs);
    EXPECT_LT(run.cycles, sequential)
        << "batched " << run.cycles << " vs sequential " << sequential;
}

TEST(Batch, FourLaneFcThroughputAcceptance)
{
    // Acceptance criterion: 4 lanes on an FC layer reach >= 2.5x the
    // throughput of 4 sequential whole-machine runs. Whole-machine
    // mapping gives each PE only out/16 neurons, so its 16-MAC groups
    // run mostly empty while the flush pipeline still charges a full
    // 16-tick MAC latency per connection; a lane's PEs carry 4x the
    // neurons through the same number of flushes.
    NetworkDesc net = fcNet(256, 64);
    NetworkData data = NetworkData::randomized(net, 4);
    std::vector<Tensor> inputs = laneInputs(net, 4, 400);

    NeurocubeConfig config;
    config.mapping.weightsInPeMemory = true;
    Tick sequential = sequentialCycles(config, net, data, inputs);

    config.batch.lanes = 4;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);
    ASSERT_GT(run.cycles, 0u);

    for (unsigned l = 0; l < 4; ++l) {
        auto expect = referenceForward(net, data, inputs[l]);
        EXPECT_TRUE(tensorsEqual(cube.batchLayerOutput(l, 0),
                                 expect[0]))
            << "lane " << l;
    }

    double speedup = double(sequential) / double(run.cycles);
    EXPECT_GE(speedup, 2.5)
        << "sequential " << sequential << " cycles vs batched "
        << run.cycles;
}

TEST(Batch, SetBatchLanesReentrantAcrossLaneCounts)
{
    // One cube, three consecutive batches with different lane
    // counts (4 -> 2 -> 1), as the serving scheduler reconfigures
    // the mesh online. Every run must stay bit-identical to the
    // reference model and keep packets inside their lanes — no
    // state from a previous partition may leak into the next run.
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 6);
    std::vector<Tensor> inputs = laneInputs(net, 4, 600);

    Neurocube cube(NeurocubeConfig{});
    cube.loadNetwork(net, data);

    const unsigned lane_counts[] = {4, 2, 1, 4};
    for (unsigned lanes : lane_counts) {
        cube.setBatchLanes(lanes);
        ASSERT_EQ(cube.lanePartition().size(), lanes);
        std::vector<Tensor> batch(inputs.begin(),
                                  inputs.begin() + lanes);
        BatchRunResult run = cube.runForwardBatch(batch);
        ASSERT_EQ(run.lanes.size(), lanes);
        for (unsigned l = 0; l < lanes; ++l) {
            auto expect = referenceForward(net, data, inputs[l]);
            for (size_t i = 0; i < net.layers.size(); ++i) {
                EXPECT_TRUE(tensorsEqual(cube.batchLayerOutput(l, i),
                                         expect[i]))
                    << lanes << " lanes, lane " << l << " layer "
                    << i;
            }
        }
        EXPECT_EQ(cube.fabric().crossLanePackets(), 0u)
            << lanes << " lanes";
    }
}

TEST(Batch, PlanCacheRoundTripAcrossLaneCounts)
{
    // A 4 -> 2 -> 4 lane round trip: steady-state batches are served
    // entirely from the plan cache, and every setBatchLanes that
    // changes the partition invalidates it (the counters prove both),
    // while outputs stay bit-identical to the reference model.
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 8);
    std::vector<Tensor> inputs = laneInputs(net, 4, 800);
    std::vector<Tensor> pair(inputs.begin(), inputs.begin() + 2);

    Neurocube cube((NeurocubeConfig()));
    cube.loadNetwork(net, data);
    const LayerCompiler &compiler = cube.compiler();

    cube.setBatchLanes(4);
    cube.runForwardBatch(inputs);
    // 2 layers x 4 lanes, all cold.
    EXPECT_EQ(compiler.planCacheMisses(), 8u);
    EXPECT_EQ(compiler.planCacheHits(), 0u);

    // Steady state: the same shapes recompile as pure hits.
    cube.runForwardBatch(inputs);
    EXPECT_EQ(compiler.planCacheMisses(), 8u);
    EXPECT_EQ(compiler.planCacheHits(), 8u);

    // Re-partitioning drops the cache: 2 lanes compile cold.
    cube.setBatchLanes(2);
    cube.runForwardBatch(pair);
    EXPECT_EQ(compiler.planCacheMisses(), 12u);
    EXPECT_EQ(compiler.planCacheHits(), 8u);

    // Back to 4 lanes: invalidated again, cold once, then hits.
    cube.setBatchLanes(4);
    cube.runForwardBatch(inputs);
    EXPECT_EQ(compiler.planCacheMisses(), 20u);
    EXPECT_EQ(compiler.planCacheHits(), 8u);
    cube.runForwardBatch(inputs);
    EXPECT_EQ(compiler.planCacheMisses(), 20u);
    EXPECT_EQ(compiler.planCacheHits(), 16u);

    // A same-count setBatchLanes is a no-op and keeps the cache.
    cube.setBatchLanes(4);
    cube.runForwardBatch(inputs);
    EXPECT_EQ(compiler.planCacheMisses(), 20u);
    EXPECT_EQ(compiler.planCacheHits(), 24u);

    for (unsigned l = 0; l < 4; ++l) {
        auto expect = referenceForward(net, data, inputs[l]);
        for (size_t i = 0; i < net.layers.size(); ++i) {
            EXPECT_TRUE(tensorsEqual(cube.batchLayerOutput(l, i),
                                     expect[i]))
                << "lane " << l << " layer " << i;
        }
    }
}

TEST(Batch, SetBatchLanesTimingIsDeterministic)
{
    // Warm machine state (caches, row buffers) may legitimately make
    // a second run faster than the first, but the whole reconfigure
    // sequence must be deterministic: two cubes driven through the
    // same 4 -> 2 -> 2 lane sequence report identical cycle counts,
    // and the warm steady state is stable run over run.
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 7);
    std::vector<Tensor> inputs = laneInputs(net, 4, 700);
    std::vector<Tensor> pair(inputs.begin(), inputs.begin() + 2);

    auto sequence = [&]() {
        Neurocube cube((NeurocubeConfig()));
        cube.loadNetwork(net, data);
        cube.setBatchLanes(4);
        std::vector<Tick> cycles;
        cycles.push_back(cube.runForwardBatch(inputs).cycles);
        cube.setBatchLanes(2);
        cycles.push_back(cube.runForwardBatch(pair).cycles);
        cycles.push_back(cube.runForwardBatch(pair).cycles);
        return cycles;
    };
    std::vector<Tick> a = sequence();
    std::vector<Tick> b = sequence();
    EXPECT_EQ(a, b);
    for (Tick c : a)
        EXPECT_GT(c, 0u);
}

TEST(Batch, PerLaneStatsPartitionTheMachine)
{
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 5);
    std::vector<Tensor> inputs = laneInputs(net, 4, 500);

    NeurocubeConfig config;
    config.batch.lanes = 4;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);

    // Identical layer structure everywhere; per-lane ops follow the
    // reference operation count for the lane's own input.
    for (const RunResult &lane : run.lanes) {
        ASSERT_EQ(lane.layers.size(), net.layers.size());
        for (size_t i = 0; i < net.layers.size(); ++i) {
            EXPECT_EQ(lane.layers[i].ops,
                      net.layers[i].totalOps())
                << "layer " << i;
            EXPECT_GT(lane.layers[i].cycles, 0u);
            EXPECT_LE(lane.layers[i].cycles, run.cycles);
            EXPECT_GT(lane.layers[i].dramBits, 0u);
        }
    }
    // The aggregate wall clock can never beat the slowest lane.
    for (const RunResult &lane : run.lanes)
        EXPECT_LE(lane.totalCycles(), run.cycles);
}

/** What a forward run reports, for comparing two driver paths. */
struct ForwardCapture
{
    std::vector<LayerResult> layers;
    std::vector<Tensor> outputs;
    std::string metricsJson;
    std::string energyJson;
    std::string spatialJson;
};

ForwardCapture
captureRun(const RunResult &run)
{
    ForwardCapture c;
    c.layers = run.layers;
    c.metricsJson = run.metricsJson();
    c.energyJson = run.energyJson();
    c.spatialJson = run.spatialJson();
    return c;
}

TEST(Batch, OneLaneWholeMeshMatchesRunForward)
{
    // A one-lane batch is the whole machine as a single completion
    // group, so on a fresh machine it must report exactly what
    // runForward does. Each path gets its own fresh machine.
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 7);
    Tensor input = laneInputs(net, 1, 700).front();

    for (SimEngine engine : {SimEngine::Legacy, SimEngine::Event}) {
        SCOPED_TRACE(int(engine));
        NeurocubeConfig config;
        config.engine = engine;
        config.trace.enabled = true;
        config.trace.metrics = true;
        config.trace.energy = true;
        config.trace.spatial = true;

        ForwardCapture single;
        {
            Neurocube cube(config);
            cube.loadNetwork(net, data);
            cube.setInput(input);
            single = captureRun(cube.runForward());
            for (size_t i = 0; i < net.layers.size(); ++i)
                single.outputs.push_back(cube.layerOutput(i));
        }
        ForwardCapture batch;
        {
            Neurocube cube(config);
            cube.loadNetwork(net, data);
            BatchRunResult run = cube.runForwardBatch({input});
            ASSERT_EQ(run.lanes.size(), 1u);
            EXPECT_EQ(run.cycles, run.lanes[0].totalCycles());
            batch = captureRun(run.lanes[0]);
            for (size_t i = 0; i < net.layers.size(); ++i)
                batch.outputs.push_back(cube.batchLayerOutput(0, i));
        }

        ASSERT_EQ(single.layers.size(), net.layers.size());
        ASSERT_EQ(batch.layers.size(), net.layers.size());
        for (size_t i = 0; i < net.layers.size(); ++i) {
            const LayerResult &a = single.layers[i];
            const LayerResult &b = batch.layers[i];
            EXPECT_EQ(a.cycles, b.cycles) << "layer " << i;
            EXPECT_EQ(a.ops, b.ops) << "layer " << i;
            EXPECT_EQ(a.dramBits, b.dramBits) << "layer " << i;
            EXPECT_EQ(a.lateralPackets, b.lateralPackets) << "layer " << i;
            EXPECT_EQ(a.localPackets, b.localPackets) << "layer " << i;
            EXPECT_TRUE(tensorsEqual(single.outputs[i], batch.outputs[i]))
                << "layer " << i;
        }
        EXPECT_EQ(single.metricsJson, batch.metricsJson);
        EXPECT_EQ(single.energyJson, batch.energyJson);
        EXPECT_EQ(single.spatialJson, batch.spatialJson);
    }
}

} // namespace
} // namespace neurocube
