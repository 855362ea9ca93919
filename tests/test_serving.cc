/**
 * @file
 * Serving-subsystem tests: arrival generation (Poisson + trace
 * replay), the bounded request queue's admission accounting, the
 * dynamic-batching scheduler's dispatch decisions, and the
 * end-to-end ServingSimulator — including the determinism contract
 * that one (seed, arrival trace, network) triple always yields
 * bit-identical per-request latencies.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/stats.hh"
#include "serving/server.hh"
#include "serving/slo.hh"
#include "serving/spans.hh"

namespace neurocube
{
namespace
{

/** Small FC net so end-to-end serving runs stay fast. */
NetworkDesc
servingNet()
{
    NetworkDesc net;
    net.name = "serving-fc";
    LayerDesc fc;
    fc.type = LayerType::FullyConnected;
    fc.name = "fc";
    fc.inWidth = 64;
    fc.inHeight = 1;
    fc.inMaps = 1;
    fc.outMaps = 16;
    fc.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc);
    net.validate();
    return net;
}

Tensor
servingInput(const NetworkDesc &net, uint64_t seed)
{
    Tensor input(net.inputMaps(), net.inputHeight(),
                 net.inputWidth());
    Rng rng(seed);
    input.randomize(rng);
    return input;
}

// --- Arrival generation ---------------------------------------------

TEST(Arrival, PoissonIsDeterministicPerSeed)
{
    ArrivalSchedule a = poissonArrivals(200, 1000.0, 42);
    ArrivalSchedule b = poissonArrivals(200, 1000.0, 42);
    ArrivalSchedule c = poissonArrivals(200, 1000.0, 43);
    ASSERT_EQ(a.count(), 200u);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_NE(a.ticks, c.ticks);
}

TEST(Arrival, PoissonGapsMatchTheMean)
{
    // 4000 samples of an exponential with mean 500: the empirical
    // mean gap lands within a few percent of the target.
    ArrivalSchedule sched = poissonArrivals(4000, 500.0, 7);
    ASSERT_EQ(sched.count(), 4000u);
    for (size_t i = 1; i < sched.ticks.size(); ++i)
        ASSERT_GE(sched.ticks[i], sched.ticks[i - 1]);
    double mean_gap =
        double(sched.span()) / double(sched.count() - 1);
    EXPECT_NEAR(mean_gap, 500.0, 50.0);
    EXPECT_NEAR(sched.offeredPerSecond(1e9), 1e9 / mean_gap,
                1e9 / mean_gap * 0.01);
}

TEST(Arrival, TraceRoundTripsThroughTheTextFormat)
{
    ArrivalSchedule sched = poissonArrivals(50, 700.0, 9);
    std::ostringstream out;
    writeArrivalTrace(out, sched);
    std::istringstream in(out.str());
    ArrivalSchedule replay = parseArrivalTrace(in);
    EXPECT_EQ(replay.ticks, sched.ticks);
}

TEST(Arrival, TraceParserSkipsCommentsAndBlanks)
{
    std::istringstream in("# offered load: hand-crafted burst\n"
                          "\n"
                          "0\n"
                          "10\n"
                          "  10  \n"
                          "# mid-stream comment\n"
                          "250\n");
    ArrivalSchedule sched = parseArrivalTrace(in);
    ASSERT_EQ(sched.count(), 4u);
    EXPECT_EQ(sched.ticks, (std::vector<Tick>{0, 10, 10, 250}));
    EXPECT_EQ(sched.span(), 250u);
}

// --- Request queue ---------------------------------------------------

TEST(RequestQueue, AdmitsToDepthThenDrops)
{
    RequestQueue queue(2, Probe{});
    EXPECT_TRUE(queue.offer({0, 10}, 10));
    EXPECT_TRUE(queue.offer({1, 20}, 20));
    EXPECT_FALSE(queue.offer({2, 30}, 30));
    EXPECT_FALSE(queue.offer({3, 40}, 40));
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.admitted(), 2u);
    EXPECT_EQ(queue.dropped(), 2u);

    // Dispatching frees a slot; admission resumes, FIFO order holds.
    Request head = queue.pop(50);
    EXPECT_EQ(head.id, 0u);
    EXPECT_EQ(head.arrival, 10u);
    EXPECT_TRUE(queue.offer({4, 60}, 60));
    EXPECT_EQ(queue.frontArrival(), 20u);
    EXPECT_EQ(queue.admitted(), 3u);
    EXPECT_EQ(queue.dropped(), 2u);
}

TEST(RequestQueue, DepthHistogramTracksTransitions)
{
    RequestQueue queue(4, Probe{});
    queue.offer({0, 1}, 1);
    queue.offer({1, 2}, 2);
    queue.offer({2, 3}, 3);
    queue.pop(4);
    queue.pop(5);
    // Samples after each transition: 1, 2, 3, 2, 1.
    const Histogram &depth = queue.depthHistogram();
    EXPECT_EQ(depth.count(), 5u);
    EXPECT_EQ(depth.max(), 3u);
    EXPECT_EQ(depth.min(), 1u);
}

// --- Scheduler -------------------------------------------------------

TEST(Scheduler, FullBatchDispatchesImmediately)
{
    ServeSchedulerConfig config;
    config.maxLanes = 4;
    config.maxWaitTicks = 1000;
    BatchScheduler sched(config);
    EXPECT_EQ(sched.decide(4, 0, 0), 4u);
    EXPECT_EQ(sched.decide(9, 0, 0), 4u);
}

TEST(Scheduler, PartialBatchWaitsForTheDeadline)
{
    ServeSchedulerConfig config;
    config.maxLanes = 4;
    config.maxWaitTicks = 1000;
    BatchScheduler sched(config);
    // Oldest request arrived at 100: hold until 1100, then dispatch
    // the largest power of two the queue fills.
    EXPECT_EQ(sched.decide(3, 100, 100), 0u);
    EXPECT_EQ(sched.decide(3, 100, 1099), 0u);
    EXPECT_EQ(sched.decide(3, 100, 1100), 2u);
    EXPECT_EQ(sched.decide(1, 100, 1100), 1u);
    EXPECT_EQ(sched.decide(0, 0, 99999), 0u);
}

TEST(Scheduler, LaneCountIsLargestFillablePowerOfTwo)
{
    ServeSchedulerConfig config;
    config.maxLanes = 4;
    BatchScheduler sched(config);
    EXPECT_EQ(sched.laneCountFor(1), 1u);
    EXPECT_EQ(sched.laneCountFor(2), 2u);
    EXPECT_EQ(sched.laneCountFor(3), 2u);
    EXPECT_EQ(sched.laneCountFor(4), 4u);
    EXPECT_EQ(sched.laneCountFor(100), 4u);

    ServeSchedulerConfig narrow;
    narrow.maxLanes = 2;
    BatchScheduler two(narrow);
    EXPECT_EQ(two.laneCountFor(4), 2u);
}

// --- End-to-end serving ----------------------------------------------

TEST(Serving, AccountsEveryOfferedRequest)
{
    NetworkDesc net = servingNet();
    NetworkData data = NetworkData::randomized(net, 1);
    Tensor input = servingInput(net, 2);

    Neurocube cube((NeurocubeConfig()));
    cube.loadNetwork(net, data);

    ArrivalSchedule arrivals = poissonArrivals(16, 2000.0, 11);
    ServingConfig config;
    config.queueDepth = 8;
    config.scheduler.maxLanes = 4;
    config.scheduler.maxWaitTicks = 4000;
    ServingSimulator sim(cube, config);
    ServingResult result = sim.run(arrivals, input);

    ASSERT_EQ(result.requests.size(), 16u);
    EXPECT_EQ(result.served + result.dropped, 16u);
    EXPECT_GT(result.served, 0u);
    EXPECT_GT(result.batches, 0u);
    EXPECT_GT(result.makespan, 0u);
    EXPECT_GE(result.makespan, result.busyCycles);
    EXPECT_EQ(result.latency.count(), result.served);

    uint64_t served = 0, dropped = 0;
    for (const RequestRecord &r : result.requests) {
        if (r.dropped) {
            ++dropped;
            EXPECT_EQ(r.completion, 0u);
            EXPECT_EQ(r.lanes, 0u);
        } else {
            ++served;
            EXPECT_GE(r.dispatch, r.arrival);
            EXPECT_GT(r.completion, r.dispatch);
            EXPECT_GE(r.lanes, 1u);
            EXPECT_LE(r.lanes, 4u);
            EXPECT_EQ(r.latency(), r.completion - r.arrival);
        }
    }
    EXPECT_EQ(served, result.served);
    EXPECT_EQ(dropped, result.dropped);
}

TEST(Serving, OverloadDropsAtTheAdmissionBound)
{
    NetworkDesc net = servingNet();
    NetworkData data = NetworkData::randomized(net, 1);
    Tensor input = servingInput(net, 2);

    Neurocube cube((NeurocubeConfig()));
    cube.loadNetwork(net, data);

    // Everything arrives at t=0 against a queue of 4: exactly the
    // overflow is dropped, the rest is served in drain mode.
    ArrivalSchedule burst;
    burst.ticks.assign(12, 0);
    ServingConfig config;
    config.queueDepth = 4;
    config.scheduler.maxLanes = 4;
    ServingSimulator sim(cube, config);
    ServingResult result = sim.run(burst, input);

    EXPECT_EQ(result.served, 4u);
    EXPECT_EQ(result.dropped, 8u);
    EXPECT_EQ(result.batches, 1u);
    EXPECT_EQ(result.requests[0].lanes, 4u);
}

TEST(Serving, LoneRequestDispatchesAfterMaxWait)
{
    NetworkDesc net = servingNet();
    NetworkData data = NetworkData::randomized(net, 1);
    Tensor input = servingInput(net, 2);

    Neurocube cube((NeurocubeConfig()));
    cube.loadNetwork(net, data);

    ArrivalSchedule lone;
    lone.ticks = {100};
    ServingConfig config;
    config.scheduler.maxLanes = 4;
    config.scheduler.maxWaitTicks = 5000;
    ServingSimulator sim(cube, config);
    ServingResult result = sim.run(lone, input);

    ASSERT_EQ(result.served, 1u);
    const RequestRecord &r = result.requests[0];
    EXPECT_EQ(r.lanes, 1u);
    // Drain mode dispatches immediately once no further arrival can
    // fill the batch — the lone request never waits out the timer.
    EXPECT_EQ(r.dispatch, r.arrival);
}

TEST(Serving, SameSeedAndTraceYieldIdenticalLatencies)
{
    NetworkDesc net = servingNet();
    NetworkData data = NetworkData::randomized(net, 1);
    Tensor input = servingInput(net, 2);
    ArrivalSchedule arrivals = poissonArrivals(20, 1200.0, 77);

    ServingConfig config;
    config.queueDepth = 6;
    config.scheduler.maxLanes = 4;
    config.scheduler.maxWaitTicks = 3000;

    auto serve = [&]() {
        Neurocube cube((NeurocubeConfig()));
        cube.loadNetwork(net, data);
        ServingSimulator sim(cube, config);
        return sim.run(arrivals, input);
    };
    ServingResult a = serve();
    ServingResult b = serve();

    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].dropped, b.requests[i].dropped)
            << "request " << i;
        EXPECT_EQ(a.requests[i].latency(), b.requests[i].latency())
            << "request " << i;
        EXPECT_EQ(a.requests[i].lanes, b.requests[i].lanes)
            << "request " << i;
    }
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.batches, b.batches);

    // And the derived report is bit-identical too (the bench's
    // exact-compare gate relies on this).
    EXPECT_EQ(servingReportJson(buildServingReport(a)),
              servingReportJson(buildServingReport(b)));
}

TEST(Serving, ReportAggregatesMatchTheResult)
{
    NetworkDesc net = servingNet();
    NetworkData data = NetworkData::randomized(net, 1);
    Tensor input = servingInput(net, 2);

    Neurocube cube((NeurocubeConfig()));
    cube.loadNetwork(net, data);

    ArrivalSchedule arrivals = poissonArrivals(12, 1500.0, 5);
    ServingConfig config;
    config.queueDepth = 6;
    ServingSimulator sim(cube, config);
    ServingResult result = sim.run(arrivals, input);
    ServingReport report = buildServingReport(result);

    EXPECT_EQ(report.offered, 12u);
    EXPECT_EQ(report.served, result.served);
    EXPECT_EQ(report.dropped, result.dropped);
    EXPECT_DOUBLE_EQ(report.dropRate,
                     double(result.dropped) / 12.0);
    EXPECT_GE(report.p99Ticks, report.p50Ticks);
    EXPECT_GE(report.p999Ticks, report.p99Ticks);
    EXPECT_GT(report.utilization, 0.0);
    EXPECT_LE(report.utilization, 1.0);
    EXPECT_EQ(report.makespan, result.makespan);

    std::string json = servingReportJson(report);
    EXPECT_NE(json.find("\"total_cycles\": "), std::string::npos);
    EXPECT_NE(json.find("\"served\": "), std::string::npos);
    EXPECT_NE(json.find("\"p999_ticks\": "), std::string::npos);
}

// --- Per-request spans ------------------------------------------------

/** One standard serving run with mixed served/dropped requests. */
/** Value of `"key":` in a spans line, or 0 when absent. */
uint64_t
numberField(const std::string &line, const char *key)
{
    const std::string needle = "\"" + std::string(key) + "\":";
    const size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return 0;
    return std::strtoull(line.c_str() + pos + needle.size(), nullptr,
                         10);
}

/**
 * Oracle parser for the spans JSONL format: one RequestRecord per
 * line. The derived fields (latency/queue/service ticks) are not read
 * back; they re-derive from the timestamps.
 */
std::vector<RequestRecord>
readRequestSpans(std::istream &is)
{
    std::vector<RequestRecord> records;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        RequestRecord r;
        r.id = numberField(line, "id");
        r.arrival = numberField(line, "arrival");
        r.admit = numberField(line, "admit");
        r.dispatch = numberField(line, "dispatch");
        r.completion = numberField(line, "completion");
        r.batch = numberField(line, "batch");
        r.lanes = unsigned(numberField(line, "lanes"));
        r.dropped =
            line.find("\"dropped\":true") != std::string::npos;
        records.push_back(r);
    }
    return records;
}

ServingResult
spansRun(ServingConfig config = {})
{
    NetworkDesc net = servingNet();
    NetworkData data = NetworkData::randomized(net, 1);
    Tensor input = servingInput(net, 2);
    Neurocube cube((NeurocubeConfig()));
    cube.loadNetwork(net, data);
    ArrivalSchedule arrivals = poissonArrivals(24, 900.0, 21);
    config.queueDepth = 4;
    config.scheduler.maxLanes = 4;
    config.scheduler.maxWaitTicks = 2500;
    ServingSimulator sim(cube, config);
    return sim.run(arrivals, input);
}

TEST(Spans, RoundTripThroughTheJsonlFormat)
{
    ServingResult result = spansRun();
    ASSERT_GT(result.served, 0u);

    std::ostringstream out;
    writeRequestSpans(out, result);
    std::istringstream in(out.str());
    std::vector<RequestRecord> replay = readRequestSpans(in);

    ASSERT_EQ(replay.size(), result.requests.size());
    for (size_t i = 0; i < replay.size(); ++i) {
        const RequestRecord &a = result.requests[i];
        const RequestRecord &b = replay[i];
        EXPECT_EQ(a.id, b.id) << "request " << i;
        EXPECT_EQ(a.arrival, b.arrival) << "request " << i;
        EXPECT_EQ(a.admit, b.admit) << "request " << i;
        EXPECT_EQ(a.dispatch, b.dispatch) << "request " << i;
        EXPECT_EQ(a.completion, b.completion) << "request " << i;
        EXPECT_EQ(a.batch, b.batch) << "request " << i;
        EXPECT_EQ(a.lanes, b.lanes) << "request " << i;
        EXPECT_EQ(a.dropped, b.dropped) << "request " << i;
        // Derived quantities re-derive identically from the parsed
        // timestamps.
        EXPECT_EQ(a.latency(), b.latency()) << "request " << i;
        EXPECT_EQ(a.queueTicks(), b.queueTicks()) << "request " << i;
        EXPECT_EQ(a.serviceTicks(), b.serviceTicks())
            << "request " << i;
    }
}

TEST(Spans, LifecycleTimestampsAreOrdered)
{
    ServingResult result = spansRun();
    uint64_t last_batch = 0;
    for (const RequestRecord &r : result.requests) {
        if (r.dropped) {
            EXPECT_EQ(r.admit, 0u);
            EXPECT_EQ(r.batch, 0u);
            continue;
        }
        // enqueue == admit (admission decides at the arrival tick),
        // then dispatch, then completion; batch ordinals are 1-based
        // and non-decreasing in arrival order.
        EXPECT_EQ(r.admit, r.arrival);
        EXPECT_GE(r.dispatch, r.admit);
        EXPECT_GT(r.completion, r.dispatch);
        EXPECT_GE(r.batch, 1u);
        EXPECT_GE(r.batch, last_batch);
        last_batch = r.batch;
        EXPECT_EQ(r.latency(), r.queueTicks() + r.serviceTicks());
    }
}

TEST(Spans, FileExportHonorsServingConfig)
{
    const std::string path = "test_serving_spans.jsonl";
    ServingConfig config;
    config.spansJsonlPath = path;
    ServingResult result = spansRun(config);

    std::ifstream file(path);
    ASSERT_TRUE(file.is_open()) << path;
    std::vector<RequestRecord> replay = readRequestSpans(file);
    ASSERT_EQ(replay.size(), result.requests.size());
    for (size_t i = 0; i < replay.size(); ++i) {
        EXPECT_EQ(replay[i].id, result.requests[i].id);
        EXPECT_EQ(replay[i].completion, result.requests[i].completion);
        EXPECT_EQ(replay[i].dropped, result.requests[i].dropped);
    }
    std::remove(path.c_str());
}

TEST(Spans, PercentilesRecomputedFromSpansMatchTheReport)
{
    // The spans file and the SLO report must tell the same story: a
    // latency histogram rebuilt from the exported spans yields the
    // exact p50/p99/p999 the report carries.
    ServingResult result = spansRun();
    ServingReport report = buildServingReport(result);

    std::ostringstream out;
    writeRequestSpans(out, result);
    std::istringstream in(out.str());
    std::vector<RequestRecord> replay = readRequestSpans(in);

    Histogram latency(nullptr, "latency", "rebuilt from spans");
    for (const RequestRecord &r : replay) {
        if (!r.dropped)
            latency.sample(r.latency());
    }
    ASSERT_EQ(latency.count(), report.served);
    EXPECT_DOUBLE_EQ(latency.p50(), report.p50Ticks);
    EXPECT_DOUBLE_EQ(latency.p99(), report.p99Ticks);
    EXPECT_DOUBLE_EQ(latency.p999(), report.p999Ticks);
    EXPECT_DOUBLE_EQ(latency.mean(), report.meanTicks);
    EXPECT_EQ(latency.max(), report.maxTicks);
}

} // namespace
} // namespace neurocube
