/**
 * @file
 * Host-cost benchmark of the Neurocube simulator.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *
 * One caller runs simulations back to back (a closed loop) for S
 * seconds. Every iteration sets up a fresh machine from the seed's
 * inputs, runs the workload, and is checked bit-exact against
 * referenceForward and against the simulated statistics of the run's
 * first iteration. The last stdout line is one JSON object: with
 * --trace 0 the end-to-end metrics (host time, throughput, memory,
 * simulated statistics), with --trace 1 the per-module metrics, taken
 * from spans this file records around calls into the simulator's
 * public API and from the machine's public counters. Host times in
 * that line are scaled to a reference host speed (HostCalibration).
 * The line before it ("detail {...}") carries what does not fit the
 * fixed metric set: raw host-time quartiles, samples and sample
 * counts, the calibration samples, the failure share, and raw
 * per-NN-layer host times.
 *
 * Workloads (see perfbench/README.md for the regime each one is in):
 *  - conv_mac: 7-layer scene-labeling ConvNN at 64x48, HMC, no trace
 *    session; MAC-bound, every component awake every tick.
 *  - serve_poisson: conv+FC serving net at 20x16 through
 *    ServingSimulator, open-loop Poisson arrivals at 0.5x capacity,
 *    full telemetry; the only workload on the batch path.
 *  - ddr3_funnel: one 7x7 conv at 96x72 on 2-channel DDR3 with a
 *    metrics-only trace session; operand traffic funnels through two
 *    nodes.
 *    Runnable, but not in BENCHMARK.json: its host time spread too
 *    widely between runs on a shared host to gate on.
 */

#include <sys/resource.h>

#include <cstdio>
#include <iomanip>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_stats.hh"
#include "core/layer_compiler.hh"
#include "core/neurocube.hh"
#include "nn/reference.hh"
#include "power/activity_energy.hh"
#include "serving/server.hh"
#include "serving/slo.hh"

namespace
{

using namespace neurocube;
using perfbench::Options;
using perfbench::Ratio;
using perfbench::ScopedSpan;
using perfbench::SpanLog;
using perfbench::jsonNumber;
using perfbench::jsonString;
using perfbench::median;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Input streams of one workload seed (perfbench::deriveSeed). */
enum SeedStream : uint64_t
{
    WeightsStream = 0,
    InputStream = 1,
};

/**
 * The serving arrival schedule is part of the workload definition,
 * not of the seed: the span of 48 Poisson arrivals varies by about
 * 1/sqrt(48) = 14% between schedules, which would swamp the host time
 * the benchmark measures. --seed varies weights and input
 * values, which leave every simulated statistic unchanged.
 */
constexpr uint64_t kArrivalSeed = 1234;
constexpr size_t kServeRequests = 48;
constexpr double kServeLoad = 0.5;

/** Repetitions of the one-shot probes of a traced run (medians or
 *  means over them are reported). */
constexpr int kProbeReps = 3;

/** Metrics of the result line, in print order. */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        entries_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (size_t i = 0; i < entries_.size(); ++i) {
            out += (i ? ", " : "") + jsonString(entries_[i].name)
                 + ": {\"value\": " + jsonNumber(entries_[i].value)
                 + ", \"unit\": " + jsonString(entries_[i].unit) + "}";
        }
        return out + "}";
    }

    /** Multiply every host time (unit s, ms or ns) by @p factor. */
    void
    scaleHostTimes(double factor)
    {
        for (Entry &e : entries_) {
            const std::string unit = e.unit;
            if (unit == "s" || unit == "ms" || unit == "ns")
                e.value *= factor;
        }
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Entry> entries_;
};

/** Ordered key -> raw JSON value map for the detail line. */
class Detail
{
  public:
    void set(const std::string &key, double v) { put(key, jsonNumber(v)); }
    void setText(const std::string &key, const std::string &v)
    {
        put(key, jsonString(v));
    }
    void put(const std::string &key, std::string raw)
    {
        entries_.emplace_back(key, std::move(raw));
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (size_t i = 0; i < entries_.size(); ++i) {
            out += (i ? ", " : "") + jsonString(entries_[i].first) + ": "
                 + entries_[i].second;
        }
        return out + "}";
    }

  private:
    std::vector<std::pair<std::string, std::string>> entries_;
};

/**
 * Host calibration: a fixed kernel that does identical work on every
 * call (a pseudo-random read-modify-write walk over 8 MiB with a
 * data-dependent branch per step), timed between iterations. On a
 * shared host, neighbours slow the simulator by up to 2x for tens of
 * seconds at a time, and this kernel slows with them (a pure ALU
 * chain does not). Host times are reported at a reference host speed:
 * scaled by kReferenceMs over the run's median sample. The raw times
 * and the samples are in the detail line.
 */
class HostCalibration
{
  public:
    /** The kernel's typical time on the 4-core container the
     *  benchmark was defined on. */
    static constexpr double kReferenceMs = 8.0;

    HostCalibration() : table_(size_t(1) << 21) {}

    /** Seconds one run of the kernel takes now. */
    double
    sample()
    {
        for (size_t i = 0; i < table_.size(); ++i)
            table_[i] = uint32_t(i * 2654435761u);
        const size_t mask = table_.size() - 1;
        const Clock::time_point start = Clock::now();
        uint64_t s = 1, acc = 0;
        const uint64_t steps = steps_;
        for (uint64_t i = 0; i < steps; ++i) {
            s = s * 6364136223846793005ull + 1;
            const uint32_t v = table_[(s >> 30) & mask];
            if (v & 1)
                acc += v;
            else
                acc ^= uint64_t(v) << 1;
            table_[(s >> 35) & mask] = uint32_t(acc);
        }
        sink_ = acc;
        return secondsSince(start);
    }

  private:
    /** volatile: the work cannot be folded at compile time. */
    volatile uint64_t steps_ = 1'000'000;
    volatile uint64_t sink_ = 0;
    std::vector<uint32_t> table_;
};

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/**
 * The machine's public counters (cube.stats().dump()), flattened to
 * "neurocube.<group>.<stat>" -> value, printed at full precision.
 */
class CounterDump
{
  public:
    explicit CounterDump(Neurocube &cube)
    {
        std::ostringstream os;
        os << std::setprecision(17);
        cube.stats().dump(os);
        std::istringstream in(os.str());
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream fields(line);
            std::string key;
            double value = 0.0;
            if (fields >> key >> value)
                values_[key] = value;
        }
    }

    double
    at(const std::string &key) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? 0.0 : it->second;
    }

    /**
     * Sum of "<...>.<component><index>.<stat>" over every index,
     * e.g. sum("router", "switched") adds router0.switched, ...
     * With @p weight_stat, sums stat * weight_stat of the same
     * component instead (histogram mean times count).
     */
    double
    sum(const std::string &component, const std::string &stat,
        const std::string &weight_stat = "") const
    {
        double total = 0.0;
        for (const auto &[key, value] : values_) {
            const std::string tail = "." + stat;
            if (key.size() <= tail.size()
                || key.compare(key.size() - tail.size(), tail.size(),
                               tail) != 0)
                continue;
            const std::string owner =
                key.substr(0, key.size() - tail.size());
            const size_t dot = owner.rfind('.');
            const std::string leaf = owner.substr(dot + 1);
            if (leaf.size() <= component.size()
                || leaf.compare(0, component.size(), component) != 0
                || leaf.find_first_not_of("0123456789",
                                          component.size())
                       != std::string::npos)
                continue;
            total += weight_stat.empty()
                         ? value
                         : value * at(owner + "." + weight_stat);
        }
        return total;
    }

  private:
    std::map<std::string, double> values_;
};

/** Stall fractions over @p reports, weighted by counted ticks. */
std::array<double, numStallClasses>
stallFractions(const std::vector<const BottleneckReport *> &reports)
{
    std::array<double, numStallClasses> out{};
    double ticks = 0.0;
    for (const BottleneckReport *r : reports) {
        if (!r->valid)
            continue;
        for (size_t s = 0; s < numStallClasses; ++s)
            out[s] += r->fractions[s] * double(r->countedTicks);
        ticks += double(r->countedTicks);
    }
    for (double &f : out)
        f = ticks > 0.0 ? f / ticks : 0.0;
    return out;
}

/** Per-module metric names of the stall classes, in StallClass order. */
constexpr const char *kStallMetric[numStallClasses] = {
    "stall.busy", "stall.idle", "stall.dram",
    "stall.noc_credit", "stall.inject", "stall.cache"};

/**
 * The module counters every workload reports in its traced run:
 * NoC, DRAM, PE and PNG totals of one iteration's machine.
 */
void
addMachineCounters(MetricSet &m, Neurocube &cube, Ratio lateral,
                   double sim_call_ns)
{
    const CounterDump c(cube);
    const double switched = c.sum("router", "switched");
    m.add("noc.switched", switched, "count");
    m.add("noc.blocked", c.sum("router", "blocked"), "count");
    m.add("noc.ejected", c.at("neurocube.noc.ejected"), "count");
    m.add("noc.lateral_frac", lateral.value(), "ratio");
    m.add("noc.lateral_base", lateral.base, "count");
    m.add("noc.latency_p99", cube.fabric().latencyHistogram().p99(),
          "ticks");
    m.add("noc.ns_per_switch", switched > 0 ? sim_call_ns / switched : 0.0,
          "ns");

    const Ratio row{c.sum("vault", "rowHits"),
                    c.sum("vault", "rowHits") + c.sum("vault", "rowMisses")};
    const double busy = c.sum("vault", "busyTicks");
    const Ratio busy_frac{busy, busy + c.sum("vault", "stallTicks")
                                    + c.sum("vault", "idleTicks")};
    Histogram residency(nullptr, "queueResidency", "");
    for (unsigned ch = 0; ch < cube.config().dram.numChannels; ++ch)
        residency.merge(cube.channel(ch).queueResidencyHistogram());
    m.add("dram.reads", c.sum("vault", "reads"), "count");
    m.add("dram.row_hit_ratio", row.value(), "ratio");
    m.add("dram.row_accesses", row.base, "count");
    m.add("dram.busy_frac", busy_frac.value(), "ratio");
    m.add("dram.queue_residency_p99", residency.p99(), "ticks");

    const double occ_samples = c.sum("pe", "cacheOccupancy.count");
    const double occ_weighted =
        c.sum("pe", "cacheOccupancy.mean", "cacheOccupancy.count");
    m.add("pe.mac_ops", c.sum("pe", "macOps"), "count");
    m.add("pe.cache_occupancy_mean",
          Ratio{occ_weighted, occ_samples}.value(), "entries");
    m.add("pe.cache_overflows", double(cube.totalCacheOverflows()),
          "count");

    const Ratio inject_stall{
        c.sum("png", "injectStallTicks"),
        c.at("neurocube.cycles") * double(cube.config().dram.numChannels)};
    m.add("png.injected", c.sum("png", "injected"), "count");
    m.add("png.inject_stall_frac", inject_stall.value(), "ratio");
}

/** Sum of lateral and local packets of a run's layers. */
Ratio
lateralOf(const std::vector<LayerResult> &layers)
{
    Ratio r;
    for (const LayerResult &l : layers) {
        r.part += double(l.lateralPackets);
        r.base += double(l.lateralPackets + l.localPackets);
    }
    return r;
}

/**
 * Host ms of compiling and gathering every layer of @p net on a
 * LayerCompiler and stores the benchmark owns: a cold compile (plan
 * miss), a warm compile of the same layer (plan hit, binding only)
 * and the gather. Layer i takes the reference output of layer i-1.
 */
void
compileProbe(const NeurocubeConfig &config, const NetworkDesc &net,
             const NetworkData &data, const Tensor &input,
             const std::vector<Tensor> &reference, SpanLog &spans)
{
    LayerCompiler compiler(config);
    std::vector<BackingStore> owned(config.dram.numChannels);
    std::vector<BackingStore *> stores;
    for (BackingStore &s : owned)
        stores.push_back(&s);
    for (size_t i = 0; i < net.layers.size(); ++i) {
        const Tensor &in = i == 0 ? input : reference[i - 1];
        {
            ScopedSpan span(&spans, "core.compile_cold");
            compiler.compile(net.layers[i], data.weights[i], in, stores);
        }
        std::optional<CompiledLayer> warm;
        {
            ScopedSpan span(&spans, "core.compile_warm");
            warm = compiler.compile(net.layers[i], data.weights[i], in,
                                    stores);
        }
        ScopedSpan span(&spans, "core.gather");
        compiler.gather(*warm, stores);
    }
}

/** Sum of the durations of spans named @p name, divided by @p per. */
double
spanMs(const SpanLog &spans, const std::string &name, double per = 1.0)
{
    double total = 0.0;
    for (double ms : spans.durationsMs(name))
        total += ms;
    return per > 0.0 ? total / per : 0.0;
}

/**
 * Per-NN-layer host time of the traced forwards: median over the
 * traced iterations of each layer's runLayer span, plus the derived
 * ns per simulated tick. Reports the network totals as metrics and
 * each layer in the detail line.
 */
void
addLayerTimes(MetricSet &m, Detail &d, const SpanLog &spans,
              const std::vector<LayerResult> &layers)
{
    double total_ms = 0.0, total_ticks = 0.0;
    std::string per_layer = "{";
    for (size_t i = 0; i < layers.size(); ++i) {
        const double ms =
            median(spans.durationsMs("core.layer." + layers[i].name));
        const double ticks = double(layers[i].cycles);
        total_ms += ms;
        total_ticks += ticks;
        per_layer += (i ? ", " : "") + jsonString(layers[i].name)
                   + ": {\"layer_ms\": " + jsonNumber(ms)
                   + ", \"ns_per_tick\": "
                   + jsonNumber(ticks > 0 ? ms * 1e6 / ticks : 0.0)
                   + ", \"cycles\": " + jsonNumber(ticks) + "}";
    }
    d.put("core.layers", per_layer + "}");
    m.add("core.layer_ms", total_ms, "ms");
    m.add("core.ns_per_tick",
          total_ticks > 0 ? total_ms * 1e6 / total_ticks : 0.0, "ns");
}

/** Run every layer of the loaded network under one span each. */
RunResult
forwardByLayer(Neurocube &cube, const NetworkDesc &net, SpanLog *spans)
{
    RunResult run;
    run.spatialTopology = cube.spatialTopology();
    for (size_t i = 0; i < net.layers.size(); ++i) {
        ScopedSpan span(spans, "core.layer." + net.layers[i].name);
        run.layers.push_back(cube.runLayer(i));
    }
    return run;
}

/** Host ms of the three RunResult exports and of pricing the run. */
void
addExportAndPricing(MetricSet &m, SpanLog &spans, const RunResult &run)
{
    size_t bytes = 0;
    {
        ScopedSpan span(&spans, "trace.export");
        bytes += run.metricsJson().size();
        bytes += run.energyJson().size();
        bytes += run.spatialJson().size();
    }
    const ActivityEnergyModel model;
    double joules = 0.0;
    {
        ScopedSpan span(&spans, "power.price");
        joules = model.price(run).totalJ();
    }
    m.add("trace.export_ms", spanMs(spans, "trace.export"), "ms");
    m.add("trace.export_bytes", double(bytes), "bytes");
    m.add("power.price_ms", spanMs(spans, "power.price"), "ms");
    m.add("power.priced_j", joules, "J");
}

/** One benchmark workload: a fresh machine per iteration. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the seed's inputs and the reference outputs (once). */
    virtual void prepare(uint64_t seed, SpanLog *spans) = 0;
    /** Construct and load a fresh machine (timed as set-up). */
    virtual void setUp(SpanLog *spans) = 0;
    /** The measured simulation. */
    virtual void iterate(SpanLog *spans) = 0;
    /** Outputs bit-exact and simulated statistics equal to the first
     *  iteration's. */
    virtual bool check() = 0;
    /** Drop the machine (untimed). */
    virtual void tearDown() = 0;
    /** Simulated statistics and per-request host cost. */
    virtual void endToEnd(MetricSet &m, double iter_s) = 0;
    /** Traced run: per-module metrics after the measured loop. */
    virtual void perModule(MetricSet &m, Detail &d, SpanLog &spans,
                           double traced_iter_ms) = 0;
};

/** Closed-loop forward of one network (conv_mac, ddr3_funnel). */
class ForwardWorkload : public Workload
{
  public:
    ForwardWorkload(NetworkDesc net, NeurocubeConfig config,
                    bool metrics_probe)
        : net_(std::move(net)), config_(std::move(config)),
          metricsProbe_(metrics_probe)
    {
    }

    void
    prepare(uint64_t seed, SpanLog *spans) override
    {
        seed_ = seed;
        makeInputs();
        ScopedSpan span(spans, "nn.reference");
        reference_ = referenceForward(net_, data_, input_);
    }

    void
    setUp(SpanLog *spans) override
    {
        makeInputs();
        cube_ = std::make_unique<Neurocube>(config_);
        {
            ScopedSpan span(spans, "core.load");
            cube_->loadNetwork(net_, data_);
        }
        cube_->setInput(input_);
    }

    void
    iterate(SpanLog *spans) override
    {
        if (spans == nullptr) {
            run_ = cube_->runForward();
            return;
        }
        ScopedSpan span(spans, "core.forward");
        run_ = forwardByLayer(*cube_, net_, spans);
    }

    bool
    check() override
    {
        bool ok = true;
        for (size_t i = 0; i < reference_.size(); ++i)
            ok = ok && cube_->layerOutput(i) == reference_[i];
        std::vector<double> sig;
        for (const LayerResult &l : run_.layers) {
            sig.insert(sig.end(),
                       {double(l.cycles), double(l.ops), double(l.passes),
                        double(l.lateralPackets), double(l.localPackets),
                        double(l.dramBits)});
            if (l.bottleneck.valid)
                sig.insert(sig.end(), l.bottleneck.fractions.begin(),
                           l.bottleneck.fractions.end());
        }
        if (!first_)
            first_ = sig;
        return ok && sig == *first_;
    }

    void
    tearDown() override
    {
        cube_.reset();
    }

    void
    endToEnd(MetricSet &m, double iter_s) override
    {
        const double cycles = double(run_.totalCycles());
        m.add("sim_ticks_per_s", iter_s > 0 ? cycles / iter_s : 0.0,
              "1/s");
        m.add("host_ms_per_req", iter_s * 1e3, "ms");
        m.add("sim_cycles", cycles, "cycles");
        // One caller, one request per forward: every request's
        // latency is the forward's cycles and none is dropped.
        m.add("sim_lat_p50_cycles", cycles, "cycles");
        m.add("sim_lat_p99_cycles", cycles, "cycles");
        m.add("sim_served_frac", 1.0, "ratio");
    }

    void
    perModule(MetricSet &m, Detail &d, SpanLog &spans,
              double traced_iter_ms) override
    {
        // The last iteration's machine is still loaded: its counters
        // cover exactly one forward.
        m.add("core.load_ms", median(spans.durationsMs("core.load")), "ms");
        for (int rep = 0; rep < kProbeReps; ++rep)
            compileProbe(config_, net_, data_, input_, reference_, spans);
        m.add("core.compile_cold_ms",
              spanMs(spans, "core.compile_cold", kProbeReps), "ms");
        m.add("core.compile_warm_ms",
              spanMs(spans, "core.compile_warm", kProbeReps), "ms");
        m.add("core.gather_ms", spanMs(spans, "core.gather", kProbeReps),
              "ms");
        addLayerTimes(m, d, spans, run_.layers);
        const Ratio hits{double(cube_->compiler().planCacheHits()),
                         double(cube_->compiler().planCacheHits()
                                + cube_->compiler().planCacheMisses())};
        m.add("core.plan_hit_ratio", hits.value(), "ratio");
        m.add("core.plan_lookups", hits.base, "count");
        m.add("core.batch_ms", traced_iter_ms, "ms");

        const double sim_ns =
            median(spans.durationsMs("core.forward")) * 1e6;
        addMachineCounters(m, *cube_, lateralOf(run_.layers), sim_ns);

        std::vector<const BottleneckReport *> reports;
        RunResult regime;
        if (metricsProbe_) {
            // No trace session on the measured path: one extra forward
            // with a metrics-only one, outside every span, gives the
            // stall regime (attribution is observational, so the
            // cycles match the measured forwards).
            NeurocubeConfig probe = config_;
            probe.trace.enabled = true;
            probe.trace.energy = false;
            probe.trace.spatial = false;
            Neurocube cube(probe);
            cube.loadNetwork(net_, data_);
            cube.setInput(input_);
            regime = cube.runForward();
            d.set("metrics_probe_cycles", double(regime.totalCycles()));
        }
        std::string labels = "{";
        for (const LayerResult &l :
             metricsProbe_ ? regime.layers : run_.layers) {
            reports.push_back(&l.bottleneck);
            labels += (labels.size() > 1 ? ", " : "") + jsonString(l.name)
                    + ": " + jsonString(l.bottleneck.label);
        }
        d.put("bottleneck", labels + "}");
        const auto stalls = stallFractions(reports);
        for (size_t s = 0; s < numStallClasses; ++s)
            m.add(kStallMetric[s], stalls[s], "ratio");

        addExportAndPricing(m, spans, run_);
        // A closed loop has no serving frontend.
        m.add("serving.batches", 0.0, "count");
        m.add("serving.mean_lanes", 0.0, "lanes");
        m.add("serving.queue_depth_p99", 0.0, "requests");
        m.add("nn.reference_ms", spanMs(spans, "nn.reference"), "ms");
        d.set("sim_cycles", double(run_.totalCycles()));
    }

  private:
    void
    makeInputs()
    {
        data_ = NetworkData::randomized(
            net_, perfbench::deriveSeed(seed_, WeightsStream));
        input_ = Tensor(net_.inputMaps(), net_.inputHeight(),
                        net_.inputWidth());
        Rng rng(perfbench::deriveSeed(seed_, InputStream));
        input_.randomize(rng);
    }

    NetworkDesc net_;
    NeurocubeConfig config_;
    bool metricsProbe_;
    uint64_t seed_ = 0;
    NetworkData data_;
    Tensor input_;
    std::vector<Tensor> reference_;
    std::unique_ptr<Neurocube> cube_;
    RunResult run_;
    std::optional<std::vector<double>> first_;
};

/** The serve_sweep conv+FC pipeline at its quick 20x16 shape. */
NetworkDesc
servingNet()
{
    NetworkDesc net;
    net.name = "serving-conv-fc";
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

/** Open-loop Poisson serving through ServingSimulator. */
class ServeWorkload : public Workload
{
  public:
    ServeWorkload() : net_(servingNet())
    {
        config_.trace.enabled = true; // metrics + energy + spatial
    }

    void
    prepare(uint64_t seed, SpanLog *spans) override
    {
        seed_ = seed;
        makeInputs();
        ScopedSpan span(spans, "nn.reference");
        reference_ = referenceForward(net_, data_, input_);
    }

    void
    setUp(SpanLog *spans) override
    {
        makeInputs();
        // Capacity calibration: one full 4-lane batch.
        {
            NeurocubeConfig calib = config_;
            calib.batch.lanes = 4;
            Neurocube cube(calib);
            cube.loadNetwork(net_, data_);
            batch4_ = cube.runForwardBatch(std::vector<Tensor>(4, input_))
                          .cycles;
        }
        arrivals_ = poissonArrivals(
            kServeRequests, double(batch4_) / (4.0 * kServeLoad),
            kArrivalSeed);
        serving_.queueDepth = 12;
        serving_.scheduler.maxLanes = 4;
        serving_.scheduler.maxWaitTicks = batch4_ / 2;
        cube_ = std::make_unique<Neurocube>(config_);
        ScopedSpan span(spans, "core.load");
        cube_->loadNetwork(net_, data_);
    }

    void
    iterate(SpanLog *spans) override
    {
        ScopedSpan span(spans, "serving.run");
        ServingSimulator sim(*cube_, serving_);
        result_ = sim.run(arrivals_, input_);
    }

    bool
    check() override
    {
        // Only the last batch's outputs stay gathered; check each of
        // its lanes (every request executes the same input).
        unsigned last_batch = 0;
        for (const RequestRecord &r : result_.requests)
            last_batch += r.batch == result_.batches ? 1 : 0;
        bool ok = last_batch > 0;
        for (unsigned lane = 0; lane < last_batch; ++lane) {
            for (size_t i = 0; i < reference_.size(); ++i)
                ok = ok && cube_->batchLayerOutput(lane, i) == reference_[i];
        }
        std::vector<double> sig = {
            double(result_.served), double(result_.dropped),
            double(result_.batches), double(result_.makespan),
            double(result_.busyCycles), double(batch4_)};
        for (const RequestRecord &r : result_.requests)
            sig.insert(sig.end(), {double(r.latency()), double(r.lanes)});
        if (!first_)
            first_ = sig;
        return ok && sig == *first_;
    }

    void
    tearDown() override
    {
        cube_.reset();
    }

    void
    endToEnd(MetricSet &m, double iter_s) override
    {
        const double served = double(result_.served);
        m.add("sim_ticks_per_s",
              iter_s > 0 ? double(result_.busyCycles) / iter_s : 0.0,
              "1/s");
        m.add("host_ms_per_req", served > 0 ? iter_s * 1e3 / served : 0.0,
              "ms");
        m.add("sim_cycles", double(result_.makespan), "cycles");
        m.add("sim_lat_p50_cycles", result_.latency.p50(), "cycles");
        m.add("sim_lat_p99_cycles", result_.latency.p99(), "cycles");
        m.add("sim_served_frac",
              Ratio{served, double(result_.requests.size())}.value(),
              "ratio");
    }

    void
    perModule(MetricSet &m, Detail &d, SpanLog &spans,
              double traced_iter_ms) override
    {
        m.add("core.load_ms", median(spans.durationsMs("core.load")), "ms");
        for (int rep = 0; rep < kProbeReps; ++rep)
            compileProbe(config_, net_, data_, input_, reference_, spans);
        m.add("core.compile_cold_ms",
              spanMs(spans, "core.compile_cold", kProbeReps), "ms");
        m.add("core.compile_warm_ms",
              spanMs(spans, "core.compile_warm", kProbeReps), "ms");
        m.add("core.gather_ms", spanMs(spans, "core.gather", kProbeReps),
              "ms");

        const Ratio hits{double(cube_->compiler().planCacheHits()),
                         double(cube_->compiler().planCacheHits()
                                + cube_->compiler().planCacheMisses())};
        m.add("core.plan_hit_ratio", hits.value(), "ratio");
        m.add("core.plan_lookups", hits.base, "count");
        const double batches = double(result_.batches);
        m.add("core.batch_ms", traced_iter_ms / batches, "ms");

        Ratio lateral;
        for (uint64_t v : result_.spatial.nodeLateral)
            lateral.part += double(v);
        lateral.base = lateral.part;
        for (uint64_t v : result_.spatial.nodeLocal)
            lateral.base += double(v);
        addMachineCounters(m, *cube_, lateral, traced_iter_ms * 1e6);

        d.setText("bottleneck", result_.bottleneck.label);
        const auto stalls = stallFractions({&result_.bottleneck});
        for (size_t s = 0; s < numStallClasses; ++s)
            m.add(kStallMetric[s], stalls[s], "ratio");

        // Counters read; drop the serving machine so the probe
        // machines below own the process's telemetry registries.
        tearDown();
        // The serving path never calls runLayer: one-lane forwards of
        // the same net give its per-layer host times.
        RunResult probe;
        for (int rep = 0; rep < kProbeReps; ++rep) {
            Neurocube cube(config_);
            cube.loadNetwork(net_, data_);
            cube.setInput(input_);
            probe = forwardByLayer(cube, net_, &spans);
        }
        addLayerTimes(m, d, spans, probe.layers);

        addExportAndPricing(m, spans, probe);

        ServingReport report;
        {
            ScopedSpan span(&spans, "serving.report");
            report = buildServingReport(result_);
        }
        Ratio lanes;
        for (const RequestRecord &r : result_.requests) {
            if (r.dropped)
                continue;
            lanes.part += double(r.lanes);
            lanes.base += 1.0;
        }
        m.add("serving.batches", batches, "count");
        m.add("serving.mean_lanes", lanes.value(), "lanes");
        m.add("serving.queue_depth_p99", result_.queueDepth.p99(),
              "requests");
        m.add("nn.reference_ms", spanMs(spans, "nn.reference"), "ms");
        d.set("serving.report_ms", spanMs(spans, "serving.report"));
        d.set("serving.mean_batch", report.meanBatch);
        d.set("serving.utilization", report.utilization);
        d.set("serving.calibration_batch4_cycles", double(batch4_));
        d.set("sim_cycles", double(result_.makespan));
    }

  private:
    void
    makeInputs()
    {
        data_ = NetworkData::randomized(
            net_, perfbench::deriveSeed(seed_, WeightsStream));
        input_ = Tensor(net_.inputMaps(), net_.inputHeight(),
                        net_.inputWidth());
        Rng rng(perfbench::deriveSeed(seed_, InputStream));
        input_.randomize(rng);
    }

    NetworkDesc net_;
    NeurocubeConfig config_;
    ServingConfig serving_;
    uint64_t seed_ = 0;
    NetworkData data_;
    Tensor input_;
    std::vector<Tensor> reference_;
    Tick batch4_ = 0;
    ArrivalSchedule arrivals_;
    std::unique_ptr<Neurocube> cube_;
    ServingResult result_;
    std::optional<std::vector<double>> first_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "conv_mac") {
        return std::make_unique<ForwardWorkload>(
            sceneLabelingNetwork(64, 48), NeurocubeConfig{}, true);
    }
    if (name == "ddr3_funnel") {
        NeurocubeConfig config;
        config.dram = DramParams::ddr3();
        config.trace.enabled = true; // metrics-only trace session
        config.trace.energy = false;
        config.trace.spatial = false;
        return std::make_unique<ForwardWorkload>(
            singleConvNetwork(96, 72, 7, 1), config, false);
    }
    if (name == "serve_poisson")
        return std::make_unique<ServeWorkload>();
    return nullptr;
}

/** "name": {"p25", "median", "p75", "n", tail} of host-time samples. */
std::string
samplesJson(const std::vector<double> &samples)
{
    const perfbench::Quartiles q = perfbench::quartiles(samples);
    const perfbench::TailPercentile tail = perfbench::tailPercentile(samples);
    std::string out = "{\"p25\": " + jsonNumber(q.q1)
                    + ", \"median\": " + jsonNumber(q.median)
                    + ", \"p75\": " + jsonNumber(q.q3)
                    + ", \"n\": " + std::to_string(samples.size());
    if (tail.pct > 0) {
        out += ", \"tail_pct\": " + jsonNumber(tail.pct)
             + ", \"tail\": " + jsonNumber(tail.value)
             + ", \"beyond\": " + std::to_string(tail.beyond);
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const std::string error =
        perfbench::parseOptions({argv + 1, argv + argc}, opt);
    if (!error.empty()) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 2;
    }
    std::unique_ptr<Workload> workload = makeWorkload(opt.workload);
    if (!workload) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }

    Detail detail;
    detail.setText("workload", opt.workload);
    detail.put("seed", std::to_string(opt.seed));

    SpanLog spans;
    SpanLog *log = opt.trace ? &spans : nullptr;
    workload->prepare(opt.seed, log);

    // Closed loop: set up, simulate, check, repeat while the next
    // iteration is expected to end inside the window. A traced run
    // alternates spanned and plain iterations so it can report what
    // its spans cost.
    HostCalibration calibration;
    std::vector<double> setup_s, plain_s, traced_s, calib_ms;
    uint64_t attempted = 0, failed = 0;
    const Clock::time_point window = Clock::now();
    double last_round = 0.0, last_iter = 0.0;
    do {
        const Clock::time_point round = Clock::now();
        const bool spanned = opt.trace && attempted % 2 == 0;
        SpanLog *iter_log = spanned ? log : nullptr;
        workload->tearDown();
        // About one calibration sample per half second simulated, so
        // long iterations are represented as densely as short ones.
        for (int k = 0; k <= int(last_iter / 0.5); ++k)
            calib_ms.push_back(calibration.sample() * 1e3);
        Clock::time_point start = Clock::now();
        workload->setUp(iter_log);
        setup_s.push_back(secondsSince(start));
        start = Clock::now();
        workload->iterate(iter_log);
        last_iter = secondsSince(start);
        (spanned ? traced_s : plain_s).push_back(last_iter);
        ++attempted;
        failed += workload->check() ? 0 : 1;
        last_round = secondsSince(round);
    } while (secondsSince(window) + last_round <= opt.seconds
             || (opt.trace && attempted < 2));
    calib_ms.push_back(calibration.sample() * 1e3);

    const double scale = HostCalibration::kReferenceMs / median(calib_ms);
    const double iter_s = median(plain_s) * scale;
    detail.set("host_scale", scale);
    detail.put("raw_setup_s", samplesJson(setup_s));
    detail.put("raw_iter_s", samplesJson(plain_s));
    std::string samples = "[";
    for (double v : plain_s)
        samples += (samples.size() > 1 ? ", " : "") + jsonNumber(v);
    detail.put("raw_iter_samples_s", samples + "]");
    detail.put("host_calib_ms", samplesJson(calib_ms));
    detail.set("failed_frac", double(failed) / double(attempted));

    MetricSet metrics;
    if (!opt.trace) {
        metrics.add("setup_s", median(setup_s) * scale, "s");
        metrics.add("iter_s", iter_s, "s");
        workload->endToEnd(metrics, iter_s);
        metrics.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
        const double traced_ms = median(traced_s) * 1e3;
        workload->perModule(metrics, detail, spans, traced_ms);
        metrics.scaleHostTimes(scale);
        metrics.add("trace.overhead_ratio",
                    Ratio{traced_ms, median(plain_s) * 1e3}.value(), "x");
        detail.put("raw_traced_iter_s", samplesJson(traced_s));
        std::string summary = "{";
        for (const auto &[name, s] : spans.summarize()) {
            summary += (summary.size() > 1 ? ", " : "") + jsonString(name)
                     + ": {\"count\": " + std::to_string(s.count)
                     + ", \"total_ms\": " + jsonNumber(s.totalMs)
                     + ", \"self_ms\": " + jsonNumber(s.selfMs) + "}";
        }
        detail.put("spans", summary + "}");
    }

    std::printf("detail %s\n", detail.json().c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false",
                (unsigned long long)attempted, (unsigned long long)failed,
                metrics.json().c_str());
    return 0;
}
