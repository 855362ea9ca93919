#include "core/neurocube.hh"

#include <algorithm>
#include <thread>

#include "common/logging.hh"
#include "core/analytic_model.hh"

namespace neurocube
{

namespace
{

/**
 * Place one measured layer on the machine roofline: achieved rates
 * from the layer's own counters, ceilings and bound attribution from
 * the analytic model. Pure arithmetic over already-measured values —
 * never perturbs the simulation.
 */
RooflinePoint
rooflinePoint(const LayerDesc &layer, const NeurocubeConfig &config,
              const LayerResult &r)
{
    RooflinePoint p;
    if (r.cycles == 0)
        return p;
    RooflineCeilings roof = rooflineCeilings(config);
    p.valid = true;
    p.macPerCycle = double(r.ops / 2) / double(r.cycles);
    p.macCeiling = roof.macsPerCycle;
    p.bytesPerCycle = double(r.dramBits / 8) / double(r.cycles);
    p.bytesCeiling = roof.dramBytesPerCycle;
    p.bound = analyticLayerEstimate(layer, config).boundLabel();
    return p;
}

/** Five-number summary of a histogram for the bottleneck report. */
HistogramSummary
summarize(const Histogram &h)
{
    return {h.count(), h.mean(), h.p50(), h.p99(), h.max()};
}

/** True when @p nodes is null or contains @p node. */
bool
nodeSelected(const std::vector<unsigned> *nodes, unsigned node)
{
    if (nodes == nullptr)
        return true;
    return std::find(nodes->begin(), nodes->end(), node)
        != nodes->end();
}

/**
 * Publish the ticks @p sched elided since the last call as one
 * aggregate EngineSkip event on the Sim track.
 */
void
emitSkipped(const Probe &probe, PassScheduler &sched)
{
    if (uint64_t skipped = sched.takeSkippedTicks())
        probe.event(TraceComponent::Sim, 0, TraceEventType::EngineSkip, 0,
                    skipped);
}

/** True when every component of @p s has finished the pass. */
bool
groupDone(const PassScheduler::Slice &s)
{
    for (const Png *png : s.pngs) {
        if (!png->done())
            return false;
    }
    for (const Pe *pe : s.pes) {
        if (!pe->done())
            return false;
    }
    for (const MemoryChannel *channel : s.channels) {
        if (!channel->idle())
            return false;
    }
    for (unsigned node : s.peIds) {
        if (!s.fabric->nodeQuiescent(node))
            return false;
    }
    return true;
}

/** Cumulative activity counters of one slice's components. */
struct SliceCounters
{
    uint64_t macs = 0;
    uint64_t bits = 0;
    uint64_t lateral = 0;
    uint64_t local = 0;
};

SliceCounters
sliceCounters(const PassScheduler::Slice &s)
{
    SliceCounters c;
    for (const Pe *pe : s.pes)
        c.macs += pe->macOps();
    for (const MemoryChannel *channel : s.channels)
        c.bits += channel->bitsTransferred();
    for (unsigned node : s.peIds) {
        c.lateral += s.fabric->nodeLateralPackets(node);
        c.local += s.fabric->nodeLocalPackets(node);
    }
    return c;
}

} // namespace

Neurocube::Neurocube(const NeurocubeConfig &config)
    : config_(config), statGroup_(nullptr, "neurocube"),
      compiler_(config),
      statPasses_(&statGroup_, "passes", "PNG passes executed"),
      statLayerCycles_(&statGroup_, "cycles",
                       "total reference-clock cycles simulated")
{
    config_.noc.numNodes = config_.numPes;

    std::vector<unsigned> mem_nodes = config_.resolvedMemoryNodes();
    nc_assert(mem_nodes.size() == config_.dram.numChannels,
              "memoryNodes size %zu != channel count %u",
              mem_nodes.size(), config_.dram.numChannels);
    for (unsigned node : mem_nodes) {
        nc_assert(node < config_.numPes,
                  "memory node %u outside the mesh", node);
    }

    if (config_.batch.lanes > 1)
        buildBatchLanes();

    if (config_.trace.enabled) {
#if NEUROCUBE_TRACE_ENABLED
        TraceTopology topology;
        topology.numRouters = config_.numPes;
        topology.numPes = config_.numPes;
        topology.numVaults = config_.dram.numChannels;
        topology.vaultNode.assign(mem_nodes.begin(),
                                  mem_nodes.end());
        if (!lanePartition_.empty()) {
            topology.laneOf.assign(config_.numPes, 0);
            for (const LaneSpec &lane : lanePartition_) {
                for (unsigned node : lane.nodes)
                    topology.laneOf[node] = uint16_t(lane.index);
            }
        }
        traceSession_ =
            std::make_unique<TraceSession>(config_.trace, topology);
        probe_ = traceSession_->probe();
#else
        nc_warn("tracing requested but compiled out "
                "(rebuild with -DNEUROCUBE_TRACE=ON)");
#endif
    }

    fabric_ = std::make_unique<NocFabric>(config_.noc, &statGroup_,
                                          probe_);

    for (unsigned ch = 0; ch < config_.dram.numChannels; ++ch) {
        channels_.push_back(std::make_unique<MemoryChannel>(
            config_.dram, &statGroup_,
            "vault" + std::to_string(ch), uint16_t(ch), probe_));
        pngs_.push_back(std::make_unique<Png>(
            VaultId(mem_nodes[ch]), config_.png, *channels_[ch],
            *fabric_, &statGroup_, probe_));
    }
    for (unsigned p = 0; p < config_.numPes; ++p) {
        pes_.push_back(std::make_unique<Pe>(PeId(p), config_.pe,
                                            &statGroup_, probe_));
    }
}

void
Neurocube::loadNetwork(const NetworkDesc &net, const NetworkData &data)
{
    net.validate();
    nc_assert(data.weights.size() == net.layers.size(),
              "parameter blocks (%zu) != layers (%zu)",
              data.weights.size(), net.layers.size());
    net_ = net;
    data_ = data;
    activations_.assign(net.layers.size(), Tensor());
}

void
Neurocube::setInput(const Tensor &input)
{
    nc_assert(!net_.layers.empty(), "setInput before loadNetwork");
    const LayerDesc &first = net_.layers.front();
    nc_assert(input.maps() == first.inMaps
                  && input.height() == first.inHeight
                  && input.width() == first.inWidth,
              "input tensor %ux%ux%u does not match network input "
              "%ux%ux%u", input.maps(), input.height(), input.width(),
              first.inMaps, first.inHeight, first.inWidth);
    input_ = input;
}

std::vector<PhaseSegment>
Neurocube::phases()
{
    return traceSession_ ? traceSession_->phases()
                         : std::vector<PhaseSegment>{};
}

SpatialTopology
Neurocube::spatialTopology()
{
    const CounterRegistry *counters = probe_.counters;
    return counters && counters->spatialOn() ? counters->topology()
                                             : SpatialTopology{};
}

SpatialSnapshot
Neurocube::spatialSnapshot()
{
    const CounterRegistry *counters = probe_.counters;
    return counters ? counters->spatialSnapshot(counters->snapshot())
                    : SpatialSnapshot{};
}

PassScheduler::Slice
Neurocube::groupSlice(const LaneSpec *lane)
{
    PassScheduler::Slice s;
    s.fabric = fabric_.get();
    s.numNodes = config_.numPes;
    s.numChannels = unsigned(channels_.size());
    if (lane == nullptr) {
        std::vector<unsigned> mem_nodes = config_.resolvedMemoryNodes();
        for (unsigned ch = 0; ch < channels_.size(); ++ch) {
            s.channelIds.push_back(ch);
            s.channels.push_back(channels_[ch].get());
            s.pngs.push_back(pngs_[ch].get());
            s.channelNodes.push_back(mem_nodes[ch]);
        }
        for (unsigned p = 0; p < pes_.size(); ++p) {
            s.peIds.push_back(p);
            s.pes.push_back(pes_[p].get());
        }
        s.noc = fabric_->allNodes();
        return s;
    }
    // Batching requires the identity vault attachment (channel i at
    // node i, asserted by buildBatchLanes), so a lane's node list
    // selects its channels, PNGs, PEs and fabric nodes alike.
    for (unsigned node : lane->nodes) {
        s.channelIds.push_back(node);
        s.channels.push_back(channels_[node].get());
        s.pngs.push_back(pngs_[node].get());
        s.channelNodes.push_back(node);
        s.peIds.push_back(node);
        s.pes.push_back(pes_[node].get());
    }
    s.noc = fabric_->slice(lane->nodes);
    return s;
}

Tick
Neurocube::passLoop(PassScheduler *sched,
                    std::span<const CompletionGroup> groups,
                    std::span<Tick> done, const PassFrame &frame)
{
    size_t pending = groups.size();
    for (Tick t = frame.start;;) {
        // Stamp executed ticks only: a tick the scheduler skips is one
        // no component would have recorded an event at (the sleep
        // conditions guarantee it), so the stream matches the Legacy
        // every-tick stamping bit for bit.
        probe_.tick(t);
        if (sched == nullptr) {
            // Legacy reference body: tick every component, no wake
            // logic. tests/test_engine_diff.cc compares against it.
            for (auto &png : pngs_)
                png->tick(t);
            for (auto &channel : channels_)
                channel->tick(t);
            fabric_->tick(t);
            for (auto &pe : pes_)
                pe->tick(t, *fabric_);
        } else {
            sched->step(t);
            emitSkipped(probe_, *sched);
        }
        // Done-ness only changes through actions at executed ticks,
        // so evaluating after every executed tick yields the Legacy
        // stamps. Completion is stamped before the deadline check;
        // the order is visible only through LaneDone events, which
        // batch passes alone emit, and the deadline fires either way.
        const Tick stamp = t + 1;
        for (size_t g = 0; g < groups.size(); ++g) {
            if (done[g] != 0 || !groupDone(groups[g].slice))
                continue;
            done[g] = stamp;
            --pending;
            if (frame.batch) {
                probe_.event(TraceComponent::Sim, groups[g].lane->index,
                             TraceEventType::LaneDone, unsigned(frame.pass),
                             stamp - frame.start);
            }
        }
        if (stamp >= frame.deadline) {
            nc_panic("pass deadlock: %zu of %zu completion groups "
                     "pending after %llu ticks (%llu operand pairs "
                     "budgeted)", pending, groups.size(),
                     (unsigned long long)(stamp - frame.start),
                     (unsigned long long)frame.pairs);
        }
        if (pending == 0)
            return stamp;
        t = sched == nullptr ? stamp : sched->minWake();
        if (t == tickNever || t >= frame.deadline) {
            // Every component asleep with the pass unfinished: Legacy
            // would no-op-tick its way to the deadline and panic
            // there. Report the deadlock immediately.
            nc_panic("pass deadlock: %zu of %zu completion groups "
                     "pending, all components asleep at tick %llu",
                     pending, groups.size(),
                     (unsigned long long)(stamp - frame.start));
        }
    }
}

Tick
Neurocube::runPass(const std::vector<CompletionGroup> &groups,
                   const std::vector<CompiledLayer> &compiled,
                   size_t pass, bool batch, std::vector<Tick> &done)
{
    // Configure every group; batch lanes beyond the active ones are
    // parked on disabled programs.
    for (size_t g = 0; g < groups.size(); ++g) {
        const PassScheduler::Slice &s = groups[g].slice;
        const CompiledPass &cp = compiled[g].passes()[pass];
        for (size_t i = 0; i < s.pngs.size(); ++i)
            s.pngs[i]->configure(cp.programs[i]);
        for (size_t i = 0; i < s.pes.size(); ++i)
            s.pes[i]->configurePass(compiled[g].peConfig(pass, i));
    }
    if (batch) {
        for (size_t l = groups.size(); l < lanePartition_.size(); ++l) {
            for (unsigned node : lanePartition_[l].nodes) {
                pngs_[node]->configure(PngProgram{});
                pes_[node]->configurePass(PePassConfig{});
            }
        }
    }

    // Safety net: a pass can never legitimately exceed this budget
    // (every operand pair needs at least one DRAM word somewhere).
    PassFrame frame;
    frame.start = now_;
    for (const auto &png : pngs_)
        frame.pairs += png->pairBudget();
    frame.deadline = now_ + 10000 + 400 * frame.pairs;
    frame.pass = pass;
    frame.batch = batch;

    statPasses_ += 1;
    done.assign(groups.size(), 0);
    // A single pass already done at start runs zero ticks; a batch
    // pass always executes at least one.
    if (!batch
        && std::all_of(groups.begin(), groups.end(),
                       [](const CompletionGroup &g) {
                           return groupDone(g.slice);
                       })) {
        done.assign(groups.size(), frame.start);
        return frame.start;
    }

    // The event engine runs a multi-lane pass as one lane-slice
    // scheduler per worker thread. A live recorder keeps it on one
    // whole-machine scheduler: the recorder ring has one producer,
    // and the single-threaded loop emits the same stream (skipped
    // ticks are exactly the ticks no component records at).
    const bool legacy = config_.engine == SimEngine::Legacy;
    const bool threaded =
        !legacy && groups.size() > 1 && probe_.recorder == nullptr;
    std::vector<std::unique_ptr<PassScheduler>> scheds;
    Tick final = frame.start;
    if (threaded) {
        // Everything the lanes touch, fabric counters included, is
        // per-node and therefore disjoint by construction (the lane
        // checker asserts no packet crosses lanes). One scheduler per
        // lane, parked lanes included: they never step, but the
        // catch-up below bulk-accounts their idle components.
        for (const LaneSpec &lane : lanePartition_) {
            scheds.push_back(std::make_unique<PassScheduler>(
                groupSlice(&lane), frame.start));
        }
        std::span<const CompletionGroup> all(groups);
        std::span<Tick> stamps(done);
        auto run_lane = [&](size_t g) {
            passLoop(scheds[g].get(), all.subspan(g, 1),
                     stamps.subspan(g, 1), frame);
        };
        std::vector<std::thread> workers;
        workers.reserve(groups.size() - 1);
        for (size_t g = 1; g < groups.size(); ++g)
            workers.emplace_back(run_lane, g);
        run_lane(0);
        for (std::thread &w : workers)
            w.join();
        for (Tick stamp : done)
            final = std::max(final, stamp);
    } else {
        if (!legacy) {
            scheds.push_back(std::make_unique<PassScheduler>(
                groupSlice(nullptr), frame.start));
        }
        final = passLoop(scheds.empty() ? nullptr : scheds[0].get(),
                         groups, done, frame);
    }

    // The event engine bulk-accounts every component up to the
    // pass's global end, as Legacy keeps no-op-ticking finished
    // components until then. A single pass stamps the catch-up at
    // that end, a batch pass at its last executed tick.
    if (!batch && !scheds.empty())
        probe_.tick(final);
    for (auto &sched : scheds) {
        sched->catchupAll(final);
        emitSkipped(probe_, *sched);
    }
    now_ = final;
    return frame.start;
}

void
Neurocube::fillHistogramSummaries(BottleneckReport &report,
                                  const std::vector<unsigned> *nodes)
{
    report.nocLatency = summarize(fabric_->latencyHistogram());

    // Free-standing aggregation targets (never registered/dumped).
    Histogram dram(nullptr, "", "");
    Histogram pe_cache(nullptr, "", "");
    Histogram png_queue(nullptr, "", "");
    std::vector<unsigned> mem_nodes = config_.resolvedMemoryNodes();
    for (unsigned ch = 0; ch < channels_.size(); ++ch) {
        if (nodeSelected(nodes, mem_nodes[ch]))
            dram.merge(channels_[ch]->queueResidencyHistogram());
        if (nodeSelected(nodes, unsigned(pngs_[ch]->id())))
            png_queue.merge(pngs_[ch]->outQueueDepthHistogram());
    }
    for (unsigned p = 0; p < pes_.size(); ++p) {
        if (nodeSelected(nodes, p))
            pe_cache.merge(pes_[p]->cacheOccupancyHistogram());
    }
    report.dramQueueResidency = summarize(dram);
    report.peCacheOccupancy = summarize(pe_cache);
    report.pngOutQueueDepth = summarize(png_queue);
}

std::vector<LayerResult>
Neurocube::runLayerOnGroups(const LayerDesc &layer,
                            const std::vector<Fixed> &weights,
                            const std::vector<CompletionGroup> &groups,
                            const std::vector<const Tensor *> &inputs,
                            const std::vector<Tensor *> &outputs,
                            bool batch)
{
    const size_t n = groups.size();
    std::vector<CompiledLayer> compiled(n);
    std::vector<std::vector<BackingStore *>> stores(n);
    for (size_t g = 0; g < n; ++g) {
        for (MemoryChannel *channel : groups[g].slice.channels)
            stores[g].push_back(&channel->store());
        compiled[g] = compiler_.compile(layer, weights, *inputs[g],
                                        stores[g], groups[g].lane);
    }
    // Identical layer descriptors compile to identical pass
    // structures, so the groups stay in lockstep pass by pass.
    const size_t num_passes = compiled[0].passes().size();
    for (size_t g = 1; g < n; ++g) {
        nc_assert(compiled[g].passes().size() == num_passes,
                  "group %zu compiled %zu passes, group 0 %zu", g,
                  compiled[g].passes().size(), num_passes);
    }

    std::vector<SliceCounters> before(n);
    for (size_t g = 0; g < n; ++g)
        before[g] = sliceCounters(groups[g].slice);

    const CounterRegistry *counters = probe_.counters;
    CounterSnapshot counters_before;
    if (counters)
        counters_before = counters->snapshot();

    std::vector<LayerResult> results(n);
    const Tick layer_start = now_;
    std::vector<Tick> done;
    for (size_t p = 0; p < num_passes; ++p) {
        // The configure-time trace events of a single pass are
        // stamped after the configuration window, a batch pass's
        // before it.
        probe_.tick(batch ? now_ : now_ + config_.configTicksPerPass);
        now_ += config_.configTicksPerPass;
        const Tick start = runPass(groups, compiled, p, batch, done);
        for (size_t g = 0; g < n; ++g)
            results[g].cycles += config_.configTicksPerPass
                               + (done[g] - start);
    }

    CounterSnapshot counters_delta;
    if (counters)
        counters_delta = counters->snapshot().delta(counters_before);

    for (size_t g = 0; g < n; ++g) {
        const PassScheduler::Slice &s = groups[g].slice;
        // Per-lane attribution: every component instance is
        // node-indexed and batching requires the identity vault
        // attachment, so the lane's node list selects its routers,
        // PEs, PNGs, and channels alike.
        const std::vector<unsigned> *nodes =
            groups[g].lane ? &groups[g].lane->nodes : nullptr;
        const SliceCounters after = sliceCounters(s);
        LayerResult &r = results[g];
        r.name = layer.name.empty() ? layerTypeName(layer.type)
                                    : layer.name;
        r.passes = unsigned(num_passes);
        r.ops = 2 * (after.macs - before[g].macs);
        r.dramBits = after.bits - before[g].bits;
        r.lateralPackets = after.lateral - before[g].lateral;
        r.localPackets = after.local - before[g].local;

        LayerFootprint fp = layerFootprint(layer, config_.mapping,
                                           unsigned(s.channels.size()));
        r.memoryBytes = fp.totalBytes();
        r.duplicationBytes = fp.duplicationBytes;

        if (counters) {
            const CounterSnapshot lane =
                nodes ? counters->onNodes(counters_delta, *nodes)
                      : counters_delta;
            if (counters->metricsOn()) {
                r.bottleneck =
                    buildBottleneckReport(counters->stallTotals(lane));
                fillHistogramSummaries(r.bottleneck, nodes);
            }
            r.energy = counters->energyCounts(lane);
            r.spatial = counters->spatialSnapshot(lane);
        }
        // The group owns its slice's PEs and vault channels, so its
        // ceilings come from a machine of that size.
        NeurocubeConfig group_cfg = config_;
        group_cfg.numPes = unsigned(s.pes.size());
        group_cfg.dram.numChannels = unsigned(s.channels.size());
        r.roofline = rooflinePoint(layer, group_cfg, r);

        if (outputs[g])
            *outputs[g] = compiler_.gather(compiled[g], stores[g]);
    }

    statLayerCycles_ += now_ - layer_start;
    return results;
}

LayerResult
Neurocube::runSingleLayer(const LayerDesc &layer,
                          const std::vector<Fixed> &weights,
                          const Tensor &input, Tensor *output)
{
    const std::vector<CompletionGroup> machine{
        {nullptr, groupSlice(nullptr)}};
    return runLayerOnGroups(layer, weights, machine, {&input}, {output},
                            false)
        .front();
}

LayerResult
Neurocube::runLayer(size_t index)
{
    nc_assert(index < net_.layers.size(), "layer index %zu out of %zu",
              index, net_.layers.size());
    const Tensor &input = index == 0 ? input_ : activations_[index - 1];
    nc_assert(input.size() > 0,
              "layer %zu input missing (run earlier layers first)",
              index);
    Tensor output;
    LayerResult result = runSingleLayer(
        net_.layers[index], data_.weights[index], input, &output);
    activations_[index] = std::move(output);
    return result;
}

RunResult
Neurocube::runForward()
{
    RunResult run;
    run.spatialTopology = spatialTopology();
    for (size_t i = 0; i < net_.layers.size(); ++i)
        run.layers.push_back(runLayer(i));
    return run;
}

const Tensor &
Neurocube::layerOutput(size_t index) const
{
    nc_assert(index < activations_.size(), "no such layer %zu", index);
    return activations_[index];
}

void
Neurocube::buildBatchLanes()
{
    const unsigned lanes = std::max(1u, config_.batch.lanes);
    if (lanes > 1) {
        // Lane compilation addresses channel i through mesh node i, so
        // batching needs the HMC-style identity attachment (one vault
        // under every PE).
        nc_assert(config_.dram.numChannels == config_.numPes,
                  "batch lanes need one memory channel per PE "
                  "(%u channels, %u PEs)",
                  config_.dram.numChannels, config_.numPes);
        std::vector<unsigned> mem_nodes = config_.resolvedMemoryNodes();
        for (unsigned ch = 0; ch < mem_nodes.size(); ++ch) {
            nc_assert(mem_nodes[ch] == ch,
                      "batch lanes need identity channel attachment "
                      "(channel %u at node %u)", ch, mem_nodes[ch]);
        }
    }
    lanePartition_ = buildLanePartition(config_.numPes, lanes);
}

void
Neurocube::setBatchLanes(unsigned lanes)
{
    nc_assert(lanes >= 1, "batch needs at least one lane");
    if (lanes == config_.batch.lanes && !lanePartition_.empty())
        return;
    nc_assert(fabric_->idle(),
              "setBatchLanes with packets in flight");
    config_.batch.lanes = lanes;
    // Drop state tied to the old partition: gathered lane outputs
    // and the partition itself (rebuilt below against the new lane
    // count). The fabric lane map is per-run — runForwardBatch arms
    // it on entry and clears it on exit.
    lanePartition_.clear();
    batchActivations_.clear();
    // The old partition's lane-keyed plans are unreachable now.
    compiler_.invalidatePlanCache();
    buildBatchLanes();
}

void
Neurocube::advanceIdleTo(Tick when)
{
    if (when <= now_)
        return;
    nc_assert(fabric_->idle(), "advanceIdleTo with packets in flight");
    for (const auto &channel : channels_) {
        nc_assert(channel->idle(),
                  "advanceIdleTo with DRAM work pending");
    }
    now_ = when;
}

BatchRunResult
Neurocube::runForwardBatch(const std::vector<Tensor> &inputs)
{
    nc_assert(!net_.layers.empty(), "runForwardBatch before loadNetwork");
    if (lanePartition_.empty())
        buildBatchLanes();
    const unsigned lanes = unsigned(lanePartition_.size());
    nc_assert(!inputs.empty() && inputs.size() <= lanes,
              "batch of %zu inputs on %u lanes", inputs.size(), lanes);
    const unsigned active = unsigned(inputs.size());

    const LayerDesc &first = net_.layers.front();
    for (const Tensor &in : inputs) {
        nc_assert(in.maps() == first.inMaps
                      && in.height() == first.inHeight
                      && in.width() == first.inWidth,
                  "batch input %ux%ux%u does not match network input "
                  "%ux%ux%u", in.maps(), in.height(), in.width(),
                  first.inMaps, first.inHeight, first.inWidth);
    }

    // Arm the fabric's lane checker: with >1 lane, any packet that
    // leaves its vault group is counted as a violation.
    if (lanes > 1) {
        std::vector<uint16_t> lane_of(config_.numPes, 0);
        for (const LaneSpec &lane : lanePartition_) {
            for (unsigned node : lane.nodes)
                lane_of[node] = uint16_t(lane.index);
        }
        fabric_->setLaneMap(std::move(lane_of));
    }

    batchActivations_.assign(lanes, {});
    for (unsigned l = 0; l < active; ++l)
        batchActivations_[l].assign(net_.layers.size(), Tensor());

    BatchRunResult result;
    result.lanes.assign(active, RunResult{});
    const SpatialTopology spatial_topo = spatialTopology();
    for (unsigned l = 0; l < active; ++l)
        result.lanes[l].spatialTopology = spatial_topo;

    std::vector<CompletionGroup> groups;
    for (unsigned l = 0; l < active; ++l)
        groups.push_back({&lanePartition_[l],
                          groupSlice(&lanePartition_[l])});

    const Tick batch_start = now_;
    for (size_t li = 0; li < net_.layers.size(); ++li) {
        std::vector<const Tensor *> in(active);
        std::vector<Tensor *> out(active);
        for (unsigned l = 0; l < active; ++l) {
            in[l] = li == 0 ? &inputs[l] : &batchActivations_[l][li - 1];
            out[l] = &batchActivations_[l][li];
        }
        std::vector<LayerResult> lr = runLayerOnGroups(
            net_.layers[li], data_.weights[li], groups, in, out, true);
        for (unsigned l = 0; l < active; ++l)
            result.lanes[l].layers.push_back(std::move(lr[l]));
    }

    result.cycles = now_ - batch_start;
    fabric_->setLaneMap({});
    return result;
}

const Tensor &
Neurocube::batchLayerOutput(unsigned lane, size_t index) const
{
    nc_assert(lane < batchActivations_.size()
                  && index < batchActivations_[lane].size(),
              "no batch output for lane %u layer %zu", lane, index);
    return batchActivations_[lane][index];
}

} // namespace neurocube
