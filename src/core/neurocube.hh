/**
 * @file
 * The Neurocube machine: 16 vaults + PNGs, a NoC, and 16 PEs on the
 * logic die of an HMC (paper Fig. 5), with the host-side global
 * controller that programs it layer by layer.
 *
 * Execution model (Section II-C): the host lays a layer's data out in
 * the cube, writes every PNG's configuration registers, and releases
 * the configuration-enable signal; execution is then fully data
 * driven until the PNGs report layer-done. The simulator advances all
 * components on the shared 5 GHz reference clock and gathers the
 * functional outputs so they can be compared bit-for-bit with the
 * sequential reference model.
 */

#ifndef NEUROCUBE_CORE_NEUROCUBE_HH
#define NEUROCUBE_CORE_NEUROCUBE_HH

#include <memory>
#include <span>
#include <vector>

#include "core/config.hh"
#include "core/engine.hh"
#include "core/layer_compiler.hh"
#include "core/results.hh"
#include "dram/memory_channel.hh"
#include "nn/network.hh"
#include "nn/reference.hh"
#include "noc/fabric.hh"
#include "pe/pe.hh"
#include "png/png.hh"
#include "trace/phase_detector.hh"
#include "trace/probe.hh"
#include "trace/trace.hh"

namespace neurocube
{

/** One simulated Neurocube instance. */
class Neurocube
{
  public:
    explicit Neurocube(const NeurocubeConfig &config);

    /** Load a network and its parameters. */
    void loadNetwork(const NetworkDesc &net, const NetworkData &data);

    /** Set the input activations for the next forward run. */
    void setInput(const Tensor &input);

    /**
     * Execute one layer on the machine (all of its passes).
     *
     * @param index layer index within the loaded network
     * @return cycle and traffic statistics for the layer
     */
    LayerResult runLayer(size_t index);

    /** Execute every layer in order. */
    RunResult runForward();

    /**
     * Execute the loaded network for several independent inputs
     * concurrently, one per batch lane (config().batch.lanes vault
     * groups). Every lane runs the same layer/pass sequence in
     * lockstep, pass by pass; on the event engine the active lanes of
     * a pass advance on worker threads (in one shared loop while a
     * trace-event recorder is live). Completion is detected per lane,
     * so each lane's LayerResult carries its own cycle count while
     * the aggregate reflects the slowest lane. Outputs are gathered per
     * lane and are bit-exact with a sequential runForward of the same
     * input.
     *
     * @param inputs one input tensor per lane (1 <= n <= lanes;
     *        trailing lanes idle when fewer inputs than lanes)
     */
    BatchRunResult runForwardBatch(const std::vector<Tensor> &inputs);

    /** Gathered output of a layer for one batch lane. */
    const Tensor &batchLayerOutput(unsigned lane, size_t index) const;

    /** The lane partition used by runForwardBatch. */
    const std::vector<LaneSpec> &lanePartition() const
    {
        return lanePartition_;
    }

    /**
     * Reconfigure the number of batch lanes for subsequent
     * runForwardBatch calls (the serving scheduler resizes online as
     * queue depth shifts). Rebuilds the lane partition, revalidates
     * the batching preconditions, and drops the gathered outputs of
     * earlier batch runs. Only legal between runs, when the machine
     * is quiescent; per-lane tracks in an already-open trace session
     * keep the lane prefixes of the construction-time partition.
     */
    void setBatchLanes(unsigned lanes);

    /** The layer compiler (plan-cache statistics). */
    const LayerCompiler &compiler() const { return compiler_; }

    /**
     * Fast-forward the simulation clock to @p when without ticking
     * any component. Only legal while the machine is idle (between
     * runs): with nothing in flight, skipping the gap is equivalent
     * to simulating it. Lets an open-loop driver keep request
     * arrival timestamps and machine time in one clock domain.
     * A @p when earlier than now() is a no-op.
     */
    void advanceIdleTo(Tick when);

    /**
     * Execute an ad-hoc layer outside the loaded network (used by
     * the training sequencer and the parameter sweeps).
     *
     * @param layer descriptor
     * @param weights flat weight block
     * @param input input activations
     * @param output receives the gathered output (may be nullptr)
     */
    LayerResult runSingleLayer(const LayerDesc &layer,
                               const std::vector<Fixed> &weights,
                               const Tensor &input,
                               Tensor *output = nullptr);

    /** Gathered output activations of an executed layer. */
    const Tensor &layerOutput(size_t index) const;

    /** The machine configuration. */
    const NeurocubeConfig &config() const { return config_; }

    /** Root of the statistics hierarchy, with the fabric's aggregate
     *  entries refreshed from its per-node counters. */
    StatGroup &
    stats()
    {
        fabric_->refreshStats();
        return statGroup_;
    }

    /** The NoC (tests and experiments). */
    NocFabric &fabric() { return *fabric_; }

    /** One memory channel (tests and experiments). */
    MemoryChannel &channel(unsigned ch) { return *channels_[ch]; }

    /** Current simulation time in reference ticks. */
    Tick now() const { return now_; }

    /**
     * The telemetry sinks this machine's components publish to, filled
     * from its own trace session. A sink is nullptr when its layer is
     * off (no session, disabled in config.trace, or tracing compiled
     * out). ServingSimulator publishes its request spans through it.
     */
    const Probe &probe() const { return probe_; }

    /**
     * Bottleneck phases of this machine's run so far, with their
     * energy, from its trace session's timeseries CSV exporter; empty
     * when no CSV export is configured (or tracing is compiled out).
     */
    std::vector<PhaseSegment> phases();

    /**
     * The machine shape the spatial counters describe (mesh width,
     * links, vault hosting), or an empty topology when spatial
     * accounting is off.
     */
    SpatialTopology spatialTopology();

    /**
     * Cumulative spatial counters (link, vault, PE and node vectors,
     * read out of the counter table). Empty/invalid when spatial
     * accounting is off.
     */
    SpatialSnapshot spatialSnapshot();

    /** Total operand-cache spills beyond sub-bank capacity. */
    uint64_t
    totalCacheOverflows() const
    {
        uint64_t total = 0;
        for (const auto &pe : pes_)
            total += pe->cacheOverflows();
        return total;
    }

  private:
    /**
     * A completion group: the PNGs, channels, PEs and mesh nodes that
     * finish a pass together. runSingleLayer drives one whole-machine
     * group (lane == nullptr), runForwardBatch one per active lane.
     */
    struct CompletionGroup
    {
        /** The batch lane, or nullptr for the whole machine. */
        const LaneSpec *lane = nullptr;
        /** Its components; slice.peIds are its mesh nodes. */
        PassScheduler::Slice slice;
    };

    /** What every loop shell running one pass shares. */
    struct PassFrame
    {
        Tick start = 0;
        Tick deadline = 0;
        /** Operand pairs budgeted across the machine. */
        uint64_t pairs = 0;
        size_t pass = 0;
        /** Batch-pass semantics (see runLayerOnGroups). */
        bool batch = false;
    };

    /** Slice of one lane's components, or of the whole machine. */
    PassScheduler::Slice groupSlice(const LaneSpec *lane);
    /**
     * Run one layer on every group (group g compiled against its own
     * vaults and inputs[g]) and assemble one result per group;
     * gathers group g's output into outputs[g] when non-null.
     * @p batch selects the batch-pass semantics (DESIGN.md 6b):
     * configure-time events stamped before the configuration window,
     * at least one executed tick per pass, LaneDone events, and the
     * catch-up EngineSkip stamped at the last executed tick.
     */
    std::vector<LayerResult>
    runLayerOnGroups(const LayerDesc &layer,
                     const std::vector<Fixed> &weights,
                     const std::vector<CompletionGroup> &groups,
                     const std::vector<const Tensor *> &inputs,
                     const std::vector<Tensor *> &outputs, bool batch);
    /**
     * Configure pass @p pass on every group and run it to completion
     * on the configured engine: Legacy ticks everything; Event steps
     * one lane-slice scheduler per worker thread when more than one
     * group is active and no recorder is live, otherwise one
     * whole-machine scheduler. Fills done[g] with group g's
     * completion tick and returns the pass's start tick.
     */
    Tick runPass(const std::vector<CompletionGroup> &groups,
                 const std::vector<CompiledLayer> &compiled, size_t pass,
                 bool batch, std::vector<Tick> &done);
    /**
     * The pass loop shell: tick until every group is done, stamping
     * done[g] as group g finishes. @p sched is the wake-list scheduler
     * to step, or nullptr for the Legacy every-component body.
     * Returns the tick after the last executed one.
     */
    Tick passLoop(PassScheduler *sched,
                  std::span<const CompletionGroup> groups,
                  std::span<Tick> done, const PassFrame &frame);
    /** Validate the batch preconditions and build lanePartition_. */
    void buildBatchLanes();
    /**
     * Fill a report's histogram summaries from the machine's
     * distribution stats (cumulative; node-filtered when nodes is
     * non-null).
     */
    void fillHistogramSummaries(BottleneckReport &report,
                                const std::vector<unsigned> *nodes);

    NeurocubeConfig config_;
    StatGroup statGroup_;

    /** This machine's tracing session (config_.trace.enabled only). */
    std::unique_ptr<TraceSession> traceSession_;
    /** Sinks of traceSession_, handed to every component. */
    Probe probe_;

    std::vector<std::unique_ptr<MemoryChannel>> channels_;
    std::unique_ptr<NocFabric> fabric_;
    std::vector<std::unique_ptr<Png>> pngs_;
    std::vector<std::unique_ptr<Pe>> pes_;
    LayerCompiler compiler_;

    NetworkDesc net_;
    NetworkData data_;
    Tensor input_;
    std::vector<Tensor> activations_;

    /** Vault groups for batched execution (batch.lanes entries). */
    std::vector<LaneSpec> lanePartition_;
    /** Per lane, per layer: gathered outputs of the last batch run. */
    std::vector<std::vector<Tensor>> batchActivations_;

    Tick now_ = 0;

    Stat statPasses_;
    Stat statLayerCycles_;
};

} // namespace neurocube

#endif // NEUROCUBE_CORE_NEUROCUBE_HH
