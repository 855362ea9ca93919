/**
 * @file
 * Trace event bus: the ring-buffer recorder, the sink interface
 * exporters implement, and the session object the Neurocube top level
 * owns.
 *
 * Components publish events through their Probe (trace/probe.hh),
 * which holds the owning machine's recorder, or nullptr while event
 * tracing is off; a build with -DNEUROCUBE_TRACE=OFF compiles every
 * publish site to nothing.
 *
 * The recorder is a ring on the simulation thread: record() appends,
 * and a full ring (or finish()) drains contiguous batches to the
 * registered sinks inline. No event is ever dropped inside the
 * recording window.
 */

#ifndef NEUROCUBE_TRACE_TRACE_HH
#define NEUROCUBE_TRACE_TRACE_HH

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "trace/events.hh"
#include "trace/trace_config.hh"

#ifndef NEUROCUBE_TRACE_ENABLED
#define NEUROCUBE_TRACE_ENABLED 1
#endif

namespace neurocube
{

class ChromeTraceExporter;
class CounterRegistry;
class TimeSeriesCsvExporter;
struct PhaseSegment;
struct Probe;

/** Consumer of recorded event batches (exporters derive from this). */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /**
     * Consume a batch of events in recording order. Called from
     * TraceRecorder::drain with a contiguous slice of the ring.
     *
     * @param events first event of the batch
     * @param count number of events
     */
    virtual void consume(const TraceEvent *events, size_t count) = 0;

    /** Flush any buffered output; the trace is complete. */
    virtual void finish() {}
};

/** Ring buffer delivering recorded events to sinks. */
class TraceRecorder
{
  public:
    /**
     * @param capacity ring capacity in events, rounded up to a
     *        power of two (minimum 64)
     */
    explicit TraceRecorder(size_t capacity = size_t(1) << 16);

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** Register a sink; not owned, must outlive the recorder. */
    void addSink(TraceSink *sink);

    /**
     * Window sampling (TraceConfig::samplePeriod): only windows with
     * (tick / windowTicks) % period == 0 record events, except for
     * TraceComponent::Sim, which always records so serving spans,
     * lane completions and engine-skip aggregates stay complete.
     * period <= 1 disables sampling.
     *
     * @param windowTicks sampling window length in ticks (>= 1)
     * @param period record 1-in-`period` windows
     */
    void
    setSampling(Tick windowTicks, uint64_t period)
    {
        sampleWindow_ = windowTicks > 0 ? windowTicks : 1;
        samplePeriod_ = period > 0 ? period : 1;
        sampleOpen_ = windowSampled(now_);
    }

    /** Configured sampling period (1 = every window recorded). */
    uint64_t samplePeriod() const { return samplePeriod_; }

    /** True when the window holding `tick` records full fidelity. */
    bool
    windowSampled(Tick tick) const
    {
        return samplePeriod_ <= 1
               || (tick / sampleWindow_) % samplePeriod_ == 0;
    }

    /** Advance the timestamp applied to subsequent events. */
    void
    setNow(Tick now)
    {
        now_ = now;
        if (samplePeriod_ > 1)
            sampleOpen_ = windowSampled(now);
    }

    /** Timestamp currently applied to recorded events. */
    Tick now() const { return now_; }

    /** Record one event stamped with the current tick. */
    void
    record(TraceComponent component, uint16_t instance,
           TraceEventType type, uint32_t arg = 0, uint64_t value = 0)
    {
        if (!sampleOpen_ && component != TraceComponent::Sim)
            return;
        TraceEvent event;
        event.tick = now_;
        event.component = component;
        event.type = type;
        event.instance = instance;
        event.arg = arg;
        event.value = value;
        push(event);
    }

    /** Append a fully formed event (tests, replay tools). */
    void push(const TraceEvent &event);

    /** Deliver all pending events to the sinks. */
    void drain();

    /** Drain and notify every sink that the trace is complete. */
    void finish();

    /** Events accepted so far (excluding sampled-out ones). */
    uint64_t recorded() const { return recorded_; }

    /** Ring capacity in events (power of two). */
    size_t capacity() const { return ring_.size(); }

    /** Events currently buffered and not yet delivered. */
    size_t pending() const { return size_t(head_ - tail_); }

  private:
    std::vector<TraceEvent> ring_;
    size_t mask_;
    /** Total events pushed. */
    uint64_t head_ = 0;
    /** Total events delivered. */
    uint64_t tail_ = 0;

    Tick now_ = 0;
    uint64_t recorded_ = 0;

    /** Window sampling (setSampling); open == current window records. */
    Tick sampleWindow_ = 1024;
    uint64_t samplePeriod_ = 1;
    bool sampleOpen_ = true;

    std::vector<TraceSink *> sinks_;
};

/** Shape of the machine being traced (exporter track layout). */
struct TraceTopology
{
    /** Mesh routers (== nodes). */
    unsigned numRouters = 16;
    /** Processing elements. */
    unsigned numPes = 16;
    /** Vaults / memory channels (== PNGs). */
    unsigned numVaults = 16;
    /**
     * Node -> batch lane assignment (empty = unbatched). When set,
     * exporters prefix per-node track names with "laneN." so each
     * vault group reads as its own machine.
     */
    std::vector<uint16_t> laneOf;
    /**
     * Vault ordinal -> hosting mesh node (empty = identity). PNG
     * trace events carry the hosting node as their instance id, so
     * exporters need this to fold them back onto vault tracks when
     * channels are scarcer than nodes (DDR3/HBM placements).
     */
    std::vector<uint16_t> vaultNode;
};

/**
 * One tracing session: the recorder plus the exporters selected by a
 * TraceConfig, finished on destruction. Owned by the Neurocube top
 * level when config.trace.enabled is set; each machine has its own.
 *
 * Also owns the machine's CounterRegistry (trace/counters.hh) when
 * any of config.metrics, config.energy or config.spatial is set,
 * laid out for the enabled ones. probe() hands the machine the
 * recorder and the counter table as its Probe; the recorder is
 * included only when at least one sink exists, so a counters-only
 * session (no output paths) leaves event sites at a null-check.
 *
 * When the timeseries CSV export is configured, its exporter keeps
 * the run's bottleneck-phase segments in memory (phases()); at
 * destruction, when the Chrome JSON export is configured as well, the
 * segments are written into the Chrome trace as a top-level "phases"
 * annotation track.
 */
class TraceSession
{
  public:
    /**
     * @param config output selection and knobs
     * @param topology machine shape for exporter track layout
     */
    TraceSession(const TraceConfig &config,
                 const TraceTopology &topology);

    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /**
     * The sinks this session's machine publishes to: the recorder
     * (only when a sink consumes its events) and the counter table
     * (when the config enabled any counters).
     */
    Probe probe();

    /**
     * Bottleneck phases of the run so far, from the timeseries CSV
     * exporter's windows (the still-open one included); empty when no
     * CSV export is configured. Delivers pending events to the sinks
     * but flushes no output.
     */
    std::vector<PhaseSegment> phases();

  private:
    TraceRecorder recorder_;
    std::unique_ptr<CounterRegistry> counters_;
    std::vector<std::unique_ptr<TraceSink>> sinks_;
    /** File streams backing the exporters (destroyed after sinks). */
    std::vector<std::unique_ptr<std::ofstream>> streams_;

    /** Non-owning views of the exporters, for the phase track. */
    ChromeTraceExporter *chrome_ = nullptr;
    TimeSeriesCsvExporter *csv_ = nullptr;
};

} // namespace neurocube

#endif // NEUROCUBE_TRACE_TRACE_HH
