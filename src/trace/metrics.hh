/**
 * @file
 * Stall-attribution metrics: cheap per-component cycle accounting.
 *
 * Every ticked component (router, PE, PNG, memory channel) classifies
 * each of its cycles into one StallClass through its Probe's cycle()
 * (trace/probe.hh). The counters live in the stall blocks of the
 * CounterRegistry (trace/counters.hh) owned by the machine's
 * TraceSession; with no session the accounting is a null-check, and
 * with -DNEUROCUBE_TRACE=OFF it compiles away.
 *
 * Unlike the event bus in trace/trace.hh, which records *what
 * happened*, this layer answers *where the cycles went*: snapshots
 * taken around a layer yield a per-layer (or per-lane) delta, and
 * buildBottleneckReport() turns that delta into a top-down bottleneck
 * classification — the paper's Fig. 12/15 question of whether a layer
 * is bound by MAC throughput, PNG injection, DRAM service, or NoC
 * saturation.
 *
 * The accounting is observational only: classifying a cycle never
 * alters component behaviour, so enabling metrics cannot change
 * simulated cycle counts (tests/test_golden_cycles.cc asserts this).
 */

#ifndef NEUROCUBE_TRACE_METRICS_HH
#define NEUROCUBE_TRACE_METRICS_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/types.hh"
#include "trace/events.hh"

namespace neurocube
{

/**
 * What one component cycle was spent on. Exactly one class per
 * component per tick, so per-component class counts always sum to the
 * number of ticks the component was advanced.
 */
enum class StallClass : uint8_t
{
    /** Doing useful work (switching, MAC-busy, serving a word...). */
    Busy = 0,
    /** Nothing to do (no pass, queues empty, waiting downstream). */
    Idle,
    /** Waiting on DRAM service (activation, burst gap, bandwidth). */
    StallDram,
    /** Blocked on NoC credits / backpressure from the network side. */
    StallNocCredit,
    /**
     * Starved or blocked at an injection/delivery port: a PNG with
     * packets ready but no port capacity, or a PE waiting for
     * operands to arrive.
     */
    StallInject,
    /** Delayed by an operand-cache sub-bank search. */
    StallCache,
    StallClassCount,
};

/** Number of stall classes (array dimension). */
constexpr size_t numStallClasses = size_t(StallClass::StallClassCount);

/** Snake-case label of a stall class ("busy", "stall_dram", ...). */
const char *stallClassName(StallClass cls);

/** Per-component cycle counts, one slot per stall class. */
struct StallBreakdown
{
    std::array<uint64_t, numStallClasses> ticks{};

    /** Total classified cycles. */
    uint64_t
    total() const
    {
        uint64_t sum = 0;
        for (uint64_t t : ticks)
            sum += t;
        return sum;
    }

    /** Cycles spent in one class. */
    uint64_t
    operator[](StallClass cls) const
    {
        return ticks[size_t(cls)];
    }

    StallBreakdown &
    operator+=(const StallBreakdown &other)
    {
        for (size_t i = 0; i < numStallClasses; ++i)
            ticks[i] += other.ticks[i];
        return *this;
    }
};

/** Cycle counts summed per component class (TraceComponent order). */
using StallTotals =
    std::array<StallBreakdown, size_t(TraceComponent::ComponentCount)>;

/** Five-number summary of one Histogram (for reports/JSON). */
struct HistogramSummary
{
    uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    uint64_t max = 0;
};

/**
 * Per-layer (or per-lane) bottleneck attribution derived from the
 * stall totals of a counter delta. `fractions` is the machine-level
 * breakdown over every classified component-cycle in the delta and
 * sums to 1 (when countedTicks > 0); `componentFractions` gives the
 * same breakdown per component class.
 */
struct BottleneckReport
{
    /** False when no metrics were recorded (report is meaningless). */
    bool valid = false;

    /**
     * Dominant bottleneck: "mac" (compute-bound), "cache" (operand
     * cache searches), "noc" (network saturation), "inject" (PNG
     * injection port), "dram" (memory service), or "idle".
     */
    const char *label = "n/a";

    /** Machine-level cycle fractions per stall class (sum ~ 1.0). */
    std::array<double, numStallClasses> fractions{};

    /**
     * Per component class (router/pe/png/vault, indexed by
     * TraceComponent) cycle fractions per stall class.
     */
    std::array<std::array<double, numStallClasses>,
               size_t(TraceComponent::ComponentCount)>
        componentFractions{};

    /** Component-cycles classified in this delta. */
    uint64_t countedTicks = 0;

    // Signals the top-down classifier decided on (for reports).
    /** PE busy fraction (MAC array utilization). */
    double peBusy = 0.0;
    /** PE cycles delayed by sub-bank searches. */
    double peStallCache = 0.0;
    /** Router cycles with a head-of-line blocked input. */
    double routerBlocked = 0.0;
    /** PNG cycles with packets ready but no injection capacity. */
    double pngInjectStall = 0.0;
    /** Vault cycles busy or stalled on DRAM timing. */
    double dramPressure = 0.0;
    /** Vault cycles stalled on downstream (NoC-side) backpressure. */
    double vaultBackpressure = 0.0;

    // Distribution summaries, filled by the machine (cumulative to
    // the end of the layer; see Neurocube::runSingleLayer).
    HistogramSummary nocLatency;
    HistogramSummary dramQueueResidency;
    HistogramSummary peCacheOccupancy;
    HistogramSummary pngOutQueueDepth;
};

/**
 * Top-down bottleneck classification of an interval's stall totals.
 *
 * The decision order mirrors top-down CPU analysis: compute
 * saturation first ("mac"), then the operand-cache search penalty
 * ("cache"), then network congestion ("noc" — head-of-line blocking
 * inside routers explains downstream injection stalls, so it is
 * checked before "inject"), then the PNG injection port ("inject"),
 * then DRAM service ("dram"), falling back to the largest stall
 * fraction or "idle".
 *
 * @param totals per-component stall totals of the interval of
 *        interest (CounterRegistry::stallTotals of a delta, restricted
 *        to one lane's nodes for per-lane attribution)
 */
BottleneckReport buildBottleneckReport(const StallTotals &totals);

} // namespace neurocube

#endif // NEUROCUBE_TRACE_METRICS_HH
