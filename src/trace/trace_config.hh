/**
 * @file
 * Runtime configuration of the trace subsystem.
 *
 * Kept free of heavy includes so core/config.hh can embed it. The
 * compile-time switch is separate: building with -DNEUROCUBE_TRACE=OFF
 * removes every instrumentation site (Probe publish calls compile to
 * nothing), in which case this struct is inert.
 */

#ifndef NEUROCUBE_TRACE_TRACE_CONFIG_HH
#define NEUROCUBE_TRACE_TRACE_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace neurocube
{

/** Enable/output knobs for one tracing session. */
struct TraceConfig
{
    /** Master runtime switch; false = no recorder is created. */
    bool enabled = false;

    /** Chrome/Perfetto JSON output path; empty = no JSON export. */
    std::string chromeJsonPath;

    /** Windowed time-series CSV output path; empty = no CSV export. */
    std::string timeseriesCsvPath;

    /**
     * Stall-attribution cycle accounting (trace/metrics.hh). On by
     * default: the counters are cheap, and per-layer bottleneck
     * reports need them. Only honoured while `enabled` is true.
     */
    bool metrics = true;

    /**
     * Activity-based energy accounting (trace/energy.hh). On by
     * default for the same reason as metrics: the counters are one
     * array increment per event, and per-layer EnergyBreakdowns need
     * them. Only honoured while `enabled` is true, and compiled out
     * entirely with -DNEUROCUBE_TRACE=OFF.
     */
    bool energy = true;

    /**
     * Spatial observability counters (trace/spatial.hh): per-link
     * flits/credit-stalls/occupancy, per-vault bytes/queue depth,
     * per-PE MAC occupancy. On by default — one array increment per
     * event, and heatmap/roofline exports need them. Only honoured
     * while `enabled` is true, and compiled out entirely with
     * -DNEUROCUBE_TRACE=OFF.
     */
    bool spatial = true;

    /**
     * Aggregation window, in reference ticks, for the CSV exporter
     * and for the counter tracks of the Chrome exporter.
     */
    Tick windowTicks = 1024;

    /**
     * Window sampling: record full-fidelity component events only in
     * 1-in-N aggregation windows (window w is sampled when
     * w % samplePeriod == 0, with w = tick / windowTicks). 1 = record
     * every window. Sampling only thins the *event* stream — the
     * stall-attribution and energy counters always see every cycle,
     * so metricsJson/energyJson are identical at any sample rate.
     * The timeseries exporter classifies phases from the sampled
     * windows only and bridges the others.
     * TraceComponent::Sim events (lane completions, engine-skip
     * aggregates, serving request spans) are exempt so per-request
     * spans and run summaries stay complete in sampled traces; a
     * side effect is that duration-style slices of other components
     * (PngPhase, MacBusy) can lose an endpoint at window boundaries.
     */
    uint64_t samplePeriod = 1;
};

} // namespace neurocube

#endif // NEUROCUBE_TRACE_TRACE_CONFIG_HH
