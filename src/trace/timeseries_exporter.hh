/**
 * @file
 * Windowed time-series CSV exporter.
 *
 * Aggregates the event stream into fixed windows of windowTicks
 * reference cycles and writes one row per window with the headline
 * utilization metrics of the machine: NoC flits per cycle, packets
 * ejected per cycle and their mean latency, MAC-array utilization,
 * PNG inject-stall ticks, router head-of-line blocked ticks, DRAM
 * bytes per cycle, and per-vault byte counts. Ready for plotting with
 * any spreadsheet/pandas/gnuplot.
 *
 * Each window it writes is also classified (classifyWindow in
 * trace/phase_detector.hh) and merged into the run's bottleneck-phase
 * segments, which phases() hands out from memory; nothing re-reads
 * the CSV. Under window sampling (TraceConfig::samplePeriod > 1) the
 * windows the recorder samples out still get their rows (exempt Sim
 * events such as EngineSkip fall in them) but are not classified:
 * the phases bridge them.
 */

#ifndef NEUROCUBE_TRACE_TIMESERIES_EXPORTER_HH
#define NEUROCUBE_TRACE_TIMESERIES_EXPORTER_HH

#include <cstdint>
#include <vector>

#include "trace/energy.hh"
#include "trace/phase_detector.hh"
#include "trace/trace.hh"

namespace neurocube
{

/** Streams recorded events as a windowed utilization CSV. */
class TimeSeriesCsvExporter : public TraceSink
{
  public:
    /**
     * @param os destination stream (kept open until finish())
     * @param topology machine shape (per-vault columns, PE count)
     * @param windowTicks aggregation window in reference ticks
     * @param prices per-event energies backing the avg_power_w
     *        column (an event-stream estimate; see tracePjOf)
     * @param samplePeriod the recorder's TraceConfig::samplePeriod:
     *        only windows with (start / windowTicks) % samplePeriod
     *        == 0 are classified
     */
    TimeSeriesCsvExporter(std::ostream &os,
                          const TraceTopology &topology,
                          Tick windowTicks,
                          EnergyPrices prices = EnergyPrices{},
                          uint64_t samplePeriod = 1);

    void consume(const TraceEvent *events, size_t count) override;
    void finish() override;

    /**
     * Bottleneck phases of the events consumed so far, in time order:
     * every written row of a sampled window classified and merged
     * (windows the CSV skips read as quiescent, sampled-out windows
     * extend the segment before them), plus the still-open window.
     * Each segment carries the exact event-stream energy of its
     * sampled windows. Flushes nothing.
     */
    std::vector<PhaseSegment> phases() const;

  private:
    void handle(const TraceEvent &event);
    /** Write the current window's row (if it saw any event) and
     *  merge it into phases_. */
    void flushWindow();
    /** PE MAC utilization of the current window, percent. */
    double peUtilPct() const;
    /** Phase kind of the current window. */
    PhaseKind windowKind() const;
    void advanceWindow(Tick tick);
    void resetAccumulators();

    /** True when the recorder sampled the current window. */
    bool
    sampled() const
    {
        return (windowStart_ / window_) % period_ == 0;
    }

    std::ostream &os_;
    TraceTopology topology_;
    Tick window_;
    EnergyPrices prices_;
    uint64_t period_;
    Tick windowStart_ = 0;
    bool sawEvent_ = false;

    // Per-window accumulators.
    double windowPj_ = 0.0;
    uint64_t linkFlits_ = 0;
    uint64_t ejected_ = 0;
    uint64_t ejectLatencySum_ = 0;
    uint64_t macBusyTicks_ = 0;
    uint64_t pngStallTicks_ = 0;
    uint64_t nocBlockedTicks_ = 0;
    uint64_t dramStallTicks_ = 0;
    std::vector<uint64_t> vaultBits_;
    /** Request-queue depth at window end (level, carried across
     *  windows rather than reset — the queue persists). */
    uint64_t serveQueueDepth_ = 0;
    /** Component-ticks the wake-list engine bulk-skipped. */
    uint64_t skippedTicks_ = 0;

    /** Segments of the windows flushed so far (O(segments)). */
    std::vector<PhaseSegment> phases_;
};

} // namespace neurocube

#endif // NEUROCUBE_TRACE_TIMESERIES_EXPORTER_HH
