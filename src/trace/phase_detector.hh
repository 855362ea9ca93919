/**
 * @file
 * Bottleneck phases of a run.
 *
 * A run segments into execution phases: compute-bound stretches
 * (high PE utilization), inject-bound stretches (PNG packets ready
 * but the router memory port full), DRAM-bound stretches (channels
 * stalled on activation/bandwidth), NoC-bound stretches (head-of-line
 * blocking inside routers), and quiescent gaps (windows in which no
 * event fell). Adjacent windows of the same kind merge into one
 * segment, so a typical layer reads as a handful of phases instead of
 * thousands of windows.
 *
 * This header holds the per-window rule (classifyWindow) and the
 * segment type with its renderings. TimeSeriesCsvExporter applies the
 * rule to each aggregation window as it flushes it and keeps the
 * merged segments in memory (TimeSeriesCsvExporter::phases).
 */

#ifndef NEUROCUBE_TRACE_PHASE_DETECTOR_HH
#define NEUROCUBE_TRACE_PHASE_DETECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace neurocube
{

/** What dominated one stretch of the run. */
enum class PhaseKind : uint8_t
{
    /** No events at all (between layers, parked lanes). */
    Quiescent = 0,
    /** PE MAC arrays busy above the utilization threshold. */
    Compute,
    /** PNG injection stalls dominate. */
    InjectBound,
    /** DRAM service stalls dominate. */
    DramBound,
    /** Router head-of-line blocking dominates. */
    NocBound,
};

/** Short label of a phase kind ("compute", "dram-bound", ...). */
const char *phaseKindName(PhaseKind kind);

/** PE utilization (%) at or above which a window is compute-bound. */
constexpr double computeUtilPct = 45.0;

/**
 * Per-instance stall fraction below which a stall signal is noise; a
 * window where every signal is below this (and PE utilization is
 * negligible) is quiescent unless it moved flits or DRAM bytes.
 */
constexpr double stallFloor = 0.05;

/**
 * Classify one aggregation window.
 *
 * @param peUtilPct PE MAC utilization, percent of PE-ticks
 * @param nocFrac router blocked ticks per router-tick
 * @param injectFrac PNG inject-stall ticks per PNG-tick
 * @param dramFrac vault stall ticks per vault-tick
 * @param active the window moved NoC flits or DRAM bytes
 */
PhaseKind classifyWindow(double peUtilPct, double nocFrac,
                         double injectFrac, double dramFrac,
                         bool active);

/** One detected phase covering [startTick, endTick). */
struct PhaseSegment
{
    Tick startTick = 0;
    Tick endTick = 0;
    PhaseKind kind = PhaseKind::Quiescent;
    /** Aggregation windows merged into this segment. */
    unsigned windows = 0;
    /** Event-stream energy of its windows, joules (0 when quiescent). */
    double joules = 0.0;

    /** Mean power over the segment at the reference clock, watts. */
    double avgPowerW() const;
};

/**
 * Serialize a phase-energy rollup as a JSON document:
 * {"window_ticks": N, "sample_period": P, "segments": [{"kind",
 * "start", "end", "ticks", "windows", "joules", "avg_power_w"}, ...]}.
 * With P > 1 the segments' kinds and joules come from the 1-in-P
 * windows the recorder sampled only. Deterministic (fixed field
 * order, setprecision(12) numbers).
 */
std::string phaseEnergyJson(const std::vector<PhaseSegment> &segments,
                            Tick windowTicks, uint64_t samplePeriod);

} // namespace neurocube

#endif // NEUROCUBE_TRACE_PHASE_DETECTOR_HH
