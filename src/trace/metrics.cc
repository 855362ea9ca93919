#include "trace/metrics.hh"

#include <algorithm>

namespace neurocube
{

const char *
stallClassName(StallClass cls)
{
    switch (cls) {
      case StallClass::Busy:
        return "busy";
      case StallClass::Idle:
        return "idle";
      case StallClass::StallDram:
        return "stall_dram";
      case StallClass::StallNocCredit:
        return "stall_noc_credit";
      case StallClass::StallInject:
        return "stall_inject";
      case StallClass::StallCache:
        return "stall_cache";
      case StallClass::StallClassCount:
        break;
    }
    return "?";
}

namespace
{

/** Fraction of a breakdown's cycles spent in one class. */
double
frac(const StallBreakdown &b, StallClass cls)
{
    uint64_t total = b.total();
    return total ? double(b[cls]) / double(total) : 0.0;
}

// Top-down decision thresholds (fractions of component cycles).
constexpr double kMacBusyBound = 0.45;
constexpr double kCacheBound = 0.30;
constexpr double kNocBlockedBound = 0.15;
constexpr double kInjectBound = 0.15;
constexpr double kDramBound = 0.25;
constexpr double kIdleFloor = 0.05;

} // namespace

BottleneckReport
buildBottleneckReport(const StallTotals &totals)
{
    BottleneckReport report;

    StallBreakdown machine;
    for (size_t c = 0; c < totals.size(); ++c) {
        const StallBreakdown &comp = totals[c];
        machine += comp;
        uint64_t total = comp.total();
        for (size_t s = 0; s < numStallClasses; ++s) {
            report.componentFractions[c][s] =
                total ? double(comp.ticks[s]) / double(total) : 0.0;
        }
    }

    report.countedTicks = machine.total();
    if (report.countedTicks == 0)
        return report; // valid stays false: nothing was counted
    for (size_t s = 0; s < numStallClasses; ++s) {
        report.fractions[s] = double(machine.ticks[s])
                            / double(report.countedTicks);
    }

    const StallBreakdown &pe = totals[size_t(TraceComponent::Pe)];
    const StallBreakdown &router =
        totals[size_t(TraceComponent::Router)];
    const StallBreakdown &png = totals[size_t(TraceComponent::Png)];
    const StallBreakdown &vault = totals[size_t(TraceComponent::Vault)];

    report.peBusy = frac(pe, StallClass::Busy);
    report.peStallCache = frac(pe, StallClass::StallCache);
    report.routerBlocked = frac(router, StallClass::StallNocCredit);
    report.pngInjectStall = frac(png, StallClass::StallInject);
    report.dramPressure = frac(vault, StallClass::Busy)
                        + frac(vault, StallClass::StallDram);
    report.vaultBackpressure =
        frac(vault, StallClass::StallNocCredit);

    double png_dram = frac(png, StallClass::StallDram);

    // Top-down: each rule only fires when the levels above it did
    // not explain the cycles (see the header comment).
    if (report.peBusy >= kMacBusyBound) {
        report.label = "mac";
    } else if (report.peStallCache >= kCacheBound) {
        report.label = "cache";
    } else if (report.routerBlocked >= kNocBlockedBound
               || report.vaultBackpressure + report.routerBlocked
                      >= 2.0 * kNocBlockedBound) {
        report.label = "noc";
    } else if (report.pngInjectStall >= kInjectBound) {
        report.label = "inject";
    } else if (report.dramPressure >= kDramBound
               || png_dram >= kDramBound) {
        report.label = "dram";
    } else {
        // Nothing dominant: pick the largest signal, or idle.
        struct Candidate
        {
            const char *label;
            double score;
        };
        Candidate candidates[] = {
            {"mac", report.peBusy},
            {"cache", report.peStallCache},
            {"noc", report.routerBlocked + report.vaultBackpressure},
            {"inject", report.pngInjectStall},
            {"dram", std::max(report.dramPressure, png_dram)},
        };
        const Candidate *best = &candidates[0];
        for (const Candidate &c : candidates) {
            if (c.score > best->score)
                best = &c;
        }
        report.label = best->score >= kIdleFloor ? best->label
                                                 : "idle";
    }

    report.valid = true;
    return report;
}

} // namespace neurocube
