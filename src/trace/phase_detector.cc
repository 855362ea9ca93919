#include "trace/phase_detector.hh"

#include <iomanip>
#include <sstream>

namespace neurocube
{

const char *
phaseKindName(PhaseKind kind)
{
    switch (kind) {
      case PhaseKind::Quiescent:
        return "quiescent";
      case PhaseKind::Compute:
        return "compute";
      case PhaseKind::InjectBound:
        return "inject-bound";
      case PhaseKind::DramBound:
        return "dram-bound";
      case PhaseKind::NocBound:
        return "noc-bound";
    }
    return "?";
}

PhaseKind
classifyWindow(double peUtilPct, double nocFrac, double injectFrac,
               double dramFrac, bool active)
{
    if (peUtilPct >= computeUtilPct)
        return PhaseKind::Compute;

    // Pick the dominant stall signal; ties resolve in top-down
    // order (NoC blocking explains downstream injection stalls,
    // which in turn mask DRAM behaviour).
    double best = nocFrac;
    PhaseKind kind = PhaseKind::NocBound;
    if (injectFrac > best) {
        best = injectFrac;
        kind = PhaseKind::InjectBound;
    }
    if (dramFrac > best) {
        best = dramFrac;
        kind = PhaseKind::DramBound;
    }
    if (best >= stallFloor)
        return kind;

    // No stall signal above the noise floor: the machine is either
    // doing (light) compute or nothing at all.
    if (peUtilPct > 100.0 * stallFloor || active)
        return PhaseKind::Compute;
    return PhaseKind::Quiescent;
}

double
PhaseSegment::avgPowerW() const
{
    const Tick ticks = endTick - startTick;
    return ticks > 0 ? joules / (double(ticks) / referenceClockHz)
                     : 0.0;
}

std::string
phaseEnergyJson(const std::vector<PhaseSegment> &segments,
                Tick windowTicks, uint64_t samplePeriod)
{
    auto num = [](double value) {
        std::ostringstream ns;
        if (!(value == value) || value > 1e300 || value < -1e300)
            value = 0.0;
        ns << std::setprecision(12) << value;
        return ns.str();
    };
    std::ostringstream os;
    os << "{\"window_ticks\": " << windowTicks
       << ", \"sample_period\": " << samplePeriod
       << ", \"segments\": [";
    for (size_t i = 0; i < segments.size(); ++i) {
        const PhaseSegment &s = segments[i];
        os << (i ? ", " : "") << "{\"kind\": \""
           << phaseKindName(s.kind) << "\", \"start\": " << s.startTick
           << ", \"end\": " << s.endTick
           << ", \"ticks\": " << (s.endTick - s.startTick)
           << ", \"windows\": " << s.windows
           << ", \"joules\": " << num(s.joules)
           << ", \"avg_power_w\": " << num(s.avgPowerW()) << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace neurocube
