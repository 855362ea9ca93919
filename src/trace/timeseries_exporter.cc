#include "trace/timeseries_exporter.hh"

#include <algorithm>
#include <ostream>

#include "common/logging.hh"

namespace neurocube
{

namespace
{

/** Extend the last segment by @p next when they abut and agree. */
void
merge(std::vector<PhaseSegment> &segments, const PhaseSegment &next)
{
    if (!segments.empty() && segments.back().kind == next.kind
        && segments.back().endTick == next.startTick) {
        PhaseSegment &last = segments.back();
        last.endTick = next.endTick;
        last.windows += next.windows;
        last.joules += next.joules;
        return;
    }
    segments.push_back(next);
}

/**
 * Append the window [start, start + window). The windows the CSV
 * skipped since the last one saw no event at all; they are reinstated
 * as quiescent so phases stay contiguous. Under 1-in-@p period
 * sampling, the windows the recorder sampled out carry no evidence of
 * their own: the segment before them is bridged across them, up to
 * the first sampled window of the gap.
 */
void
appendWindow(std::vector<PhaseSegment> &segments, Tick start,
             Tick window, uint64_t period, PhaseKind kind,
             double joules)
{
    if (!segments.empty() && segments.back().endTick < start) {
        PhaseSegment &last = segments.back();
        const Tick stride = window * period;
        const Tick sampled =
            (last.endTick + stride - 1) / stride * stride;
        const Tick bridged = std::min(sampled, start);
        last.windows += unsigned((bridged - last.endTick) / window);
        last.endTick = bridged;
        if (bridged < start) {
            merge(segments, {bridged, start, PhaseKind::Quiescent,
                             unsigned((start - bridged) / window),
                             0.0});
        }
    }
    merge(segments, {start, start + window, kind, 1, joules});
}

} // namespace

TimeSeriesCsvExporter::TimeSeriesCsvExporter(
    std::ostream &os, const TraceTopology &topology, Tick windowTicks,
    EnergyPrices prices, uint64_t samplePeriod)
    : os_(os), topology_(topology),
      window_(windowTicks > 0 ? windowTicks : 1), prices_(prices),
      period_(samplePeriod > 0 ? samplePeriod : 1),
      vaultBits_(topology.numVaults, 0)
{
    os_ << "window_start,noc_flits_per_cycle,ejected_per_cycle,"
           "mean_eject_latency,pe_util_pct,png_stall_ticks,"
           "noc_blocked_ticks,dram_stall_ticks,dram_bytes_per_cycle,"
           "avg_power_w,serve_queue_depth,skipped_ticks";
    for (unsigned v = 0; v < topology_.numVaults; ++v)
        os_ << ",vault" << v << "_bytes";
    os_ << "\n";
}

void
TimeSeriesCsvExporter::resetAccumulators()
{
    windowPj_ = 0.0;
    linkFlits_ = 0;
    ejected_ = 0;
    ejectLatencySum_ = 0;
    macBusyTicks_ = 0;
    pngStallTicks_ = 0;
    nocBlockedTicks_ = 0;
    dramStallTicks_ = 0;
    skippedTicks_ = 0;
    vaultBits_.assign(topology_.numVaults, 0);
    sawEvent_ = false;
}

void
TimeSeriesCsvExporter::flushWindow()
{
    if (!sawEvent_)
        return;

    uint64_t total_bits = 0;
    for (uint64_t bits : vaultBits_)
        total_bits += bits;

    const double w = double(window_);
    const double mean_latency =
        ejected_ ? double(ejectLatencySum_) / double(ejected_) : 0.0;

    os_ << windowStart_ << ',' << double(linkFlits_) / w << ','
        << double(ejected_) / w << ',' << mean_latency << ','
        << peUtilPct() << ',' << pngStallTicks_ << ','
        << nocBlockedTicks_ << ',' << dramStallTicks_ << ','
        << double(total_bits) / 8.0 / w << ','
        << windowPj_ * 1e-12 * referenceClockHz / w << ','
        << serveQueueDepth_ << ',' << skippedTicks_;
    for (uint64_t bits : vaultBits_)
        os_ << ',' << bits / 8;
    os_ << "\n";

    if (sampled())
        appendWindow(phases_, windowStart_, window_, period_,
                     windowKind(), windowPj_ * 1e-12);
    resetAccumulators();
}

double
TimeSeriesCsvExporter::peUtilPct() const
{
    const double pe_ticks = double(window_) * double(topology_.numPes);
    return pe_ticks > 0.0 ? 100.0 * double(macBusyTicks_) / pe_ticks
                          : 0.0;
}

PhaseKind
TimeSeriesCsvExporter::windowKind() const
{
    const double w = double(window_);
    auto perInstance = [w](uint64_t ticks, unsigned instances) {
        return instances ? double(ticks) / (w * double(instances))
                         : 0.0;
    };
    const bool active =
        linkFlits_ > 0
        || std::any_of(vaultBits_.begin(), vaultBits_.end(),
                       [](uint64_t bits) { return bits > 0; });
    // A PNG sits on every vault, so PNG stalls scale by numVaults.
    return classifyWindow(
        peUtilPct(), perInstance(nocBlockedTicks_, topology_.numRouters),
        perInstance(pngStallTicks_, topology_.numVaults),
        perInstance(dramStallTicks_, topology_.numVaults), active);
}

std::vector<PhaseSegment>
TimeSeriesCsvExporter::phases() const
{
    std::vector<PhaseSegment> segments = phases_;
    if (sawEvent_ && sampled()) {
        appendWindow(segments, windowStart_, window_, period_,
                     windowKind(), windowPj_ * 1e-12);
    }
    return segments;
}

void
TimeSeriesCsvExporter::advanceWindow(Tick tick)
{
    if (tick < windowStart_ + window_)
        return;
    flushWindow();
    windowStart_ = tick - (tick % window_);
}

void
TimeSeriesCsvExporter::handle(const TraceEvent &event)
{
    advanceWindow(event.tick);
    windowPj_ += tracePjOf(event, prices_);
    switch (event.type) {
      case TraceEventType::LinkFlit:
        ++linkFlits_;
        break;
      case TraceEventType::PacketEject:
        ++ejected_;
        ejectLatencySum_ += event.value;
        break;
      case TraceEventType::MacBusy:
        // Flushes within one PE never overlap (the next flush waits
        // numMacs ticks), so summing durations gives PE-busy ticks.
        macBusyTicks_ += event.value;
        break;
      case TraceEventType::PngInjectStall:
        ++pngStallTicks_;
        break;
      case TraceEventType::FlitBlocked:
        ++nocBlockedTicks_;
        break;
      case TraceEventType::DramStall:
        ++dramStallTicks_;
        break;
      case TraceEventType::DramWord:
        if (event.instance < vaultBits_.size())
            vaultBits_[event.instance] += event.value;
        break;
      case TraceEventType::ServeQueueDepth:
        serveQueueDepth_ = event.value;
        break;
      case TraceEventType::EngineSkip:
        skippedTicks_ += event.value;
        break;
      default:
        break;
    }
    sawEvent_ = true;
}

void
TimeSeriesCsvExporter::consume(const TraceEvent *events, size_t count)
{
    for (size_t i = 0; i < count; ++i)
        handle(events[i]);
}

void
TimeSeriesCsvExporter::finish()
{
    flushWindow();
    os_.flush();
}

} // namespace neurocube
