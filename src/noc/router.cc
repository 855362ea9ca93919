#include "noc/router.hh"

#include "common/logging.hh"

namespace neurocube
{

Router::Router(const Config &config, StatGroup *parent,
               const std::string &name, unsigned trace_id,
               Probe probe)
    : config_(config), traceId_(uint16_t(trace_id)), probe_(probe),
      inputQueue_(config.numPorts, PacketRing(config.bufferDepth)),
      outputQueue_(config.numPorts, PacketRing(config.bufferDepth)),
      routeTable_(2 * config.numNodes, ~0u),
      width_(config.portWidth), outBudget_(config.numPorts),
      statGroup_(parent, name),
      statSwitched_(&statGroup_, "switched", "packets switched"),
      statBlocked_(&statGroup_, "blocked",
                   "input-port cycles blocked on a full output")
{
    nc_assert(config_.numPorts >= 2, "router needs at least 2 ports");
    width_.resize(config_.numPorts, 1);
}

void
Router::setRoute(unsigned route_index, unsigned out_port)
{
    nc_assert(route_index < routeTable_.size(),
              "route index %u out of range", route_index);
    nc_assert(out_port < config_.numPorts,
              "out port %u out of range", out_port);
    routeTable_[route_index] = out_port;
}

void
Router::skipTicks(uint64_t n)
{
    nc_assert(idle(), "router skipTicks while packets are buffered");
    priority_ = unsigned((priority_ + n) % config_.numPorts);
    probe_.cycles(TraceComponent::Router, traceId_, StallClass::Idle, n);
}

void
Router::tick()
{
    const unsigned nports = config_.numPorts;

    if (bufferedInputs_ == 0) {
        // Nothing to switch; just rotate the daisy chain. Output
        // FIFOs may still hold packets waiting for link slots, but
        // that wait is the link's cycle, not this crossbar's.
        probe_.cycle(TraceComponent::Router, traceId_,
                     idle() ? StallClass::Idle : StallClass::Busy);
        advancePriority();
        return;
    }

    // Remaining output enqueue slots this cycle (crossbar width).
    for (unsigned p = 0; p < nports; ++p)
        outBudget_[p] = std::min(width_[p], outputSpace(p));

    // Visit inputs in rotating daisy-chain priority order.
    bool blocked = false;
    unsigned in = priority_;
    for (unsigned i = 0; i < nports && bufferedInputs_ > 0; ++i, ++in) {
        if (in == nports)
            in = 0;
        PacketRing &input = inputQueue_[in];
        for (unsigned in_budget = width_[in];
             in_budget > 0 && !input.empty(); --in_budget) {
            const Packet &head = input.front();
            unsigned idx = routeIndex(head.dst, head.dstIsMem,
                                      config_.numNodes);
            nc_assert(idx < routeTable_.size(),
                      "unroutable destination %u", head.dst);
            unsigned out = routeTable_[idx];
            nc_assert(out != ~0u, "no route installed for dst %u%s",
                      head.dst, head.dstIsMem ? " (mem)" : "");
            if (outBudget_[out] == 0) {
                // Head-of-line blocked; wormhole switching cannot
                // reorder behind the blocked head.
                statBlocked_ += 1;
                blocked = true;
                probe_.event(TraceComponent::Router, traceId_,
                             TraceEventType::FlitBlocked, in);
                break;
            }
            outputQueue_[out].push_back(head);
            input.pop_front();
            --bufferedInputs_;
            ++bufferedOutputs_;
            --outBudget_[out];
            statSwitched_ += 1;
            probe_.addEnergy(EnergyEventKind::NocHop, traceId_, 1);
            probe_.event(TraceComponent::Router, traceId_,
                         TraceEventType::FlitSwitch, out,
                         outputQueue_[out].size());
        }
    }

    // Head-of-line blocking dominates the classification: a cycle
    // where any input sat behind a full output is the congestion
    // signal, even if other inputs still made progress. With no
    // block, a buffered input always switched (wormhole invariant).
    probe_.cycle(TraceComponent::Router, traceId_,
                 blocked ? StallClass::StallNocCredit
                         : StallClass::Busy);

    // Rotate the daisy chain (priorities update every clock cycle).
    advancePriority();
}

} // namespace neurocube
