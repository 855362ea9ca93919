/**
 * @file
 * Probe: the telemetry sinks of one machine.
 *
 * A Probe is two sink pointers — the trace-event recorder and the
 * counter table (trace/counters.hh) — either of which may be null.
 * A Neurocube fills its Probe from its own TraceSession before it
 * builds a single component and hands a copy to every component at
 * construction; the pointers never change for the machine's
 * lifetime, so two machines in one process (or on two threads)
 * publish to disjoint sinks. A component built on its own (tests)
 * takes an empty Probe{} and publishes nothing.
 *
 * Every instrumentation site is one call on the component's Probe:
 * event() and tick() for the recorder, cycle()/cycles() for the
 * stall-attribution metrics, addEnergy() and addSpatial() for the
 * activity counters; the last four all land in the counter table.
 * Each costs one member load and a predictable branch while its sink
 * is absent. With -DNEUROCUBE_TRACE=OFF
 * (NEUROCUBE_TRACE_ENABLED == 0) the bodies are discarded at compile
 * time, so a site reduces to its (side-effect-free) arguments, which
 * the optimizer drops: no code, no branches, and no reference to the
 * trace library.
 */

#ifndef NEUROCUBE_TRACE_PROBE_HH
#define NEUROCUBE_TRACE_PROBE_HH

#include <cstdint>

#include "common/types.hh"
#include "trace/counters.hh"
#include "trace/trace.hh"

namespace neurocube
{

/** The telemetry sinks one machine publishes to (all optional). */
struct Probe
{
    TraceRecorder *recorder = nullptr;
    CounterRegistry *counters = nullptr;

    /** Record one trace event at the recorder's current tick. */
    void
    event(TraceComponent component, unsigned instance,
          TraceEventType type, uint32_t arg = 0,
          uint64_t value = 0) const
    {
        if constexpr (NEUROCUBE_TRACE_ENABLED) {
            if (recorder)
                recorder->record(component, uint16_t(instance), type,
                                 arg, value);
        }
    }

    /** Stamp the tick applied to subsequent events. */
    void
    tick(Tick now) const
    {
        if constexpr (NEUROCUBE_TRACE_ENABLED) {
            if (recorder)
                recorder->setNow(now);
        }
    }

    /** Classify one component cycle. */
    void
    cycle(TraceComponent component, unsigned instance,
          StallClass cls) const
    {
        if constexpr (NEUROCUBE_TRACE_ENABLED) {
            if (counters)
                counters->cycle(component, instance, cls);
        }
    }

    /** Classify @p n identical cycles (bulk, for skipped stretches). */
    void
    cycles(TraceComponent component, unsigned instance, StallClass cls,
           uint64_t n) const
    {
        if constexpr (NEUROCUBE_TRACE_ENABLED) {
            if (counters)
                counters->cycles(component, instance, cls, n);
        }
    }

    /** Count @p amount units of energy-bearing activity. */
    void
    addEnergy(EnergyEventKind kind, unsigned instance,
              uint64_t amount) const
    {
        if constexpr (NEUROCUBE_TRACE_ENABLED) {
            if (counters)
                counters->addEnergy(kind, instance, amount);
        }
    }

    /** Count @p amount units of one spatial counter. */
    void
    addSpatial(SpatialCounter counter, unsigned instance,
               uint64_t amount) const
    {
        if constexpr (NEUROCUBE_TRACE_ENABLED) {
            if (counters)
                counters->addSpatial(counter, instance, amount);
        }
    }
};

} // namespace neurocube

#endif // NEUROCUBE_TRACE_PROBE_HH
