/**
 * @file
 * Typed trace events published by the simulated components.
 *
 * A TraceEvent is a fixed-size plain-old-data record: the tick it
 * happened at, which component class and instance produced it, a
 * type tag, and two payload fields whose meaning depends on the type
 * (documented per enumerator). Components publish events through
 * Probe::event (trace/probe.hh); exporters interpret them.
 */

#ifndef NEUROCUBE_TRACE_EVENTS_HH
#define NEUROCUBE_TRACE_EVENTS_HH

#include <cstdint>

#include "common/types.hh"

namespace neurocube
{

/** Component class an event originates from (one track family). */
enum class TraceComponent : uint8_t
{
    Sim = 0,
    Router,
    Pe,
    Png,
    Vault,
    ComponentCount,
};

/** Short lower-case label of a component class (track naming). */
const char *traceComponentName(TraceComponent component);

/** What happened. Payload semantics are given per enumerator. */
enum class TraceEventType : uint8_t
{
    // --- NoC (instance = router/node index).
    /** Flit entered an input FIFO. arg=port, value=occupancy after. */
    FlitEnqueue = 0,
    /** Flit switched to an output FIFO. arg=out port, value=occupancy. */
    FlitSwitch,
    /** Input head-of-line blocked on a full output. arg=input port. */
    FlitBlocked,
    /** Flit crossed a router-to-router link. arg=destination router. */
    LinkFlit,
    /** Packet ejected at an endpoint. arg=0 PE / 1 mem, value=latency. */
    PacketEject,

    // --- PE (instance = PE index).
    /** Temporal-buffer flush started the MAC array.
     *  arg=active MACs, value=busy duration in ticks. */
    MacBusy,
    /** Sub-bank search extracted parked operands. value=matches. */
    CacheHit,
    /** Sub-bank search found nothing for the new OP. value=scanned. */
    CacheMiss,
    /** Out-of-order operand parked. value=total buffered entries. */
    CacheInsert,
    /** Insert spilled past sub-bank capacity. value=bank occupancy. */
    CacheOverflow,
    /** Write-back packet injected. value=outbox depth after. */
    WriteBackOut,
    /** Flush delayed by the sub-bank scan. value=extra ticks. */
    SearchStall,

    // --- PNG (instance = vault index).
    /** Counter-FSM phase change. arg=PngFsmPhase, value=plane. */
    PngPhase,
    /** Packets ready but the router memory port is full. */
    PngInjectStall,
    /** Element reads issued this tick. value=count. */
    PngIssue,

    // --- Batched execution (instance = batch lane index).
    /** Lane finished a pass. arg=pass index, value=lane pass ticks. */
    LaneDone,

    // --- DRAM channel (instance = channel index).
    /** Request queued. arg=0 read / 1 write, value=queue depth after. */
    DramQueueDepth,
    /** One word serviced. arg=0 read / 1 write, value=bits moved. */
    DramWord,
    /** Row activation started. arg=bank, value=row. */
    DramRowActivate,
    /** Tick stalled with work queued. arg=DramStallReason. */
    DramStall,

    // --- Serving frontend (instance = 0, sim track; src/serving/).
    /** Request queue depth changed. arg=ServeQueueEvent,
     *  value=queue depth after the transition. */
    ServeQueueDepth,
    /** Request left the system. arg=request id,
     *  value=end-to-end latency in ticks (0 for a dropped request). */
    ServeRequestDone,
    /** Request left the queue into a dispatched batch. arg=request
     *  id, value=queue wait in ticks (dispatch - arrival). */
    ServeRequestDispatch,

    // --- Wake-list engine (instance = batch lane, 0 unbatched).
    /** Component-ticks the scheduler skipped (bulk-replayed as
     *  no-ops) since the previously executed tick, stamped at the
     *  executed tick that ended the gap. value=skipped
     *  component-ticks. The legacy loop emits none of these; skipped
     *  ticks are exactly those where no component had trace-visible
     *  work, so the rest of the stream is engine-invariant. */
    EngineSkip,

    EventTypeCount,
};

/** Short label of an event type (exporters, debugging). */
const char *traceEventTypeName(TraceEventType type);

/** Phases of the PNG's nested-counter FSM (paper Fig. 8b). */
enum class PngFsmPhase : uint8_t
{
    Idle = 0,
    Configured,
    Generating,
    Draining,
    Done,
};

/** Label of a PNG FSM phase. */
const char *pngFsmPhaseName(PngFsmPhase phase);

/** Why a DRAM channel tick made no progress (DramStall arg). */
enum class DramStallReason : uint8_t
{
    BurstGap = 0,
    Bandwidth,
    RowConflict,
    Backpressure,
};

/** Request-queue transition a ServeQueueDepth event reports. */
enum class ServeQueueEvent : uint8_t
{
    /** Request admitted into the queue. */
    Arrive = 0,
    /** Request left the queue into a dispatched batch. */
    Dispatch,
    /** Request rejected at a full queue (admission control). */
    Drop,
};

/** Label of a serve queue transition. */
const char *serveQueueEventName(ServeQueueEvent event);

/** One recorded event (24 bytes, trivially copyable). */
struct TraceEvent
{
    /** Reference-clock cycle the event was recorded at. */
    Tick tick = 0;
    /** Originating component class. */
    TraceComponent component = TraceComponent::Sim;
    /** Event type tag. */
    TraceEventType type = TraceEventType::EventTypeCount;
    /** Component instance (router/PE/vault index). */
    uint16_t instance = 0;
    /** Small payload, meaning depends on type. */
    uint32_t arg = 0;
    /** Wide payload, meaning depends on type. */
    uint64_t value = 0;
};

static_assert(sizeof(TraceEvent) == 24, "keep trace events compact");

} // namespace neurocube

#endif // NEUROCUBE_TRACE_EVENTS_HH
