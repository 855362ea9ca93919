/**
 * @file
 * Cycle-level timing model of one DRAM channel (an HMC vault or a
 * DDR3 channel).
 *
 * The model follows the paper's simulator description (Section VI):
 * each vault pushes one I/O word per reference tick while in burst
 * mode; after burstLength words it waits tCCD before the next burst.
 * Channels slower than the reference clock (DDR3) accumulate
 * fractional word credit per tick. Row activations cost tRCD + tCL
 * and are overlapped with ongoing bursts through a small lookahead
 * window across banks, which models hit-under-activate in a
 * multi-bank vault.
 *
 * The read queue, write buffer and response queue are order-
 * preserving power-of-two rings (noc/packet_ring.hh): the per-tick
 * lookahead and FR-FCFS scans index them directly, and serving a
 * row hit from the middle of the read queue closes the gap by
 * shifting the shorter side. Each request caches its row and bank at
 * enqueue, so no scan divides.
 */

#ifndef NEUROCUBE_DRAM_MEMORY_CHANNEL_HH
#define NEUROCUBE_DRAM_MEMORY_CHANNEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/fixed_point.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/wake.hh"
#include "dram/backing_store.hh"
#include "dram/dram_params.hh"
#include "noc/packet_ring.hh"
#include "trace/probe.hh"

namespace neurocube
{

/** One element-granularity access issued by a PNG. */
struct MemRequest
{
    /** True for a write-back, false for a read. */
    bool write = false;
    /** Element address within this channel's store. */
    Addr addr = 0;
    /** Data to store (writes only). */
    Fixed data{};
    /** Opaque tag the issuer uses to match responses. */
    uint64_t tag = 0;
    /** Tick the channel accepted the request (set by enqueue). */
    Tick enqueueTick = 0;
    /** DRAM row of addr (cached by enqueue; divisions are hot). */
    uint64_t row = 0;
    /** Bank of addr (cached by enqueue). */
    unsigned bank = 0;
};

/** Completion record for one serviced read. */
struct MemResponse
{
    /** Element address that was read. */
    Addr addr = 0;
    /** The element value. */
    Fixed data{};
    /** Tag copied from the request. */
    uint64_t tag = 0;
};

/**
 * Timing + functional model of one memory channel.
 *
 * Requests are serviced in order at word granularity: each serviced
 * word consumes up to elementsPerWord() queued element requests that
 * fall in the same DRAM row and share a direction (read/write).
 */
class MemoryChannel
{
  public:
    /**
     * @param params technology parameters
     * @param parent stat group to hang this channel's stats under
     * @param name stat path component, e.g. "vault3"
     * @param trace_id vault/channel index used for trace events
     * @param probe telemetry sinks (Probe{} = publish nothing)
     */
    MemoryChannel(const DramParams &params, StatGroup *parent,
                  const std::string &name, uint16_t trace_id,
                  Probe probe);

    /** True while the request queues have room. */
    bool
    canAccept() const
    {
        return queue_.size() < queueCapacity
            && writeQueue_.size() < writeBufferCapacity;
    }

    /** Queue one element access. @pre canAccept() */
    void enqueue(const MemRequest &req);

    /** Advance one reference-clock tick. */
    void tick(Tick now);

    /**
     * Event-engine hookup: the scheduler watching this channel, or
     * nullptr under the legacy tick-every-cycle loop. enqueue() calls
     * sink->onChannelEnqueue() (before stamping, so the scheduler can
     * catch the channel up first) and serveWord() calls
     * sink->onChannelServe().
     */
    void setWakeSink(WakeSink *sink) { sink_ = sink; }

    /**
     * First tick after @p now at which tick() would do more than the
     * empty-queue idle path, given no external input. tickNever while
     * both request queues are empty: an idle tick only ages credit /
     * gap state, which skipTicks() reproduces in bulk when an enqueue
     * (or end-of-pass catchup) lands.
     */
    Tick
    nextEventAfter(Tick now) const
    {
        if (queue_.empty() && writeQueue_.empty())
            return tickNever;
        return now + 1;
    }

    /**
     * Account ticks [from, to) in bulk, replicating exactly what that
     * many empty-queue tick() calls would have done (activation
     * promotion, credit accrual, burst-gap aging, idle stats, stale
     * now_ stamp). @pre both request queues were empty over the whole
     * window (guaranteed by the sleep condition + enqueue catchup).
     */
    void skipTicks(Tick from, Tick to);

    /** Serviced reads, in order; consumer pops from the front. */
    Ring<MemResponse> &responses() { return responses_; }

    /** True when no serviced read awaits its consumer. */
    bool responsesEmpty() const { return responses_.empty(); }

    /** True when no requests are queued or in flight. */
    bool
    idle() const
    {
        return queue_.empty() && writeQueue_.empty()
            && responses_.empty();
    }

    /** Functional storage behind this channel. */
    BackingStore &store() { return store_; }
    const BackingStore &store() const { return store_; }

    /** Technology parameters. */
    const DramParams &params() const { return params_; }

    /** Total data moved, in bits (for the energy model). */
    uint64_t bitsTransferred() const { return statBits_.count(); }

    /** Queue residency distribution (ticks enqueue -> service). */
    const Histogram &
    queueResidencyHistogram() const
    {
        return histQueueResidency_;
    }

    /** Access energy consumed so far, in joules. */
    double
    energyJoules() const
    {
        return statBits_.value() * params_.energyPjPerBit * 1.0e-12;
    }

    /** Reset timing state (between layers); keeps store contents. */
    void resetTiming();

    /** Maximum queued element read requests. */
    static constexpr size_t queueCapacity = 64;

    /**
     * Write-buffer capacity and drain watermarks. Write-backs are
     * buffered and drained in batches (when the buffer passes the
     * high watermark, the read queue empties, or a read hits a
     * buffered address), amortizing the row activations of the
     * output stream over many writes instead of ping-ponging rows
     * against the operand streams — standard write-drain policy of
     * DRAM controllers.
     */
    static constexpr size_t writeBufferCapacity = 64;
    static constexpr size_t writeDrainHigh = 32;
    static constexpr size_t writeDrainLow = 4;

    /**
     * Maximum unconsumed read responses before the channel stalls.
     * Models the finite vault-controller read buffer so NoC
     * backpressure propagates all the way into the DRAM timing.
     */
    static constexpr size_t responseBacklogLimit = 16;

  private:
    /** Row index of an element address. */
    uint64_t rowOf(Addr addr) const { return addr / rowElements_; }
    /**
     * Bank a DRAM row maps to. The row index is hashed so
     * that independent sequential streams (states vs weights) rarely
     * fall into lock-step same-bank conflicts.
     */
    unsigned
    bankOfRow(uint64_t row) const
    {
        return unsigned((row ^ (row >> 4)) % params_.banksPerChannel);
    }

    /** Start pre-activations for upcoming rows in idle banks. */
    void lookaheadActivate(Tick now, const Ring<MemRequest> &queue);

    /**
     * Pick the queue index to serve this tick: the head when its row
     * is open, otherwise the first open-row request within the
     * reorder window (FR-FCFS row-hit-first, never reordering past a
     * write so read-after-write ordering is preserved).
     *
     * @return index into the queue, or SIZE_MAX when nothing can be
     *         served this tick
     */
    size_t pickServeIndex(Tick now) const;

    /** Serve up to one word's worth of requests starting at idx. */
    void serveWord(Tick now, Ring<MemRequest> &queue, size_t idx);

    /** Requests inspected for out-of-order row hits. */
    static constexpr size_t reorderWindow = 48;

    /**
     * Reference counts of buffered write addresses (the RAW guard).
     * The write buffer holds at most writeBufferCapacity writes, so a
     * fixed open-addressed table of twice as many cells never fills
     * and never allocates.
     */
    class WriteGuard
    {
      public:
        /** Count one more buffered write to @p addr. */
        void
        add(Addr addr)
        {
            size_t i = home(addr);
            while (cells_[i].count != 0 && cells_[i].addr != addr)
                i = (i + 1) & mask;
            cells_[i].addr = addr;
            if (cells_[i].count++ == 0)
                ++live_;
        }

        /** Count one buffered write to @p addr served. */
        void
        remove(Addr addr)
        {
            size_t i = home(addr);
            while (cells_[i].count != 0 && cells_[i].addr != addr)
                i = (i + 1) & mask;
            if (cells_[i].count == 0 || --cells_[i].count != 0)
                return;
            --live_;
            // Backward-shift deletion keeps probe chains intact.
            for (size_t j = (i + 1) & mask; cells_[j].count != 0;
                 j = (j + 1) & mask) {
                const size_t ideal = home(cells_[j].addr);
                if (j > i ? (ideal <= i || ideal > j)
                          : (ideal <= i && ideal > j)) {
                    cells_[i] = cells_[j];
                    cells_[j].count = 0;
                    i = j;
                }
            }
        }

        /** True while a write to @p addr is buffered. */
        bool
        contains(Addr addr) const
        {
            if (live_ == 0)
                return false;
            for (size_t i = home(addr); cells_[i].count != 0;
                 i = (i + 1) & mask) {
                if (cells_[i].addr == addr)
                    return true;
            }
            return false;
        }

      private:
        /** Empty cell: count == 0. */
        struct Cell
        {
            Addr addr = 0;
            unsigned count = 0;
        };

        static constexpr size_t numCells = 2 * writeBufferCapacity;
        static constexpr size_t mask = numCells - 1;
        static_assert((numCells & mask) == 0, "cells must be 2^k");

        /** Fibonacci hash of an element address onto the cells. */
        static size_t
        home(Addr addr)
        {
            return size_t((uint64_t(addr) * 0x9e3779b97f4a7c15ull)
                          >> 32) & mask;
        }

        std::array<Cell, numCells> cells_{};
        /** Addresses with a nonzero count. */
        unsigned live_ = 0;
    };

    DramParams params_;
    BackingStore store_;
    /** Vault/channel index published with trace events. */
    uint16_t traceId_;
    Probe probe_;

    /**
     * Read queue and write buffer: the lookahead and FR-FCFS scans
     * index them every tick, and service erases a run from the
     * middle of the read queue. These rings and responses_ start
     * empty and grow to their working size on first use, which
     * keeps building a machine cheap.
     */
    Ring<MemRequest> queue_;
    Ring<MemRequest> writeQueue_;
    /** Buffered write addresses (RAW guard). */
    WriteGuard bufferedWrites_;
    /** Currently draining the write buffer. */
    bool drainWrites_ = false;
    /** A queued read depends on a buffered write: drain fully. */
    bool hazardDrain_ = false;
    /** Serviced reads awaiting the PNG. */
    Ring<MemResponse> responses_;

    /**
     * Tick of the last tick() call; stamps requests accepted between
     * channel ticks for the residency histogram (at most one tick
     * stale, which is noise at histogram granularity).
     */
    Tick now_ = 0;

    /** Fractional word credit accumulated from the channel rate. */
    double credit_ = 0.0;
    /** Words already emitted in the current burst. */
    unsigned burstWords_ = 0;
    /** Remaining tCCD gap ticks before the next burst may start. */
    Tick gapRemaining_ = 0;
    /** Force a lookahead re-scan on the next tick. */
    bool lookaheadArmed_ = true;
    /** Activations in flight (skips the promotion scan when 0). */
    unsigned pendingActivations_ = 0;
    /** Event-engine scheduler hook (null under the legacy loop). */
    WakeSink *sink_ = nullptr;

    /** Per-bank open row (UINT64_MAX = closed). */
    std::vector<uint64_t> openRow_;
    /** Per-bank tick at which a pending activation completes. */
    std::vector<Tick> bankReady_;
    /** Per-bank row being activated (valid while now < bankReady_). */
    std::vector<uint64_t> pendingRow_;

    unsigned rowElements_;

    StatGroup statGroup_;
    Stat statReads_;
    Stat statWrites_;
    Stat statBits_;
    Stat statBursts_;
    Stat statRowHits_;
    Stat statRowMisses_;
    Stat statBusyTicks_;
    Stat statStallTicks_;
    Stat statIdleTicks_;
    /** Ticks a request waited in the queue before service. */
    Histogram histQueueResidency_;
};

} // namespace neurocube

#endif // NEUROCUBE_DRAM_MEMORY_CHANNEL_HH
