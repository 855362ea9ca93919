/**
 * @file
 * Sub-banked SRAM cache buffering out-of-order operand packets
 * (paper Section V-B, Fig. 11).
 *
 * Packets whose OP-ID is ahead of the PE's OP-counter are parked in
 * one of 16 sub-banks selected by OP-ID mod 16; each sub-bank holds up
 * to 64 entries (2.5 KB total: 20-bit words, 16 MACs, 4-deep
 * buffering). When the OP-counter advances, the PE performs a full
 * search of the corresponding sub-bank, which costs between 16 clock
 * cycles (one per MAC) and 64 (a full sub-bank scan).
 */

#ifndef NEUROCUBE_PE_OP_CACHE_HH
#define NEUROCUBE_PE_OP_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "noc/packet.hh"
#include "trace/probe.hh"

namespace neurocube
{

/** The PE's operand reorder cache. */
class OpCache
{
  public:
    /** Structural parameters. */
    struct Config
    {
        /** Number of sub-banks (paper: 16). */
        unsigned numSubBanks = 16;
        /** Entries per sub-bank (paper: 64). */
        unsigned entriesPerSubBank = 64;
    };

    /**
     * @param config structural parameters
     * @param parent stat group parent
     * @param trace_id owning PE index used for trace events
     * @param probe telemetry sinks (Probe{} = publish nothing)
     */
    OpCache(const Config &config, StatGroup *parent, uint16_t trace_id,
            Probe probe)
        : config_(config), traceId_(trace_id), probe_(probe),
          banks_(config.numSubBanks),
          statGroup_(parent, "cache"),
          statInserts_(&statGroup_, "inserts", "packets buffered"),
          statOverflows_(&statGroup_, "overflows",
                         "entries spilled beyond sub-bank capacity"),
          statPeakEntries_(&statGroup_, "peakEntries",
                           "peak total buffered entries")
    {
    }

    /** Sub-bank a given OP-ID maps to. */
    unsigned
    subBankOf(OpId op_id) const
    {
        return op_id % config_.numSubBanks;
    }

    /**
     * Buffer a packet.
     *
     * Inserts never fail: when the target sub-bank exceeds its
     * 64-entry capacity the entry spills, which is counted in the
     * overflow statistic. This keeps multi-vault operand streams
     * deadlock-free (a stalled sub-bank would otherwise block the
     * delivery of the very operand the OP-counter is waiting for);
     * the search-cost model already saturates at the sub-bank
     * capacity, so timing stays faithful. Paper-mode (duplicated)
     * configurations never overflow — the tests assert it.
     *
     * @param group neuron-group index of the packet
     * @param packet the operand
     */
    void
    insert(uint32_t group, const Packet &packet)
    {
        SubBank &bank = banks_[subBankOf(packet.opId)];
        if (bank.occupancy >= config_.entriesPerSubBank) {
            statOverflows_ += 1;
            probe_.event(TraceComponent::Pe, traceId_,
                         TraceEventType::CacheOverflow, packet.opId,
                         bank.occupancy);
        }
        bank.insert(key(group, packet.opId), packet, runs_);
        ++totalEntries_;
        if (totalEntries_ > statPeakEntries_.count())
            statPeakEntries_.set(double(totalEntries_));
        statInserts_ += 1;
        probe_.event(TraceComponent::Pe, traceId_,
                     TraceEventType::CacheInsert, packet.opId,
                     totalEntries_);
    }

    /** Entries inserted beyond the hardware sub-bank capacity. */
    uint64_t overflows() const { return statOverflows_.count(); }

    /**
     * Full search of the sub-bank for (group, opId): matching entries
     * are removed and appended to @p out.
     *
     * @param group current neuron group
     * @param op_id current OP-counter value
     * @param out receives the extracted packets
     * @return entries scanned (the paper's 16..64-cycle search cost
     *         derives from this, clamped below by the MAC count)
     */
    unsigned
    extract(uint32_t group, OpId op_id, std::vector<Packet> &out)
    {
        SubBank &bank = banks_[subBankOf(op_id)];
        unsigned scanned = bank.occupancy;
        totalEntries_ -= bank.extract(key(group, op_id), out, runs_);
        return scanned;
    }

    /** Entries currently parked in the sub-bank serving op_id. */
    unsigned
    subBankOccupancy(OpId op_id) const
    {
        return banks_[subBankOf(op_id)].occupancy;
    }

    /** Total entries across all sub-banks. */
    unsigned totalEntries() const { return totalEntries_; }

    /** True when nothing is buffered. */
    bool empty() const { return totalEntries_ == 0; }

    /** Drop all contents (between passes). */
    void
    clear()
    {
        for (auto &bank : banks_)
            bank.clear();
        runs_.reset();
        totalEntries_ = 0;
    }

    /** Structural parameters. */
    const Config &config() const { return config_; }

  private:
    /** Sequencing key of one buffered operation. */
    static uint64_t
    key(uint32_t group, OpId op_id)
    {
        return (uint64_t(group) << 32) | op_id;
    }

    /** Packets per run: one key's packets fill runs of this size. */
    static constexpr unsigned runPackets = 8;
    /** Runs carved from one chunk allocation. */
    static constexpr unsigned runsPerChunk = 256;

    /**
     * A fixed run of one key's packets, linked to the key's next.
     * Construction leaves it uninitialized, so a chunk's memory is
     * only touched as its runs are handed out.
     */
    struct Run
    {
        Run() {}

        Run *next;
        unsigned count;
        union
        {
            Packet packets[runPackets];
        };
    };

    /**
     * Run storage shared by the cache's sub-banks. Runs are carved
     * from chunks that are never reallocated or freed while the cache
     * lives, so a run pointer stays valid and steady-state inserts
     * and extractions never allocate: extracted runs return to a free
     * list, and clear() makes every carved run free again at once.
     * Lane worker threads allocate from their own malloc arenas, so
     * storage that grew per key would spread resident memory across
     * them.
     */
    class RunStore
    {
      public:
        /** A run with count 0, no successor. */
        Run *
        take()
        {
            Run *run = free_;
            if (run != nullptr) {
                free_ = run->next;
            } else {
                if (carved_ == chunks_.size() * runsPerChunk) {
                    chunks_.push_back(
                        std::make_unique_for_overwrite<Run[]>(
                            runsPerChunk));
                }
                run = &chunks_[carved_ / runsPerChunk]
                              [carved_ % runsPerChunk];
                ++carved_;
            }
            run->next = nullptr;
            run->count = 0;
            return run;
        }

        /** Return the linked runs @p head .. @p tail to the store. */
        void
        give(Run *head, Run *tail)
        {
            tail->next = free_;
            free_ = head;
        }

        /** Every carved run is free again (the chunks stay). */
        void
        reset()
        {
            free_ = nullptr;
            carved_ = 0;
        }

      private:
        std::vector<std::unique_ptr<Run[]>> chunks_;
        /** Runs handed out from the chunks since the last reset. */
        size_t carved_ = 0;
        Run *free_ = nullptr;
    };

    /**
     * One sub-bank: an open-addressing key index over per-key run
     * lists. Packets for the same (group, opId) append to the key's
     * last run, so extraction order matches insertion order exactly
     * and the copy on extraction is a linear scan per run.
     */
    struct SubBank
    {
        /** One key cell: head == nullptr marks the cell empty. */
        struct Cell
        {
            uint64_t key;
            Run *head;
            Run *tail;
        };

        std::vector<Cell> cells_;
        size_t cellCount_ = 0;
        unsigned occupancy = 0;

        /** splitmix64 finalizer: cheap and well-mixed. */
        static size_t
        hashKey(uint64_t k)
        {
            k ^= k >> 33;
            k *= 0xff51afd7ed558ccdULL;
            k ^= k >> 33;
            k *= 0xc4ceb9fe1a85ec53ULL;
            k ^= k >> 33;
            return size_t(k);
        }

        void
        grow()
        {
            std::vector<Cell> old = std::move(cells_);
            size_t cap = old.empty() ? 32 : old.size() * 2;
            cells_.assign(cap, Cell{0, nullptr, nullptr});
            for (const Cell &c : old) {
                if (c.head == nullptr)
                    continue;
                size_t mask = cells_.size() - 1;
                size_t i = hashKey(c.key) & mask;
                while (cells_[i].head != nullptr)
                    i = (i + 1) & mask;
                cells_[i] = c;
            }
        }

        /** Find the cell for @p k, or nullptr. */
        Cell *
        find(uint64_t k)
        {
            if (cellCount_ == 0)
                return nullptr;
            size_t mask = cells_.size() - 1;
            size_t i = hashKey(k) & mask;
            while (cells_[i].head != nullptr) {
                if (cells_[i].key == k)
                    return &cells_[i];
                i = (i + 1) & mask;
            }
            return nullptr;
        }

        void
        insert(uint64_t k, const Packet &packet, RunStore &store)
        {
            if (cells_.empty() || cellCount_ * 2 >= cells_.size())
                grow();
            size_t mask = cells_.size() - 1;
            size_t i = hashKey(k) & mask;
            while (cells_[i].head != nullptr && cells_[i].key != k)
                i = (i + 1) & mask;
            Cell &c = cells_[i];
            if (c.head == nullptr) {
                c.key = k;
                c.head = c.tail = store.take();
                ++cellCount_;
            } else if (c.tail->count == runPackets) {
                c.tail->next = store.take();
                c.tail = c.tail->next;
            }
            c.tail->packets[c.tail->count++] = packet;
            ++occupancy;
        }

        /**
         * Remove the run list for @p k, appending its packets to
         * @p out in insertion order.
         *
         * @return number of packets extracted
         */
        unsigned
        extract(uint64_t k, std::vector<Packet> &out, RunStore &store)
        {
            Cell *c = find(k);
            if (c == nullptr)
                return 0;
            unsigned n = 0;
            for (const Run *run = c->head; run != nullptr;
                 run = run->next) {
                out.insert(out.end(), run->packets,
                           run->packets + run->count);
                n += run->count;
            }
            store.give(c->head, c->tail);
            occupancy -= n;
            erase(size_t(c - cells_.data()));
            return n;
        }

        /** Backward-shift deletion keeps probe chains intact. */
        void
        erase(size_t i)
        {
            size_t mask = cells_.size() - 1;
            size_t j = i;
            while (true) {
                j = (j + 1) & mask;
                if (cells_[j].head == nullptr)
                    break;
                size_t ideal = hashKey(cells_[j].key) & mask;
                bool movable = (j > i) ? (ideal <= i || ideal > j)
                                       : (ideal <= i && ideal > j);
                if (movable) {
                    cells_[i] = cells_[j];
                    i = j;
                }
            }
            cells_[i].head = nullptr;
            --cellCount_;
        }

        /** Drop every key; the caller resets the run store. */
        void
        clear()
        {
            if (cellCount_ != 0)
                cells_.assign(cells_.size(), Cell{0, nullptr, nullptr});
            cellCount_ = 0;
            occupancy = 0;
        }
    };

    Config config_;
    /** Owning PE index published with trace events. */
    uint16_t traceId_;
    Probe probe_;
    std::vector<SubBank> banks_;
    RunStore runs_;
    unsigned totalEntries_ = 0;

    StatGroup statGroup_;
    Stat statInserts_;
    Stat statOverflows_;
    Stat statPeakEntries_;
};

} // namespace neurocube

#endif // NEUROCUBE_PE_OP_CACHE_HH
