/**
 * @file
 * PE temporal buffer (paper Fig. 11).
 *
 * The temporal buffer stages the operands of the operation currently
 * pointed at by the PE's OP-counter: one {state, weight} pair per MAC
 * unit. When every active MAC's pair is present the buffer is flushed
 * into the MACs and the OP-counter advances.
 */

#ifndef NEUROCUBE_PE_TEMPORAL_BUFFER_HH
#define NEUROCUBE_PE_TEMPORAL_BUFFER_HH

#include <cstdint>
#include <vector>

#include "common/fixed_point.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace neurocube
{

/** Operand staging for one MAC operation across all MAC units. */
class TemporalBuffer
{
  public:
    /** One MAC's slot. */
    struct Slot
    {
        bool hasState = false;
        bool hasWeight = false;
        Fixed state{};
        Fixed weight{};
        /** Global output-neuron index this operand belongs to. */
        uint32_t neuron = 0;
        /** Memory channel storing the output neuron. */
        VaultId homeVault = 0;

        bool complete() const { return hasState && hasWeight; }
    };

    /** @param num_macs number of MAC units (slots). */
    explicit TemporalBuffer(unsigned num_macs) : slots_(num_macs) {}

    /** Deposit a state operand for a MAC slot. */
    void
    putState(MacId mac, Fixed value, uint32_t neuron, VaultId home)
    {
        Slot &slot = at(mac);
        nc_assert(!slot.hasState,
                  "duplicate state operand for MAC %u", unsigned(mac));
        slot.hasState = true;
        numComplete_ += slot.hasWeight;
        slot.state = value;
        slot.neuron = neuron;
        slot.homeVault = home;
    }

    /** Deposit a weight operand for a MAC slot. */
    void
    putWeight(MacId mac, Fixed value, uint32_t neuron, VaultId home)
    {
        Slot &slot = at(mac);
        nc_assert(!slot.hasWeight,
                  "duplicate weight operand for MAC %u", unsigned(mac));
        slot.hasWeight = true;
        numComplete_ += slot.hasState;
        slot.weight = value;
        slot.neuron = neuron;
        slot.homeVault = home;
    }

    /** True when slots [0, active) all hold a complete pair. */
    bool
    complete(unsigned active) const
    {
        // Fewer complete slots than active MACs (the common case
        // while operands trickle in) settles it without a scan.
        if (numComplete_ < active)
            return false;
        for (unsigned m = 0; m < active; ++m) {
            if (!slots_[m].complete())
                return false;
        }
        return true;
    }

    /** Read one slot. */
    const Slot &slot(MacId mac) const { return slots_[mac]; }

    /** Clear all slots for the next operation. */
    void
    flush()
    {
        for (Slot &slot : slots_)
            slot = Slot{};
        numComplete_ = 0;
    }

    /** Number of slots. */
    unsigned size() const { return unsigned(slots_.size()); }

  private:
    Slot &
    at(MacId mac)
    {
        nc_assert(mac < slots_.size(), "MAC id %u out of range",
                  unsigned(mac));
        return slots_[mac];
    }

    std::vector<Slot> slots_;
    /** Slots holding both operands. */
    unsigned numComplete_ = 0;
};

} // namespace neurocube

#endif // NEUROCUBE_PE_TEMPORAL_BUFFER_HH
