/**
 * @file
 * The counter table: every stall, energy and spatial counter of one
 * machine in one flat array.
 *
 * Every ticked component publishes through its Probe (trace/probe.hh)
 * into the CounterRegistry owned by its machine's TraceSession. The
 * table is laid out at configure time as blocks of rows (component
 * instances) by columns:
 *
 *   - one stall block per component class, instances x StallClass
 *     (TraceConfig::metrics);
 *   - one energy block, nodes x EnergyEventKind (TraceConfig::energy
 *     or TraceConfig::spatial: the per-PE MAC and per-vault byte
 *     heatmaps are views of its MacOp and DramBit columns, so each MAC
 *     and each DRAM byte is counted once);
 *   - one block per SpatialCounter, links, vaults or nodes x 1
 *     (TraceConfig::spatial).
 *
 * A disabled section is sized 0, so its publishes drop through the
 * row bound check. Every slot belongs to one (block, instance) pair:
 * the lane workers of a threaded batch pass, which own disjoint
 * instances, write disjoint memory, and no slot is shared between
 * them.
 *
 * Results come from snapshots. snapshot() copies the table, delta()
 * isolates an interval, onNodes() restricts it to one batch lane, and
 * three views read the result types out of it: stallTotals() (fed to
 * buildBottleneckReport), energyCounts() and spatialSnapshot().
 *
 * Counting is observational only: it never alters component
 * behaviour, so enabling any section cannot change simulated cycle
 * counts (tests/test_golden_cycles.cc asserts this).
 */

#ifndef NEUROCUBE_TRACE_COUNTERS_HH
#define NEUROCUBE_TRACE_COUNTERS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/energy.hh"
#include "trace/metrics.hh"
#include "trace/spatial.hh"
#include "trace/trace.hh"

namespace neurocube
{

/** A copy of the counter table at one point in time. */
struct CounterSnapshot
{
    std::vector<uint64_t> slots;

    /** Per-slot counts since @p before (counters are monotone). */
    CounterSnapshot delta(const CounterSnapshot &before) const;
};

/**
 * One machine's counter table, fed by Probe::cycle(s), addEnergy and
 * addSpatial. Rows must be sized with configure() (and the link rows
 * with configureFabric()) before counting; counts for unknown
 * instances are dropped (never undefined behaviour).
 */
class CounterRegistry
{
  public:
    /**
     * Lay out the stall, energy and node/vault spatial blocks for
     * @p topology, sizing only the sections @p config enables. The
     * link blocks stay empty until configureFabric().
     */
    void configure(const TraceTopology &topology,
                   const TraceConfig &config);

    /**
     * The NoC fabric's half of the layout (the fabric is built after
     * the session): its link list sizes the link blocks, and its own
     * per-node injection counters, which must outlive every
     * snapshot(), fill the node blocks at snapshot time. Resets the
     * table.
     *
     * @param mesh_width mesh side length, 0 for non-mesh fabrics
     * @param links directed links in counter-instance order
     */
    void configureFabric(unsigned mesh_width,
                         std::vector<SpatialLink> links,
                         const std::vector<uint64_t> *node_lateral,
                         const std::vector<uint64_t> *node_local);

    /** Classify one cycle of one component instance. */
    void
    cycle(TraceComponent component, unsigned instance, StallClass cls)
    {
        add(size_t(component), instance, size_t(cls), 1);
    }

    /**
     * Classify @p n identical cycles in one update (a skipped idle or
     * stall stretch; exactly equivalent to n cycle() calls).
     */
    void
    cycles(TraceComponent component, unsigned instance, StallClass cls,
           uint64_t n)
    {
        add(size_t(component), instance, size_t(cls), n);
    }

    /** Count @p amount units of one energy kind at one instance. */
    void
    addEnergy(EnergyEventKind kind, unsigned instance, uint64_t amount)
    {
        add(energyBlock, instance, size_t(kind), amount);
    }

    /** Count @p amount units of one spatial counter. */
    void
    addSpatial(SpatialCounter counter, unsigned instance,
               uint64_t amount)
    {
        add(spatialBlock(counter), instance, 0, amount);
    }

    /** Copy of the table, node injection counters folded in. */
    CounterSnapshot snapshot() const;

    /** Zero the table (the layout is kept; the fabric's node
     *  counters are its own and are not reset). */
    void reset();

    /** The TraceConfig::metrics / spatial toggles of the layout. */
    bool metricsOn() const { return metrics_; }
    bool spatialOn() const { return spatial_; }

    /** The machine shape the spatial counters describe. */
    const SpatialTopology &topology() const { return topology_; }

    /**
     * Restrict @p snapshot to one set of mesh nodes (batch-lane
     * attribution): slots of other instances are zeroed, so the
     * restrictions of a partition sum back to the whole. Router, PE,
     * PNG, energy and node rows are node-indexed; vault rows follow
     * their hosting node (topology().vaultNode, identity when empty);
     * a link is kept when both endpoints are in the set.
     */
    CounterSnapshot onNodes(const CounterSnapshot &snapshot,
                            const std::vector<unsigned> &nodes) const;

    /** One instance's stall classes in @p snapshot. */
    StallBreakdown stalls(const CounterSnapshot &snapshot,
                          TraceComponent component,
                          unsigned instance) const;

    /** Stall classes summed per component class. */
    StallTotals stallTotals(const CounterSnapshot &snapshot) const;

    /** Energy kinds summed over instances; valid iff energy is on. */
    EnergyCounts energyCounts(const CounterSnapshot &snapshot) const;

    /**
     * Per-link, per-vault, per-PE and per-node counters; empty
     * (invalid) unless spatialOn(). vaultBytes and peMacOps are the
     * DramBit / 8 and MacOp columns of the energy block.
     */
    SpatialSnapshot spatialSnapshot(const CounterSnapshot &snapshot) const;

  private:
    /** `rows` instances, each a run of slots from `base`. */
    struct Block
    {
        size_t base = 0;
        unsigned rows = 0;
    };

    // Block order: one stall block per TraceComponent (the Sim block
    // stays empty), the energy block, one block per SpatialCounter.
    static constexpr size_t energyBlock =
        size_t(TraceComponent::ComponentCount);
    static constexpr size_t numBlocks =
        energyBlock + 1 + size_t(SpatialCounter::CounterCount);

    static constexpr size_t
    spatialBlock(SpatialCounter counter)
    {
        return energyBlock + 1 + size_t(counter);
    }

    /** Slots per row of one block. */
    static constexpr size_t
    columnsOf(size_t block)
    {
        return block < energyBlock    ? numStallClasses
               : block == energyBlock ? numEnergyEventKinds
                                      : 1;
    }

    /**
     * Add @p amount to one slot; rows outside the block are dropped.
     * Defined inline below in traced builds. NEUROCUBE_TRACE=OFF
     * builds define it out of line (counters.cc), so a publish site
     * that survives the compile-out shows as an undefined reference
     * to this registry (scripts/check.sh greps for one).
     */
    void add(size_t block, unsigned row, size_t column,
             uint64_t amount);

    /** Index of (block, row, column) in the table. */
    size_t
    slot(size_t block, unsigned row, size_t column) const
    {
        return blocks_[block].base + row * columnsOf(block) + column;
    }

    /** Give every block its base and zero a table that fits them. */
    void layout();

    /** One column of a block as a vector over its first @p rows. */
    std::vector<uint64_t> column(const CounterSnapshot &snapshot,
                                 size_t block, size_t column,
                                 unsigned rows) const;

    bool metrics_ = false;
    bool energy_ = false;
    bool spatial_ = false;
    SpatialTopology topology_;
    std::array<Block, numBlocks> blocks_{};
    std::vector<uint64_t> slots_;
    const std::vector<uint64_t> *nodeLateral_ = nullptr;
    const std::vector<uint64_t> *nodeLocal_ = nullptr;
};

#if NEUROCUBE_TRACE_ENABLED
inline void
CounterRegistry::add(size_t block, unsigned row, size_t column,
                     uint64_t amount)
{
    if (row < blocks_[block].rows)
        slots_[slot(block, row, column)] += amount;
}
#endif

} // namespace neurocube

#endif // NEUROCUBE_TRACE_COUNTERS_HH
