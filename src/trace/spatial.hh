/**
 * @file
 * Spatial observability: per-link, per-vault, and per-PE counters.
 *
 * The stall-attribution metrics (trace/metrics.hh) and the activity
 * energy counts (trace/energy.hh) say *what* a run was bound by; this
 * layer says *where*. Every router-to-router link counts its flit
 * traversals, credit-stall cycles, and source-queue occupancy; every
 * vault channel counts its queue-depth integral. The per-vault DRAM
 * bytes and per-PE MAC operations are not counted again: they are
 * the DramBit and MacOp columns of the energy counters. All of them
 * live in the CounterRegistry (trace/counters.hh) owned by the
 * machine's TraceSession and are published through its Probe, with
 * the same costs as every other counter: one array increment while a
 * session is live, a null-check while not, and nothing at all with
 * -DNEUROCUBE_TRACE=OFF.
 *
 * The accounting is observational only: counting never alters
 * component behaviour, so enabling the spatial layer cannot change
 * simulated cycle counts or energy (tests/test_golden_cycles.cc and
 * the bench baselines assert this). Counters are bumped only at
 * action sites — a link traversal attempt, a vault-channel tick, a
 * PE flush — so ticks the event engine proves idle and skips
 * contribute exactly zero, making the counters bit-identical across
 * the Legacy and Event engines, threaded batch passes included
 * (tests/test_engine_diff.cc asserts this).
 */

#ifndef NEUROCUBE_TRACE_SPATIAL_HH
#define NEUROCUBE_TRACE_SPATIAL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace neurocube
{

/** One kind of spatially resolved activity. */
enum class SpatialCounter : uint8_t
{
    /** Packet transfers over one router-to-router link. */
    LinkFlit = 0,
    /**
     * Cycles one link wanted to move a waiting packet but the
     * downstream input FIFO had no space (credit starvation). At
     * most one per link per executed fabric cycle.
     */
    LinkStall,
    /**
     * Source output-queue depth, summed over executed fabric cycles
     * (an occupancy integral: divide by cycles for the mean queue
     * length feeding the link).
     */
    LinkOccupancy,
    /**
     * Read+write queue depth of one vault channel, summed over its
     * executed cycles (divide by cycles for mean queue depth).
     */
    VaultQueue,
    /**
     * Lateral / node-local packets injected at one mesh node. Not
     * published: the NoC fabric keeps these counts for its own
     * statistics, and CounterRegistry::snapshot() copies them in.
     */
    NodeLateral,
    NodeLocal,
    CounterCount,
};

/** One directed router-to-router channel (node endpoints). */
struct SpatialLink
{
    uint16_t src = 0;
    uint16_t dst = 0;
};

/**
 * Shape of the machine the spatial counters describe — everything a
 * consumer needs to fold flat instance indices back onto the mesh.
 * Assembled in two steps: the TraceSession publishes the node/vault/
 * PE extents (from its TraceTopology), and the NocFabric — built
 * after the session — publishes the link list and mesh width.
 */
struct SpatialTopology
{
    /** Mesh nodes (== routers == PEs in every paper configuration). */
    unsigned numNodes = 0;
    /** Mesh side length; 0 for non-mesh (fully connected) fabrics. */
    unsigned meshWidth = 0;
    /** Vault channels. */
    unsigned numVaults = 0;
    /** Processing elements. */
    unsigned numPes = 0;
    /** Directed links, in fabric construction order (== counter
     *  instance order). */
    std::vector<SpatialLink> links;
    /** Vault ordinal -> hosting mesh node (empty = identity). */
    std::vector<uint16_t> vaultNode;
};

/**
 * Spatial counters of one interval, read out of the counter table by
 * CounterRegistry::spatialSnapshot(). Link counters are indexed by
 * link ordinal (SpatialTopology::links order), vault counters by
 * channel index, PE counters by PE id, and the node injection
 * counters by mesh node.
 */
struct SpatialSnapshot
{
    std::vector<uint64_t> linkFlits;
    std::vector<uint64_t> linkStalls;
    std::vector<uint64_t> linkOccupancy;
    /** DRAM bytes per channel: the DramBit energy column / 8. */
    std::vector<uint64_t> vaultBytes;
    std::vector<uint64_t> vaultQueueTicks;
    /** MAC operations per PE: the MacOp energy column. */
    std::vector<uint64_t> peMacOps;
    /** Lateral / node-local packets injected at each node. */
    std::vector<uint64_t> nodeLateral;
    std::vector<uint64_t> nodeLocal;

    /** True when any counter vector is populated. */
    bool
    valid() const
    {
        return !linkFlits.empty() || !vaultBytes.empty()
            || !peMacOps.empty() || !nodeLateral.empty();
    }

    /** Accumulate another snapshot's counts (per-layer roll-up). */
    SpatialSnapshot &operator+=(const SpatialSnapshot &other);

    /** Sum of the per-link flit counters. */
    uint64_t totalLinkFlits() const;
    /** Sum of the per-vault byte counters. */
    uint64_t totalVaultBytes() const;
    /** Sum of the per-PE MAC counters. */
    uint64_t totalPeMacOps() const;
};

/**
 * Serialize one snapshot + topology as a JSON object (no trailing
 * newline): the mesh shape, per-link records with node endpoints,
 * and the vault/PE/node vectors as flat arrays in instance order.
 * Deterministic — fixed field order, integers only — so identical
 * runs produce byte-identical documents. Deliberately avoids the
 * "total_cycles" / "served" / "wall_ms" key names scripts/bench.sh
 * pattern-matches for its baseline gates.
 *
 * @param cycles reference cycles the counters cover (the divisor
 *        for occupancy/queue integrals); 0 when unknown
 */
std::string spatialSnapshotJson(const SpatialTopology &topology,
                                const SpatialSnapshot &snapshot,
                                uint64_t cycles = 0);

} // namespace neurocube

#endif // NEUROCUBE_TRACE_SPATIAL_HH
