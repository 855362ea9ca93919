#include "trace/counters.hh"

#include <algorithm>
#include <iterator>

namespace neurocube
{

CounterSnapshot
CounterSnapshot::delta(const CounterSnapshot &before) const
{
    CounterSnapshot d;
    d.slots.resize(slots.size());
    for (size_t i = 0; i < slots.size(); ++i) {
        d.slots[i] =
            slots[i] - (i < before.slots.size() ? before.slots[i] : 0);
    }
    return d;
}

void
CounterRegistry::configure(const TraceTopology &topology,
                           const TraceConfig &config)
{
    metrics_ = config.metrics;
    energy_ = config.energy;
    spatial_ = config.spatial;
    topology_.numNodes = topology.numRouters;
    topology_.numVaults = topology.numVaults;
    topology_.numPes = topology.numPes;
    topology_.vaultNode = topology.vaultNode;

    // PNG instances publish their node index (the mesh node the
    // channel attaches to), so they are sized like the node-indexed
    // components; vault channels publish the channel index.
    const unsigned stall_rows[] = {0, topology.numRouters,
                                   topology.numPes, topology.numRouters,
                                   topology.numVaults};
    static_assert(std::size(stall_rows) == energyBlock);
    for (size_t c = 0; c < energyBlock; ++c)
        blocks_[c].rows = metrics_ ? stall_rows[c] : 0;

    // One node-indexed row space covers every energy publisher (PEs,
    // routers, PNGs, and vault channels all carry their mesh-node or
    // channel index).
    blocks_[energyBlock].rows =
        energy_ || spatial_ ? std::max({topology.numRouters,
                                        topology.numPes,
                                        topology.numVaults})
                            : 0;

    auto size = [&](SpatialCounter counter, unsigned rows) {
        blocks_[spatialBlock(counter)].rows = spatial_ ? rows : 0;
    };
    size(SpatialCounter::VaultQueue, topology.numVaults);
    size(SpatialCounter::NodeLateral, topology.numRouters);
    size(SpatialCounter::NodeLocal, topology.numRouters);
    layout();
}

void
CounterRegistry::configureFabric(
    unsigned mesh_width, std::vector<SpatialLink> links,
    const std::vector<uint64_t> *node_lateral,
    const std::vector<uint64_t> *node_local)
{
    topology_.meshWidth = mesh_width;
    topology_.links = std::move(links);
    nodeLateral_ = node_lateral;
    nodeLocal_ = node_local;
    const unsigned rows =
        spatial_ ? unsigned(topology_.links.size()) : 0;
    blocks_[spatialBlock(SpatialCounter::LinkFlit)].rows = rows;
    blocks_[spatialBlock(SpatialCounter::LinkStall)].rows = rows;
    blocks_[spatialBlock(SpatialCounter::LinkOccupancy)].rows = rows;
    layout();
}

void
CounterRegistry::layout()
{
    size_t base = 0;
    for (size_t b = 0; b < numBlocks; ++b) {
        blocks_[b].base = base;
        base += blocks_[b].rows * columnsOf(b);
    }
    slots_.assign(base, 0);
}

#if !NEUROCUBE_TRACE_ENABLED
void
CounterRegistry::add(size_t block, unsigned row, size_t column,
                     uint64_t amount)
{
    if (row < blocks_[block].rows)
        slots_[slot(block, row, column)] += amount;
}
#endif

CounterSnapshot
CounterRegistry::snapshot() const
{
    CounterSnapshot snap{slots_};
    // The fabric counts per-node injections for its own statistics;
    // folding them in here lets deltas and lane filters treat them
    // like every other counter without counting them twice.
    auto fold = [&](SpatialCounter counter,
                    const std::vector<uint64_t> *counts) {
        const size_t block = spatialBlock(counter);
        if (counts == nullptr)
            return;
        const unsigned rows = std::min(blocks_[block].rows,
                                       unsigned(counts->size()));
        for (unsigned node = 0; node < rows; ++node)
            snap.slots[slot(block, node, 0)] = (*counts)[node];
    };
    fold(SpatialCounter::NodeLateral, nodeLateral_);
    fold(SpatialCounter::NodeLocal, nodeLocal_);
    return snap;
}

void
CounterRegistry::reset()
{
    std::fill(slots_.begin(), slots_.end(), 0);
}

CounterSnapshot
CounterRegistry::onNodes(const CounterSnapshot &snapshot,
                         const std::vector<unsigned> &nodes) const
{
    std::vector<bool> in(topology_.numNodes, false);
    for (unsigned node : nodes) {
        if (node < in.size())
            in[node] = true;
    }
    auto selected = [&in](unsigned node) {
        return node < in.size() && in[node];
    };
    auto vaultSelected = [&](unsigned vault) {
        return selected(vault < topology_.vaultNode.size()
                            ? topology_.vaultNode[vault]
                            : vault);
    };
    auto linkSelected = [&](unsigned link) {
        return selected(topology_.links[link].src)
            && selected(topology_.links[link].dst);
    };

    CounterSnapshot out = snapshot;
    for (size_t b = 0; b < numBlocks; ++b) {
        const bool vault_rows =
            b == size_t(TraceComponent::Vault)
            || b == spatialBlock(SpatialCounter::VaultQueue);
        const bool link_rows =
            b >= spatialBlock(SpatialCounter::LinkFlit)
            && b <= spatialBlock(SpatialCounter::LinkOccupancy);
        for (unsigned row = 0; row < blocks_[b].rows; ++row) {
            const bool keep = link_rows    ? linkSelected(row)
                              : vault_rows ? vaultSelected(row)
                                           : selected(row);
            if (keep)
                continue;
            for (size_t col = 0; col < columnsOf(b); ++col)
                out.slots[slot(b, row, col)] = 0;
        }
    }
    return out;
}

StallBreakdown
CounterRegistry::stalls(const CounterSnapshot &snapshot,
                        TraceComponent component,
                        unsigned instance) const
{
    StallBreakdown out;
    const size_t block = size_t(component);
    if (instance >= blocks_[block].rows)
        return out;
    for (size_t s = 0; s < numStallClasses; ++s)
        out.ticks[s] = snapshot.slots[slot(block, instance, s)];
    return out;
}

StallTotals
CounterRegistry::stallTotals(const CounterSnapshot &snapshot) const
{
    StallTotals totals{};
    for (size_t c = 0; c < energyBlock; ++c) {
        for (unsigned row = 0; row < blocks_[c].rows; ++row)
            totals[c] += stalls(snapshot, TraceComponent(c), row);
    }
    return totals;
}

EnergyCounts
CounterRegistry::energyCounts(const CounterSnapshot &snapshot) const
{
    EnergyCounts total;
    total.valid = energy_;
    if (!energy_)
        return total;
    for (unsigned row = 0; row < blocks_[energyBlock].rows; ++row) {
        for (size_t k = 0; k < numEnergyEventKinds; ++k)
            total.n[k] += snapshot.slots[slot(energyBlock, row, k)];
    }
    return total;
}

std::vector<uint64_t>
CounterRegistry::column(const CounterSnapshot &snapshot, size_t block,
                        size_t column, unsigned rows) const
{
    std::vector<uint64_t> out(rows, 0);
    for (unsigned row = 0; row < std::min(rows, blocks_[block].rows);
         ++row)
        out[row] = snapshot.slots[slot(block, row, column)];
    return out;
}

SpatialSnapshot
CounterRegistry::spatialSnapshot(const CounterSnapshot &snapshot) const
{
    SpatialSnapshot out;
    if (!spatial_)
        return out;
    auto counter = [&](SpatialCounter c) {
        const size_t block = spatialBlock(c);
        return column(snapshot, block, 0, blocks_[block].rows);
    };
    out.linkFlits = counter(SpatialCounter::LinkFlit);
    out.linkStalls = counter(SpatialCounter::LinkStall);
    out.linkOccupancy = counter(SpatialCounter::LinkOccupancy);
    out.vaultQueueTicks = counter(SpatialCounter::VaultQueue);
    out.nodeLateral = counter(SpatialCounter::NodeLateral);
    out.nodeLocal = counter(SpatialCounter::NodeLocal);
    out.peMacOps = column(snapshot, energyBlock,
                          size_t(EnergyEventKind::MacOp),
                          topology_.numPes);
    out.vaultBytes = column(snapshot, energyBlock,
                            size_t(EnergyEventKind::DramBit),
                            topology_.numVaults);
    for (uint64_t &bytes : out.vaultBytes)
        bytes /= 8;
    return out;
}

} // namespace neurocube
