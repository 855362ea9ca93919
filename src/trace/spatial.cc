#include "trace/spatial.hh"

#include <sstream>

namespace neurocube
{

namespace
{

/** Element-wise a - b (b empty = zeros; sizes otherwise match). */
std::vector<uint64_t>
subtract(const std::vector<uint64_t> &a,
         const std::vector<uint64_t> &b)
{
    std::vector<uint64_t> d(a.size(), 0);
    for (size_t i = 0; i < a.size(); ++i)
        d[i] = a[i] - (i < b.size() ? b[i] : 0);
    return d;
}

/** Element-wise a += b (a grows to fit). */
void
accumulate(std::vector<uint64_t> &a, const std::vector<uint64_t> &b)
{
    if (a.size() < b.size())
        a.resize(b.size(), 0);
    for (size_t i = 0; i < b.size(); ++i)
        a[i] += b[i];
}

uint64_t
sumOf(const std::vector<uint64_t> &v)
{
    uint64_t total = 0;
    for (uint64_t x : v)
        total += x;
    return total;
}

void
appendArray(std::ostringstream &os, const char *name,
            const std::vector<uint64_t> &v)
{
    os << "\"" << name << "\": [";
    for (size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << v[i];
    os << "]";
}

} // namespace

SpatialSnapshot
SpatialSnapshot::delta(const SpatialSnapshot &before) const
{
    SpatialSnapshot d;
    d.linkFlits = subtract(linkFlits, before.linkFlits);
    d.linkStalls = subtract(linkStalls, before.linkStalls);
    d.linkOccupancy = subtract(linkOccupancy, before.linkOccupancy);
    d.vaultBytes = subtract(vaultBytes, before.vaultBytes);
    d.vaultQueueTicks =
        subtract(vaultQueueTicks, before.vaultQueueTicks);
    d.peMacOps = subtract(peMacOps, before.peMacOps);
    d.nodeLateral = subtract(nodeLateral, before.nodeLateral);
    d.nodeLocal = subtract(nodeLocal, before.nodeLocal);
    return d;
}

SpatialSnapshot &
SpatialSnapshot::operator+=(const SpatialSnapshot &other)
{
    accumulate(linkFlits, other.linkFlits);
    accumulate(linkStalls, other.linkStalls);
    accumulate(linkOccupancy, other.linkOccupancy);
    accumulate(vaultBytes, other.vaultBytes);
    accumulate(vaultQueueTicks, other.vaultQueueTicks);
    accumulate(peMacOps, other.peMacOps);
    accumulate(nodeLateral, other.nodeLateral);
    accumulate(nodeLocal, other.nodeLocal);
    return *this;
}

uint64_t
SpatialSnapshot::totalLinkFlits() const
{
    return sumOf(linkFlits);
}

uint64_t
SpatialSnapshot::totalVaultBytes() const
{
    return sumOf(vaultBytes);
}

uint64_t
SpatialSnapshot::totalPeMacOps() const
{
    return sumOf(peMacOps);
}

void
SpatialRegistry::configure(unsigned nodes, unsigned vaults,
                           unsigned pes,
                           std::vector<uint16_t> vault_node)
{
    topology_.numNodes = nodes;
    topology_.numVaults = vaults;
    topology_.numPes = pes;
    topology_.vaultNode = std::move(vault_node);
    state_.vaultBytes.assign(vaults, 0);
    state_.vaultQueueTicks.assign(vaults, 0);
    state_.peMacOps.assign(pes, 0);
}

void
SpatialRegistry::configureLinks(unsigned mesh_width,
                                std::vector<SpatialLink> links)
{
    topology_.meshWidth = mesh_width;
    topology_.links = std::move(links);
    state_.linkFlits.assign(topology_.links.size(), 0);
    state_.linkStalls.assign(topology_.links.size(), 0);
    state_.linkOccupancy.assign(topology_.links.size(), 0);
}

void
SpatialRegistry::reset()
{
    auto zero = [](std::vector<uint64_t> &v) {
        v.assign(v.size(), 0);
    };
    zero(state_.linkFlits);
    zero(state_.linkStalls);
    zero(state_.linkOccupancy);
    zero(state_.vaultBytes);
    zero(state_.vaultQueueTicks);
    zero(state_.peMacOps);
}

std::string
spatialSnapshotJson(const SpatialTopology &topology,
                    const SpatialSnapshot &snapshot, uint64_t cycles)
{
    std::ostringstream os;
    os << "{\"nodes\": " << topology.numNodes
       << ", \"mesh_width\": " << topology.meshWidth
       << ", \"vaults\": " << topology.numVaults
       << ", \"pes\": " << topology.numPes
       << ", \"cycles\": " << cycles;
    os << ", \"vault_node\": [";
    for (size_t i = 0; i < topology.vaultNode.size(); ++i)
        os << (i ? ", " : "") << topology.vaultNode[i];
    os << "]";

    os << ", \"links\": [";
    const size_t links = topology.links.size();
    for (size_t i = 0; i < links; ++i) {
        auto at = [&](const std::vector<uint64_t> &v) {
            return i < v.size() ? v[i] : 0;
        };
        os << (i ? ", " : "") << "{\"src\": " << topology.links[i].src
           << ", \"dst\": " << topology.links[i].dst
           << ", \"flits\": " << at(snapshot.linkFlits)
           << ", \"credit_stalls\": " << at(snapshot.linkStalls)
           << ", \"occupancy_sum\": " << at(snapshot.linkOccupancy)
           << "}";
    }
    os << "]";

    os << ", ";
    appendArray(os, "vault_bytes", snapshot.vaultBytes);
    os << ", ";
    appendArray(os, "vault_queue_ticks", snapshot.vaultQueueTicks);
    os << ", ";
    appendArray(os, "pe_mac_ops", snapshot.peMacOps);
    os << ", ";
    appendArray(os, "node_lateral", snapshot.nodeLateral);
    os << ", ";
    appendArray(os, "node_local", snapshot.nodeLocal);

    os << ", \"link_flit_sum\": " << snapshot.totalLinkFlits()
       << ", \"vault_byte_sum\": " << snapshot.totalVaultBytes()
       << ", \"pe_mac_sum\": " << snapshot.totalPeMacOps() << "}";
    return os.str();
}

SpatialSnapshot
filterSnapshotToNodes(const SpatialTopology &topology,
                      const SpatialSnapshot &snapshot,
                      const std::vector<unsigned> &nodes)
{
    auto selected = [&nodes](unsigned node) {
        for (unsigned n : nodes) {
            if (n == node)
                return true;
        }
        return false;
    };
    auto by_index = [&selected](const std::vector<uint64_t> &v) {
        std::vector<uint64_t> out(v.size(), 0);
        for (size_t i = 0; i < v.size(); ++i) {
            if (selected(unsigned(i)))
                out[i] = v[i];
        }
        return out;
    };
    auto by_link = [&](const std::vector<uint64_t> &v) {
        std::vector<uint64_t> out(v.size(), 0);
        for (size_t i = 0; i < v.size(); ++i) {
            if (i < topology.links.size()
                && selected(topology.links[i].src)
                && selected(topology.links[i].dst)) {
                out[i] = v[i];
            }
        }
        return out;
    };
    auto by_vault = [&](const std::vector<uint64_t> &v) {
        std::vector<uint64_t> out(v.size(), 0);
        for (size_t i = 0; i < v.size(); ++i) {
            unsigned host = i < topology.vaultNode.size()
                                ? topology.vaultNode[i]
                                : unsigned(i);
            if (selected(host))
                out[i] = v[i];
        }
        return out;
    };
    SpatialSnapshot f;
    f.linkFlits = by_link(snapshot.linkFlits);
    f.linkStalls = by_link(snapshot.linkStalls);
    f.linkOccupancy = by_link(snapshot.linkOccupancy);
    f.vaultBytes = by_vault(snapshot.vaultBytes);
    f.vaultQueueTicks = by_vault(snapshot.vaultQueueTicks);
    f.peMacOps = by_index(snapshot.peMacOps);
    f.nodeLateral = by_index(snapshot.nodeLateral);
    f.nodeLocal = by_index(snapshot.nodeLocal);
    return f;
}

} // namespace neurocube
