/**
 * @file
 * NoC fabric: routers wired into a topology, plus endpoint queues.
 *
 * Two topologies from the paper are provided:
 *  - 2D mesh with deterministic X-Y routing (Fig. 6a), the baseline
 *    Neurocube NoC;
 *  - fully connected, where every router has a direct channel to
 *    every other router (Fig. 6b, 17 in/out channels per router for
 *    16 nodes), used in the Section VI-C comparison.
 *
 * Credit-based flow control is modelled by space checks against the
 * downstream FIFO a link feeds (zero-latency credit return). Each
 * node hosts one PE endpoint and one memory (PNG) endpoint.
 */

#ifndef NEUROCUBE_NOC_FABRIC_HH
#define NEUROCUBE_NOC_FABRIC_HH

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "common/wake.hh"
#include "noc/packet.hh"
#include "noc/router.hh"

namespace neurocube
{

/** Which paper topology to instantiate. */
enum class NocTopology
{
    Mesh2D,
    FullyConnected,
};

/** Routers wired into a topology with PE/memory endpoints. */
class NocFabric
{
  public:
    /** Structural parameters of the fabric. */
    struct Config
    {
        NocTopology topology = NocTopology::Mesh2D;
        /** Number of nodes; must be a perfect square for the mesh. */
        unsigned numNodes = 16;
        /** Router FIFO depth (paper: 16). */
        unsigned bufferDepth = 16;
        /** Packets per cycle on PE/memory ports (2: one DRAM word). */
        unsigned localPortWidth = 2;
        /** Packets per cycle on router-to-router channels. */
        unsigned linkWidth = 1;
        /** Capacity of each endpoint delivery queue. */
        unsigned deliveryDepth = 32;
    };

    /**
     * @param config structural parameters
     * @param parent stat group parent
     * @param probe telemetry sinks, shared with every router
     *        (Probe{} = publish nothing)
     */
    NocFabric(const Config &config, StatGroup *parent, Probe probe);

    /** Space available for PNG injection at node v. */
    unsigned
    memInjectSpace(VaultId v) const
    {
        return routers_[v]->inputSpace(memPort_[v]);
    }

    /** Inject a packet from the PNG at node v. */
    void injectFromMem(VaultId v, const Packet &packet, Tick now);

    /** Space available for PE injection at node p. */
    unsigned
    peInjectSpace(PeId p) const
    {
        return routers_[p]->inputSpace(pePort_[p]);
    }

    /** Inject a packet from the PE at node p. */
    void injectFromPe(PeId p, const Packet &packet, Tick now);

    /** Packets delivered to PE p; the PE pops from the front. */
    PacketRing &peDelivery(PeId p) { return peDelivery_[p]; }
    /** Packets delivered to the PNG/memory port at node v. */
    PacketRing &memDelivery(VaultId v)
    {
        return memDelivery_[v];
    }

    /**
     * A structural slice of the fabric: some nodes' routers and the
     * links internal to them. Every tick, skip and idle test runs over
     * a slice; the whole machine is the slice of every node and link
     * (allNodes()), a batch lane the slice of its vault group. Ticking
     * a slice is equivalent to ticking the whole fabric as long as no
     * packet crosses its boundary (routers, links and ejections are
     * mutually independent within a cycle, so restricting the
     * iteration to one slice cannot reorder anything observable).
     */
    struct NodeSlice
    {
        /** Slice nodes, ascending (matches whole-fabric tick order). */
        std::vector<unsigned> nodes;
        /** Indices into links_ of the slice-internal links. */
        std::vector<size_t> links;
    };

    /** The slice over @p nodes (any order, no duplicates). */
    NodeSlice slice(std::vector<unsigned> nodes) const;

    /** The slice of every node and every link. */
    const NodeSlice &allNodes() const { return all_; }

    /**
     * Advance one cycle over a slice: switch its routers, move its
     * links, then eject at its nodes.
     */
    void tick(const NodeSlice &slice, Tick now);

    /** Advance the whole fabric one cycle (the Legacy body). */
    void tick(Tick now) { tick(all_, now); }

    /**
     * Account @p n cycles in bulk for a slice whose routers are all
     * idle. With every router empty a slice is quiescent until an
     * injection (delivery queues drain on the consumer's clock, not
     * this one), so the skipped stretch only ages router stats.
     */
    void skipTicks(const NodeSlice &slice, uint64_t n);

    /**
     * True when no packet is inside one of the slice's routers
     * (packets may still wait in endpoint delivery queues).
     */
    bool routersIdle(const NodeSlice &slice) const;

    /** Install the wake sink of one node (nullptr = detach). Ejections
     *  into its delivery queues report onEject(node, to_mem) and
     *  injections report onInject(node, from_mem). */
    void
    setNodeWakeSink(unsigned node, WakeSink *sink)
    {
        nodeSink_[node] = sink;
    }

    /** True when no packet is anywhere in the fabric. */
    bool idle() const;

    /**
     * True when one node holds no packets: its router FIFOs and both
     * endpoint delivery queues are empty. Batched execution uses this
     * for lane-tagged completion (a lane is quiescent when every one
     * of its nodes is).
     */
    bool nodeQuiescent(unsigned node) const;

    /**
     * Install a node -> lane assignment. While set, every injection
     * and every link traversal is checked against it: a packet whose
     * source, destination or traversed router disagree on the lane
     * bumps crossLanePackets(). Pass an empty vector to remove.
     */
    void setLaneMap(std::vector<uint16_t> lane_of);

    /** Packets that violated the lane map (0 when lanes isolate). */
    uint64_t
    crossLanePackets() const
    {
        return sumOf(&NodeCounters::crossLane);
    }

    /** Structural parameters. */
    const Config &config() const { return config_; }

    /**
     * Packets whose source and destination node differ. Derived by
     * summing the per-node injection counters — the single
     * accounting path (the old aggregate Stat duplicated them).
     */
    uint64_t
    lateralPackets() const
    {
        uint64_t total = 0;
        for (uint64_t n : nodeLateral_)
            total += n;
        return total;
    }
    /** Packets delivered to a same-node destination. */
    uint64_t
    localPackets() const
    {
        uint64_t total = 0;
        for (uint64_t n : nodeLocal_)
            total += n;
        return total;
    }
    /** Total packets ejected at endpoints. */
    uint64_t
    ejectedPackets() const
    {
        return sumOf(&NodeCounters::ejected);
    }
    /** Mean end-to-end packet latency in ticks. */
    double
    meanLatency() const
    {
        uint64_t n = ejectedPackets();
        return n ? double(sumOf(&NodeCounters::latencySum)) / double(n)
                 : 0.0;
    }

    /** End-to-end packet latency distribution (ticks), merged over
     *  the per-node distributions. */
    Histogram latencyHistogram() const;

    /** Lateral packets injected at one node (per-lane accounting). */
    uint64_t
    nodeLateralPackets(unsigned node) const
    {
        return nodeLateral_[node];
    }
    /** Node-local packets injected at one node. */
    uint64_t
    nodeLocalPackets(unsigned node) const
    {
        return nodeLocal_[node];
    }

    /** Total packet transfers over router-to-router links. */
    uint64_t linkFlits() const { return sumOf(&NodeCounters::linkFlits); }

    /**
     * Rewrite the noc stat group's ejected/latencySum/linkFlits/
     * latency entries from the per-node counters. The machine calls
     * this before handing out its stat tree for a dump.
     */
    void refreshStats();

    /** Fraction of traffic that crossed between nodes. */
    double
    lateralFraction() const
    {
        uint64_t lateral = lateralPackets();
        uint64_t total = lateral + localPackets();
        return total ? double(lateral) / double(total) : 0.0;
    }

    /** Direct access to a router (tests and layout tools). */
    Router &router(unsigned node) { return *routers_[node]; }

  private:
    /** A unidirectional channel between two router ports. */
    struct Link
    {
        unsigned srcRouter;
        unsigned srcPort;
        unsigned dstRouter;
        unsigned dstPort;
        unsigned width;
        /**
         * Physical length in Manhattan grid hops on the chip floor
         * plan (mesh neighbour links are 1; fully-connected channels
         * span the grid distance between their endpoints). Scales the
         * NocLink energy per traversal, so the fully-connected
         * topology pays for its long global wires.
         */
        unsigned distance;
    };

    void buildMesh();
    void buildFullyConnected();
    void accountInjection(unsigned node, const Packet &packet);
    /** Publish link endpoints and per-node injection counters to the
     *  probe's counter table. */
    void publishSpatialTopology() const;
    /** Move packets across one link (phase 2 body). @p index is the
     *  link's ordinal in links_ (spatial counter instance). */
    void traverseLink(const Link &link, size_t index);
    /** Eject into one node's delivery queues (phase 3 body). */
    void ejectNode(unsigned node, Tick now);

    /**
     * One node's packet counters, the only store of the fabric's
     * aggregates: concurrent slice ticks touch only their own nodes'
     * entries, and the aggregate accessors sum them on demand. The
     * lateral/local injection counts live in nodeLateral_/nodeLocal_,
     * which the counter table reads directly.
     */
    struct NodeCounters
    {
        /** Packets ejected into this node's delivery queues. */
        uint64_t ejected = 0;
        uint64_t latencySum = 0;
        Histogram latency{nullptr, "latency", ""};
        /** Flits sent over links out of this node's router. */
        uint64_t linkFlits = 0;
        /** Lane-map violations injected at or entering this node. */
        uint64_t crossLane = 0;
    };

    /** Sum of one per-node counter over every node. */
    uint64_t
    sumOf(uint64_t NodeCounters::*field) const
    {
        uint64_t total = 0;
        for (const NodeCounters &c : nodeCounters_)
            total += c.*field;
        return total;
    }

    Config config_;
    Probe probe_;
    unsigned meshWidth_ = 0;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<Link> links_;
    /** Per node: output port feeding the PE endpoint. */
    std::vector<unsigned> pePort_;
    /** Per node: output port feeding the memory endpoint. */
    std::vector<unsigned> memPort_;
    std::vector<PacketRing> peDelivery_;
    std::vector<PacketRing> memDelivery_;

    /** Per node: lateral/local packets injected there. */
    std::vector<uint64_t> nodeLateral_;
    std::vector<uint64_t> nodeLocal_;
    /** Node -> lane assignment (empty = no checking). */
    std::vector<uint16_t> laneOf_;
    std::vector<NodeCounters> nodeCounters_;
    /** Every node and link (the whole-fabric tick). */
    NodeSlice all_;

    /** Per-node event-engine wake sinks (null under legacy). */
    std::vector<WakeSink *> nodeSink_;

    /** Dump mirrors of the per-node counters (see refreshStats()). */
    StatGroup statGroup_;
    Stat statEjected_;
    Stat statLatencySum_;
    Stat statLinkFlits_;
    Histogram histLatency_;
};

} // namespace neurocube

#endif // NEUROCUBE_NOC_FABRIC_HH
