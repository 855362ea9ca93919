/**
 * @file
 * Unit tests for the router and the NoC fabric.
 */

#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hh"
#include "noc/fabric.hh"
#include "noc/packet.hh"
#include "noc/packet_ring.hh"
#include "noc/router.hh"

namespace neurocube
{
namespace
{

Packet
operandTo(uint16_t dst, MacId mac = 0, OpId op = 0)
{
    Packet p;
    p.kind = PacketKind::State;
    p.dst = dst;
    p.mac = mac;
    p.opId = op;
    return p;
}

TEST(Packet, HardwareOpIdWraps)
{
    Packet p;
    p.opId = 300;
    EXPECT_EQ(p.hwOpId(), 44u);
    p.opId = 255;
    EXPECT_EQ(p.hwOpId(), 255u);
    EXPECT_EQ(Packet::bits, 36u);
}

class FabricTest : public ::testing::Test
{
  protected:
    NocFabric::Config
    meshConfig()
    {
        NocFabric::Config c;
        c.topology = NocTopology::Mesh2D;
        c.numNodes = 16;
        return c;
    }

    void
    build(const NocFabric::Config &c)
    {
        fabric_ = std::make_unique<NocFabric>(c, &root_, Probe{});
    }

    /** Tick until routers drain or limit; returns ticks used. */
    Tick
    drain(Tick limit = 1000)
    {
        Tick t = 0;
        do {
            fabric_->tick(now_ + t++);
        } while (t < limit
                 && !fabric_->routersIdle(fabric_->allNodes()));
        now_ += t;
        return t;
    }

    StatGroup root_{nullptr, "test"};
    std::unique_ptr<NocFabric> fabric_;
    Tick now_ = 0;
};

TEST_F(FabricTest, LocalDeliveryMemToPe)
{
    build(meshConfig());
    fabric_->injectFromMem(5, operandTo(5), now_);
    drain();
    ASSERT_EQ(fabric_->peDelivery(5).size(), 1u);
    EXPECT_EQ(fabric_->localPackets(), 1u);
    EXPECT_EQ(fabric_->lateralPackets(), 0u);
}

TEST_F(FabricTest, LateralDeliveryCrossesMesh)
{
    build(meshConfig());
    // Node 0 (corner) to node 15 (opposite corner): 6 hops.
    fabric_->injectFromMem(0, operandTo(15), now_);
    Tick t = drain();
    ASSERT_EQ(fabric_->peDelivery(15).size(), 1u);
    EXPECT_EQ(fabric_->lateralPackets(), 1u);
    EXPECT_GE(t, 6u);
}

TEST_F(FabricTest, AllPairsRoute)
{
    build(meshConfig());
    for (uint16_t src = 0; src < 16; ++src) {
        for (uint16_t dst = 0; dst < 16; ++dst) {
            fabric_->injectFromMem(src, operandTo(dst), now_);
            drain();
            ASSERT_EQ(fabric_->peDelivery(dst).size(), 1u)
                << "src " << src << " dst " << dst;
            fabric_->peDelivery(dst).clear();
        }
    }
}

TEST_F(FabricTest, WriteBackRoutesToMemPort)
{
    build(meshConfig());
    Packet wb;
    wb.kind = PacketKind::WriteBack;
    wb.dst = 3;
    wb.dstIsMem = true;
    fabric_->injectFromPe(12, wb, now_);
    drain();
    ASSERT_EQ(fabric_->memDelivery(3).size(), 1u);
    EXPECT_EQ(fabric_->memDelivery(3).front().kind,
              PacketKind::WriteBack);
}

TEST_F(FabricTest, FullyConnectedSingleHop)
{
    NocFabric::Config c;
    c.topology = NocTopology::FullyConnected;
    c.numNodes = 16;
    build(c);
    fabric_->injectFromMem(0, operandTo(15), now_);
    Tick t = drain();
    ASSERT_EQ(fabric_->peDelivery(15).size(), 1u);
    // Direct channel: at most a couple of router traversals.
    EXPECT_LE(t, 4u);
}

TEST_F(FabricTest, FullyConnectedAllPairs)
{
    NocFabric::Config c;
    c.topology = NocTopology::FullyConnected;
    c.numNodes = 16;
    build(c);
    for (uint16_t src = 0; src < 16; ++src) {
        for (uint16_t dst = 0; dst < 16; ++dst) {
            fabric_->injectFromMem(src, operandTo(dst), now_);
            drain();
            ASSERT_EQ(fabric_->peDelivery(dst).size(), 1u)
                << "src " << src << " dst " << dst;
            fabric_->peDelivery(dst).clear();
        }
    }
}

TEST_F(FabricTest, BackpressureLimitsInjection)
{
    NocFabric::Config c = meshConfig();
    c.deliveryDepth = 4;
    build(c);
    // Fill a PE's delivery queue and never drain it; injection space
    // must eventually run out (buffers + delivery queue are finite).
    unsigned injected = 0;
    for (Tick t = 0; t < 200; ++t) {
        while (fabric_->memInjectSpace(2) > 0 && injected < 1000) {
            fabric_->injectFromMem(2, operandTo(2), now_);
            ++injected;
        }
        fabric_->tick(now_++);
    }
    // 4 delivery + 16 in + 16 out FIFO slots; allow generous slack
    // but far below the 1000 offered.
    EXPECT_LT(injected, 100u);
    EXPECT_GE(injected, 4u);
}

TEST_F(FabricTest, LatencyAccounted)
{
    build(meshConfig());
    fabric_->injectFromMem(0, operandTo(15), now_);
    drain();
    EXPECT_GE(fabric_->meanLatency(), 6.0);
    EXPECT_EQ(fabric_->ejectedPackets(), 1u);
}

TEST_F(FabricTest, LateralFraction)
{
    build(meshConfig());
    fabric_->injectFromMem(0, operandTo(0), now_);
    fabric_->injectFromMem(0, operandTo(1), now_);
    drain();
    fabric_->peDelivery(0).clear();
    fabric_->peDelivery(1).clear();
    EXPECT_DOUBLE_EQ(fabric_->lateralFraction(), 0.5);
}

TEST(Router, RotatingPriorityIsFair)
{
    // Two inputs contending for one output should share it roughly
    // evenly thanks to the rotating daisy chain.
    Router::Config rc;
    rc.numPorts = 3;
    rc.bufferDepth = 16;
    rc.numNodes = 1;
    rc.portWidth = {1, 1, 1};
    StatGroup root(nullptr, "t");
    Router router(rc, &root, "r", 0, Probe{});
    router.setRoute(routeIndex(0, false, 1), 2);

    Packet p = operandTo(0);
    for (int cycle = 0; cycle < 100; ++cycle) {
        for (unsigned in = 0; in < 2; ++in) {
            if (router.inputSpace(in) > 0)
                router.pushInput(in, p);
        }
        router.tick();
        auto &out = router.outputQueue(2);
        while (!out.empty())
            out.pop_front();
    }
    // The crossbar moves one packet per output per cycle; both
    // inputs stay saturated, so the sum is ~100 and the split fair.
    EXPECT_EQ(router.packetsSwitched(), 100u);
}

TEST(Router, RotatingArbiterBoundsWaitingTime)
{
    // Starvation freedom of the rotating daisy chain (Section III-C):
    // with all six input ports of a mesh-sized router saturated and
    // contending for one output, every input must win within any six
    // consecutive grants (the chain visits each port once per
    // rotation period, so the worst-case wait is one full rotation).
    constexpr unsigned Inputs = 6;
    Router::Config rc;
    rc.numPorts = Inputs;
    rc.bufferDepth = 4;
    rc.numNodes = 1;
    rc.portWidth.assign(Inputs, 1);
    StatGroup root(nullptr, "t");
    Router router(rc, &root, "r", 0, Probe{});
    router.setRoute(routeIndex(0, false, 1), Inputs - 1);

    std::vector<uint16_t> grants;
    for (int cycle = 0; cycle < 120; ++cycle) {
        for (unsigned in = 0; in < Inputs; ++in) {
            // Tag each packet with its input port via the src field.
            Packet p = operandTo(0);
            p.src = VaultId(in);
            if (router.inputSpace(in) > 0)
                router.pushInput(in, p);
        }
        router.tick();
        auto &out = router.outputQueue(Inputs - 1);
        while (!out.empty()) {
            grants.push_back(uint16_t(out.front().src));
            out.pop_front();
        }
    }

    ASSERT_GE(grants.size(), 2 * Inputs);
    for (size_t start = 0; start + Inputs <= grants.size(); ++start) {
        unsigned seen = 0;
        for (size_t i = start; i < start + Inputs; ++i)
            seen |= 1u << grants[i];
        EXPECT_EQ(seen, (1u << Inputs) - 1)
            << "input starved in the grant window at " << start;
    }
}

TEST(Router, PortWidthsPadToOnePacketPerCycle)
{
    // Ports past the configured width list are one packet wide; a
    // two-wide input drains two packets per cycle into a two-wide
    // output.
    Router::Config rc;
    rc.numPorts = 4;
    rc.bufferDepth = 8;
    rc.numNodes = 2;
    rc.portWidth = {2, 2};
    StatGroup root(nullptr, "t");
    Router router(rc, &root, "r", 0, Probe{});
    router.setRoute(routeIndex(0, false, 2), 1);
    router.setRoute(routeIndex(1, false, 2), 3);
    EXPECT_EQ(router.portWidth(0), 2u);
    EXPECT_EQ(router.portWidth(3), 1u);

    for (int i = 0; i < 4; ++i) {
        router.pushInput(0, operandTo(0));
        router.pushInput(2, operandTo(1));
    }
    router.tick();
    EXPECT_EQ(router.outputQueue(1).size(), 2u);
    EXPECT_EQ(router.outputQueue(3).size(), 1u);
    EXPECT_EQ(router.bufferedInputs(), 5u);
}

/** Assert that a ring holds exactly the reference's elements. */
void
expectSameContents(const Ring<int> &ring, const std::deque<int> &ref)
{
    ASSERT_EQ(ring.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(ring[i], ref[i]) << "element " << i;
    if (!ref.empty()) {
        EXPECT_EQ(ring.front(), ref.front());
    }
}

/** Apply erase(idx, n) to the ring and the same range to the ref. */
void
eraseBoth(Ring<int> &ring, std::deque<int> &ref, size_t idx, size_t n)
{
    ring.erase(idx, n);
    ref.erase(ref.begin() + long(idx), ref.begin() + long(idx + n));
}

TEST(Ring, EraseMatchesDequeAtEveryPositionAndWrap)
{
    // Every (idx, n) range of a 7-element ring of capacity 8, with
    // the head at every offset, so front, middle and back erases are
    // each tried both inside the buffer and across the wrap point.
    constexpr size_t Cap = 8;
    constexpr size_t Len = 7;
    for (size_t head = 0; head < Cap; ++head) {
        for (size_t idx = 0; idx <= Len; ++idx) {
            for (size_t n = 0; idx + n <= Len; ++n) {
                Ring<int> ring(Cap);
                for (size_t i = 0; i < head; ++i) {
                    ring.push_back(-1);
                    ring.pop_front();
                }
                std::deque<int> ref;
                for (size_t i = 0; i < Len; ++i) {
                    ring.push_back(int(i));
                    ref.push_back(int(i));
                }
                eraseBoth(ring, ref, idx, n);
                expectSameContents(ring, ref);
                // The ring stays a working FIFO after the erase.
                ring.push_back(100);
                ref.push_back(100);
                ring.pop_front();
                ref.pop_front();
                expectSameContents(ring, ref);
            }
        }
    }
}

TEST(Ring, EraseAcrossGrowMatchesDeque)
{
    // Start wrapped in the smallest buffer, overflow it twice so it
    // relinearizes, then erase at the front, middle and back.
    Ring<int> ring(4);
    std::deque<int> ref;
    ring.push_back(-1);
    ring.push_back(-1);
    ring.pop_front();
    ring.pop_front();
    for (int i = 0; i < 13; ++i) {
        ring.push_back(i);
        ref.push_back(i);
    }
    expectSameContents(ring, ref);
    eraseBoth(ring, ref, 0, 2);
    expectSameContents(ring, ref);
    eraseBoth(ring, ref, 4, 3);
    expectSameContents(ring, ref);
    eraseBoth(ring, ref, ref.size() - 2, 2);
    expectSameContents(ring, ref);
    for (int i = 13; i < 40; ++i) {
        ring.push_back(i);
        ref.push_back(i);
    }
    eraseBoth(ring, ref, 10, 20);
    expectSameContents(ring, ref);
}

TEST(Ring, RandomOperationsMatchDeque)
{
    Rng rng(7);
    Ring<int> ring(8);
    std::deque<int> ref;
    int next = 0;
    for (int step = 0; step < 20000; ++step) {
        uint64_t op = rng.below(4);
        if (op <= 1 || ref.empty()) {
            ring.push_back(next);
            ref.push_back(next);
            ++next;
        } else if (op == 2) {
            ring.pop_front();
            ref.pop_front();
        } else {
            size_t idx = size_t(rng.below(ref.size()));
            size_t n = size_t(rng.below(ref.size() - idx + 1));
            eraseBoth(ring, ref, idx, n);
        }
        ASSERT_EQ(ring.size(), ref.size()) << "step " << step;
    }
    expectSameContents(ring, ref);
}

TEST(Router, CreditViolationAsserts)
{
    Router::Config rc;
    rc.numPorts = 2;
    rc.bufferDepth = 2;
    rc.numNodes = 1;
    StatGroup root(nullptr, "t");
    Router router(rc, &root, "r", 0, Probe{});
    Packet p = operandTo(0);
    router.pushInput(0, p);
    router.pushInput(0, p);
    EXPECT_EQ(router.inputSpace(0), 0u);
    EXPECT_DEATH(router.pushInput(0, p), "credit violation");
}

} // namespace
} // namespace neurocube
