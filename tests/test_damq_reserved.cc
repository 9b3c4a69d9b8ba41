/**
 * @file
 * Tests for the reserved-slot DAMQ (the 1992 follow-up to the
 * paper's hot-spot observation): admission rules, the
 * no-monopolization guarantee, Markov-layer behaviour, and
 * network-level integration.
 */

#include <gtest/gtest.h>

#include "markov/switch2x2.hh"
#include "network/fabric_sim.hh"
#include "queueing/buffer_factory.hh"
#include "queueing/damq_reserved_buffer.hh"

namespace damq {
namespace {

Packet
makePacket(PacketId id, PortId out)
{
    Packet p;
    p.id = id;
    p.outPort = out;
    p.lengthSlots = 1;
    return p;
}

TEST(DamqReserved, FactoryAndNames)
{
    EXPECT_EQ(tryBufferTypeFromString("damqr"), BufferType::DamqR);
    EXPECT_STREQ(bufferTypeName(BufferType::DamqR), "DAMQR");
    EXPECT_EQ(makeBuffer(BufferType::DamqR, 4, 8)->type(),
              BufferType::DamqR);
}

TEST(DamqReserved, OneQueueCannotMonopolizeThePool)
{
    DamqReservedBuffer buf(4, 8);
    // Queue 0 may take at most 8 - 3 = 5 slots while the other
    // three queues are empty.
    PacketId id = 0;
    while (buf.canAccept(0, 1))
        buf.push(makePacket(id++, 0));
    EXPECT_EQ(buf.queueLength(0), 5u);
    // Every other output still has its reserved slot.
    for (PortId out = 1; out < 4; ++out) {
        EXPECT_TRUE(buf.canAccept(out, 1)) << out;
        buf.push(makePacket(id++, out));
    }
    EXPECT_EQ(buf.usedSlots(), 8u);
    buf.debugValidate();
}

TEST(DamqReserved, ReservationReleasesWhenQueueBecomesBusy)
{
    DamqReservedBuffer buf(2, 4);
    // With queue 1 empty: queue 0 can use 3 of the 4 slots.
    buf.push(makePacket(1, 0));
    buf.push(makePacket(2, 0));
    buf.push(makePacket(3, 0));
    EXPECT_FALSE(buf.canAccept(0, 1));
    // Once queue 1 holds a packet its reservation is satisfied and
    // the last slot opens up for anyone.
    buf.push(makePacket(4, 1));
    EXPECT_EQ(buf.usedSlots(), 4u);
    buf.pop(0);
    EXPECT_TRUE(buf.canAccept(0, 1));
    EXPECT_TRUE(buf.canAccept(1, 1));
}

TEST(DamqReserved, BehavesLikeDamqWhenAllQueuesBusy)
{
    auto damq = makeBuffer(BufferType::Damq, 2, 6);
    auto damqr = makeBuffer(BufferType::DamqR, 2, 6);
    for (auto *buf : {damq.get(), damqr.get()}) {
        buf->push(makePacket(1, 0));
        buf->push(makePacket(2, 1));
    }
    // No queue is empty: identical admission from here on.
    for (PortId out : {0u, 0u, 1u, 1u}) {
        EXPECT_EQ(damq->canAccept(out, 1), damqr->canAccept(out, 1));
        damq->push(makePacket(9, out));
        damqr->push(makePacket(9, out));
    }
    EXPECT_FALSE(damqr->canAccept(0, 1));
}

TEST(DamqReserved, PopAndOrderSemanticsMatchDamq)
{
    DamqReservedBuffer buf(3, 6);
    buf.push(makePacket(1, 0));
    buf.push(makePacket(2, 1));
    buf.push(makePacket(3, 0));
    EXPECT_EQ(buf.pop(0).id, 1u);
    EXPECT_EQ(buf.pop(1).id, 2u);
    EXPECT_EQ(buf.pop(0).id, 3u);
    EXPECT_TRUE(buf.empty());
    buf.debugValidate();
}

TEST(DamqReserved, TooSmallCapacityIsFatal)
{
    EXPECT_EXIT(DamqReservedBuffer(4, 3),
                ::testing::ExitedWithCode(1),
                "at least one slot per output");
}

// ------------------------------------------------------------- Markov

TEST(DamqReservedMarkov, TradesBurstCapacityForAntiMonopolization)
{
    // The reservation costs a little burst capacity at moderate
    // load (slightly more discards than plain DAMQ) but pays off
    // at extreme load, where plain DAMQ lets one destination
    // monopolize the pool and idle the other output — exactly the
    // effect Section 4.2.1 describes for hot spots.  Crossover
    // sits near p ~ 0.93 for 4 slots.
    const double moderate_damq =
        analyzeDiscarding2x2(BufferType::Damq, 4, 0.75)
            .discardProbability;
    const double moderate_damqr =
        analyzeDiscarding2x2(BufferType::DamqR, 4, 0.75)
            .discardProbability;
    EXPECT_GE(moderate_damqr, moderate_damq);

    const auto extreme_damq =
        analyzeDiscarding2x2(BufferType::Damq, 4, 0.99);
    const auto extreme_damqr =
        analyzeDiscarding2x2(BufferType::DamqR, 4, 0.99);
    EXPECT_LT(extreme_damqr.discardProbability,
              extreme_damq.discardProbability);
    EXPECT_GT(extreme_damqr.throughput, extreme_damq.throughput);

    // And it never degenerates to a static partition.
    for (const double p : {0.75, 0.9, 0.99}) {
        const double damqr =
            analyzeDiscarding2x2(BufferType::DamqR, 4, p)
                .discardProbability;
        const double samq =
            analyzeDiscarding2x2(BufferType::Samq, 4, p)
                .discardProbability;
        EXPECT_LE(damqr, samq + 1e-9) << "p=" << p;
    }
}

TEST(DamqReservedMarkov, ChainIsSmallerThanPlainDamq)
{
    // The reserved slot prunes the monopolized corners of the
    // state space.
    const auto damq = Switch2x2Chain(BufferType::Damq, 4, 0.9);
    const auto damqr = Switch2x2Chain(BufferType::DamqR, 4, 0.9);
    EXPECT_LT(damqr.numStates(), damq.numStates());
}

// ------------------------------------------------------------ network

TEST(DamqReservedNetwork, ConservationHolds)
{
    FabricConfig cfg;
    cfg.bufferType = BufferType::DamqR;
    cfg.offeredLoad = 0.6;
    cfg.common.seed = 5;
    FabricSimulator sim(cfg);
    for (int i = 0; i < 600; ++i)
        sim.step();
    sim.debugValidate();
    const NetworkCounters &c = sim.lifetime();
    EXPECT_EQ(c.generated, c.delivered + c.discarded() +
                               sim.packetsInFlight() +
                               sim.packetsAtSources());
}

TEST(DamqReservedNetwork, UniformSaturationNearPlainDamq)
{
    FabricConfig cfg;
    cfg.slotsPerBuffer = 8; // room for reservations + sharing
    cfg.offeredLoad = 1.0;
    cfg.common.warmupCycles = 500;
    cfg.common.measureCycles = 2500;
    cfg.common.seed = 6;

    cfg.bufferType = BufferType::Damq;
    const double damq =
        FabricSimulator(cfg).run().deliveredThroughput;
    cfg.bufferType = BufferType::DamqR;
    const double damqr =
        FabricSimulator(cfg).run().deliveredThroughput;
    EXPECT_NEAR(damqr, damq, 0.08);
    EXPECT_GT(damqr, 0.6);
}

} // namespace
} // namespace damq
