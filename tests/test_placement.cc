/**
 * @file
 * Tests for the alternative buffer placements of Section 2: the
 * centralized pool (with Fujimoto's hogging) and output queueing
 * (Karol et al.), plus their integration into the network
 * simulator and the output-queued Markov model.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "markov/output_queued2x2.hh"
#include "markov/switch2x2.hh"
#include "network/fabric_sim.hh"
#include "network/saturation.hh"
#include "switchsim/central_buffer_switch.hh"
#include "switchsim/output_queued_switch.hh"
#include "switchsim/switch_unit.hh"

namespace damq {
namespace {

Packet
makePacket(PacketId id, PortId out, std::uint32_t len = 1)
{
    Packet p;
    p.id = id;
    p.outPort = out;
    p.lengthSlots = len;
    return p;
}

CanSendFn
always()
{
    return [](PortId, QueueKey, const Packet &) { return true; };
}

TEST(Placement, NamesRoundTrip)
{
    EXPECT_EQ(tryBufferPlacementFromString("input"),
              BufferPlacement::Input);
    EXPECT_EQ(tryBufferPlacementFromString("CENTRAL"),
              BufferPlacement::Central);
    EXPECT_EQ(tryBufferPlacementFromString("Output"),
              BufferPlacement::Output);
    EXPECT_STREQ(bufferPlacementName(BufferPlacement::Central),
                 "central");
}

TEST(Placement, FactoryEqualStorage)
{
    auto input = makeSwitchUnit(BufferPlacement::Input, 4,
                                BufferType::Damq, 4,
                                ArbitrationPolicy::Smart);
    auto central = makeSwitchUnit(BufferPlacement::Central, 4,
                                  BufferType::Damq, 4,
                                  ArbitrationPolicy::Smart);
    auto output = makeSwitchUnit(BufferPlacement::Output, 4,
                                 BufferType::Damq, 4,
                                 ArbitrationPolicy::Smart);
    // All three organizations get 16 slots total.
    auto *central_cast =
        dynamic_cast<CentralBufferSwitch *>(central.get());
    ASSERT_NE(central_cast, nullptr);
    EXPECT_EQ(central_cast->capacitySlots(), 16u);
    auto *output_cast =
        dynamic_cast<OutputQueuedSwitch *>(output.get());
    ASSERT_NE(output_cast, nullptr);
    EXPECT_EQ(output_cast->perOutputCapacity(), 4u);
    EXPECT_EQ(input->numPorts(), 4u);
}

// -------------------------------------------------------- central pool

TEST(CentralBufferSwitch, SharedPoolAdmission)
{
    CentralBufferSwitch sw(4, 8);
    // One input can consume the whole pool...
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(sw.tryReceive(0, makePacket(i, 1)));
    EXPECT_EQ(sw.totalUsedSlots(), 8u);
    // ...and then every other input is locked out: hogging.
    EXPECT_FALSE(sw.canAccept(1, 2, 1));
    EXPECT_FALSE(sw.tryReceive(1, makePacket(99, 2)));
    EXPECT_EQ(sw.unitStats().discarded, 1u);
    EXPECT_EQ(sw.usedSlotsByInput(0), 8u);
    sw.debugValidate();
}

TEST(CentralBufferSwitch, AllOutputsTransmitSimultaneously)
{
    CentralBufferSwitch sw(4, 8);
    for (PortId out = 0; out < 4; ++out)
        sw.tryReceive(out, makePacket(out, out));
    const auto sent = sw.transmit(always());
    EXPECT_EQ(sent.size(), 4u);
    EXPECT_EQ(sw.totalPackets(), 0u);
    sw.debugValidate();
}

TEST(CentralBufferSwitch, PerOutputFifoOrder)
{
    CentralBufferSwitch sw(2, 4);
    sw.tryReceive(0, makePacket(1, 1));
    sw.tryReceive(1, makePacket(2, 1));
    auto sent = sw.transmit(always());
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].id, 1u);
    sent = sw.transmit(always());
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].id, 2u);
}

TEST(CentralBufferSwitch, BackPressureHoldsPacket)
{
    CentralBufferSwitch sw(2, 4);
    sw.tryReceive(0, makePacket(1, 0));
    auto blocked = [](PortId, QueueKey, const Packet &) {
        return false;
    };
    EXPECT_TRUE(sw.transmit(blocked).empty());
    EXPECT_EQ(sw.totalPackets(), 1u);
}

TEST(CentralBufferSwitch, ResetClears)
{
    CentralBufferSwitch sw(2, 4);
    sw.tryReceive(0, makePacket(1, 0));
    sw.reset();
    EXPECT_EQ(sw.totalPackets(), 0u);
    EXPECT_EQ(sw.unitStats().received, 0u);
    sw.debugValidate();
}

// ------------------------------------------------------ output queueing

TEST(OutputQueuedSwitch, NoHeadOfLineBlocking)
{
    OutputQueuedSwitch sw(4, 4);
    // Arrivals from one input to four different outputs all flow
    // out in a single cycle.
    for (PortId out = 0; out < 4; ++out)
        sw.tryReceive(0, makePacket(out, out));
    EXPECT_EQ(sw.transmit(always()).size(), 4u);
}

TEST(OutputQueuedSwitch, AllInputsCanWriteSameOutput)
{
    OutputQueuedSwitch sw(4, 4);
    // The idealized multi-write-port memory: four simultaneous
    // arrivals for the same output all stored.
    for (PortId input = 0; input < 4; ++input)
        EXPECT_TRUE(sw.tryReceive(input, makePacket(input, 2)));
    EXPECT_EQ(sw.usedSlotsAtOutput(2), 4u);
    // But the partition is now full — static allocation.
    EXPECT_FALSE(sw.canAccept(0, 2, 1));
    EXPECT_TRUE(sw.canAccept(0, 1, 1));
    sw.debugValidate();
}

TEST(OutputQueuedSwitch, FifoOrderPerOutput)
{
    OutputQueuedSwitch sw(2, 4);
    sw.tryReceive(0, makePacket(1, 1));
    sw.tryReceive(1, makePacket(2, 1));
    auto sent = sw.transmit(always());
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].id, 1u);
}

TEST(OutputQueuedSwitch, DiscardCountsAgainstFullQueue)
{
    OutputQueuedSwitch sw(2, 1);
    EXPECT_TRUE(sw.tryReceive(0, makePacket(1, 0)));
    EXPECT_FALSE(sw.tryReceive(1, makePacket(2, 0)));
    EXPECT_EQ(sw.unitStats().discarded, 1u);
}

// ----------------------------------------------------------- in network

class PlacementNetworkTest
    : public ::testing::TestWithParam<BufferPlacement>
{
};

TEST_P(PlacementNetworkTest, ConservationHolds)
{
    FabricConfig cfg;
    cfg.placement = GetParam();
    cfg.offeredLoad = 0.6;
    cfg.common.seed = 41;
    FabricSimulator sim(cfg);
    for (int i = 0; i < 600; ++i)
        sim.step();
    sim.debugValidate();
    const NetworkCounters &c = sim.lifetime();
    EXPECT_EQ(c.generated, c.delivered + c.discarded() +
                               sim.packetsInFlight() +
                               sim.packetsAtSources());
    EXPECT_EQ(c.misrouted, 0u);
}

TEST_P(PlacementNetworkTest, DiscardingConservationHolds)
{
    FabricConfig cfg;
    cfg.placement = GetParam();
    cfg.protocol = FlowControl::Discarding;
    cfg.offeredLoad = 0.8;
    cfg.common.seed = 42;
    FabricSimulator sim(cfg);
    for (int i = 0; i < 600; ++i)
        sim.step();
    const NetworkCounters &c = sim.lifetime();
    EXPECT_EQ(c.generated, c.delivered + c.discarded() +
                               sim.packetsInFlight() +
                               sim.packetsAtSources());
}

INSTANTIATE_TEST_SUITE_P(
    AllPlacements, PlacementNetworkTest,
    ::testing::Values(BufferPlacement::Input,
                      BufferPlacement::Central,
                      BufferPlacement::Output),
    [](const ::testing::TestParamInfo<BufferPlacement> &info) {
        return bufferPlacementName(info.param);
    });

TEST(PlacementNetwork, SaturationOrderingAcrossPlacements)
{
    FabricConfig cfg;
    cfg.common.warmupCycles = 400;
    cfg.common.measureCycles = 2500;
    cfg.common.seed = 10;

    cfg.placement = BufferPlacement::Input;
    cfg.bufferType = BufferType::Fifo;
    const double fifo = measureSaturation(cfg).saturationThroughput;
    cfg.bufferType = BufferType::Damq;
    const double damq = measureSaturation(cfg).saturationThroughput;
    cfg.placement = BufferPlacement::Output;
    const double outq = measureSaturation(cfg).saturationThroughput;
    cfg.placement = BufferPlacement::Central;
    const double central =
        measureSaturation(cfg).saturationThroughput;

    // Every alternative placement removes FIFO's head-of-line
    // blocking, so all beat input-FIFO; the central pool (ideal
    // bandwidth + pooled space) is the upper bound and beats even
    // DAMQ.  Output queueing sits between FIFO and DAMQ here: its
    // static per-output partitions hurt under the blocking
    // protocol, which is space-driven (see the Markov layer for
    // the same effect on discards).
    EXPECT_GT(outq, fifo);
    EXPECT_GT(damq, fifo * 1.2);
    EXPECT_GE(central, damq - 0.03);
}

// --------------------------------------------------- output-queued Markov

TEST(OutputQueuedMarkov, ZeroTrafficNoDiscards)
{
    const auto r = analyzeOutputQueued2x2(4, 0.0);
    EXPECT_DOUBLE_EQ(r.discardProbability, 0.0);
}

TEST(OutputQueuedMarkov, MonotoneInTrafficAndSlots)
{
    double prev = -1.0;
    for (const double p : {0.25, 0.5, 0.75, 0.9, 0.99}) {
        const double d =
            analyzeOutputQueued2x2(2, p).discardProbability;
        EXPECT_GE(d, prev);
        prev = d;
    }
    prev = 1.0;
    for (const unsigned k : {1u, 2u, 3u, 4u, 6u}) {
        const double d =
            analyzeOutputQueued2x2(k, 0.9).discardProbability;
        EXPECT_LE(d, prev + 1e-12);
        prev = d;
    }
}

TEST(OutputQueuedMarkov, BeatsStaticInputOrganizationsAtEqualStorage)
{
    // Equal total storage: 4 slots per output queue (8 total) vs
    // 4 slots per input buffer (8 total).  Ideal-write-bandwidth
    // output queueing discards less than FIFO and the statically
    // partitioned input organizations...
    for (const double p : {0.75, 0.9, 0.99}) {
        const double outq =
            analyzeOutputQueued2x2(4, p).discardProbability;
        for (const BufferType type :
             {BufferType::Fifo, BufferType::Samq, BufferType::Safc}) {
            const double inq =
                analyzeDiscarding2x2(type, 4, p).discardProbability;
            EXPECT_LE(outq, inq + 1e-9)
                << bufferTypeName(type) << " p=" << p;
        }
    }
}

TEST(OutputQueuedMarkov, DamqBeatsEvenIdealOutputQueueingOnDiscards)
{
    // ...but DAMQ discards less than even ideal output queueing at
    // equal storage: output queues are statically partitioned per
    // output, while the DAMQ pools its slots — under discarding,
    // space flexibility beats write bandwidth.  (Karol et al.'s
    // output-queueing advantage is about *delay*, not loss.)
    for (const double p : {0.75, 0.9, 0.99}) {
        const double outq =
            analyzeOutputQueued2x2(4, p).discardProbability;
        const double damq =
            analyzeDiscarding2x2(BufferType::Damq, 4, p)
                .discardProbability;
        EXPECT_LE(damq, outq + 1e-9) << "p=" << p;
    }
}

TEST(OutputQueuedMarkov, MatchesHandComputedTinyCase)
{
    // cap = 1, p = 1: every cycle both inputs bring one packet.
    // The chain lives on states (q0,q1).  From any state each
    // non-empty queue drains one, then two arrivals land.  Both to
    // the same empty queue -> 1 discard; spread across -> 0.
    // P(same output) = 1/2, and a queue that received last cycle
    // drains first, so the state renews every cycle: expected
    // discards/cycle = from (q0,q1) after drain always (0,0)-ish.
    // Simple renewal: E[discards] = P(both to same queue) * 1 = 0.5
    // -> discard probability = 0.5 / 2 = 0.25.
    const auto r = analyzeOutputQueued2x2(1, 1.0);
    EXPECT_NEAR(r.discardProbability, 0.25, 1e-9);
    EXPECT_NEAR(r.throughput, 1.5, 1e-9);
}

} // namespace
} // namespace damq
